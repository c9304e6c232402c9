"""Descriptions of the base field's supply of roots of unity.

Only one property of the field matters here: for which d it contains a
primitive d-th root of unity.  Three descriptions are supported: the
cyclotomic closure (all roots), a finite field GF(q) (roots of order
dividing q - 1), and an explicit list of available orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import ScaleExceeded


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# below this bound Miller-Rabin to the bases above is exact
# (Sorenson and Webster, 2015)
_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_DIVISOR_LIMIT = 10**14  # largest m divisors(m) lists: under 1 s of trial division


def divisors(m: int) -> list[int]:
    """Every divisor of m >= 1, ascending, from the prime factors of m."""
    if m > _DIVISOR_LIMIT:
        raise ScaleExceeded(f"{m} exceeds the divisor limit {_DIVISOR_LIMIT}")
    return list(_divisors(m))


@lru_cache(maxsize=64)  # check and the construct after it divide G once
def _divisors(m: int) -> tuple[int, ...]:
    divs, p = {1}, 2
    while p * p <= m:  # after it, the cofactor m is 1 or a prime
        while m % p == 0:
            m //= p
            divs |= {d * p for d in divs}
        p += 1 + (p > 2)
    return tuple(sorted(divs | {d * m for d in divs}))


def is_prime(n: int) -> bool:
    """Whether n is prime; ScaleExceeded at or above 3.317 * 10^24.

    Trial division by the bases settles every n below 43^2; larger n
    go through Miller-Rabin to every base.
    """
    if n < 2:
        return False
    if n >= _EXACT_BELOW:
        raise ScaleExceeded(
            f"{n} is at or above {_EXACT_BELOW}, where the primality "
            f"test is no longer exact"
        )
    for b in _BASES:
        if n % b == 0:
            return n == b
        if b * b > n:
            return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Which primitive roots of unity the base field contains.

    kind 'cyclotomic' has every root; 'gf' has the roots of order
    dividing q - 1; 'roots' has the listed orders and their divisors.
    """

    kind: str = "cyclotomic"
    q: int = 0
    orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("cyclotomic", "gf", "roots"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "gf":
            if not is_prime(self.q):
                # prime powers would need a power argument; primes suffice here
                raise ValueError(f"gf order {self.q} is not prime")
        if self.kind == "roots":
            if not self.orders or any(d < 1 for d in self.orders):
                raise ValueError("roots field needs positive orders")

    def has_primitive_root(self, d: int) -> bool:
        """True if the field contains a primitive d-th root of unity."""
        if d < 1:
            return False
        return self.kind == "cyclotomic" or any(m % d == 0 for m in self._moduli())

    def root_orders(self) -> Optional[list[int]]:
        """Every d with a primitive d-th root here, ascending; None if all."""
        if self.kind == "cyclotomic":
            return None
        return sorted(set().union(*map(divisors, self._moduli())))

    def largest_root_order(self) -> Optional[int]:
        """The largest d with a primitive d-th root here; None if unbounded."""
        return None if self.kind == "cyclotomic" else max(self._moduli())

    def satisfies_baseline(self) -> bool:
        """True if some prime p > 3 has a primitive p-th root here."""
        # a prime above 3 divides m exactly when m does not divide 6^k for
        # k = m.bit_length(), which is at least the exponents of 2 and 3
        return self.kind == "cyclotomic" or any(
            pow(6, m.bit_length(), m) for m in self._moduli()
        )

    def _moduli(self) -> tuple[int, ...]:
        # the roots here are those of order dividing one of these
        return (self.q - 1,) if self.kind == "gf" else self.orders


CYCLOTOMIC = FieldSpec("cyclotomic")
