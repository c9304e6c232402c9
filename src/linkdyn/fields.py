"""Descriptions of the base field's supply of roots of unity.

Only one property of the field matters here: for which d it contains a
primitive d-th root of unity.  Three descriptions are supported: the
cyclotomic closure (all roots), a finite field GF(q) (roots of order
dividing q - 1), and an explicit list of available orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
        if self.kind == "cyclotomic":
            return True
        if self.kind == "gf":
            return (self.q - 1) % d == 0
        return any(m % d == 0 for m in self.orders)

    def root_orders(self) -> Optional[list[int]]:
        """Every d with a primitive d-th root here, ascending; None if all."""
        if self.kind == "cyclotomic":
            return None
        found: set[int] = set()
        for m in (self.q - 1,) if self.kind == "gf" else self.orders:
            d = 1
            while d * d <= m:
                if m % d == 0:
                    found.update((d, m // d))
                d += 1
        return sorted(found)

    def satisfies_baseline(self) -> bool:
        """True if some prime p > 3 has a primitive p-th root here."""
        orders = self.root_orders()
        return orders is None or any(p > 3 and is_prime(p) for p in orders)


CYCLOTOMIC = FieldSpec("cyclotomic")
