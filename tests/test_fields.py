"""Primality and divisor lists against trial division, and field specs."""

import random
from itertools import combinations
from math import prod

import pytest

from linkdyn import FieldSpec, is_prime
from linkdyn import fields
from linkdyn.errors import ScaleExceeded
from linkdyn.fields import divisors


def trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestIsPrime:
    def test_matches_trial_division_below_200000(self):
        for n in range(-3, 200_000):
            assert is_prime(n) == trial_division(n), n

    @pytest.mark.parametrize(
        "n",
        [
            3_215_031_751,  # strong pseudoprime to the bases 2, 3, 5 and 7
            561,  # Carmichael numbers
            41_041,
            2**67 - 1,
        ],
    )
    def test_composites(self, n):
        assert not is_prime(n)

    def test_mersenne_prime(self):
        assert is_prime(2**61 - 1)

    def test_refuses_where_it_is_no_longer_exact(self):
        with pytest.raises(ScaleExceeded):
            is_prime(4 * 10**24)


def brute_divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


class TestDivisors:
    def test_matches_brute_force_below_3000(self):
        for m in range(1, 3000):
            assert divisors(m) == brute_divisors(m), m

    def test_matches_brute_force_at_random(self):
        rng = random.Random(15)
        for _ in range(10):
            m = rng.randrange(1, 10**6)
            assert divisors(m) == brute_divisors(m), m

    def test_factors_before_listing(self):
        # 2^46 - 1 is near the limit; trial division stops at the cofactor
        primes = (3, 47, 178481, 2796203)
        want = sorted(prod(c) for k in range(5) for c in combinations(primes, k))
        assert len(want) == 16
        assert divisors(2**46 - 1) == want

    def test_returns_a_fresh_list(self):
        got = divisors(12)
        got.append(5)
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_refuses_above_the_limit_before_dividing(self, monkeypatch):
        class Undividable(int):
            def __mod__(self, other):
                raise AssertionError("trial division ran")

        for m in (fields._DIVISOR_LIMIT + 1, 2**61 - 2):
            with pytest.raises(ScaleExceeded, match="divisor limit"):
                divisors(Undividable(m))
        # the limit itself is still listed
        monkeypatch.setattr(fields, "_DIVISOR_LIMIT", 36)
        assert divisors(36) == brute_divisors(36)
        with pytest.raises(ScaleExceeded):
            divisors(37)


def reference_baseline(field):
    """A prime above 3 among the listed root orders."""
    orders = field.root_orders()
    return orders is None or any(p > 3 and is_prime(p) for p in orders)


class TestFieldSpec:
    def test_root_orders_are_the_divisors_of_the_moduli(self):
        assert FieldSpec("cyclotomic").root_orders() is None
        assert FieldSpec("gf", q=31).root_orders() == brute_divisors(30)
        got = FieldSpec("roots", orders=(12, 7)).root_orders()
        assert got == sorted(set(brute_divisors(12) + brute_divisors(7)))

    def test_baseline_matches_the_listed_orders(self):
        for q in range(2, 3000):
            if is_prime(q):
                field = FieldSpec("gf", q=q)
                assert field.satisfies_baseline() == reference_baseline(field), q
        for a in range(1, 40):
            for b in range(1, 40):
                field = FieldSpec("roots", orders=(a, b))
                assert field.satisfies_baseline() == reference_baseline(field)

    def test_baseline_lists_no_divisors(self):
        # q - 1 above the divisor limit: one prime field with a root of
        # order 5 (2^61 - 2 = 2 * 3^2 * 5^2 * ...) and one with only
        # roots of order 2^a * 3^b
        assert FieldSpec("gf", q=2**61 - 1).satisfies_baseline()
        smooth = next(
            q
            for q in (2**a * 3**b + 1 for a in range(1, 80) for b in range(40))
            if q > 10**15 and is_prime(q)
        )
        assert not FieldSpec("gf", q=smooth).satisfies_baseline()
        for q in (2**61 - 1, smooth):
            with pytest.raises(ScaleExceeded):
                FieldSpec("gf", q=q).root_orders()
