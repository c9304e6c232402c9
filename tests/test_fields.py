"""Primality: Miller-Rabin to fixed bases against trial division."""

import pytest

from linkdyn import is_prime
from linkdyn.errors import ScaleExceeded


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
