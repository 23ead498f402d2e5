"""Integer, binomial, and residue-ring primitives."""
import math

import pytest
from hypothesis import given, strategies as st

from polyfract import (
    Residue,
    balanced_lift,
    binom,
    is_prime,
    mod_project,
    padic_valuation,
    prime_factors,
    prime_part,
)
from polyfract.errors import ModulusMismatch, NotADivisor, NotPrime, ZeroInput
from polyfract.exactnum import factorization
from polyfract.lagrange import cofract, lagrange_polyfract


class TestBinom:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(4, 2, 6), (-1, 3, -1), (0, 0, 1), (7, 0, 1), (3, 5, 0), (-2, 2, 3)],
    )
    def test_values(self, n, k, expected):
        assert binom(n, k) == expected

    def test_matches_stdlib_on_naturals(self):
        for n in range(13):
            for k in range(13):
                assert binom(n, k) == math.comb(n, k)

    def test_divisible_instance(self):
        assert binom(9, 3) == math.comb(9, 3) == 84
        assert 84 % 3 == 0

    @given(st.integers(-60, 60), st.integers(0, 12))
    def test_pascals_rule(self, n, k):
        assert binom(n, k) + binom(n, k + 1) == binom(n + 1, k + 1)

    @given(st.integers(0, 40))
    def test_vanishes_below_index(self, delta):
        for x in range(delta):
            assert binom(x, delta) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binom(3, -1)


class TestResidue:
    def test_addition(self):
        assert Residue(7, 12) + Residue(8, 12) == Residue(3, 12)

    def test_trivial_group_collapses(self):
        assert Residue(5, 1) == Residue(0, 1)
        assert Residue(3, 1) * Residue(4, 1) == Residue(0, 1)

    def test_modulus_zero_is_plain_integers(self):
        assert (Residue(5, 0) * Residue(-3, 0)).value == -15
        assert (Residue(5, 0) - Residue(9, 0)).value == -4

    def test_canonicalization(self):
        assert Residue(-1, 9).value == 8
        assert Residue(25, 12).value == 1

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            Residue(1, 4) + Residue(1, 5)

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_modulus_zero_tracks_int_arithmetic(self, a, b):
        assert (Residue(a, 0) + Residue(b, 0)).value == a + b
        assert (Residue(a, 0) * Residue(b, 0)).value == a * b
        assert (-Residue(a, 0)).value == -a

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValueError):
            Residue(1, -3)

    def test_non_integral_modulus_rejected(self):
        with pytest.raises(ValueError, match="modulus 7.5 is not an integer"):
            Residue(3, 7.5)

    def test_non_integral_value_rejected(self):
        with pytest.raises(ValueError, match="value 2.5 is not an integer"):
            Residue(2.5, 7)


class TestModProject:
    def test_basic(self):
        assert mod_project(Residue(7, 12), 3) == Residue(1, 3)

    def test_to_trivial_group(self):
        assert mod_project(Residue(7, 12), 1) == Residue(0, 1)

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            mod_project(Residue(7, 12), 5)
        with pytest.raises(NotADivisor):
            mod_project(Residue(7, 12), 0)

    def test_out_of_integers(self):
        assert mod_project(Residue(-5, 0), 3) == Residue(1, 3)
        assert mod_project(Residue(-5, 0), 0) == Residue(-5, 0)

    @given(st.integers(0, 143), st.integers(0, 143))
    def test_ring_homomorphism(self, a, b):
        x, y = Residue(a, 144), Residue(b, 144)
        for r in (2, 3, 4, 6, 12, 144):
            assert mod_project(x + y, r) == mod_project(x, r) + mod_project(y, r)
            assert mod_project(x * y, r) == mod_project(x, r) * mod_project(y, r)

    def test_indicator_values_project_between_coefficient_moduli(self):
        # the (0|x) values over Z_3 agree after projecting 27 -> 9
        for x in range(3):
            big = cofract(0, 3, 27, x)
            small = cofract(0, 3, 9, x)
            assert mod_project(big, 9) == small


class TestPadicValuation:
    def test_values(self):
        n = 84
        e = 0
        while n % 3 == 0:
            n //= 3
            e += 1
        assert e == 1
        assert padic_valuation(84, 3) == 1
        assert padic_valuation(9, 3) == 2
        assert padic_valuation(7, 3) == 0
        assert padic_valuation(-24, 2) == 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            padic_valuation(0, 3)

    def test_composite_rejected(self):
        with pytest.raises(NotPrime):
            padic_valuation(8, 4)


class TestHelpers:
    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_is_prime_stops_at_the_first_factor(self):
        # trial division of 2 * (2**61 - 1) to its square root would pass
        # 1.5e9 divisors; the factor 2 settles it
        assert is_prime(2 * (2**61 - 1)) is False
        with pytest.raises(NotPrime, match=rf"^{2 * (2**61 - 1)} is not prime$"):
            lagrange_polyfract(2 * (2**61 - 1), 1, 1, 0)

    def test_prime_factors(self):
        assert prime_factors(600) == {2: 3, 3: 1, 5: 2}
        assert prime_factors(1) == {}

    def test_prime_factors_rejects_non_integers(self):
        with pytest.raises(ValueError, match="not an integer"):
            prime_factors(2.5)

    def test_factorization_pairs(self):
        assert factorization(600) == ((2, 3), (3, 1), (5, 2))
        assert factorization(97) == ((97, 1),)
        assert factorization(1) == ()

    def test_cached_factorization_is_not_shared(self):
        first = prime_factors(360)
        first[2] = 99
        first[7] = 1
        assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
        assert prime_factors(360) is not prime_factors(360)

    @pytest.mark.parametrize("bad", [12.0, 2.0, 2.5])
    def test_cached_int_does_not_admit_a_float(self, bad):
        factorization(12)
        factorization(2)
        with pytest.raises(ValueError, match="not an integer"):
            factorization(bad)
        with pytest.raises(ValueError, match="not an integer"):
            prime_factors(bad)

    @pytest.mark.parametrize("bad", [0, -4])
    def test_factorization_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="n must be >= 1"):
            prime_factors(bad)

    @given(st.integers(1, 5000))
    def test_factorization_multiplies_back(self, n):
        pairs = factorization(n)
        assert math.prod(p**e for p, e in pairs) == n
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
        assert all(is_prime(p) and e >= 1 for p, e in pairs)

    def test_prime_part(self):
        assert prime_part(600, 2) == 8
        assert prime_part(600, 7) == 1

    def test_is_prime_matches_trial_division(self):
        def reference(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in [*range(10_001), 2**31 - 1, 2**31 + 1]:
            assert is_prime(n) == reference(n), n

    def test_valuation_and_prime_part_match_reference(self):
        def reference(n, p):
            e = 0
            while n % p**(e + 1) == 0:
                e += 1
            return e

        for n in range(-300, 301):
            for p in (2, 3, 5, 7):
                if n:
                    assert padic_valuation(n, p) == reference(n, p), (n, p)
            if n >= 1:
                for p in (2, 3, 4, 6, 9, 10):
                    assert prime_part(n, p) == p**reference(n, p), (n, p)
        assert prime_part(12, 4) == 4

    @pytest.mark.parametrize("n,p", [(0, 2), (-8, 2), (4, 1), (4, 0), (4, -2)])
    def test_prime_part_rejects_out_of_range(self, n, p):
        with pytest.raises(ValueError, match="need n >= 1 and p >= 2"):
            prime_part(n, p)

    @pytest.mark.parametrize("n,p", [(4.0, 2), (4, 2.0), (4, 2.5)])
    def test_prime_part_rejects_non_integers(self, n, p):
        with pytest.raises(ValueError, match="not an integer"):
            prime_part(n, p)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "7"])
    def test_is_prime_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            is_prime(bad)

    @given(st.integers(-50, 50), st.integers(1, 20))
    def test_balanced_lift(self, v, r):
        lifted = balanced_lift(v, r)
        assert (lifted - v) % r == 0
        assert all(abs(lifted) <= abs(v + k * r) for k in range(-3, 4))

    def test_balanced_lift_examples(self):
        assert balanced_lift(8, 9) == -1
        assert balanced_lift(6, 9) == -3
        assert balanced_lift(6, 12) == 6
        assert balanced_lift(7, 12) == -5
        assert balanced_lift(-15, 0) == -15
