"""Co-monofracts, point-indicator polyfracts, prime-power interpolation."""
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from polyfract import (
    FiniteFn,
    MultiPolyfract,
    Residue,
    UniPolyfract,
    cofract,
    degree_bound,
    extend_information_coeffs,
    interpolate_prime_power,
    lagrange_polyfract,
)
from polyfract.errors import BadCodomain, LengthMismatch, MixedPrimes, NotPrime

from helpers import all_tables, binom_any


class TestCofract:
    def test_indicator_values(self):
        assert cofract(0, 3, 9, 0) == Residue(1, 9)
        assert cofract(0, 3, 9, 1) == Residue(0, 9)
        assert cofract(0, 3, 9, 2) == Residue(0, 9)

    def test_two_summand_instances(self):
        # oracle: the alternating sums written out
        assert -binom_any(4, 1) + binom_any(4, 4) == -3
        assert cofract(4, 3, 0, 1) == Residue(-3, 0)
        assert binom_any(2, 0) + binom_any(2, 2) == 2
        assert cofract(2, 2, 0, 0) == Residue(2, 0)
        assert cofract(2, 2, 0, 0).value % 2 == 0

    def test_representative_wraps(self):
        assert cofract(4, 3, 0, -2) == cofract(4, 3, 0, 1)

    def test_q_one(self):
        # every integer is congruent mod 1, so the sum runs over 0..d
        assert cofract(3, 1, 0, 0).value == 1 - 3 + 3 - 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cofract(2, 0, 5, 0)
        with pytest.raises(ValueError):
            cofract(-1, 2, 5, 0)


class TestLagrangePolyfract:
    def test_mod_nine_indicator(self):
        lag = lagrange_polyfract(3, 1, 2, 0)
        assert lag == UniPolyfract(9, (1, -1, 1, 0, -3))
        assert lag.degree == 4

    def test_mod_two_indicators(self):
        assert lagrange_polyfract(2, 1, 1, 0) == UniPolyfract(2, (1, -1))
        assert lagrange_polyfract(2, 1, 1, 1) == UniPolyfract.monofract(1, 2)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            lagrange_polyfract(4, 1, 1, 0)

    @pytest.mark.parametrize("args,message", [
        ((2, 1.5, 1, 0), "alpha 1.5 is not an integer"),
        ((2, 1, 1.5, 0), "beta 1.5 is not an integer"),
        ((2.0, 1, 1, 0), "p 2.0 is not an integer"),
        ((4.0, 1.5, 1, 0), "p 4.0 is not an integer"),
        ((2, 1, 1, 0.5), "x0 0.5 is not an integer"),
        ((2, 0, 1, 0), "alpha and beta must be >= 1"),
    ])
    def test_bad_arguments_named(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lagrange_polyfract(*args)

    @pytest.mark.parametrize("p,alpha,beta", [
        (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 1, 2), (5, 1, 2),
    ])
    def test_indicator_property_and_periodicity(self, p, alpha, beta):
        q = p**alpha
        for x0 in range(q):
            lag = lagrange_polyfract(p, alpha, beta, x0)
            got = lag.values(0, 2 * q)
            assert got == [1 if x % q == x0 else 0 for x in range(2 * q)]

    @pytest.mark.parametrize("p,alpha,beta", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 1, 3)])
    def test_leading_coefficient(self, p, alpha, beta):
        q = p**alpha
        d = q - 1 + (beta - 1) * (p - 1) * p ** (alpha - 1)
        for x0 in range(q):
            lead = cofract(d, q, 0, d - x0).value
            assert lead % p**beta != 0
            assert lead % p ** (beta - 1) == 0

    @pytest.mark.parametrize("p,alpha", [(2, 1), (2, 2), (3, 1)])
    def test_projection_between_coefficient_moduli(self, p, alpha):
        for beta in (1, 2):
            for beta_big in range(beta + 1, 4):
                big = lagrange_polyfract(p, alpha, beta_big, 1)
                small = lagrange_polyfract(p, alpha, beta, 1)
                projected = UniPolyfract(p**beta, big.coeffs)
                assert projected == small

    @pytest.mark.parametrize("p,alpha,beta", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 2)])
    def test_vanishing_tail(self, p, alpha, beta):
        q = p**alpha
        threshold = (beta * (p - 1) + 1) * p ** (alpha - 1)
        for delta in range(threshold, 2 * threshold + 1):
            for x in range(q):
                assert cofract(delta, q, 0, x).value % p**beta == 0


class TestInterpolation:
    def test_two_point_tables(self):
        for b in range(4):
            for g1 in range(4):
                a = b - g1
                f = FiniteFn.univariate(2, 4, [b, g1])
                got = interpolate_prime_power(f)
                assert got.component_uni(0) == UniPolyfract(4, (b, -a, 2 * a))

    def test_constant(self):
        f = FiniteFn.from_callable((3, 3), (9,), lambda x: (5,))
        got = interpolate_prime_power(f)
        assert got == MultiPolyfract.constant((5,), (9,), 2)

    def test_two_variable_indicator(self):
        f = FiniteFn.from_callable((2, 2), (2,), lambda x: (1 if x == (0, 0) else 0,))
        got = interpolate_prime_power(f)
        # (1 - C(X1,1)) (1 - C(X2,1)), coefficients mod 2
        want = MultiPolyfract(
            (2,), 2,
            (((0, 0), (1,)), ((1, 0), (1,)), ((0, 1), (1,)), ((1, 1), (1,))),
        )
        assert got == want
        for x in product(range(2), repeat=2):
            assert got.evaluate(x)[0].value == (1 if x == (0, 0) else 0)

    @pytest.mark.parametrize("p,alpha,beta", [(2, 1, 2), (2, 2, 1), (3, 1, 1)])
    def test_exhaustive_correctness_and_uniqueness(self, p, alpha, beta):
        q, r = p**alpha, p**beta
        seen = {}
        for table in all_tables(q, r):
            f = FiniteFn.univariate(q, r, table)
            poly = interpolate_prime_power(f)
            assert tuple(poly.evaluate((x,))[0].value for x in range(q)) == table
            assert poly not in seen, "two maps share a polyfract"
            seen[poly] = table

    def test_trivial_domain_factor_unused(self):
        f = FiniteFn.from_callable((2, 1), (4,), lambda x: (3 * x[0],))
        poly = interpolate_prime_power(f)
        _, partials = poly.degrees()
        assert partials[1] in (None, 0)
        for x in product(range(2), range(1)):
            assert poly.evaluate(x)[0].value == 3 * x[0] % 4

    def test_trivial_codomain(self):
        f = FiniteFn.univariate(4, 1, [0, 0, 0, 0])
        assert interpolate_prime_power(f).is_zero()

    def test_mixed_primes_rejected(self):
        f = FiniteFn.from_callable((2, 3), (4,), lambda x: (0,))
        with pytest.raises(MixedPrimes):
            interpolate_prime_power(f)
        f = FiniteFn.univariate(6, 4, [0] * 6)
        with pytest.raises(MixedPrimes):
            interpolate_prime_power(f)

    def test_wrong_prime_codomain_rejected(self):
        f = FiniteFn.univariate(3, 4, [0, 1, 2])
        with pytest.raises(BadCodomain):
            interpolate_prime_power(f)
        with pytest.raises(BadCodomain):
            interpolate_prime_power(FiniteFn.univariate(2, 0, [0, 1]))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_two_variable_tables(self, data):
        p, beta = data.draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
        alphas = (1, data.draw(st.integers(1, 2)))
        domain = tuple(p**a for a in alphas)
        r = p**beta
        f = FiniteFn.from_callable(
            domain, (r,), lambda x: (data.draw(st.integers(0, r - 1)),)
        )
        poly = interpolate_prime_power(f)
        for x in product(*(range(q) for q in domain)):
            assert poly.evaluate(x) == f.residues(x)


class TestDegreeBound:
    def test_values(self):
        assert degree_bound(3, 2, [1]) == 4
        assert degree_bound(2, 2, [1, 1]) == 3
        for p, alpha in [(2, 1), (2, 3), (3, 2), (5, 1)]:
            assert degree_bound(p, 1, [alpha]) == p**alpha - 1

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            degree_bound(6, 1, [1])

    def test_non_integer_prime_rejected(self):
        # is_prime(2.0) holds, so the float would reach the arithmetic
        with pytest.raises(ValueError, match=r"^p 2\.0 is not an integer$"):
            degree_bound(2.0, 2, [1])

    def test_non_integer_exponents_rejected(self):
        for beta, alphas, message in ((1.5, [1], r"beta 1\.5 is not an integer"),
                                      (2, [1, 2.0], r"alpha 2\.0 is not an integer"),
                                      (2.0, [], r"beta 2\.0 is not an integer")):
            with pytest.raises(ValueError, match=rf"^{message}$"):
                degree_bound(2, beta, alphas)

    def test_empty_variable_list(self):
        assert degree_bound(2, 2, []) == 0

    def test_two_variable_attainment(self):
        # every interpolated map respects the bound, some attains it
        bound = degree_bound(2, 2, [1, 1])
        best = -1
        for table in all_tables(4, 4):
            f = FiniteFn((2, 2), (4,), tuple((v,) for v in table))
            total, _ = interpolate_prime_power(f).degrees()
            if total is not None:
                assert total <= bound
                best = max(best, total)
        assert best == bound


class TestInformationCoefficients:
    def test_two_point_family(self):
        for b in range(4):
            for a in range(4):
                got = extend_information_coeffs([b, -a], 2, 1, 2)
                assert got == UniPolyfract(4, (b, -a, 2 * a))

    def test_zero(self):
        assert extend_information_coeffs([0, 0, 0], 3, 1, 2) == UniPolyfract.zero(9)

    def test_mod_nine_indicator(self):
        got = extend_information_coeffs([1, -1, 1], 3, 1, 2)
        assert got == UniPolyfract(9, (1, -1, 1, 0, -3))

    def test_length_checked(self):
        with pytest.raises(LengthMismatch):
            extend_information_coeffs([1, 2, 3], 2, 1, 2)

    @pytest.mark.parametrize("p,alpha,beta,message", [
        (2, 1.0, 1, "alpha 1.0 is not an integer"),
        (2, 1, 1.0, "beta 1.0 is not an integer"),
        (2.0, 1, 1, "p 2.0 is not an integer"),
        (2, 1, 0, "alpha and beta must be >= 1"),
    ])
    def test_bad_arguments_named(self, p, alpha, beta, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            extend_information_coeffs([0, 1], p, alpha, beta)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            extend_information_coeffs([0] * 4, 4, 1, 1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_preserved_and_periodic(self, data):
        p, alpha, beta = data.draw(st.sampled_from(
            [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)]
        ))
        q, r = p**alpha, p**beta
        info = [data.draw(st.integers(0, r - 1)) for _ in range(q)]
        got = extend_information_coeffs(info, p, alpha, beta)
        assert [got.coefficient(i) for i in range(q)] == info
        extras = len(got.coeffs) - q
        assert extras <= (beta - 1) * (p - 1) * p ** (alpha - 1)
        vals = got.values(0, 2 * q)
        assert vals[q:] == vals[:q]
