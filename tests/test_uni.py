"""Univariate polyfracts: evaluation, ring arithmetic, basis conversion."""
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from polyfract import RationalPoly, Residue, UniPolyfract, coeffs_from_values
from polyfract.errors import ModulusMismatch, NotIntegerValued

from helpers import diff_coeffs, eval_binomial_coeffs

# the running example: indicator of 0 on Z_3 viewed mod 9
INDICATOR_COEFFS = (1, -1, 1, 0, -3)
INDICATOR_RATIONAL = (
    Fraction(1),
    Fraction(-3, 4),
    Fraction(-7, 8),
    Fraction(3, 4),
    Fraction(-1, 8),
)


def rand_polyfract(data, max_modulus=16, max_degree=8):
    r = data.draw(st.integers(2, max_modulus))
    coeffs = data.draw(st.lists(st.integers(0, r - 1), max_size=max_degree + 1))
    return UniPolyfract(r, tuple(coeffs))


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert UniPolyfract(9, (1, 0, 9, 0)).coeffs == (1,)

    def test_coefficients_reduced(self):
        assert UniPolyfract(9, INDICATOR_COEFFS).coeffs == (1, 8, 1, 0, 6)

    def test_zero(self):
        assert UniPolyfract.zero(7).coeffs == ()
        assert UniPolyfract.zero(7).degree is None

    def test_non_integral_modulus_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            UniPolyfract(6.5, (7,))

    def test_non_integral_coefficient_rejected(self):
        with pytest.raises(ValueError, match="coefficient 2.5 is not an integer"):
            UniPolyfract(7, (2.5,))

    def test_bad_monofract_index_rejected(self):
        for delta, message in ((-2, "delta must be >= 0"), (-1, "delta must be >= 0"),
                               (2.0, r"delta 2\.0 is not an integer")):
            with pytest.raises(ValueError, match=rf"^{message}$"):
                UniPolyfract.monofract(delta, 5)
        assert UniPolyfract.monofract(0, 5).coeffs == (1,)


class TestEvaluation:
    def test_indicator_values(self):
        p = UniPolyfract(9, INDICATOR_COEFFS)
        assert p.evaluate(0) == Residue(1, 9)
        assert p.evaluate(1) == Residue(0, 9)
        assert p.evaluate(-1) == Residue(0, 9)
        assert p.values(0, 9) == [1, 0, 0, 1, 0, 0, 1, 0, 0]

    @given(st.data())
    def test_matches_product_formula_oracle(self, data):
        p = rand_polyfract(data)
        x = data.draw(st.integers(-20, 20))
        expected = eval_binomial_coeffs(p.coeffs, x) % p.modulus
        assert p.evaluate(x).value == expected


class TestAddition:
    def test_identity_and_inverse(self):
        p = UniPolyfract(9, INDICATOR_COEFFS)
        zero = UniPolyfract.zero(9)
        assert p + zero == p
        assert p + (-p) == zero

    def test_coefficientwise(self):
        assert UniPolyfract(9, (1, -1)) + UniPolyfract(9, (0, 1)) == \
            UniPolyfract(9, (1,))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            UniPolyfract(4, (1,)) + UniPolyfract(5, (1,))


class TestMultiplication:
    def test_square_of_degree_one_monofract(self):
        # oracle: coefficients of x |-> x^2 by difference sums
        assert diff_coeffs([x * x for x in range(5)]) == [0, 1, 2, 0, 0]
        x_poly = UniPolyfract.monofract(1, 0)
        assert (x_poly * x_poly).coeffs == (0, 1, 2)

    def test_square_reduced_mod_two(self):
        x_poly = UniPolyfract.monofract(1, 2)
        assert (x_poly * x_poly) == UniPolyfract.monofract(1, 2)

    def test_one_is_neutral(self):
        p = UniPolyfract(9, INDICATOR_COEFFS)
        assert p * UniPolyfract.constant(1, 9) == p

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pointwise_product(self, data):
        p = rand_polyfract(data, max_degree=5)
        q = UniPolyfract(p.modulus,
                         tuple(data.draw(st.lists(st.integers(0, p.modulus - 1),
                                                  max_size=6))))
        prod_pq = p * q
        for x in range(-3, 12):
            assert prod_pq.evaluate(x) == p.evaluate(x) * q.evaluate(x)

    def test_lift_choice_immaterial(self):
        # replacing stored representatives by other lifts of the same
        # residues must give the same product mod r
        p = UniPolyfract(6, (5, 2))
        q = UniPolyfract(6, (1, 4, 3))
        shifted_p = UniPolyfract(0, (5 - 6, 2 + 12))
        shifted_q = UniPolyfract(0, (1, 4 - 6, 3 + 6))
        over_z = shifted_p * shifted_q
        assert UniPolyfract(6, over_z.coeffs) == p * q


class TestRationalConversion:
    def test_indicator_from_rational(self):
        poly = RationalPoly(INDICATOR_RATIONAL)
        assert UniPolyfract.from_rational(poly, 9) == \
            UniPolyfract(9, INDICATOR_COEFFS)

    def test_x_squared_minus_x_vanishes_mod_two(self):
        poly = RationalPoly((0, -1, 1))
        assert UniPolyfract.from_rational(poly, 2) == UniPolyfract.zero(2)

    def test_half_x_rejected(self):
        with pytest.raises(NotIntegerValued):
            UniPolyfract.from_rational(RationalPoly((0, Fraction(1, 2))), 5)

    def test_zero_polynomial(self):
        assert UniPolyfract.from_rational(RationalPoly(), 5) == UniPolyfract.zero(5)

    def test_indicator_to_rational(self):
        p = UniPolyfract(9, INDICATOR_COEFFS)
        assert p.to_rational().coeffs == INDICATOR_RATIONAL

    def test_zero_to_rational(self):
        assert UniPolyfract.zero(9).to_rational() == RationalPoly()

    def test_doubled_monofract_over_integers(self):
        p = UniPolyfract(0, (0, 0, 2))
        assert p.to_rational().coeffs == (0, -1, 1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, data):
        p = rand_polyfract(data)
        # the balanced lifts, and the canonical ones (over Z each lift is
        # the coefficient itself): every lift induces the same map mod r
        for rational in (p.to_rational(), UniPolyfract(0, p.coeffs).to_rational()):
            assert UniPolyfract.from_rational(rational, p.modulus) == p

    def test_deep_degree_round_trip(self):
        # far past the interpreter's recursion limit: the basis change
        # must not recurse on the degree
        p = UniPolyfract.monofract(1100, 0)
        assert UniPolyfract.from_rational(p.to_rational(), 0) == p


class TestCoeffsFromValues:
    def test_indicator_window(self):
        values = [Residue(v, 9) for v in (1, 0, 0, 1, 0)]
        got = coeffs_from_values(values)
        assert [c.value for c in got] == [c % 9 for c in INDICATOR_COEFFS]

    def test_constants(self):
        values = [Residue(5, 7)] * 4
        assert [c.value for c in coeffs_from_values(values)] == [5, 0, 0, 0]

    def test_two_point_window(self):
        for a in range(4):
            for b in range(4):
                values = [Residue(b, 4), Residue(b - a, 4)]
                got = [c.value for c in coeffs_from_values(values)]
                assert got == [b % 4, (-a) % 4]

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ModulusMismatch):
            coeffs_from_values([Residue(0, 3), Residue(0, 4)])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_inverts_evaluation(self, data):
        p = rand_polyfract(data)
        m = (p.degree or 0) + data.draw(st.integers(0, 3))
        values = [p.evaluate(x) for x in range(m + 1)]
        restored = coeffs_from_values(values)
        assert [c.value for c in restored[:len(p.coeffs)]] == list(p.coeffs)
        assert all(c.value == 0 for c in restored[len(p.coeffs):])


class TestDegree:
    def test_examples(self):
        assert UniPolyfract(9, INDICATOR_COEFFS).degree == 4
        assert UniPolyfract.zero(5).degree is None
        assert UniPolyfract(4, (0, 0, 2)).degree == 2


class TestStructure:
    def test_injective_on_value_windows(self):
        # distinct degree <= 2 polyfracts mod 3 differ somewhere in 0..2
        seen = {}
        for coeffs in product(range(3), repeat=3):
            p = UniPolyfract(3, coeffs)
            key = tuple(p.values(0, 3))
            assert key not in seen or seen[key] == p
            seen[key] = p
        assert len(seen) == 27

    def test_truncation_equivalence(self):
        # vanishing first coefficients == vanishing first values, exhaustively
        for d in range(4):
            for coeffs in product(range(2), repeat=4):
                p = UniPolyfract(2, coeffs)
                coeff_side = all(p.coefficient(i) == 0 for i in range(d + 1))
                value_side = all(p.evaluate(x).value == 0 for x in range(d + 1))
                assert coeff_side == value_side

    def test_difference_shifts_coefficients(self):
        p = UniPolyfract(9, (4, 7, 1, 3))
        assert p.difference() == UniPolyfract(9, (7, 1, 3))
        ell = 5
        mono = UniPolyfract.monofract(ell + 1, 0)
        assert mono.difference() == UniPolyfract.monofract(ell, 0)
