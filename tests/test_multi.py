"""Multivariate polyfracts: evaluation, ring ops, composition, grids."""
import math
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from polyfract import (
    MultiPolyfract,
    RationalPolyMulti,
    Residue,
    UniPolyfract,
    compose,
    grid_vanish_equiv,
    merge_variables,
)
from polyfract import multi
from polyfract.errors import ArityMismatch, ModulusMismatch, TooLarge

from helpers import diff_coeffs


def rand_multi(data, max_vars=3, max_modulus=9, max_terms=4, max_exp=3):
    nvars = data.draw(st.integers(1, max_vars))
    r = data.draw(st.integers(2, max_modulus))
    terms = {}
    for _ in range(data.draw(st.integers(0, max_terms))):
        exp = tuple(data.draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[exp] = (data.draw(st.integers(0, r - 1)),)
    return MultiPolyfract((r,), nvars, tuple(terms.items()))


class TestConstruction:
    def test_non_integral_codomain_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            MultiPolyfract((6.7,), 1, (((1,), (5,)),))

    def test_non_integral_exponent_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            MultiPolyfract((6,), 1, (((1.9,), (5,)),))
        with pytest.raises(ValueError, match="not an integer"):
            RationalPolyMulti(1, 1, (((1.9,), (5,)),))

    def test_non_integral_coefficient_rejected(self):
        with pytest.raises(ValueError, match="coefficient 2.5 is not an integer"):
            MultiPolyfract((7,), 1, (((1,), (2.5,)),))


    @pytest.mark.parametrize("p", [UniPolyfract(9, ()), UniPolyfract(9, (0, 0, 4)),
                                   UniPolyfract(0, (-3, 1)), UniPolyfract(1, ())])
    def test_from_uni_is_one_component(self, p):
        assert MultiPolyfract.from_uni(p) == MultiPolyfract.from_components([p])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((0, 1, 2, 4, 9)),
                              st.lists(st.integers(-20, 20), max_size=5)), max_size=3))
    @example([(4, [1, 0, 3]), (9, [0, 0, 0, 2])])
    @example([(4, [8, 4]), (0, [0, 0, 1])])
    @example([])
    def test_from_components_matches_the_checked_constructor(self, parts):
        # the trusted build drops the degrees where every component is zero
        top = max((len(cs) for _, cs in parts), default=0)
        terms = tuple(((d,), tuple(cs[d] if d < len(cs) else 0 for _, cs in parts))
                      for d in range(top))
        want = MultiPolyfract(tuple(r for r, _ in parts), 1, terms)
        assert MultiPolyfract.from_components(
            [UniPolyfract(r, cs) for r, cs in parts]) == want


class TestEvaluation:
    def test_zero_variable_constant(self):
        p = MultiPolyfract.constant((5,), (9,), 0)
        assert p.evaluate(()) == (Residue(5, 9),)

    def test_pair_codomain_example(self):
        # (2,3)C(X,2) + (4,0)C(X,1) + (1,5) at x=2, unreduced codomain
        p = MultiPolyfract(
            (0, 0), 1,
            (((2,), (2, 3)), ((1,), (4, 0)), ((0,), (1, 5))),
        )
        assert p.evaluate((2,)) == (Residue(11, 0), Residue(8, 0))

    def test_value_at_origin_is_constant_coefficient(self):
        p = MultiPolyfract((7,), 2, (((0, 0), (4,)), ((1, 2), (3,)), ((2, 0), (5,))))
        assert p.evaluate((0, 0)) == (Residue(4, 7),)

    def test_arity_checked(self):
        p = MultiPolyfract((7,), 2, ())
        with pytest.raises(ArityMismatch):
            p.evaluate((1,))


class TestRingOps:
    def test_one_is_neutral(self):
        p = MultiPolyfract((6, 4), 2, (((1, 2), (3, 1)), ((0, 1), (2, 2))))
        assert p * MultiPolyfract.one((6, 4), 2) == p

    def test_single_component_matches_univariate(self):
        x_uni = UniPolyfract.monofract(1, 0)
        expected = MultiPolyfract.from_uni(x_uni * x_uni)
        x_multi = MultiPolyfract.from_uni(x_uni)
        assert x_multi * x_multi == expected
        assert (x_multi * x_multi).terms == (((1,), (1,)), ((2,), (2,)))

    def test_distinct_variables_multiply_formally(self):
        a = MultiPolyfract((0,), 2, (((1, 0), (1,)),))
        b = MultiPolyfract((0,), 2, (((0, 1), (1,)),))
        assert (a * b).terms == (((1, 1), (1,)),)

    def test_codomain_mismatch(self):
        with pytest.raises(ModulusMismatch):
            MultiPolyfract((4,), 1, ()) + MultiPolyfract((5,), 1, ())

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            MultiPolyfract((4,), 1, ()) + MultiPolyfract((4,), 2, ())

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_product_is_pointwise(self, data):
        p = rand_multi(data, max_vars=2, max_exp=2)
        q_terms = {}
        for _ in range(data.draw(st.integers(0, 3))):
            exp = tuple(data.draw(st.integers(0, 2)) for _ in range(p.nvars))
            q_terms[exp] = (data.draw(st.integers(0, p.codomain[0] - 1)),)
        q = MultiPolyfract(p.codomain, p.nvars, tuple(q_terms.items()))
        prod_pq = p * q
        for x in product(range(4), repeat=p.nvars):
            want = tuple(a * b for a, b in zip(p.evaluate(x), q.evaluate(x)))
            assert prod_pq.evaluate(x) == want

    def test_a_box_beyond_reach_is_too_large(self):
        # the product box has 2001**3 points; a list of them would not fit
        p = MultiPolyfract((0,), 3, (((1000, 0, 0), (1,)), ((0, 1000, 0), (1,)),
                                     ((0, 0, 1000), (1,))))
        with pytest.raises(TooLarge, match="2001 x 2001 x 2001 has 8012006001 points"):
            p * p

    def test_box_limit_counts_product_points(self, monkeypatch):
        a = MultiPolyfract((0,), 2, (((1, 1), (1,)),))
        b = MultiPolyfract((0,), 2, (((1, 2), (1,)),))
        want = a * b
        monkeypatch.setattr(multi, "MAX_BOX_POINTS", 12)
        assert a * b == want  # box 3 x 4
        with pytest.raises(TooLarge, match="3 x 5 has 15 points, more than 12"):
            b * b


class TestCompose:
    def test_identity(self):
        p = MultiPolyfract((0,), 2, (((1, 1), (2,)), ((0, 1), (1,))))
        identity = UniPolyfract.monofract(1, 0)
        assert compose(identity, p) == p

    def test_binomial_substitution(self):
        # oracle: values of C(2x, 2) expanded by difference sums
        assert diff_coeffs([math.comb(2 * x, 2) for x in range(5)]) == [0, 1, 4, 0, 0]
        q = UniPolyfract.monofract(2, 0)
        p = MultiPolyfract((0,), 1, (((1,), (2,)),))
        assert compose(q, p) == MultiPolyfract((0,), 1, (((1,), (1,)), ((2,), (4,))))

    def test_constant_collapses(self):
        q = UniPolyfract.constant(7, 0)
        p = MultiPolyfract((0,), 1, (((1,), (2,)),))
        out = compose(q, p)
        assert out == MultiPolyfract.constant((7,), (0,), 1)
        assert out.degrees()[0] == 0

    def test_a_box_beyond_reach_is_too_large(self):
        q = UniPolyfract.monofract(1000, 0)
        p = MultiPolyfract((0,), 3, (((1, 1, 1), (1,)),))
        with pytest.raises(TooLarge, match="1001 x 1001 x 1001"):
            compose(q, p)

    def test_box_limit_counts_compose_points(self, monkeypatch):
        p = MultiPolyfract((0,), 2, (((1, 1), (1,)),))
        q = UniPolyfract.monofract(2, 0)
        want = compose(q, p)
        monkeypatch.setattr(multi, "MAX_BOX_POINTS", 9)
        assert compose(q, p) == want  # box 3 x 3
        with pytest.raises(TooLarge, match="4 x 4 has 16 points"):
            compose(UniPolyfract.monofract(3, 0), p)

    def test_finite_modulus_rejected(self):
        with pytest.raises(ModulusMismatch):
            compose(UniPolyfract.monofract(1, 5), MultiPolyfract((0,), 1, ()))
        with pytest.raises(ModulusMismatch):
            compose(UniPolyfract.monofract(1, 0), MultiPolyfract((5,), 1, ()))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_degree_multiplies_for_nonconstants(self, data):
        q_deg = data.draw(st.integers(1, 3))
        q = UniPolyfract(0, tuple(data.draw(st.integers(-2, 2))
                                  for _ in range(q_deg)) + (1,))
        p = rand_multi(data, max_vars=2, max_modulus=3, max_exp=2)
        p = MultiPolyfract((0,), p.nvars, p.terms)
        if p.degrees()[0] in (None, 0):
            return
        composed = compose(q, p)
        assert composed.degrees()[0] == q.degree * p.degrees()[0]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_composition_is_pointwise(self, data):
        q = UniPolyfract(0, tuple(data.draw(st.integers(-2, 2)) for _ in range(3)))
        p = rand_multi(data, max_vars=2, max_modulus=4, max_exp=2)
        p = MultiPolyfract((0,), p.nvars, p.terms)
        composed = compose(q, p)
        for x in product(range(-1, 3), repeat=p.nvars):
            inner = p.evaluate(x)[0].value
            assert composed.evaluate(x)[0].value == q.evaluate(inner).value


class TestGridVanishing:
    def test_examples(self):
        c2 = MultiPolyfract.from_uni(UniPolyfract.monofract(2, 5))
        assert grid_vanish_equiv(c2, (1,)) == (True, True)
        c1 = MultiPolyfract.from_uni(UniPolyfract.monofract(1, 5))
        assert grid_vanish_equiv(c1, (1,)) == (False, False)

    def test_minimal_support_value_is_coefficient(self):
        p = MultiPolyfract((9,), 2, (((1, 2), (5,)), ((2, 2), (7,)), ((1, 3), (2,))))
        assert p.evaluate((1, 2)) == (Residue(5, 9),)

    def test_arity_checked(self):
        with pytest.raises(ArityMismatch):
            grid_vanish_equiv(MultiPolyfract((5,), 2, ()), (1,))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_sides_agree(self, data):
        p = rand_multi(data)
        bounds = tuple(data.draw(st.integers(0, 4)) for _ in range(p.nvars))
        a, b = grid_vanish_equiv(p, bounds)
        assert a == b


class TestDegrees:
    def test_single_term(self):
        p = MultiPolyfract((5,), 2, (((4, 1), (2,)),))
        assert p.degrees() == (5, (4, 1))

    def test_zero(self):
        assert MultiPolyfract((5,), 2, ()).degrees() == (None, (None, None))

    def test_difference_drops_variable_exponent(self):
        p = MultiPolyfract((9,), 2, (((2, 1), (4,)), ((0, 1), (3,))))
        assert p.difference(0) == MultiPolyfract((9,), 2, (((1, 1), (4,)),))

    @pytest.mark.parametrize("var", [0.0, 1.5, "0"])
    def test_difference_rejects_a_non_integer_variable(self, var):
        p = MultiPolyfract((9,), 2, (((2, 1), (4,)),))
        with pytest.raises(ArityMismatch, match="variable .* is not an integer"):
            p.difference(var)


class TestSupportVsMap:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_box_free_support_iff_iterated_difference_vanishes(self, data):
        p = rand_multi(data, max_vars=2, max_exp=3)
        box = tuple(data.draw(st.integers(0, 3)) for _ in range(p.nvars))
        avoids_box = not any(
            all(e >= b for e, b in zip(exp, box)) for exp, _ in p.terms
        )
        diffed = p
        for var, b in enumerate(box):
            for _ in range(b):
                diffed = diffed.difference(var)
        # coefficient route and value route must agree
        assert diffed.is_zero() == avoids_box
        window_zero = all(
            all(r.is_zero() for r in diffed.evaluate(x))
            for x in product(range(4), repeat=p.nvars)
        )
        assert window_zero == avoids_box

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_top_degree_monomial_coefficients(self, data):
        # d! times the leading rational coefficient equals the iterated
        # difference of the map at the origin
        p = rand_multi(data, max_vars=2, max_modulus=5, max_exp=2)
        p = MultiPolyfract((0,), p.nvars, p.terms)
        total, _ = p.degrees()
        if total is None:
            return
        rational = p.to_rational()
        for exp, coeffs in rational.terms:
            if sum(exp) != total:
                continue
            diffed = p
            for var, e in enumerate(exp):
                for _ in range(e):
                    diffed = diffed.difference(var)
            at_zero = diffed.evaluate((0,) * p.nvars)[0].value
            fact = math.prod(math.factorial(e) for e in exp)
            assert coeffs[0] * fact == at_zero


class TestMerge:
    def test_product_of_variables_merges_to_square(self):
        p = MultiPolyfract((0,), 2, (((1, 1), (1,)),))
        merged = merge_variables(p)
        assert merged == MultiPolyfract((0,), 1, (((1,), (1,)), ((2,), (2,))))

    def test_components_round_trip(self):
        a = UniPolyfract(4, (1, 3))
        b = UniPolyfract(3, (2, 0, 1))
        pair = MultiPolyfract.from_components([a, b])
        assert pair.component_uni(0) == a
        assert pair.component_uni(1) == b
        assert merge_variables(pair) == pair

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_merge_is_diagonal_evaluation(self, data):
        p = rand_multi(data, max_vars=3, max_modulus=6, max_exp=2)
        merged = merge_variables(p)
        for x in range(-2, 8):
            assert merged.evaluate((x,)) == p.evaluate((x,) * p.nvars)


class TestRationalRoundTrip:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, data):
        p = rand_multi(data)
        # the balanced lifts, and the canonical ones (over Z each lift is
        # the coefficient itself): every lift induces the same map mod r
        over_z = MultiPolyfract((0,) * p.width, p.nvars, p.terms)
        for rational in (p.to_rational(), over_z.to_rational()):
            assert MultiPolyfract.from_rational(rational, p.codomain) == p
