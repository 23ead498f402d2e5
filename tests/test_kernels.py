"""Integer-numerator basis-change kernels against the Fraction reference.

Every conversion between the binomial and the monomial basis, and every
product routed through the monomial basis, must give the coefficients of
the five-step route run on ``Fraction`` values (``helpers.ref_*``), and
reject a polynomial that is not integer valued with the same message.
The degree-box kernels behind the product and ``compose`` are checked
against per-point evaluation and the difference sums of ``helpers``.
The n-variable drivers are also run directly on polynomials in which
some variables occur in no term, the axes they skip, and the rational
polynomials are built from Fractions, ints and strings alike.
"""
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from polyfract import (
    MultiPolyfract,
    RationalPoly,
    RationalPolyMulti,
    UniPolyfract,
    binom_poly,
    compose,
    merge_variables,
)
from polyfract.errors import NotIntegerValued
from polyfract.uni import (
    _binomial_coeffs, _expand_to_monomials, _numerators, box_coeffs, box_values,
)

from helpers import (
    RefNotIntegerValued,
    binom_any,
    diff_coeffs,
    ref_binom_poly,
    ref_binomial_coeffs_multi,
    ref_compose,
    ref_expand,
    ref_extract,
    ref_lift,
    ref_merge,
    ref_multi_mul,
    ref_poly_mul,
    ref_slot,
    ref_to_rational,
)


def outcome(fn, *args):
    """("ok", result) or ("rejected", message) for either implementation."""
    try:
        return "ok", fn(*args)
    except (NotIntegerValued, RefNotIntegerValued) as exc:
        return "rejected", str(exc)


moduli = st.integers(0, 40)
fractions = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 4, 6, 8, 12, 24, 120))
)


@st.composite
def uni_polyfracts(draw, max_len=24):
    r = draw(moduli)
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), max_size=max_len))
    return UniPolyfract(r, tuple(coeffs))


@st.composite
def rational_polys(draw):
    """A polyfract's monomial form, integer valued; half of them shifted
    by small fractions, which mostly makes them not integer valued."""
    base = draw(uni_polyfracts(max_len=10))
    # the canonical lifts: over Z each lift is the coefficient itself
    coeffs = list(UniPolyfract(0, base.coeffs).to_rational().coeffs)
    if draw(st.booleans()):
        noise = draw(st.lists(fractions, min_size=1, max_size=10))
        coeffs += [Fraction(0)] * (len(noise) - len(coeffs))
        for j, v in enumerate(noise):
            coeffs[j] += v
    return RationalPoly(tuple(coeffs))


@st.composite
def multi_polyfracts(draw, nvars=None, codomain=None, max_exp=4, max_terms=6, max_width=2):
    if nvars is None:
        nvars = draw(st.integers(0, 3))
    if codomain is None:
        codomain = tuple(draw(st.lists(moduli, min_size=1, max_size=max_width)))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[exp] = tuple(draw(st.integers(-500, 500)) for _ in codomain)
    return MultiPolyfract(codomain, nvars, tuple(terms.items()))


class TestStirlingRows:
    @given(st.integers(0, 40))
    def test_binom_poly_matches_reference(self, d):
        assert binom_poly(d) == ref_binom_poly(d)

    def test_deep_row_needs_no_recursion(self):
        # a degree far past the interpreter's recursion limit
        row = binom_poly(1100)
        assert len(row) == 1101 and row[0] == 0
        assert row[1] == Fraction(-1, 1100)  # (-1)^(d-1)/d
        assert row[1100] == Fraction(1, factorial(1100))


def box_reference(coeffs, shape, sizes, r):
    """Values on the box by evaluating every point on its own."""
    exps = list(product(*map(range, shape)))
    out = []
    for x in product(*map(range, sizes)):
        v = sum(c * prod(map(binom_any, x, e)) for c, e in zip(coeffs, exps))
        out.append(v % r if r else v)
    return out


class TestBoxKernels:
    # shapes with one line (one variable), a few long lines (2 lines of
    # 9), many short lines, no axis at all, and empty boxes: no
    # coefficients, or no points
    CASES = [((7,), (13,)), ((2, 9), (3, 17)), ((4, 3), (7, 5)),
             ((2, 3, 2), (3, 5, 4)), ((), ()),
             ((0,), (3,)), ((2,), (0,)), ((2, 2), (2, 0))]

    @pytest.mark.parametrize("shape, sizes", CASES)
    @pytest.mark.parametrize("r", [0, 1, 6, 97])
    def test_values_and_back(self, shape, sizes, r):
        coeffs = [(5 * i * i + 3 * i + 1) % 23 - 11 for i in range(prod(shape))]
        coeffs = [c % r for c in coeffs] if r else coeffs
        values = box_values(coeffs, shape, sizes, r)
        assert values == box_reference(coeffs, shape, sizes, r)
        # back to the coefficients, zero outside the operand's own box
        padded = dict(zip(product(*map(range, shape)), coeffs))
        assert box_coeffs(values, sizes, r) == [
            padded.get(e, 0) for e in product(*map(range, sizes))]

    def test_triangle_is_the_difference_sums(self):
        values = [(x ** 3 - 7 * x) * (-1) ** x for x in range(12)]
        assert box_coeffs(values, (12,), 0) == diff_coeffs(values)
        grid = [x * x * y - 3 * y ** 3 + x for x in range(4) for y in range(5)]
        rows = [diff_coeffs(grid[5 * x:5 * x + 5]) for x in range(4)]
        want = [diff_coeffs([row[j] for row in rows]) for j in range(5)]
        assert box_coeffs(grid, (4, 5), 0) == [want[j][i] for i in range(4) for j in range(5)]


class TestUnivariate:
    @given(uni_polyfracts())
    @settings(max_examples=150, deadline=None)
    def test_to_rational(self, p):
        assert p.to_rational().coeffs == ref_to_rational(p.coeffs, p.modulus, "balanced")

    @given(rational_polys(), moduli)
    @settings(max_examples=200, deadline=None)
    def test_from_rational(self, poly, r):
        got = outcome(lambda: UniPolyfract.from_rational(poly, r).coeffs)
        want = outcome(lambda: UniPolyfract(r, tuple(ref_extract(poly.coeffs))).coeffs)
        assert got == want

    @given(st.lists(fractions, max_size=9), st.lists(fractions, max_size=9))
    @settings(max_examples=150, deadline=None)
    def test_rational_product(self, a, b):
        assert (RationalPoly(tuple(a)) * RationalPoly(tuple(b))).coeffs == \
            ref_poly_mul(RationalPoly(tuple(a)).coeffs, RationalPoly(tuple(b)).coeffs)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_product(self, data):
        a = data.draw(uni_polyfracts(max_len=16))
        b = UniPolyfract(a.modulus, data.draw(st.lists(st.integers(0, 99), max_size=16)))
        want = ref_extract(ref_poly_mul(ref_to_rational(a.coeffs, a.modulus, "canonical"),
                                        ref_to_rational(b.coeffs, b.modulus, "canonical")))
        assert a * b == UniPolyfract(a.modulus, tuple(want))

    def test_rejection_message_names_the_top_failing_degree(self):
        poly = RationalPoly((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        with pytest.raises(NotIntegerValued) as exc:
            UniPolyfract.from_rational(poly, 7)
        assert str(exc.value) == "binomial coefficient at degree 2 is 2/5, not an integer"


class TestMultivariate:
    @given(multi_polyfracts())
    @settings(max_examples=120, deadline=None)
    def test_to_rational(self, p):
        got = p.to_rational()
        for i, r in enumerate(p.codomain):
            lifted = {e: ref_lift(c, r, "balanced") for e, c in ref_slot(p.terms, i).items()}
            assert ref_slot(got.terms, i) == ref_expand(lifted)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_rational(self, data):
        nvars = data.draw(st.integers(0, 3))
        codomain = tuple(data.draw(st.lists(moduli, min_size=1, max_size=2)))
        base = data.draw(multi_polyfracts(nvars=nvars, codomain=codomain, max_exp=3))
        # the canonical lifts: over Z each lift is the coefficient itself
        over_z = MultiPolyfract((0,) * len(codomain), nvars, base.terms)
        terms = dict(over_z.to_rational().terms)
        for _ in range(data.draw(st.integers(0, 2))):
            exp = tuple(data.draw(st.integers(0, 3)) for _ in range(nvars))
            noise = tuple(data.draw(fractions) for _ in codomain)
            old = terms.get(exp, (Fraction(0),) * len(codomain))
            terms[exp] = tuple(a + b for a, b in zip(old, noise))
        poly = RationalPolyMulti(nvars, len(codomain), tuple(terms.items()))

        def reference():
            slots = [ref_binomial_coeffs_multi(ref_slot(poly.terms, i), nvars)
                     for i in range(len(codomain))]
            return _from_slots(slots, codomain, nvars)

        assert outcome(MultiPolyfract.from_rational, poly, codomain) == outcome(reference)

    def test_deep_two_variable_round_trip(self):
        # degree 1100, far past the interpreter's recursion limit
        p = MultiPolyfract((0,), 2, (((1100, 1), (3,)), ((1, 0), (-5,))))
        assert MultiPolyfract.from_rational(p.to_rational(), (0,)) == p

    def test_rejection_order_reads_the_last_variable_first(self):
        # x/2 + y/3: both binomial coefficients fail; y's is checked first
        poly = RationalPolyMulti(2, 1, (((1, 0), (Fraction(1, 2),)),
                                        ((0, 1), (Fraction(1, 3),))))
        with pytest.raises(NotIntegerValued) as exc:
            MultiPolyfract.from_rational(poly, (5,))
        assert str(exc.value) == "binomial coefficient at exponent (0, 1) is 1/3, not an integer"

    @given(rational_polys(), moduli)
    @settings(max_examples=150, deadline=None)
    def test_one_variable_matches_univariate(self, poly, r):
        # the same driver serves both: equal coefficients or equal rejections
        multi = RationalPolyMulti(1, 1, tuple(((d,), (c,)) for d, c in enumerate(poly.coeffs)))
        got = outcome(lambda: MultiPolyfract.from_rational(multi, (r,)).component_uni(0))
        assert got == outcome(UniPolyfract.from_rational, poly, r)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_product(self, data):
        a = data.draw(multi_polyfracts(max_exp=6, max_terms=12, max_width=3))
        b = data.draw(multi_polyfracts(nvars=a.nvars, codomain=a.codomain,
                                       max_exp=6, max_terms=12))
        slots = ref_multi_mul(a.terms, b.terms, a.width, a.nvars)
        assert a * b == _from_slots(slots, a.codomain, a.nvars)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_compose(self, data):
        q = UniPolyfract(0, tuple(data.draw(st.lists(st.integers(-20, 20), max_size=7))))
        p = data.draw(multi_polyfracts(nvars=data.draw(st.integers(0, 3)), codomain=(0,),
                                       max_exp=3, max_terms=4))
        want = ref_compose(q.coeffs, p.terms, p.nvars)
        assert compose(q, p) == _from_slots([want], (0,), p.nvars)

    @pytest.mark.parametrize("codomain, a, b", [
        # no variables: constants multiply slot by slot
        ((7, 0), (((), (3, -4)),), (((), (5, 7)),)),
        # a modulus-1 slot reads 0 beside a modulus-0 slot
        ((1, 0), (((1, 0), (0, 2)), ((0, 1), (0, -1))), (((1, 1), (0, 3)),)),
    ])
    def test_product_cases(self, codomain, a, b):
        nvars = len(a[0][0])
        a, b = (MultiPolyfract(codomain, nvars, t) for t in (a, b))
        want = _from_slots(ref_multi_mul(a.terms, b.terms, 2, nvars), codomain, nvars)
        assert a * b == want == b * a

    def test_product_with_zero(self):
        a = MultiPolyfract((6, 0), 2, (((2, 1), (5, -3)), ((0, 0), (1, 1))))
        zero = MultiPolyfract.zero((6, 0), 2)
        assert a * zero == zero == zero * a and zero * zero == zero
        # a product whose every coefficient reduces away
        two = MultiPolyfract((4,), 1, (((1,), (2,)),))
        assert (two * two).is_zero()

    @pytest.mark.parametrize("r", [0, 1, 97, 2**61 - 1])
    def test_dense_one_variable_matches_univariate(self, r):
        a = UniPolyfract(r, tuple((7 * d * d + 3) % 101 - 50 for d in range(41)))
        b = UniPolyfract(r, tuple((5 * d + 11) % 89 - 44 for d in range(41)))
        got = MultiPolyfract.from_uni(a) * MultiPolyfract.from_uni(b)
        assert got == MultiPolyfract.from_uni(a * b)
        assert got.degrees()[0] == (80 if r != 1 else None)

    def test_compose_constant_and_zero(self):
        p = MultiPolyfract((0,), 2, (((3, 1), (4,)), ((0, 2), (-1,))))
        for coeffs in ((5,), (-2,), ()):
            q = UniPolyfract(0, coeffs)
            assert compose(q, p) == MultiPolyfract.constant(coeffs or (0,), (0,), 2)
        # the zero polyfract substituted into q gives q(0)
        q = UniPolyfract(0, (4, 1, 7))
        assert compose(q, MultiPolyfract.zero((0,), 3)) == MultiPolyfract.constant((4,), (0,), 3)
        # and one with no variables is a number
        assert compose(q, MultiPolyfract.constant((5,), (0,), 0)) == \
            MultiPolyfract.constant((4 + 5 + 7 * 10,), (0,), 0)

    def test_compose_case(self):
        # C(X, 2) of 2 C(x, 1) C(y, 1) - C(y, 2), checked against the reference
        q = UniPolyfract(0, (0, 0, 1))
        p = MultiPolyfract((0,), 2, (((1, 1), (2,)), ((0, 2), (-1,))))
        want = _from_slots([ref_compose(q.coeffs, p.terms, 2)], (0,), 2)
        assert compose(q, p) == want
        assert want.degrees()[1] == (2, 4)

    @given(multi_polyfracts(max_exp=5))
    @settings(max_examples=120, deadline=None)
    def test_merge(self, p):
        slots = ref_merge(p.terms, p.width)
        want = MultiPolyfract.from_components(
            [UniPolyfract(r, tuple(ref_extract(s))) for r, s in zip(p.codomain, slots)]
        )
        assert merge_variables(p) == want


@st.composite
def sparse_terms(draw, values):
    """{exponent: value} on 1-4 variables, some of which occur in no term;
    exponents up to 4, so an axis of largest exponent 1 or 2 is common."""
    nvars = draw(st.integers(1, 4))
    present = draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exp = tuple(draw(st.integers(0, 4)) if on else 0 for on in present)
        terms[exp] = draw(values)
    return nvars, terms


def _numerator_form(poly):
    """Sparse Fractions as integer numerators over one denominator."""
    nums, den = _numerators(poly.values())
    return dict(zip(poly, nums)), den


class TestAbsentVariables:
    """The n-variable basis-change drivers skip every variable of largest
    exponent 0 or 1; they must still agree with the Fraction references,
    and reject a polynomial that is not integer valued with the same
    message."""

    # x_1 of top 2 beside an absent x_2; only the middle variable; no
    # variable at all; an absent middle variable; a linear x_1 beside x_2
    # of top 2; every variable linear; one linear variable
    EXPAND = [{(2, 0): 3, (1, 0): -1, (0, 0): 5}, {(0, 3, 0): 2, (0, 1, 0): 1},
              {(0, 0): 7}, {(1, 0, 2): 4, (0, 0, 1): -3},
              {(1, 2): 3, (1, 0): -2, (0, 1): 5}, {(1, 1, 1): 4, (0, 1, 0): -1, (0, 0, 0): 2},
              {(1,): 7, (0,): -7}]

    @pytest.mark.parametrize("int_terms", EXPAND)
    def test_expand_cases(self, int_terms):
        poly, den = _expand_to_monomials(int_terms)
        assert {e: Fraction(n, den) for e, n in poly.items()} == ref_expand(int_terms)

    @given(sparse_terms(st.integers(-50, 50)))
    @settings(max_examples=150, deadline=None)
    def test_expand(self, case):
        _, int_terms = case
        poly, den = _expand_to_monomials(int_terms)
        assert {e: Fraction(n, den) for e, n in poly.items()} == ref_expand(int_terms)

    # x_1^2 / 2 beside an absent x_2 (integer valued), x_1 / 2 in the same
    # place (not), a constant 1/3 in two variables and in one, and
    # (x_2^2 - x_2)/2 + 3 with x_1 and x_3 absent; with linear variables:
    # x_1 (x_2^2 - x_2)/2 (integer valued), x_1 x_2 / 2 and x_1 / 2 (not),
    # 3 x_1 x_2 x_3 - x_2, and 2x/3 in one variable (not)
    BINOMIAL = [(2, {(2, 0): Fraction(1, 2), (1, 0): Fraction(-1, 2)}),
                (2, {(2, 0): Fraction(1, 2)}),
                (2, {(0, 0): Fraction(1, 3)}),
                (1, {(0,): Fraction(1, 3), (2,): Fraction(1, 2)}),
                (3, {(0, 2, 0): Fraction(1, 2), (0, 1, 0): Fraction(-1, 2),
                     (0, 0, 0): Fraction(3)}),
                (2, {(1, 2): Fraction(1, 2), (1, 1): Fraction(-1, 2)}),
                (2, {(1, 1): Fraction(1, 2), (0, 1): Fraction(2)}),
                (2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(1)}),
                (3, {(1, 1, 1): Fraction(3), (0, 1, 0): Fraction(-1)}),
                (1, {(1,): Fraction(2, 3)})]

    @pytest.mark.parametrize("nvars, poly", BINOMIAL)
    def test_binomial_cases(self, nvars, poly):
        nums, den = _numerator_form(poly)
        assert outcome(_binomial_coeffs, nums, den, nvars) == \
            outcome(ref_binomial_coeffs_multi, poly, nvars)

    def test_binomial_rejection_names_the_exponent(self):
        nums, den = _numerator_form({(2, 0): Fraction(1, 2)})
        with pytest.raises(NotIntegerValued) as exc:
            _binomial_coeffs(nums, den, 2)
        assert str(exc.value) == "binomial coefficient at exponent (1, 0) is 1/2, not an integer"

    @given(sparse_terms(fractions))
    @settings(max_examples=150, deadline=None)
    def test_binomial(self, case):
        nvars, poly = case
        poly = {e: c for e, c in poly.items() if c}
        nums, den = _numerator_form(poly) if poly else ({}, 1)
        assert outcome(_binomial_coeffs, nums, den, nvars) == \
            outcome(ref_binomial_coeffs_multi, poly, nvars)


class TestFractionInputs:
    """The rational polynomials keep a coefficient whose type is exactly
    Fraction and convert everything else; either way the result is the
    same polynomial of plain Fractions."""

    class Sub(Fraction):
        pass

    def test_univariate(self):
        inputs = [(Fraction(1, 2), Fraction(-3), Fraction(0)), (self.Sub(1, 2), -3, 0),
                  ("1/2", "-3", "0"), (0.5, -3, 0)]
        polys = [RationalPoly(cs) for cs in inputs]
        assert all(p == polys[0] and p.coeffs == (Fraction(1, 2), Fraction(-3))
                   for p in polys)
        assert all(type(c) is Fraction for p in polys for c in p.coeffs)

    def test_multivariate(self):
        inputs = [(Fraction(2, 4), Fraction(0)), (self.Sub(1, 2), 0), ("1/2", "0"),
                  (Fraction(1, 2), 0)]
        polys = [RationalPolyMulti(2, 2, (((1, 0), cs), ((0, 0), (7, "7/1"))))
                 for cs in inputs]
        assert all(p == polys[0] for p in polys)
        assert polys[0].terms == (((0, 0), (Fraction(7), Fraction(7))),
                                  ((1, 0), (Fraction(1, 2), Fraction(0))))
        assert all(type(c) is Fraction for p in polys for _, cs in p.terms for c in cs)


def _from_slots(slots, codomain, nvars):
    exps = set().union(*slots)
    terms = tuple((e, tuple(s.get(e, 0) for s in slots)) for e in exps)
    return MultiPolyfract(codomain, nvars, terms)
