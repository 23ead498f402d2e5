"""Integer-numerator basis-change kernels against the Fraction reference.

Every conversion between the binomial and the monomial basis, and every
product routed through the monomial basis, must give the coefficients of
the five-step route run on ``Fraction`` values (``helpers.ref_*``), and
reject a polynomial that is not integer valued with the same message.
"""
from fractions import Fraction
from math import factorial

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

from helpers import (
    RefNotIntegerValued,
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

LIFTS = ("balanced", "canonical")


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
    coeffs = list(base.to_rational(lift="canonical").coeffs)
    if draw(st.booleans()):
        noise = draw(st.lists(fractions, min_size=1, max_size=10))
        coeffs += [Fraction(0)] * (len(noise) - len(coeffs))
        for j, v in enumerate(noise):
            coeffs[j] += v
    return RationalPoly(tuple(coeffs))


@st.composite
def multi_polyfracts(draw, nvars=None, codomain=None, max_exp=4, max_terms=6):
    if nvars is None:
        nvars = draw(st.integers(0, 3))
    if codomain is None:
        codomain = tuple(draw(st.lists(moduli, min_size=1, max_size=2)))
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


class TestUnivariate:
    @given(uni_polyfracts())
    @settings(max_examples=150, deadline=None)
    def test_to_rational(self, p):
        for lift in LIFTS:
            assert p.to_rational(lift).coeffs == ref_to_rational(p.coeffs, p.modulus, lift)

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
        for lift in LIFTS:
            got = p.to_rational(lift)
            for i, r in enumerate(p.codomain):
                lifted = {e: ref_lift(c, r, lift) for e, c in ref_slot(p.terms, i).items()}
                assert ref_slot(got.terms, i) == ref_expand(lifted)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_rational(self, data):
        nvars = data.draw(st.integers(0, 3))
        codomain = tuple(data.draw(st.lists(moduli, min_size=1, max_size=2)))
        base = data.draw(multi_polyfracts(nvars=nvars, codomain=codomain, max_exp=3))
        terms = dict(base.to_rational(lift="canonical").terms)
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
        a = data.draw(multi_polyfracts(max_exp=3, max_terms=5))
        b = data.draw(multi_polyfracts(nvars=a.nvars, codomain=a.codomain,
                                       max_exp=3, max_terms=5))
        slots = ref_multi_mul(a.terms, b.terms, a.width, a.nvars)
        assert a * b == _from_slots(slots, a.codomain, a.nvars)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_compose(self, data):
        q = UniPolyfract(0, tuple(data.draw(st.lists(st.integers(-20, 20), max_size=5))))
        p = data.draw(multi_polyfracts(nvars=data.draw(st.integers(0, 3)), codomain=(0,),
                                       max_exp=2, max_terms=4))
        want = ref_compose(q.coeffs, p.terms, p.nvars)
        assert compose(q, p) == _from_slots([want], (0,), p.nvars)

    @given(multi_polyfracts(max_exp=5))
    @settings(max_examples=120, deadline=None)
    def test_merge(self, p):
        slots = ref_merge(p.terms, p.width)
        want = MultiPolyfract.from_components(
            [UniPolyfract(r, tuple(ref_extract(s))) for r, s in zip(p.codomain, slots)]
        )
        assert merge_variables(p) == want


def _from_slots(slots, codomain, nvars):
    exps = set().union(*slots)
    terms = tuple((e, tuple(s.get(e, 0) for s in slots)) for e in exps)
    return MultiPolyfract(codomain, nvars, terms)
