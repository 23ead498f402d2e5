"""Binomials, the interpolation contraction and the difference row kernel
against their references.

``exactnum.binom`` must match the falling-factorial formula, ``cofract``
its definition over ``math.comb`` (``helpers.ref_cofract``),
``interpolate_prime_power`` the per-coefficient co-monofract sum
(``helpers.ref_interpolate_prime_power``) and ``apply_diff`` the per-cell
difference rebuilt through ``FiniteFn``'s constructor
(``helpers.ref_apply_diff``).  Every table ``apply_diff`` returns, and
every polyfract ``interpolate_prime_power`` returns, must be one the
checked constructor would build from the same data; the constructor's
row reduction must match the per-cell ``canonical``.
"""
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from polyfract import (
    DiffOp,
    FiniteFn,
    MultiPolyfract,
    apply_diff,
    binom,
    cofract,
    extend_information_coeffs,
    interpolate_prime_power,
)
from polyfract.calculus import periodic_degree_bound
from polyfract.exactnum import canonical

from helpers import (
    binom_any,
    ref_apply_diff,
    ref_cofract,
    ref_interpolate_prime_power,
)


class TestBinom:
    @given(st.integers(-80, 80), st.integers(0, 60))
    def test_matches_falling_factorial(self, n, k):
        assert binom(n, k) == binom_any(n, k)

    def test_negative_upper_index(self):
        assert binom(-1, 3) == -1

    def test_rejects_negative_lower_index(self):
        with pytest.raises(ValueError, match="k must be non-negative"):
            binom(5, -1)


class TestCofract:
    @given(st.integers(0, 60), st.integers(1, 9), st.integers(1, 30),
           st.integers(-20, 20))
    def test_matches_definition(self, d, q, r, x):
        assert cofract(d, q, r, x).value == ref_cofract(d, q, r, x)


# Largest alpha per (prime, number of variables), so the reference's
# N * prod(d_j + 1) * n loop stays small.
MAX_ALPHA = {(2, 1): 4, (2, 2): 2, (2, 3): 2, (3, 1): 2, (3, 2): 1, (3, 3): 1,
             (5, 1): 2, (5, 2): 1, (5, 3): 1}


@st.composite
def prime_power_tables(draw):
    """A random table Z_{p^a1} x ... x Z_{p^an} -> Z_{p^beta}; alpha 0
    gives a trivial factor Z_1."""
    p = draw(st.sampled_from((2, 3, 5)))
    nvars = draw(st.integers(1, 3))
    alphas = draw(st.lists(st.integers(0, MAX_ALPHA[p, nvars]),
                           min_size=nvars, max_size=nvars))
    beta = draw(st.integers(1, 3))
    domain = tuple(p**a for a in alphas)
    r = p**beta
    size = prod(domain)
    values = draw(st.lists(st.integers(0, r - 1), min_size=size, max_size=size))
    return FiniteFn(domain, (r,), tuple((v,) for v in values))


class TestInterpolation:
    @settings(max_examples=150, deadline=None)
    @given(prime_power_tables())
    def test_matches_cofract_sum(self, f):
        g = interpolate_prime_power(f)
        assert g == ref_interpolate_prime_power(f)
        assert MultiPolyfract(g.codomain, g.nvars, g.terms) == g

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((2, 3, 5)), st.integers(0, 2),
           st.lists(st.integers(1, 3), min_size=3, max_size=3), st.data())
    def test_shared_weights_follow_the_codomain(self, p, alpha, betas, data):
        # one domain Z_{p^alpha} into several Z_{p^beta}, in an interleaved
        # order that repeats a (q, r): each result is its own table's
        q = p**alpha
        for beta in betas + betas[:1]:
            r = p**beta
            values = data.draw(st.lists(st.integers(0, r - 1), min_size=q, max_size=q))
            f = FiniteFn.univariate(q, r, values)
            assert interpolate_prime_power(f) == ref_interpolate_prime_power(f)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((2, 3, 5)), st.integers(1, 2), st.integers(1, 3), st.data())
    def test_extend_information_coeffs(self, p, alpha, beta, data):
        q, r = p**alpha, p**beta
        info = data.draw(st.lists(st.integers(-2 * r, 2 * r), min_size=q, max_size=q))
        values = [sum(c * binom_any(x, d) for d, c in enumerate(info)) for x in range(q)]
        ref = ref_interpolate_prime_power(FiniteFn.univariate(q, r, values))
        got = extend_information_coeffs(info, p, alpha, beta)
        assert got == ref.component_uni(0)
        assert len(got.coeffs) <= periodic_degree_bound(q, r) + 1


MODULI = (0, 1, 2, 3, 4, 8, 9, 25, 27)


@st.composite
def raw_tables(draw):
    """Moduli and unreduced rows of a table on 1-3 small cyclic factors into
    a width 1-3 codomain that mixes Z, the trivial group and prime powers."""
    domain = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    codomain = tuple(draw(st.lists(st.sampled_from(MODULI), min_size=1, max_size=3)))
    size = prod(domain)
    rows = draw(st.lists(
        st.tuples(*(st.integers(-60, 60) for _ in codomain)),
        min_size=size, max_size=size,
    ))
    return domain, codomain, tuple(rows)


def mixed_tables():
    return raw_tables().map(lambda t: FiniteFn(*t))


class TestFiniteFnRows:
    @settings(max_examples=150, deadline=None)
    @given(raw_tables())
    def test_matches_per_cell_canonical(self, table):
        domain, codomain, rows = table
        expected = tuple(tuple(canonical(v, r) for v, r in zip(row, codomain))
                         for row in rows)
        assert FiniteFn(domain, codomain, rows).values == expected


class TestApplyDiff:
    @settings(max_examples=150, deadline=None)
    @given(mixed_tables(), st.data())
    def test_matches_per_cell_reference(self, f, data):
        for var, q in enumerate(f.domain_moduli):
            stride = data.draw(st.integers(1, 3 * q))
            for kind in ("shift", "delta", "stride"):
                op = DiffOp(kind, var, stride)
                g = apply_diff(op, f)
                assert g == ref_apply_diff(op, f)
                assert FiniteFn(g.domain_moduli, g.codomain_moduli, g.values) == g
                # a trusted table feeds the kernel like a checked one
                h = apply_diff(op, g)
                assert h == ref_apply_diff(op, ref_apply_diff(op, f))
                assert FiniteFn(h.domain_moduli, h.codomain_moduli, h.values) == h
