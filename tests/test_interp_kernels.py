"""Binomials, the interpolation contraction, the difference kernel and
whole-table evaluation against their references.

``exactnum.binom`` must match the falling-factorial formula, ``cofract``
its definition over ``math.comb`` (``helpers.ref_cofract``),
``interpolate_prime_power`` the per-coefficient co-monofract sum
(``helpers.ref_interpolate_prime_power``) and ``apply_diff`` the per-cell
difference rebuilt through ``FiniteFn``'s constructor
(``helpers.ref_apply_diff``).  Every table ``apply_diff`` returns, and
every polyfract ``interpolate_prime_power`` returns, must be one the
checked constructor would build from the same data; the constructor's
reduction must match the per-cell ``canonical``, and a table built from
rows must equal, hash like and be rejected like the one built from the
same columns.  ``delta_power`` must match iterated ``ref_apply_diff``,
``value_sum`` and ``taylor_expand_multi`` the row references
``helpers.ref_value_sum`` and ``helpers.ref_taylor_terms``,
``UniPolyfract.values`` (prefix sums) the per-point ``evaluate``, and the
brute-force oracle's enumeration the per-point
``helpers.ref_representable_tables``.
"""
from math import prod

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from polyfract import (
    DiffOp,
    FiniteFn,
    MultiPolyfract,
    Residue,
    UniPolyfract,
    apply_diff,
    binom,
    cofract,
    delta_power,
    extend_information_coeffs,
    interpolate_prime_power,
    taylor_expand_multi,
    value_sum,
)
from polyfract.calculus import periodic_degree_bound
from polyfract.classify import _representable_tables
from polyfract.errors import PreconditionFailed
from polyfract.exactnum import canonical

from helpers import (
    binom_any,
    eval_binomial_coeffs,
    ref_apply_diff,
    ref_cofract,
    ref_interpolate_prime_power,
    ref_representable_tables,
    ref_taylor_terms,
    ref_value_sum,
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
    a width 0-3 codomain that mixes Z, the trivial group and prime powers."""
    domain = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    codomain = tuple(draw(st.lists(st.sampled_from(MODULI), min_size=0, max_size=3)))
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


# Z, the trivial group, prime powers and composites.
FORMAT_MODULI = (0, 1, 2, 4, 6, 9, 12, 30)


@st.composite
def format_tables(draw):
    """Domain, codomain and unreduced rows, entries ints or bools, on a
    width 0-3 codomain over ``FORMAT_MODULI``."""
    domain = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    codomain = tuple(draw(st.lists(st.sampled_from(FORMAT_MODULI), max_size=3)))
    cell = st.one_of(st.integers(-60, 60), st.booleans())
    rows = draw(st.lists(st.tuples(*(cell for _ in codomain)),
                         min_size=prod(domain), max_size=prod(domain)))
    return domain, codomain, rows


def _columns(rows, width):
    return [[row[k] for row in rows] for k in range(width)]


def _rejection(build):
    with pytest.raises(ValueError) as info:
        build()
    return type(info.value), str(info.value)


class TestColumnFormat:
    """Row-built and column-built tables are one format."""

    @settings(max_examples=100, deadline=None)
    @given(format_tables())
    def test_routes_agree(self, table):
        domain, codomain, rows = table
        by_rows = FiniteFn(domain, codomain, rows)
        by_columns = FiniteFn(domain, codomain, columns=_columns(rows, len(codomain)))
        assert by_rows == by_columns
        assert hash(by_rows) == hash(by_columns)
        assert by_rows.values == by_columns.values == tuple(
            tuple(canonical(v, r) for v, r in zip(row, codomain)) for row in rows
        )
        assert all(type(v) is int for col in by_columns.columns for v in col)
        assert all(type(col) is tuple for col in by_columns.columns)

    @settings(max_examples=100, deadline=None)
    @given(format_tables(), st.sampled_from(
        ("extra row", "missing row", "wide", "narrow", "float", "string", "none")),
        st.data())
    def test_routes_reject_alike(self, table, defect, data):
        domain, codomain, rows = table
        width = len(codomain)
        # A width-0 table has no column to carry a row count or a cell.
        assume(width or defect == "wide")
        rows = [list(row) for row in rows]
        if defect == "extra row":
            rows.append([0] * width)
        elif defect == "missing row":
            rows.pop()
        elif defect == "wide":
            rows = [row + [0] for row in rows]
        elif defect == "narrow":
            rows = [row[:-1] for row in rows]
        else:
            # up to three bad cells, so the one named must be the first in row order
            cells = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                                 st.integers(0, width - 1)),
                                       min_size=1, max_size=3, unique=True))
            bad = iter({"float": (2.0, 0.5, -3.0), "string": ("1", "a", ""),
                        "none": (None,) * 3}[defect])
            for i, k in cells:
                rows[i][k] = next(bad)
        columns = _columns(rows, width + {"wide": 1, "narrow": -1}.get(defect, 0))
        rejection = _rejection(lambda: FiniteFn(domain, codomain, rows))
        assert rejection == _rejection(lambda: FiniteFn(domain, codomain, columns=columns))
        if defect in ("float", "string", "none"):
            first = next(v for row in rows for v in row if type(v) not in (int, bool))
            assert rejection == (ValueError, f"table value {first!r} is not an integer")


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


class TestDeltaPower:
    @settings(max_examples=150, deadline=None)
    @given(mixed_tables(), st.data())
    def test_matches_iterated_reference(self, f, data):
        var = data.draw(st.integers(0, f.nvars - 1))
        expected = f
        for k in range(7):
            g = delta_power(f, k, var)
            assert g == expected
            assert FiniteFn(g.domain_moduli, g.codomain_moduli, g.values) == g
            expected = ref_apply_diff(DiffOp("delta", var), expected)


class TestValueSum:
    @settings(max_examples=150, deadline=None)
    @given(mixed_tables())
    def test_matches_row_sums(self, f):
        assert value_sum(f) == tuple(
            Residue(v, r) for v, r in zip(ref_value_sum(f), f.codomain_moduli)
        )


class TestTaylorExpandMulti:
    @settings(max_examples=100, deadline=None)
    @given(mixed_tables(), st.data())
    def test_matches_iterated_reference(self, f, data):
        bounds = tuple(data.draw(st.integers(0, min(3 * q, 6))) for q in f.domain_moduli)
        terms = ref_taylor_terms(f, bounds)
        event("annihilated" if terms is not None else "not annihilated")
        if terms is None:
            with pytest.raises(PreconditionFailed, match="does not annihilate"):
                taylor_expand_multi(f, bounds)
        else:
            assert taylor_expand_multi(f, bounds) == MultiPolyfract(
                f.codomain_moduli, f.nvars, tuple(terms))


# Composite moduli, prime powers, Z itself and the trivial group.
EVAL_MODULI = (0, 1, 2, 4, 5, 6, 9, 12, 16, 27, 30)


class TestTableValues:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(EVAL_MODULI),
           st.lists(st.integers(-100, 100), max_size=12),
           st.integers(-30, 30), st.integers(-3, 40))
    def test_matches_per_point_evaluate(self, r, coeffs, start, length):
        p = UniPolyfract(r, tuple(coeffs))
        stop = start + length
        got = p.values(start, stop)
        assert got == [p.evaluate(x).value for x in range(start, stop)]
        assert got == [canonical(eval_binomial_coeffs(p.coeffs, x), r)
                       for x in range(start, stop)]

    def test_empty_ranges(self):
        p = UniPolyfract(7, (3, 1, 4))
        assert p.values(5, 5) == []
        assert p.values(5, 2) == []
        assert UniPolyfract.zero(7).values(-2, 1) == [0, 0, 0]


class TestOracleEnumeration:
    @pytest.mark.parametrize("q", range(1, 6))
    @pytest.mark.parametrize("r", range(1, 6))
    def test_matches_per_point_enumeration(self, q, r):
        default = periodic_degree_bound(q, r)
        # a larger and a smaller override where the search stays small
        for bound in {default, default + 1, max(default - 1, 0)}:
            if r ** (bound + 1) <= 4096:
                assert _representable_tables(q, r, bound) == \
                    ref_representable_tables(q, r, bound)
