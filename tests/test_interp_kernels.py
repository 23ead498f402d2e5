"""Binomials, the interpolation contraction, the difference kernel and
whole-table evaluation against their references.

``exactnum.binom`` must match the falling-factorial formula, ``cofract``
its definition over ``math.comb`` (``helpers.ref_cofract``) and reject
each bad argument with a fixed exception and message.  ``lagrange._weights``
builds the information rows delta < q, each from the one before by
Pascal's rule, from the point indicator (whose one nonzero weight comes
from ``cofract``); every row must equal the same definition once padded
with the zeros it leaves out, and its taps must be C(q, j) mod r on the
multiples of the stride Kummer's theorem gives (the steps those with j < q,
negated), on small tables (Z_1 included), on the interp workload's
largest (q, r) and on a sweep of prime powers; on the
same (q, r) every point indicator must interpolate to the definition up
to the degree bound.  ``interpolate_prime_power`` must match the
per-coefficient co-monofract sum (``helpers.ref_interpolate_prime_power``),
also on tables where every axis runs the recurrence, and ``apply_diff``
the per-cell difference rebuilt through ``FiniteFn``'s constructor
(``helpers.ref_apply_diff``).  Every table ``apply_diff`` returns, and
every polyfract ``interpolate_prime_power`` returns, must be one the
checked constructor would build from the same data; the constructor's
reduction must match the per-cell ``canonical``, and a table built from
rows must equal, hash like and be rejected like the one built from the
same columns; ``value`` and ``residues`` must agree with the row view
without building it.  ``delta_power`` must match iterated ``ref_apply_diff``,
``value_sum`` and ``taylor_expand_multi`` the row references
``helpers.ref_value_sum`` and ``helpers.ref_taylor_terms`` (and, at the
periodic degree bounds, ``interpolate_prime_power``), ``calculus._box_cells``
``FiniteFn.index`` at every point of its box, ``UniPolyfract.values``
(prefix sums) the per-point ``evaluate``, and the brute-force oracle's
enumeration the per-point ``helpers.ref_representable_tables``.
"""
from itertools import product
from math import comb, prod
from operator import mod

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

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
from polyfract.calculus import _box_cells, _periodicity_taps, periodic_degree_bound
from polyfract.classify import _representable_tables
from polyfract.errors import PreconditionFailed
from polyfract.exactnum import canonical
from polyfract.lagrange import _weights

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
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 16), st.integers(0, 30),
           st.integers(-40, 40))
    @example(200, 16, 0, -40)  # Z: the unreduced sum
    @example(37, 3, 1, 5)  # the trivial group
    @example(9, 2, 7, 1)  # a sum of -256 reduced mod 7
    def test_matches_definition(self, d, q, r, x):
        got = cofract(d, q, r, x)
        v = ref_cofract(d, q, r, x)
        assert (got.value, got.modulus) == (v, r)
        assert type(got.value) is int
        assert got == Residue(v, r)
        assert hash(got) == hash(Residue(v, r))

    # The exception each bad argument raises, and which one wins when two
    # arguments are bad: q, d and x are checked first, in that order, each
    # for its type and then its range; the sum runs; then the modulus is
    # checked as Residue checks it.
    @pytest.mark.parametrize("args, expected", [
        ((-1, 2, 4, 0), (ValueError, "d must be >= 0")),
        ((-5, 3, 9, 1), (ValueError, "d must be >= 0")),
        ((2.0, 2, 4, 0), (ValueError, "d 2.0 is not an integer")),
        ((2.5, 2, 4, 0), (ValueError, "d 2.5 is not an integer")),
        ((3, 0, 4, 0), (ValueError, "q must be >= 1")),
        ((3, -2, 4, 0), (ValueError, "q must be >= 1")),
        ((3, 2.0, 4, 0), (ValueError, "q 2.0 is not an integer")),
        ((3, 2.5, 4, 0), (ValueError, "q 2.5 is not an integer")),
        ((3, 2, -1, 0), (ValueError, "modulus must be >= 0")),
        ((3, 2, -4, 1), (ValueError, "modulus must be >= 0")),
        ((3, 2, 2.0, 0), (ValueError, "modulus 2.0 is not an integer")),
        ((3, 2, 2.5, 1), (ValueError, "modulus 2.5 is not an integer")),
        ((3, 2, "4", 0), (ValueError, "modulus '4' is not an integer")),
        ((3, 2, 4, 1.0), (ValueError, "x 1.0 is not an integer")),
        ((3, 2, 4, 0.5), (ValueError, "x 0.5 is not an integer")),
        ((-3, 0, -1, 0), (ValueError, "q must be >= 1")),
        ((-1, 2, -1, 0), (ValueError, "d must be >= 0")),
        ((2.0, 2, -1, 0), (ValueError, "d 2.0 is not an integer")),
        ((3, 2, -1, 0.5), (ValueError, "x 0.5 is not an integer")),
        ((2.5, 2.0, 4, 0), (ValueError, "q 2.0 is not an integer")),
        ((-1, 2.0, 4, 0), (ValueError, "q 2.0 is not an integer")),
        ((2.5, 2, 4, 0.5), (ValueError, "d 2.5 is not an integer")),
    ])
    def test_rejections(self, args, expected):
        with pytest.raises(Exception) as info:
            cofract(*args)
        assert (type(info.value), str(info.value)) == expected


# (q, prime of q): q = 1 is paired with the prime 2.
WEIGHT_DOMAINS = ((1, 2), (2, 2), (4, 2), (8, 2), (16, 2), (3, 3), (9, 3), (27, 3),
                  (5, 5), (25, 5))


# The interp workload's largest (q, r) pairs.
WORKLOAD_WEIGHTS = ((128, 4), (125, 25), (81, 9), (64, 8), (49, 7), (9, 81))
# (q, r) for p in {2, 3, 5, 7}, alpha <= 3 (0 gives Z_1) and beta <= 4
# whose reference table, about q * (d + 1)^2 terms, stays under a second.
SWEEP_WEIGHTS = tuple(
    (p**alpha, p**beta) for p in (2, 3, 5, 7) for alpha in range(4) for beta in range(1, 5)
    if p**alpha * (periodic_degree_bound(p**alpha, p**beta) + 1) ** 2 <= 20_000_000)


def _check_weights(q, r):
    """``_weights(q, r)`` for q = p^alpha and r = p^beta: each information
    row, padded with the zeros it leaves out, is the row of co-monofracts
    by their definition; by Kummer's theorem the nonzero C(q, j) mod r are
    the j divisible by s = p^max(0, alpha - beta + 1), and the taps list
    C(q, j) mod r for j = s, 2s, .., q, the steps those with j < q negated;
    the degrees run to the periodic degree bound."""
    rows, s, steps, degrees = _weights(q, r)
    assert len(rows) == q
    for delta, row in enumerate(rows):
        assert type(row) is tuple and len(row) == delta + 1
        padded = row + (0,) * (q - len(row))
        assert padded == tuple(ref_cofract(delta, q, r, delta - x) for x in range(q))
    p = min(d for d in range(2, r + 1) if r % d == 0)
    alpha = beta = 0
    while p ** (alpha + 1) <= q:
        alpha += 1
    while p ** (beta + 1) <= r:
        beta += 1
    assert s == p ** max(0, alpha - beta + 1)
    nonzero = {j: comb(q, j) % r for j in range(1, q + 1) if comb(q, j) % r}
    assert set(nonzero) == set(range(s, q + 1, s))
    assert _periodicity_taps(q, r) == (s, tuple(nonzero.values()))
    assert steps == tuple(-c % r for j, c in nonzero.items() if j < q)
    assert degrees == range(periodic_degree_bound(q, r) + 1)


def _check_indicators(q, r):
    """Every point indicator on Z_q interpolates to its
    ``ref_interpolate_prime_power``: the coefficient at delta of the
    indicator of x is (delta | delta - x)_{q,r}, so every weight up to the
    degree bound, past the information rows too, is checked against the
    definition.  The reference weights are computed once for all q."""
    d = periodic_degree_bound(q, r)
    for x in range(q):
        f = FiniteFn.univariate(q, r, [int(y == x) for y in range(q)])
        ref = tuple(ref_cofract(delta, q, r, delta - x) for delta in range(d + 1))
        assert interpolate_prime_power(f) == MultiPolyfract.from_uni(UniPolyfract(r, ref))


class TestWeights:
    @pytest.mark.parametrize("q, p", WEIGHT_DOMAINS)
    @pytest.mark.parametrize("beta", (1, 2, 3))
    def test_rows_are_the_nonzero_prefixes(self, q, p, beta):
        _check_weights(q, p**beta)

    @pytest.mark.parametrize("q, p", WEIGHT_DOMAINS)
    @pytest.mark.parametrize("beta", (1, 2, 3))
    def test_indicators(self, q, p, beta):
        _check_indicators(q, p**beta)

    @pytest.mark.parametrize("q, r", WORKLOAD_WEIGHTS)
    def test_workload_pairs(self, q, r):
        _check_weights(q, r)
        _check_indicators(q, r)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SWEEP_WEIGHTS))
    def test_matches_definition(self, qr):
        _check_weights(*qr)
        _check_indicators(*qr)


# Largest alpha per (prime, number of variables), so the reference's
# N * prod(d_j + 1) * n loop stays small.
MAX_ALPHA = {(2, 1): 4, (2, 2): 2, (2, 3): 2, (3, 1): 2, (3, 2): 1, (3, 3): 1,
             (5, 1): 2, (5, 2): 1, (5, 3): 1}


@st.composite
def prime_power_tables(draw, least=0):
    """A random table Z_{p^a1} x ... x Z_{p^an} -> Z_{p^beta}; alpha 0
    gives a trivial factor Z_1.  With ``least`` = 1 every alpha is >= 1
    and beta >= 2, so every axis's degree bound d is >= q."""
    p = draw(st.sampled_from((2, 3, 5)))
    nvars = draw(st.integers(1, 3))
    alphas = draw(st.lists(st.integers(least, MAX_ALPHA[p, nvars]),
                           min_size=nvars, max_size=nvars))
    beta = draw(st.integers(1 + least, 3))
    domain = tuple(p**a for a in alphas)
    r = p**beta
    size = prod(domain)
    values = draw(st.lists(st.integers(0, r - 1), min_size=size, max_size=size))
    return FiniteFn(domain, (r,), tuple((v,) for v in values))


class TestInterpolation:
    @settings(max_examples=150, deadline=None)
    @given(prime_power_tables())
    @example(FiniteFn((4, 2), (8,), tuple((v,) for v in (1, 6, 3, 0, 7, 2, 5, 4))))
    def test_matches_cofract_sum(self, f):
        g = interpolate_prime_power(f)
        assert g == ref_interpolate_prime_power(f)
        assert MultiPolyfract(g.codomain, g.nvars, g.terms) == g

    # Past the q information coefficients every axis runs the periodicity
    # recurrence; the examples cover a nonzero tap at j = 1 (Z_2 into Z_8),
    # a lone tap (Z_8 into Z_4) and three axes.
    @settings(max_examples=150, deadline=None)
    @given(prime_power_tables(least=1))
    @example(FiniteFn((2,), (8,), ((3,), (6,))))
    @example(FiniteFn((8,), (4,), tuple((v,) for v in (1, 0, 3, 3, 2, 0, 1, 2))))
    @example(FiniteFn((3, 3), (9,), tuple((v,) for v in (4, 0, 8, 1, 1, 5, 0, 7, 2))))
    @example(FiniteFn((2, 4, 2), (4,), tuple((v % 4,) for v in range(3, 19))))
    def test_recurrence_matches_cofract_sum(self, f):
        assert interpolate_prime_power(f) == ref_interpolate_prime_power(f)

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
    @example(((3,), (4, 9), [(1, 2), (3, 4), (5, 6)]))
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

    @settings(max_examples=100, deadline=None)
    @given(format_tables(), st.data())
    def test_lookups_read_the_columns(self, table, data):
        domain, codomain, rows = table
        x = data.draw(st.tuples(*(st.integers(-2 * q, 2 * q) for q in domain)))
        f, g = FiniteFn(domain, codomain, rows), FiniteFn(domain, codomain, rows)
        got = f.value(x), g.residues(x)
        assert "values" not in f.__dict__ and "values" not in g.__dict__
        row = f.values[f.index(x)]
        assert got == (row, tuple(map(Residue, row, codomain)))

    def test_is_zero_reads_every_column(self):
        assert not FiniteFn((2,), (3, 5), ((0, 0), (0, 4))).is_zero()
        assert FiniteFn((2,), (3, 5), ((0, 0), (0, 5))).is_zero()
        assert FiniteFn((2,), (), [(), ()]).is_zero()

    def test_lookups_on_width_zero(self):
        f = FiniteFn((3, 2), (), [()] * 6)
        assert f.value((2, 1)) == () and f.residues((2, 1)) == ()
        assert "values" not in f.__dict__
        assert f.values[f.index((2, 1))] == ()


class TestApplyDiff:
    @settings(max_examples=150, deadline=None)
    @given(mixed_tables(), st.data())
    def test_matches_per_cell_reference(self, f, data):
        for var, q in enumerate(f.domain_moduli):
            stride = data.draw(st.integers(1, 3 * q))
            for kind in ("shift", "delta", "stride"):
                op = DiffOp(kind, var, 1 if kind == "delta" else stride)
                g = apply_diff(op, f)
                assert g == ref_apply_diff(op, f)
                assert FiniteFn(g.domain_moduli, g.codomain_moduli, g.values) == g
                # a trusted table feeds the kernel like a checked one
                h = apply_diff(op, g)
                assert h == ref_apply_diff(op, ref_apply_diff(op, f))
                assert FiniteFn(h.domain_moduli, h.codomain_moduli, h.values) == h


# A two-variable table into Z_4 x Z, with values that wrap mod 4.
TWO_VARIABLE = FiniteFn((3, 4), (4, 0), tuple((x * x + 3 * y, 5 * x - y * y * x)
                                              for x in range(3) for y in range(4)))


class TestApplyDiffCases:
    @pytest.mark.parametrize("var", [0, 1])
    @pytest.mark.parametrize("kind, stride", [("shift", 1), ("shift", 2), ("delta", 1),
                                              ("stride", 3)])
    def test_two_variable_table(self, var, kind, stride):
        op = DiffOp(kind, var, stride)
        assert apply_diff(op, TWO_VARIABLE) == ref_apply_diff(op, TWO_VARIABLE)


class TestDeltaPower:
    @pytest.mark.parametrize("var", [0, 1])
    def test_two_variable_table(self, var):
        expected = TWO_VARIABLE
        for k in range(4):
            assert delta_power(TWO_VARIABLE, k, var) == expected
            expected = ref_apply_diff(DiffOp("delta", var), expected)

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

    def test_difference_left_in_a_later_factor_only(self):
        # delta f vanishes in the first codomain factor but not the second
        f = FiniteFn((2,), (2, 4), ((0, 0), (0, 1)))
        with pytest.raises(PreconditionFailed, match="does not annihilate"):
            taylor_expand_multi(f, (0,))

    @settings(max_examples=100, deadline=None)
    @given(prime_power_tables())
    @example(FiniteFn((4, 2), (8,), tuple((v,) for v in (1, 6, 3, 0, 7, 2, 5, 4))))
    def test_periodic_bounds_give_the_interpolant(self, f):
        # every map between same-prime groups is polyfractal, so the
        # periodic degree bounds meet the precondition and the expansion
        # is the co-monofract interpolant
        r = f.codomain_moduli[0]
        bounds = [periodic_degree_bound(q, r) for q in f.domain_moduli]
        assert taylor_expand_multi(f, bounds) == interpolate_prime_power(f)

    def test_bounds_beyond_the_periodic_bound(self):
        # g(x_0) + g(x_1) with g = (0, 3) on Z_2 -> Z_4, which is
        # 3C(x, 1) + 2C(x, 2): degree 2, the periodic bound, in each variable
        f = FiniteFn((2, 2), (4,), ((0,), (3,), (3,), (2,)))
        expected = MultiPolyfract((4,), 2, (((0, 1), (3,)), ((0, 2), (2,)),
                                            ((1, 0), (3,)), ((2, 0), (2,))))
        assert interpolate_prime_power(f) == expected
        for bounds in ((2, 2), (2, 300), (300, 300), (30000, 30000)):
            assert taylor_expand_multi(f, bounds) == expected


def _ref_box_cells(domain, shape, moduli):
    """FiniteFn.index of x mod moduli at every point x of the box."""
    f = FiniteFn(domain, (), ((),) * prod(domain))
    return [f.index(tuple(map(mod, x, moduli))) for x in product(*map(range, shape))]


@st.composite
def box_cell_cases(draw):
    """A domain of 0-3 cyclic factors, a box of up to 8 along each axis (so
    empty axes and boxes larger than the domain) and moduli of at most the
    domain factors."""
    domain = tuple(draw(st.lists(st.integers(1, 6), max_size=3)))
    shape = tuple(draw(st.integers(0, 8)) for _ in domain)
    moduli = tuple(draw(st.integers(1, q)) for q in domain)
    return domain, shape, moduli


class TestBoxCells:
    @pytest.mark.parametrize("domain, shape, moduli", [
        ((576,), (576,), (64,)),  # the block test on Z_576 with parts 64
        ((4, 6), (4, 6), (2, 3)),  # a block test on two factors
        ((24, 30), (8, 2), (8, 2)),  # represent's gather of one block
        ((2, 3), (5, 7), (2, 3)),  # a periodic extension past the domain
        ((6, 4), (9, 5), (4, 3)),  # moduli that do not divide the domain
        ((3, 2), (7, 0), (3, 2)),  # an empty axis
        ((), (), ()),
    ])
    def test_cases(self, domain, shape, moduli):
        assert _box_cells(domain, shape, moduli) == _ref_box_cells(domain, shape, moduli)

    @settings(max_examples=200, deadline=None)
    @given(box_cell_cases())
    def test_matches_index(self, case):
        assert _box_cells(*case) == _ref_box_cells(*case)


# Composite moduli, prime powers, Z itself and the trivial group.
EVAL_MODULI = (0, 1, 2, 4, 5, 6, 9, 12, 16, 27, 30)


class TestTableValues:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(EVAL_MODULI),
           st.lists(st.integers(-100, 100), max_size=12),
           st.integers(-30, 30), st.integers(-3, 40))
    @example(9, [3, -5, 7, 2, -1], 4, 6)
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


def _check_oracle_tables(q, r):
    default = periodic_degree_bound(q, r)
    # a larger and a smaller override where the search stays small
    for bound in {default, default + 1, max(default - 1, 0)}:
        if r ** (bound + 1) <= 4096:
            assert _representable_tables(q, r, bound) == \
                ref_representable_tables(q, r, bound)


class TestOracleEnumeration:
    @pytest.mark.parametrize("q", range(1, 6))
    @pytest.mark.parametrize("r", range(1, 6))
    def test_matches_per_point_enumeration(self, q, r):
        _check_oracle_tables(q, r)

    @pytest.mark.parametrize("q", (6, 10, 12))
    @pytest.mark.parametrize("r", (4, 6))
    def test_composite_moduli(self, q, r):
        _check_oracle_tables(q, r)
