"""Difference operators, Taylor expansion, periodicity, divisibility."""
import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from polyfract import (
    DiffOp,
    FiniteFn,
    Residue,
    UniPolyfract,
    apply_diff,
    delta_power,
    divisibility_check,
    hrycaj_periodicity,
    map_degree,
    periodic_degree_bound,
    taylor_expand,
    taylor_expand_multi,
    value_sum,
)
from polyfract.errors import (
    ArityMismatch,
    BadCodomain,
    BadDomain,
    BadVariableIndex,
    NotAnnihilated,
    PreconditionFailed,
)

from helpers import all_tables, binom_any, wrap_diff


class TestFiniteFnModuli:
    def test_non_integral_domain_modulus_rejected(self):
        with pytest.raises(BadDomain, match="not an integer"):
            FiniteFn((2.5,), (2,), ((0,), (1,)))

    def test_non_integral_codomain_modulus_rejected(self):
        with pytest.raises(BadCodomain, match="not an integer"):
            FiniteFn((2,), (4.0,), ((0,), (1,)))


class TestFiniteFnValues:
    def test_non_integer_value_rejected_modulo_r(self):
        with pytest.raises(ValueError, match=r"^table value 2\.5 is not an integer$"):
            FiniteFn((2,), (3,), ((2.5,), (1,)))

    def test_non_integer_value_rejected_over_z(self):
        with pytest.raises(ValueError, match=r"^table value 2\.5 is not an integer$"):
            FiniteFn((2,), (0,), ((2.5,), (1,)))

    def test_non_integer_value_rejected_in_wide_rows(self):
        with pytest.raises(ValueError, match=r"^table value 2\.0 is not an integer$"):
            FiniteFn((2,), (3, 4), ((1, 2), (0, 2.0)))

    def test_bools_are_integers(self):
        assert FiniteFn((2,), (3,), ((True,), (False,))).values == ((1,), (0,))

    def test_first_bad_cell_in_row_order_named(self):
        # 1.5 is at (row 0, column 1), 2.5 at (row 1, column 0)
        message = r"^table value 1\.5 is not an integer$"
        with pytest.raises(ValueError, match=message):
            FiniteFn((2,), (3, 3), ((0, 1.5), (2.5, 0)))
        with pytest.raises(ValueError, match=message):
            FiniteFn((2,), (3, 3), columns=((0, 2.5), (1.5, 0)))

    def test_rows_wider_than_codomain_rejected(self):
        with pytest.raises(ValueError, match="row width differs from codomain width"):
            FiniteFn((1,), (3,), ((1, 2),))

    def test_rows_and_columns_together_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            FiniteFn((1,), (3,), ((1,),), columns=((1,),))


class TestFiniteFnPoints:
    # g(x) = 3*x_1 on Z_2 x Z_3 -> Z_6
    g = FiniteFn.from_callable((2, 3), (6,), lambda x: (3 * x[1],))

    def test_from_callable_takes_a_one_shot_domain(self):
        g = FiniteFn.from_callable(iter((2, 3)), (6,), lambda x: (3 * x[1],))
        assert g == self.g

    def test_points_wrap(self):
        assert self.g.value((3, 4)) == self.g.value((1, 1)) == (3,)
        assert self.g.index((-1, -1)) == 5

    @pytest.mark.parametrize("x", [(1,), (0, 1, 9), ()])
    def test_wrong_arity_rejected(self, x):
        for lookup in (self.g.index, self.g.value, self.g.residues):
            with pytest.raises(ArityMismatch, match="needs 2 coordinates"):
                lookup(x)


class TestApplyDiff:
    def test_difference_of_binomial_window(self):
        # the wrap-around entry aside, differencing C(X,2) values gives C(X,1)
        q = 10
        table = FiniteFn.univariate(q, 0, [binom_any(x, 2) for x in range(q)])
        diffed = apply_diff(DiffOp("delta"), table)
        for x in range(q - 1):
            assert diffed.values[x][0] == binom_any(x, 1)

    def test_difference_of_constant(self):
        f = FiniteFn.univariate(6, 9, [4] * 6)
        assert apply_diff(DiffOp("delta"), f).is_zero()

    def test_stride_difference_kills_periodic(self):
        f = FiniteFn.univariate(6, 9, [5, 2, 5, 2, 5, 2])
        assert apply_diff(DiffOp("stride", 0, 2), f).is_zero()
        assert not apply_diff(DiffOp("stride", 0, 3), f).is_zero()

    def test_shift(self):
        f = FiniteFn.univariate(4, 0, [10, 20, 30, 40])
        shifted = apply_diff(DiffOp("shift", 0, 1), f)
        assert [row[0] for row in shifted.values] == [20, 30, 40, 10]

    def test_matches_plain_table_oracle(self):
        f = FiniteFn.univariate(5, 7, [3, 1, 4, 1, 5])
        diffed = apply_diff(DiffOp("delta"), f)
        assert [row[0] for row in diffed.values] == wrap_diff([3, 1, 4, 1, 5], 7)

    def test_second_variable(self):
        f = FiniteFn.from_callable((2, 3), (30,), lambda x: (x[0] + 10 * x[1],))
        diffed = apply_diff(DiffOp("delta", 1), f)
        # inner variable wraps within its own block
        assert diffed.value((0, 0)) == (10,)
        assert diffed.value((0, 2)) == ((0 - 20) % 30,)
        assert diffed.value((1, 1)) == (10,)

    def test_non_integer_stride_rejected(self):
        f = FiniteFn.univariate(3, 5, [0, 1, 2])
        with pytest.raises(ValueError, match=r"^stride 1\.5 is not an integer$"):
            apply_diff(DiffOp("stride", 0, 1.5), f)

    def test_non_integer_variable_rejected(self):
        f = FiniteFn.univariate(3, 5, [0, 1, 2])
        with pytest.raises(BadVariableIndex, match=r"^variable 0\.0 is not an integer$"):
            apply_diff(DiffOp("delta", 0.0), f)

    def test_bad_variable(self):
        f = FiniteFn.univariate(2, 3, [0, 1])
        with pytest.raises(BadVariableIndex):
            apply_diff(DiffOp("delta", 1), f)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, data):
        q = data.draw(st.integers(2, 8))
        r = data.draw(st.integers(2, 10))
        f = FiniteFn.univariate(q, r, [data.draw(st.integers(0, r - 1)) for _ in range(q)])
        g = FiniteFn.univariate(q, r, [data.draw(st.integers(0, r - 1)) for _ in range(q)])
        total = FiniteFn.univariate(q, r, [a[0] + b[0] for a, b in zip(f.values, g.values)])
        op = DiffOp("delta")
        lhs = [row[0] for row in apply_diff(op, total).values]
        rhs = [
            (a[0] + b[0]) % r
            for a, b in zip(apply_diff(op, f).values, apply_diff(op, g).values)
        ]
        assert lhs == rhs

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_stride_operator_identity(self, data):
        # T^q - Id expands through binomials of plain differences
        q = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(2, 8))
        r = data.draw(st.integers(2, 12))
        f = FiniteFn.univariate(n, r, [data.draw(st.integers(0, r - 1)) for _ in range(n)])
        stride = apply_diff(DiffOp("stride", 0, q), f)
        acc = [0] * n
        g = f
        for j in range(1, q + 1):
            g = apply_diff(DiffOp("delta"), g)
            coeff = math.comb(q, j)
            acc = [a + coeff * row[0] for a, row in zip(acc, g.values)]
        assert [row[0] for row in stride.values] == [a % r for a in acc]


class TestDeltaPower:
    def test_power_of_binomial_window(self):
        f = FiniteFn.univariate(5, 0, [math.comb(x, 3) for x in range(5)])
        assert [v for (v,) in delta_power(f, 2).values] == [0, 1, 2, -7, 4]

    def test_power_zero_is_identity(self):
        f = FiniteFn.univariate(3, 4, [1, 3, 2])
        assert delta_power(f, 0) == f

    @pytest.mark.parametrize("k", [0, 1, 5])
    @pytest.mark.parametrize("var", [1, 2, -1])
    def test_bad_variable_whatever_the_power(self, var, k):
        f = FiniteFn.univariate(4, 3, [0, 1, 2, 0])
        with pytest.raises(BadVariableIndex):
            delta_power(f, k, var)

    def test_bad_variable_before_bad_power(self):
        f = FiniteFn.univariate(4, 3, [0, 1, 2, 0])
        with pytest.raises(BadVariableIndex):
            delta_power(f, -3, 5)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_power(self, k):
        f = FiniteFn.univariate(4, 3, [0, 1, 2, 0])
        with pytest.raises(ValueError, match="difference power must be >= 0"):
            delta_power(f, k)

    def test_non_integer_power_rejected(self):
        f = FiniteFn.univariate(4, 3, [0, 1, 2, 0])
        with pytest.raises(ValueError, match=r"^difference power 2\.0 is not an integer$"):
            delta_power(f, 2.0)


class TestValueSum:
    def test_derivative_sums_to_zero(self):
        f = FiniteFn.univariate(7, 11, [3, 1, 4, 1, 5, 9, 2])
        assert value_sum(apply_diff(DiffOp("delta"), f)) == (Residue(0, 11),)

    def test_constant(self):
        f = FiniteFn.univariate(5, 0, [4] * 5)
        assert value_sum(f) == (Residue(20, 0),)

    def test_signed_endpoints(self):
        f = FiniteFn.univariate(9, 0, [-1, 0, 0, 0, 0, 0, 0, 0, 1])
        assert value_sum(f) == (Residue(0, 0),)


class TestTaylor:
    def test_two_point_table(self):
        for a in range(4):
            for b in range(4):
                g = FiniteFn.univariate(2, 4, [b, b - a])
                assert taylor_expand(g, 2) == UniPolyfract(4, (b, -a, 2 * a))

    def test_constant(self):
        f = FiniteFn.univariate(3, 9, [7, 7, 7])
        assert taylor_expand(f, 0) == UniPolyfract.constant(7, 9)

    def test_indicator(self):
        f = FiniteFn.univariate(3, 9, [1, 0, 0])
        assert taylor_expand(f, 4) == UniPolyfract(9, (1, -1, 1, 0, -3))

    def test_insufficient_degree(self):
        f = FiniteFn.univariate(3, 9, [1, 0, 0])
        with pytest.raises(PreconditionFailed):
            taylor_expand(f, 3)

    def test_shape_errors(self):
        with pytest.raises(BadDomain):
            taylor_expand(FiniteFn((2, 2), (4,), ((0,),) * 4), 1)
        with pytest.raises(BadCodomain):
            taylor_expand(FiniteFn((2,), (4, 4), ((0, 0),) * 2), 1)

    def test_non_integer_degree_rejected(self):
        f = FiniteFn.univariate(2, 4, [1, 3])
        with pytest.raises(ValueError, match=r"^degree bound 2\.5 is not an integer$"):
            taylor_expand(f, 2.5)

    def test_negative_degree_rejected(self):
        for f, d in ((FiniteFn.univariate(3, 9, [1, 0, 0]), -3),
                     (FiniteFn.univariate(3, 9, [0, 0, 0]), -7)):
            with pytest.raises(ValueError, match=rf"^degree bound must be >= 0, got {d}$"):
                taylor_expand(f, d)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_on_periodic_polyfracts(self, data):
        # interpolable tables expand back to a polyfract with the same map
        q = data.draw(st.sampled_from((2, 3, 4)))
        r = {2: 4, 3: 9, 4: 8}[q]
        table = [data.draw(st.integers(0, r - 1)) for _ in range(q)]
        f = FiniteFn.univariate(q, r, table)
        bound = periodic_degree_bound(q, r)
        p = taylor_expand(f, bound)
        assert p.values(0, q) == table

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_bound_from_the_degree_up(self, data):
        # on prime-power tables every bound from the map's degree up to the
        # periodic bound gives the same expansion; one below it fails
        p = data.draw(st.sampled_from((2, 3)))
        q = p ** data.draw(st.integers(1, 2))
        r = p ** data.draw(st.integers(1, 2))
        f = FiniteFn.univariate(q, r, data.draw(
            st.lists(st.integers(0, r - 1), min_size=q, max_size=q)))
        degree = map_degree(f)
        expected = taylor_expand(f, degree or 0)
        assert expected.degree == degree
        for d in range(degree or 0, periodic_degree_bound(q, r) + 1):
            assert taylor_expand(f, d) == expected
        if degree:
            with pytest.raises(PreconditionFailed, match=rf"^difference power {degree} "):
                taylor_expand(f, degree - 1)

    def test_multivariate(self):
        f = FiniteFn.from_callable(
            (2, 2), (2,), lambda x: (1 if x == (0, 0) else 0,)
        )
        p = taylor_expand_multi(f, (1, 1))
        assert p.evaluate((0, 0)) == (Residue(1, 2),)
        for x in product(range(2), repeat=2):
            assert p.evaluate(x)[0].value == (1 if x == (0, 0) else 0)

    def test_multivariate_precondition(self):
        f = FiniteFn.from_callable((2, 2), (4,), lambda x: (x[0] + 2 * x[1],))
        with pytest.raises(PreconditionFailed):
            taylor_expand_multi(f, (0, 0))
        # the lowest failing variable is named: both fail at (0, 0), only
        # variable 1 at (2, 0), since delta_1 f = 2 but delta_0^3 f = 0
        for bounds, message in (((0, 0), "difference power 1 does not annihilate variable 0"),
                                ((2, 0), "difference power 1 does not annihilate variable 1"),
                                ((1, 1), "difference power 2 does not annihilate variable 0")):
            with pytest.raises(PreconditionFailed, match=rf"^{message}$"):
                taylor_expand_multi(f, bounds)
        assert taylor_expand_multi(f, (2, 1)).evaluate((1, 1)) == (Residue(3, 4),)

    def test_multivariate_non_integer_bound_rejected(self):
        f = FiniteFn.from_callable((2, 2), (4,), lambda x: (x[0] + 2 * x[1],))
        with pytest.raises(ValueError, match=r"^degree bound 1\.0 is not an integer$"):
            taylor_expand_multi(f, (1, 1.0))

    def test_multivariate_negative_bound_rejected(self):
        f = FiniteFn.from_callable((2, 2), (4,), lambda x: (x[0] + 2 * x[1],))
        zero = FiniteFn.from_callable((2, 2), (4,), lambda x: (0,))
        for g, bounds in ((f, (1, -3)), (zero, (-1, -1))):
            with pytest.raises(ValueError, match=r"^degree bound must be >= 0, got -\d$"):
                taylor_expand_multi(g, bounds)


class TestMapDegree:
    def test_constant_nonzero(self):
        f = FiniteFn.univariate(5, 7, [3] * 5)
        assert map_degree(f) == 0

    def test_two_point_example(self):
        table = [0, 3]
        # oracle: iterate plain wrapped differences until the table dies
        g, steps = table, 0
        while any(v % 4 for v in g):
            g, steps = wrap_diff(g, 4), steps + 1
        assert steps == 3
        f = FiniteFn.univariate(2, 4, table)
        assert map_degree(f) == 2

    def test_zero_map(self):
        f = FiniteFn.univariate(4, 6, [0] * 4)
        assert map_degree(f) is None

    def test_coprime_case_never_annihilates(self):
        f = FiniteFn.univariate(3, 2, [0, 1, 0])
        with pytest.raises(NotAnnihilated):
            map_degree(f)
        # the message names the last power tried, the bound plus one
        cases = ((f, 0, "no difference power up to 1 annihilates variable 0"),
                 (FiniteFn.univariate(6, 4, [0, 1, 0, 0, 0, 0]), 0,
                  "no difference power up to 3 annihilates variable 0"),
                 (FiniteFn.from_callable((2, 3), (3, 2), lambda x: (x[0], x[1] == 1)), 1,
                  "no difference power up to 3 annihilates variable 1"))
        for g, var, message in cases:
            with pytest.raises(NotAnnihilated, match=rf"^{message}$"):
                map_degree(g, var)

    def test_non_integer_variable_rejected(self):
        f = FiniteFn.univariate(4, 4, [0, 1, 2, 3])
        with pytest.raises(BadVariableIndex, match=r"^variable 0\.0 is not an integer$"):
            map_degree(f, 0.0)


class TestHrycaj:
    def test_two_point_family(self):
        for a in range(4):
            for b in range(4):
                p = UniPolyfract(4, (b, -a, 2 * a))
                # direct substitution into the coefficient criterion
                ext = [b % 4, (-a) % 4, (2 * a) % 4, 0, 0]
                direct = all(
                    sum(math.comb(2, j) * ext[d + j] for j in (1, 2)) % 4 == 0
                    for d in range(3)
                )
                assert direct
                assert hrycaj_periodicity(p, 2)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_top_monofract_not_periodic(self, q):
        assert not hrycaj_periodicity(UniPolyfract.monofract(q, q), q)

    def test_non_integer_period_rejected(self):
        with pytest.raises(ValueError, match=r"^period '3' is not an integer$"):
            hrycaj_periodicity(UniPolyfract.constant(3, 7), "3")

    def test_constants(self):
        assert hrycaj_periodicity(UniPolyfract.constant(3, 7), 4)
        assert hrycaj_periodicity(UniPolyfract.zero(7), 1)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_periodicity(self, data):
        r = data.draw(st.integers(2, 16))
        q = data.draw(st.integers(1, 8))
        coeffs = data.draw(st.lists(st.integers(0, r - 1), max_size=13))
        p = UniPolyfract(r, tuple(coeffs))
        span = (p.degree or 0) + q + 1
        vals = p.values(0, span + q)
        direct = all(vals[x + q] == vals[x] for x in range(span))
        assert hrycaj_periodicity(p, q) == direct

    def test_coefficient_and_table_differences_agree(self):
        # on a periodic polyfract, differencing coefficients matches
        # differencing the wrapped value table
        p = UniPolyfract(9, (1, -1, 1, 0, -3))
        table = FiniteFn.univariate(3, 9, p.values(0, 3))
        diff_p = p.difference()
        diff_t = apply_diff(DiffOp("delta"), table)
        assert [diff_p.evaluate(x).value for x in range(3)] == \
            [row[0] for row in diff_t.values]


class TestDivisibility:
    def test_beta_zero_trivial(self):
        f = FiniteFn.univariate(4, 0, [5, 0, 3, 2])
        assert divisibility_check(f, 0)

    def test_exhaustive_small_sweeps(self):
        for p, alpha, beta in [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1)]:
            q = p**alpha
            for table in all_tables(q, p**beta):
                f = FiniteFn.univariate(q, 0, table)
                assert divisibility_check(f, beta, "sharp")
                assert divisibility_check(f, beta, "coarse")

    def test_exponent_values(self):
        # p=2, alpha=2, beta=1: the sharp exponent is (1*1+1)*2 = 4
        table = [1, 0, 0, 1]
        g = table
        for _ in range(4):
            g = wrap_diff(g, 0)
        assert all(v % 2 == 0 for v in g)
        f = FiniteFn.univariate(4, 0, table)
        assert divisibility_check(f, 1, "sharp")

    def test_single_mode_requires_vanishing_sum(self):
        f = FiniteFn.univariate(4, 0, [-2, 1, 1, 0])
        assert divisibility_check(f, 1, "single")
        with pytest.raises(PreconditionFailed):
            divisibility_check(FiniteFn.univariate(4, 0, [1, 0, 0, 0]), 1, "single")

    def test_non_integer_beta_rejected(self):
        f = FiniteFn.univariate(4, 0, [5, 0, 3, 2])
        with pytest.raises(ValueError, match=r"^beta 1\.5 is not an integer$"):
            divisibility_check(f, 1.5)

    def test_domain_and_codomain_guards(self):
        with pytest.raises(BadDomain):
            divisibility_check(FiniteFn.univariate(6, 0, [0] * 6), 1)
        with pytest.raises(BadCodomain):
            divisibility_check(FiniteFn.univariate(4, 8, [0] * 4), 1)


class TestPeriodicDegreeBound:
    def test_values(self):
        assert periodic_degree_bound(3, 9) == 4
        assert periodic_degree_bound(2, 4) == 2
        assert periodic_degree_bound(4, 2) == 3
        assert periodic_degree_bound(5, 6) == 0
        assert periodic_degree_bound(6, 6) == 2
        assert periodic_degree_bound(7, 1) == 0
        assert periodic_degree_bound(7, 0) == 0
        assert periodic_degree_bound(1, 8) == 0

    @pytest.mark.parametrize("q, r, message", [
        (0, 4, "period must be >= 1"),
        (0, 1, "period must be >= 1"),
        (-4, 8, "period must be >= 1"),
        (4.0, 8, r"period 4\.0 is not an integer"),
        (2.5, 4, r"period 2\.5 is not an integer"),
        (4, -8, "modulus must be >= 0"),
        (4, 8.0, r"modulus 8\.0 is not an integer"),
    ])
    def test_bad_arguments_rejected(self, q, r, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            periodic_degree_bound(q, r)
