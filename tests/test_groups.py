"""Primary splitting, CRT maps, variable splitting, wavelengths."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from polyfract import (
    MultiPolyfract,
    Residue,
    UniPolyfract,
    crt_map,
    hrycaj_periodicity,
    interpolate_prime_power,
    merge_variables,
    prime_factors,
    split_group,
    split_variable,
    wavelength_reduce,
)
from polyfract.calculus import FiniteFn
from polyfract.errors import (
    ArityMismatch,
    CoprimalityViolation,
    ModulusMismatch,
    NotPeriodic,
    NotPrime,
)


class TestPrimaryDecompose:
    """split_group: per-prime parts of every modulus, block-major."""

    def test_fifty(self):
        s = split_group((50,))
        assert s.primes == (2, 5)
        assert s.parts == ((2,), (25,))
        assert s.crts[0].factors == (2, 25)
        assert [50 // m for m in s.flat_moduli] == [25, 2]

    def test_twelve(self):
        s = split_group((12,))
        assert s.primes == (2, 3)
        assert s.flat_moduli == (4, 3)

    def test_prime_is_its_own_factor(self):
        s = split_group((7,))
        assert s.primes == (7,)
        assert s.parts == ((7,),)

    def test_extended_prime_list_materializes_trivial_factors(self):
        s = split_group((50,), primes=(2, 3, 5))
        assert s.primes == (2, 3, 5)
        assert s.flat_moduli == (2, 1, 25)
        assert math.prod(s.parts[1]) == 1
        assert s.crts[0].factors == (2, 1, 25)

    def test_product_group(self):
        s = split_group((4, 6))
        assert s.primes == (2, 3)
        assert s.parts == ((4, 2), (1, 3))
        assert s.width == 2
        # the parts multiply back to the group order
        assert math.prod(s.flat_moduli) == 24

    def test_insufficient_prime_list_rejected(self):
        with pytest.raises(ValueError):
            split_group((12,), primes=(2,))

    @pytest.mark.parametrize("primes", [(1, 2), (2, 4), (2, 3, 9), (0, 2), (-2, 2)])
    def test_non_prime_in_prime_list_rejected(self, primes):
        with pytest.raises(NotPrime):
            split_group((4,), primes=primes)

    def test_non_integer_in_prime_list_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            split_group((4,), primes=(2, 3.0))


def moduli_with_primes():
    """Moduli tuples (1s included) with a prime list covering them."""
    return st.lists(st.integers(1, 60), max_size=4).flatmap(
        lambda moduli: st.sets(st.sampled_from([2, 3, 5, 7, 11, 13])).map(
            lambda extra: (
                tuple(moduli),
                sorted(extra | {p for q in moduli for p in prime_factors(q)}),
            )
        )
    )


class TestSplitting:
    @given(moduli_with_primes(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_split_round_trip(self, layout, data):
        moduli, primes = layout
        s = split_group(moduli, primes)
        x = tuple(data.draw(st.integers(0, q - 1)) for q in moduli)
        coords = s.split(x)
        assert len(coords) == len(s.flat_moduli) == len(primes) * len(moduli)
        assert all(0 <= c < m for c, m in zip(coords, s.flat_moduli))
        assert s.unsplit(coords) == x

    def test_block_reduces_by_prime_part(self):
        s = split_group((12, 10))
        assert s.block(0, (7, 9)) == (3, 1)
        assert s.block(1, (7, 9)) == (1, 0)
        assert s.block(2, (7, 9)) == (0, 4)

    def test_wrong_arity_rejected(self):
        s = split_group((12, 10))
        with pytest.raises(ArityMismatch):
            s.split((1,))
        with pytest.raises(ArityMismatch):
            s.split((1, 2, 3))

    def test_bad_moduli_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            split_group((2.5,))
        with pytest.raises(ValueError, match="moduli must be >= 1"):
            split_group((4, -3))
        with pytest.raises(ValueError, match="moduli must be >= 1"):
            split_group((0,))


class TestCRTMap:
    def test_twelve_with_shared_prime_list(self):
        crt = crt_map(12, primes=(2, 3, 5))
        assert crt.factors == (4, 3, 1)
        assert crt.forward(Residue(7, 12)) == (
            Residue(3, 4), Residue(1, 3), Residue(0, 1),
        )
        for a in range(4):
            for b in range(3):
                parts = (Residue(a, 4), Residue(b, 3), Residue(0, 1))
                assert crt.inverse(parts) == Residue(-3 * a + 4 * b, 12)

    def test_prime_modulus_is_identity(self):
        crt = crt_map(13)
        assert crt.factors == (13,)
        assert crt.forward(Residue(5, 13)) == (Residue(5, 13),)
        assert crt.inverse((Residue(5, 13),)) == Residue(5, 13)

    def test_multipliers_are_exact(self):
        for r in (6, 12, 60, 360, 9996, 10000):
            crt = crt_map(r)
            total = sum(
                s * (r // f) for s, f in zip(crt.multipliers, crt.factors)
            )
            assert total == 1
            assert math.prod(crt.factors) == r

    def test_round_trip_sweep(self):
        # dense for small moduli, strided coverage up to 10^4
        for r in range(2, 257):
            crt = crt_map(r)
            for x in range(r):
                assert crt.combine(crt.split(x)) == x
        for r in range(257, 10001, 83):
            crt = crt_map(r)
            step = max(1, r // 64)
            for x in range(0, r, step):
                assert crt.combine(crt.split(x)) == x

    @pytest.mark.parametrize("r", [9973, 9996, 10000])
    def test_round_trip_large(self, r):
        crt = crt_map(r)
        for x in range(0, r, 97):
            assert crt.inverse(crt.forward(Residue(x, r))) == Residue(x, r)

    @given(st.integers(2, 300), st.integers(-200, 200), st.integers(-200, 200))
    def test_forward_is_ring_homomorphism(self, r, a, b):
        crt = crt_map(r)
        x, y = Residue(a, r), Residue(b, r)
        fx, fy = crt.forward(x), crt.forward(y)
        assert crt.forward(x + y) == tuple(u + v for u, v in zip(fx, fy))
        assert crt.forward(x * y) == tuple(u * v for u, v in zip(fx, fy))

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            crt_map(1)

    def test_non_integral_modulus_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            crt_map(12.0)

    @pytest.mark.parametrize("primes", [(2, 4), (1, 2), (2, 3, 6)])
    def test_non_prime_in_prime_list_rejected(self, primes):
        with pytest.raises(NotPrime):
            crt_map(4, primes=primes)

    def test_wrong_modulus_rejected(self):
        crt = crt_map(12)
        with pytest.raises(ModulusMismatch):
            crt.forward(Residue(1, 10))
        with pytest.raises(ModulusMismatch):
            crt.inverse((Residue(0, 3), Residue(0, 4)))


def periodic_pair(q1, r1, q2, r2, tables):
    """Pair polyfract whose slots interpolate the given cyclic tables."""
    p1 = interpolate_prime_power(FiniteFn.univariate(q1, r1, tables[0]))
    p2 = interpolate_prime_power(FiniteFn.univariate(q2, r2, tables[1]))
    return MultiPolyfract.from_components(
        [p1.component_uni(0), p2.component_uni(0)]
    )


class TestSplitVariable:
    def test_round_trip(self):
        pair = periodic_pair(2, 4, 3, 3, ([1, 3], [0, 2, 1]))
        split = split_variable(pair, 2, 3)
        assert merge_variables(split) == pair

    def test_split_shape(self):
        pair = periodic_pair(2, 4, 3, 3, ([1, 3], [0, 2, 1]))
        split = split_variable(pair, 2, 3)
        # slot 0 only carries the first variable, slot 1 only the second
        for exp, (c1, c2) in split.terms:
            if c1:
                assert exp[1] == 0
            if c2:
                assert exp[0] == 0

    def test_constant_second_slot(self):
        # coprime part of the period forces the second slot constant
        pair = periodic_pair(2, 4, 1, 3, ([1, 3], [2]))
        split = split_variable(pair, 2, 25)
        _, partials = split.degrees()
        assert partials[1] in (None, 0)

    def test_fifty_periodic_pair_into_four_and_three(self):
        # a 50-periodic pair into Z_4 x Z_3 splits with the mod-4 slot
        # 2-periodic in the first variable and the mod-3 slot constant
        pair = periodic_pair(2, 4, 1, 3, ([1, 3], [2]))
        for i in range(2):
            assert hrycaj_periodicity(pair.component_uni(i), 50)
        split = split_variable(pair, 2, 25)
        for exp, (c4, c3) in split.terms:
            if c4:
                assert exp[1] == 0
            if c3:
                assert exp == (0, 0)
        for x in range(50):
            assert split.evaluate((x % 2, x % 25)) == pair.evaluate((x,))

    def test_evaluation_commutes_with_domain_splitting(self):
        pair = periodic_pair(4, 8, 3, 9, ([1, 3, 0, 2], [4, 2, 1]))
        split = split_variable(pair, 4, 3)
        for x in range(12):
            assert split.evaluate((x % 4, x % 3)) == pair.evaluate((x,))

    def test_coprimality_enforced(self):
        pair = periodic_pair(2, 4, 3, 3, ([1, 3], [0, 2, 1]))
        with pytest.raises(CoprimalityViolation):
            split_variable(pair, 6, 3)

    def test_periodicity_enforced(self):
        bad = MultiPolyfract.from_components(
            [UniPolyfract.monofract(2, 4), UniPolyfract.zero(3)]
        )
        with pytest.raises(NotPeriodic):
            split_variable(bad, 2, 3)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_round_trips(self, data):
        q1, r1 = data.draw(st.sampled_from([(2, 2), (2, 4), (4, 4), (4, 2), (8, 8)]))
        q2, r2 = data.draw(st.sampled_from([(3, 3), (3, 9), (9, 3), (5, 5)]))
        t1 = [data.draw(st.integers(0, r1 - 1)) for _ in range(q1)]
        t2 = [data.draw(st.integers(0, r2 - 1)) for _ in range(q2)]
        pair = periodic_pair(q1, r1, q2, r2, (t1, t2))
        split = split_variable(pair, q1, q2)
        assert merge_variables(split) == pair
        for x in range(q1 * q2):
            assert split.evaluate((x % q1, x % q2)) == pair.evaluate((x,))


class TestWavelengthReduce:
    def test_strips_coprime_part(self):
        # a 2-periodic polyfract into Z_12, declared 50-periodic
        table = FiniteFn.univariate(2, 4, [1, 3])
        g = interpolate_prime_power(table).component_uni(0)
        f12 = UniPolyfract(12, tuple(-3 * c for c in g.coeffs))
        assert wavelength_reduce(f12, 50) == 2

    def test_keeps_supported_period(self):
        # 12-periodic but not 6- or 4-periodic requires the full period
        table = [1 if x == 0 else 0 for x in range(4)]
        p4 = interpolate_prime_power(FiniteFn.univariate(4, 4, table)).component_uni(0)
        p3 = interpolate_prime_power(
            FiniteFn.univariate(3, 3, [1, 0, 0])).component_uni(0)
        combined = UniPolyfract(
            12,
            tuple(
                crt_map(12).combine([p4.coefficient(d), p3.coefficient(d)])
                for d in range(max(len(p4.coeffs), len(p3.coeffs)))
            ),
        )
        assert wavelength_reduce(combined, 12) == 12

    def test_coprime_period_means_constant(self):
        p = UniPolyfract.constant(7, 12)
        assert wavelength_reduce(p, 25) == 1

    def test_not_periodic_rejected(self):
        with pytest.raises(NotPeriodic):
            wavelength_reduce(UniPolyfract.monofract(1, 12), 50)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            wavelength_reduce(UniPolyfract.zero(1), 4)
