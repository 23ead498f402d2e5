"""End-to-end classification, representation, counting, and the oracle."""
import random
import re
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import event, example, given, settings, strategies as st

from polyfract import (
    Counterexample,
    FiniteFn,
    MultiPolyfract,
    Residue,
    UniPolyfract,
    brute_force_polyfractal,
    count_polyfractal,
    counterexample_is_valid,
    is_polyfractal,
    represent,
    represent_univariate,
)
from polyfract import classify
from polyfract.calculus import periodic_degree_bound
from polyfract.errors import (
    ArityMismatch,
    InfiniteGroup,
    NotCyclic,
    NotPolyfractal,
    TooLarge,
)

from helpers import all_tables, block_built_rows, ref_block_scan


def family_map(g0, g1, c):
    """The 2-parameter family of 50-periodic maps into Z_12 built from a
    two-point table (g0, g1) mod 4 and a constant c mod 3."""
    return FiniteFn.univariate(
        50, 12, [(-3 * (g0, g1)[x % 2] + 4 * c) % 12 for x in range(50)]
    )


class TestIsPolyfractal:
    def test_family_members_accepted(self):
        for g0, g1, c in product(range(4), range(4), range(3)):
            assert is_polyfractal(family_map(g0, g1, c)).polyfractal

    def test_offset_violation_rejected(self):
        values = [[0, 1][x % 2] for x in range(50)]  # f(1) - f(0) = 1
        res = is_polyfractal(FiniteFn.univariate(50, 12, values))
        assert not res.polyfractal
        assert res.counterexample.prime == 3

    def test_period_violation_rejected(self):
        values = [0] * 50
        values[2] = 3  # breaks 2-periodicity but keeps offsets in 3Z_12
        res = is_polyfractal(FiniteFn.univariate(50, 12, values))
        assert not res.polyfractal

    def test_constants_accepted(self):
        for c in range(12):
            f = FiniteFn.univariate(50, 12, [c] * 50)
            assert is_polyfractal(f).polyfractal

    def test_counterexamples_validate(self):
        rng = random.Random(7)
        found = 0
        while found < 10:
            values = [rng.randrange(12) for _ in range(50)]
            f = FiniteFn.univariate(50, 12, values)
            res = is_polyfractal(f)
            if not res.polyfractal:
                assert counterexample_is_valid(f, res.counterexample)
                found += 1

    def test_infinite_codomain_rejected(self):
        with pytest.raises(InfiniteGroup):
            is_polyfractal(FiniteFn.univariate(2, 0, [0, 1]))

    def test_product_groups(self):
        # output of the 3-block must not depend on the 2-coordinate
        f = FiniteFn.from_callable((2, 3), (6,), lambda x: ((3 * x[0] + 2 * x[1]) % 6,))
        assert is_polyfractal(f).polyfractal
        g = FiniteFn.from_callable((2, 3), (6,), lambda x: ((2 * x[0]) % 6,))
        res = is_polyfractal(g)
        assert not res.polyfractal
        assert res.counterexample.prime == 3
        assert counterexample_is_valid(g, res.counterexample)

    def test_counterexample_of_wrong_arity_is_invalid(self):
        # g(x) = 3*x_1 splits the 2-block at (0, 0) and (0, 1); points with
        # a third coordinate do not name domain points at all.
        g = FiniteFn.from_callable((2, 3), (6,), lambda x: (3 * x[1],))
        assert counterexample_is_valid(g, Counterexample(2, (0, 0), (0, 1)))
        assert not counterexample_is_valid(g, Counterexample(2, (0, 0, 7), (0, 1, 9)))
        assert not counterexample_is_valid(g, Counterexample(2, (0, 0), (1,)))


class TestRepresent:
    def test_family_merged_coefficients(self):
        for g0, g1, c in product(range(4), range(4), range(3)):
            f = family_map(g0, g1, c)
            uni, rational = represent_univariate(f)
            a = (g0 - g1) % 4
            d = f.values[0][0]
            assert uni == UniPolyfract(12, (d, 3 * a, 6 * a))
            # the rational writes down the same map
            for x in range(50):
                value = rational(x)
                assert value.denominator == 1
                assert value.numerator % 12 == f.values[x][0]

    def test_indicator_representation(self):
        f = FiniteFn.univariate(3, 9, [1, 0, 0])
        uni, rational = represent_univariate(f)
        assert uni == UniPolyfract(9, (1, -1, 1, 0, -3))
        assert rational.coeffs == (
            Fraction(1), Fraction(-3, 4), Fraction(-7, 8),
            Fraction(3, 4), Fraction(-1, 8),
        )

    def test_constant(self):
        f = FiniteFn.univariate(10, 9, [2] * 10)
        uni, rational = represent_univariate(f)
        assert uni == UniPolyfract.constant(2, 9)
        assert rational.coeffs == (Fraction(2),)
        # larger representatives come out as the balanced lift of the coset
        uni7, rational7 = represent_univariate(FiniteFn.univariate(10, 9, [7] * 10))
        assert uni7 == UniPolyfract.constant(7, 9)
        assert rational7.degree in (None, 0)
        assert rational7(0).numerator % 9 == 7

    def test_witness_shape_matches_block_structure(self):
        w = represent(family_map(1, 0, 2))
        assert w.polyfract.nvars == 3  # one variable per prime (2, 3, 5)
        assert w.polyfract.codomain == (4, 3, 1)

    def test_witness_evaluates_to_map(self):
        f = family_map(3, 1, 2)
        w = represent(f)
        for x in range(50):
            assert w.evaluate((x,)) == (Residue(f.values[x][0], 12),)

    def test_witness_rejects_wrong_arity(self):
        w = represent(FiniteFn.univariate(12, 6, [x * x % 6 for x in range(12)]))
        assert w.evaluate((5,)) == (Residue(1, 6),)
        with pytest.raises(ArityMismatch):
            w.evaluate((5, 99, 7))
        with pytest.raises(ArityMismatch):
            w.evaluate(())

    def test_not_polyfractal_raises(self):
        f = FiniteFn.univariate(50, 12, [[0, 1][x % 2] for x in range(50)])
        with pytest.raises(NotPolyfractal):
            represent(f)

    def test_not_polyfractal_carries_the_counterexample(self):
        f = FiniteFn((4, 9), (6,), tuple(((x * x + 3 * y) % 6,)
                                          for x in range(4) for y in range(9)))
        ce = is_polyfractal(f).counterexample
        assert ce is not None
        with pytest.raises(NotPolyfractal) as exc:
            represent(f)
        assert exc.value.counterexample == ce
        assert counterexample_is_valid(f, exc.value.counterexample)

    def test_block_purity(self):
        # monomials never mix variables of different primes, and every
        # nonzero coefficient sits in the codomain slots of its block
        f = FiniteFn.from_callable(
            (4, 3), (6,),
            lambda x: ((3 * (x[0] % 2) + 2 * (x[1] * x[1])) % 6,),
        )
        w = represent(f)
        n = 2  # original domain factors; variables block-major over primes 2, 3
        t = 1  # original codomain factors
        blocks = {i: set(range(i * n, (i + 1) * n)) for i in range(2)}
        for exp, coeffs in w.polyfract.terms:
            used = {j for j, e in enumerate(exp) if e}
            owners = {i for i in blocks if used & blocks[i]}
            assert len(owners) <= 1
            if not owners:
                continue
            owner = owners.pop()
            for slot, c in enumerate(coeffs):
                if c:
                    assert slot // t == owner

    def test_coprime_domain_factor_never_occurs(self):
        # a domain factor coprime to the codomain cannot appear
        f = FiniteFn.from_callable((4, 5), (4,), lambda x: (x[0],))
        w = represent(f)
        _, partials = w.polyfract.degrees()
        # variables are block-major over primes (2, 5) and factors (4, 5)
        assert w.domain.flat_moduli == (4, 1, 1, 5)
        for var, q in enumerate(w.domain.flat_moduli):
            if q == 5:
                assert partials[var] in (None, 0)

    def test_pair_codomain_soundness(self):
        # Z_8 -> Z_4 x Z_3: the mod-3 slot must be constant, the mod-4
        # slot is arbitrary; witnesses reproduce the table exactly
        rng = random.Random(3)
        for _ in range(10):
            c = rng.randrange(3)
            rows = tuple((rng.randrange(4), c) for _ in range(8))
            f = FiniteFn((8,), (4, 3), rows)
            assert is_polyfractal(f).polyfractal
            w = represent(f)
            for x in range(8):
                assert tuple(r.value for r in w.evaluate((x,))) == f.values[x]

    def test_merge_requires_cyclic(self):
        f = FiniteFn.from_callable((2, 2), (4,), lambda x: (x[0],))
        with pytest.raises(NotCyclic):
            represent_univariate(f)

    def test_transported_product_domain(self):
        # the same family, with the domain already split as Z_2 x Z_25
        for g0, g1, c in [(1, 0, 2), (3, 2, 0), (0, 3, 1)]:
            cyclic = [row[0] for row in family_map(g0, g1, c).values]
            f = FiniteFn.from_callable(
                (2, 25), (12,), lambda ab: (cyclic[(25 * ab[0] + 26 * ab[1]) % 50],)
            )
            assert is_polyfractal(f).polyfractal
            w = represent(f)
            for a in range(2):
                for b in range(25):
                    assert w.evaluate((a, b))[0].value == f.value((a, b))[0]

    def test_random_block_built_maps_on_product_groups(self):
        # build maps from random per-prime blocks through the splittings;
        # they must classify as representable and round-trip exactly
        rng = random.Random(11)
        domain, codomain = (6, 4), (12, 9)
        # primes 2, 3; block domains: 2-parts (2, 4), 3-parts (3, 1)
        for _ in range(5):
            block2 = {
                pt: (rng.randrange(4), rng.randrange(1))
                for pt in product(range(2), range(4))
            }
            block3 = {
                pt: (rng.randrange(3), rng.randrange(9))
                for pt in product(range(3), range(1))
            }

            def value(x):
                a2 = (x[0] % 2, x[1] % 4)
                a3 = (x[0] % 3, x[1] % 1)
                y2 = block2[a2]
                y3 = block3[a3]
                # recombine per codomain factor: 12 = 4*3, 9 = 1*9
                y12 = (-3 * y2[0] + 4 * y3[0]) % 12
                y9 = y3[1] % 9
                return (y12, y9)

            f = FiniteFn.from_callable(domain, codomain, value)
            assert is_polyfractal(f).polyfractal
            w = represent(f)
            for x in f.points():
                assert tuple(r.value for r in w.evaluate(x)) == f.value(x)

    def test_scrambled_product_maps_match_oracle_verdicts(self):
        rng = random.Random(13)
        domain, codomain = (6,), (6,)
        for _ in range(50):
            rows = tuple((rng.randrange(6),) for _ in range(6))
            f = FiniteFn(domain, codomain, rows)
            assert is_polyfractal(f).polyfractal == brute_force_polyfractal(f)

    def test_exhaustive_blockwise_maps_are_pure_and_sound(self):
        # all 108 maps Z_2 x Z_3 -> Z_2 x Z_3 assembled from per-prime
        # blocks: exactly the representable ones, with pure witnesses
        domain, codomain = (2, 3), (2, 3)
        count = 0
        for f2 in product(range(2), repeat=2):
            for f3 in product(range(3), repeat=3):
                f = FiniteFn.from_callable(
                    domain, codomain, lambda x: (f2[x[0]], f3[x[1]])
                )
                assert is_polyfractal(f).polyfractal
                w = represent(f)
                for x in f.points():
                    assert tuple(r.value for r in w.evaluate(x)) == f.value(x)
                # ownership: variables of one prime only hit its slots
                for exp, coeffs in w.polyfract.terms:
                    used = {j for j, e in enumerate(exp) if e}
                    if not used:
                        continue
                    owner = min(used) // 2  # block-major, 2 factors per block
                    assert used <= {owner * 2, owner * 2 + 1}
                    for slot, c in enumerate(coeffs):
                        if c:
                            assert slot // 2 == owner
                count += 1
        assert count == count_polyfractal(domain, codomain) == 108


class TestCount:
    def test_example_values(self):
        assert count_polyfractal([50], [12]) == 48
        assert count_polyfractal([25], [12]) == 12   # coprime: constants only
        assert count_polyfractal([4], [8]) == 8**4   # same prime: every map
        assert count_polyfractal([2, 2], [2]) == 2**4
        assert count_polyfractal([1], [1]) == 1

    def test_zero_modulus_rejected(self):
        with pytest.raises(InfiniteGroup):
            count_polyfractal([4], [0])

    def test_non_integral_modulus_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            count_polyfractal([2.5], [2])
        with pytest.raises(ValueError, match="moduli must be >= 1"):
            count_polyfractal([4], [-3])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=3),
           st.lists(st.integers(1, 40), min_size=1, max_size=3),
           st.integers(0, 400))
    def test_digit_guard_rejects_only_longer_counts(self, domain, codomain, digits):
        count = count_polyfractal(domain, codomain)
        try:
            assert count_polyfractal(domain, codomain, digits) == count
        except TooLarge:
            assert count >= 10**digits  # more than ``digits`` digits

    def test_digit_guard_skips_the_power(self):
        # the count has about 3.6e12 digits; only the guard can answer
        with pytest.raises(TooLarge, match="more than 4300 digits"):
            count_polyfractal([2**40], [2**40], 4300)


class TestBruteForce:
    def test_same_prime_all_maps(self):
        assert all(
            brute_force_polyfractal(FiniteFn.univariate(2, 4, t))
            for t in all_tables(2, 4)
        )

    def test_coprime_only_constants(self):
        for t in all_tables(3, 2):
            f = FiniteFn.univariate(3, 2, t)
            assert brute_force_polyfractal(f) == (len(set(t)) == 1)

    def test_factoring_maps(self):
        hits = [t for t in all_tables(6, 2)
                if brute_force_polyfractal(FiniteFn.univariate(6, 2, t))]
        assert len(hits) == count_polyfractal([6], [2]) == 4
        assert all(t[0] == t[2] == t[4] and t[1] == t[3] == t[5] for t in hits)

    def test_guard(self):
        f = FiniteFn.univariate(8, 8, [0] * 8)
        with pytest.raises(TooLarge):
            brute_force_polyfractal(f, max_search=100)

    def test_undersized_bound_loses_maps(self):
        # the override exists to demonstrate incompleteness
        f = FiniteFn.univariate(2, 4, [0, 1])
        assert brute_force_polyfractal(f)
        assert not brute_force_polyfractal(f, degree_bound=1)

    @pytest.mark.parametrize("bound", [-1, -2])
    def test_negative_bound_rejected(self, bound):
        # also on a trivial codomain, where every map is polyfractal
        for r in (4, 1):
            f = FiniteFn.univariate(2, r, [0, 0])
            with pytest.raises(ValueError,
                               match=f"degree bound must be >= 0, got {bound}"):
                brute_force_polyfractal(f, degree_bound=bound)

    def test_agrees_with_block_test_on_small_groups(self):
        for q, r in [(2, 2), (2, 3), (3, 4), (4, 4), (4, 6), (6, 4)]:
            for t in all_tables(q, r):
                f = FiniteFn.univariate(q, r, t)
                assert is_polyfractal(f).polyfractal == brute_force_polyfractal(f)


# Moduli whose prime parts mix 2, 3 and 5.
MIXED_MODULI = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 25, 30)

# Most tables one random counting example enumerates.
COUNT_TABLES = 4096


def _enumerated_hits(domain, codomain):
    """Number of tables on the groups that the block test accepts, over
    every table."""
    elements = list(product(*(range(r) for r in codomain)))
    hits = 0
    for rows in product(elements, repeat=prod(domain)):
        hits += is_polyfractal(FiniteFn(domain, codomain, rows)).polyfractal
    return hits


class TestCountingAgreement:
    @pytest.mark.parametrize("domain,codomain", [
        ((2, 2), (4,)), ((2, 3), (6,)), ((4,), (2, 2)), ((2, 2, 2), (2,)),
        ((3,), (3, 2)), ((8,), (4,)), ((6,), (6,)),
    ])
    def test_enumerated_count_matches_formula(self, domain, codomain):
        assert _enumerated_hits(domain, codomain) == count_polyfractal(domain, codomain)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_mixed_groups(self, data):
        codomain = tuple(data.draw(st.lists(st.sampled_from(MIXED_MODULI),
                                            min_size=1, max_size=2)))
        span = prod(codomain)
        # the domain order n is bounded by |B|^n <= COUNT_TABLES
        room = COUNT_TABLES if span == 1 else max(
            n for n in range(1, COUNT_TABLES) if span**n <= COUNT_TABLES)
        domain = []
        for _ in range(data.draw(st.integers(1, 3))):
            q = data.draw(st.sampled_from([m for m in MIXED_MODULI if m <= room]))
            domain.append(q)
            room //= q
        domain = tuple(domain)
        event(f"{span ** prod(domain)} tables")
        assert _enumerated_hits(domain, codomain) == count_polyfractal(domain, codomain)


@st.composite
def mixed_tables(draw):
    """Tables on 1-3 domain and 1-2 codomain factors over the primes 2, 3
    and 5, at most 200 points: polyfractal by construction, the same with
    one cell changed, or uniformly random."""
    domain = tuple(draw(st.lists(st.sampled_from(MIXED_MODULI), min_size=1,
                                 max_size=3).filter(lambda d: prod(d) <= 200)))
    codomain = tuple(draw(st.lists(st.sampled_from(MIXED_MODULI), min_size=1,
                                   max_size=2)))
    return FiniteFn(domain, codomain, _draw_rows(draw, domain, codomain))


def _draw_rows(draw, domain, codomain):
    """Rows polyfractal by construction, the same with one cell changed, or
    uniformly random."""
    kind = draw(st.sampled_from(("blocks", "perturbed", "random")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        rows = [tuple(rng.randrange(r) for r in codomain)
                for _ in range(prod(domain))]
    else:
        rows = block_built_rows(domain, codomain, rng)
        if kind == "perturbed":
            i = rng.randrange(len(rows))
            rows[i] = tuple(rng.randrange(r) for r in codomain)
    return tuple(rows)


# Cyclic (q, r) over the primes 2, 3 and 5 whose oracle search space
# r^(bound+1) stays within 20,000, so the oracle never raises TooLarge.
ORACLE_PAIRS = tuple(
    (q, r) for q in MIXED_MODULI for r in MIXED_MODULI
    if r ** (periodic_degree_bound(q, r) + 1) <= 20_000
)


@st.composite
def cyclic_tables(draw):
    q, r = draw(st.sampled_from(ORACLE_PAIRS))
    return FiniteFn((q,), (r,), _draw_rows(draw, (q,), (r,)))


class TestOracleDifferential:
    @settings(max_examples=80, deadline=None)
    @given(cyclic_tables())
    def test_block_test_matches_brute_force(self, f):
        verdict = brute_force_polyfractal(f)
        event("polyfractal" if verdict else "not polyfractal")
        assert is_polyfractal(f).polyfractal == verdict


class TestBlockScanDifferential:
    @staticmethod
    def _pinned(f):
        """The block test's verdict, checked against the reference scan."""
        expected = ref_block_scan(f)
        result = is_polyfractal(f)
        assert result.polyfractal == (expected is None)
        if expected is not None:
            assert result.counterexample == Counterexample(*expected)
        return result

    def test_earliest_clash_in_a_later_column(self):
        # prime 2 on Z_6: the Z_2 column first clashes at x = 5, the Z_4
        # column already at x = 3
        f = FiniteFn((6,), (2, 4), columns=([0, 1, 0, 1, 0, 0], [0, 1, 0, 3, 0, 1]))
        assert self._pinned(f).counterexample == Counterexample(2, (1,), (3,))

    def test_prime_with_whole_domain_parts_skipped(self):
        # the 2-parts of Z_4 are Z_4 itself, so only prime 3 can clash
        assert self._pinned(FiniteFn.univariate(4, 12, [1, 4, 7, 10])).polyfractal
        assert self._pinned(FiniteFn.univariate(4, 12, [0, 4, 8, 1])).counterexample \
            == Counterexample(3, (0,), (1,))

    def test_domain_factor_of_one(self):
        domain, codomain = (2, 1, 3), (6,)
        rows = block_built_rows(domain, codomain, random.Random(0))
        assert self._pinned(FiniteFn(domain, codomain, rows)).polyfractal
        rows[4] = ((rows[4][0] + 3) % 6,)  # the point (1, 0, 1) leaves its 2-block
        assert self._pinned(FiniteFn(domain, codomain, rows)).counterexample \
            == Counterexample(2, (1, 0, 0), (1, 0, 1))

    @settings(max_examples=150, deadline=None)
    @given(mixed_tables())
    def test_scan_and_construction_match_reference(self, f):
        expected = ref_block_scan(f)
        event("polyfractal" if expected is None else f"split at prime {expected[0]}")
        result = is_polyfractal(f)
        if expected is None:
            assert result.polyfractal
            witness = represent(f)
            for x, row in zip(f.points(), f.values):
                assert tuple(v.value for v in witness.evaluate(x)) == row
        else:
            assert not result.polyfractal
            assert result.counterexample == Counterexample(*expected)
            assert counterexample_is_valid(f, result.counterexample)
            prime, first, second = expected
            with pytest.raises(NotPolyfractal, match=re.escape(
                    f"block {prime}: points {first} and {second} split")):
                represent(f)


# Mixed-prime shapes with several domain and codomain factors: a block is
# the whole factor (m == r) or a proper part of it, a prime's domain parts
# are trivial or the whole domain, and a codomain factor is trivial.
# Neighbours share a domain or a codomain, so a plan read for the wrong
# shape shows in the alternation.
PLAN_SHAPES = (((6,), (6,)), ((6,), (10,)), ((6,), (2, 9)), ((2, 1, 3), (6, 4)),
               ((12, 5), (6, 4)), ((12, 5), (10, 9)), ((4,), (12,)), ((6, 10), (15, 4)),
               ((6, 10), (4,)), ((3, 4), (1, 6)), ((30,), (2, 3, 5)), ((30,), (6,)))


def _plan_tables(domain, codomain, count, seed):
    """``count`` tables of one shape, in turn uniformly random, built block
    by block, and built with one cell changed."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 3 == 0:
            rows = [tuple(rng.randrange(r) for r in codomain) for _ in range(prod(domain))]
        else:
            rows = block_built_rows(domain, codomain, rng)
            if i % 3 == 2:
                rows[rng.randrange(len(rows))] = tuple(rng.randrange(r) for r in codomain)
        yield FiniteFn(domain, codomain, rows)


class TestBlockPlan:
    """``is_polyfractal`` runs on a plan made once per table shape; every
    table of a shape, and shapes called in alternation, must give the
    reference scan's verdict and counterexample, so a plan built for one
    table or one shape and read for another shows."""

    def test_plan_holds_the_primes_that_can_fail(self):
        # Z_4 -> Z_12: the 2-parts of the domain are the domain itself
        assert classify._block_plan((4,), (12,)) == ((3, (0, 0, 0, 0), ((0, 3, False),)),)
        # Z_6 -> Z_2 x Z_4: the 3-block of the codomain is trivial
        assert classify._block_plan((6,), (2, 4)) == \
            ((2, (0, 1, 0, 1, 0, 1), ((0, 2, True), (1, 4, True))),)

    @pytest.mark.parametrize("domain, codomain", PLAN_SHAPES)
    def test_many_tables_of_one_shape(self, domain, codomain):
        for f in _plan_tables(domain, codomain, 30, sum(domain + codomain)):
            TestBlockScanDifferential._pinned(f)

    def test_two_shapes_in_alternation(self):
        for a, b in zip(PLAN_SHAPES, PLAN_SHAPES[1:]):
            for f, g in zip(_plan_tables(*a, 12, 1), _plan_tables(*b, 12, 2)):
                TestBlockScanDifferential._pinned(f)
                TestBlockScanDifferential._pinned(g)


def _witness_and_block_tables(f):
    """``represent(f)`` and the block tables it hands to the interpolation."""
    tables = []
    interpolate = classify.interpolate_prime_power

    def recording(table):
        tables.append(table)
        return interpolate(table)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "interpolate_prime_power", recording)
        return represent(f), tables


class TestTrustedWitness:
    """``represent`` builds its block tables and its witness without the
    checked constructors; each must equal what those constructors make of
    the same data, and the witness must reproduce the table."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(MIXED_MODULI), min_size=1, max_size=3).filter(
               lambda d: prod(d) <= 200),
           st.lists(st.sampled_from(MIXED_MODULI), min_size=1, max_size=2),
           st.integers(0, 2**32))
    # two primes with nonconstant blocks: block 0's terms come first and
    # sort last; codomain factors of two primes: block values need reducing
    @example([6], [6], 0)
    @example([2, 1, 3], [6, 4], 1)
    @example([12, 5], [10, 9], 2)
    def test_matches_the_checked_constructors(self, domain, codomain, seed):
        domain, codomain = tuple(domain), tuple(codomain)
        f = FiniteFn(domain, codomain, block_built_rows(domain, codomain, random.Random(seed)))
        witness, tables = _witness_and_block_tables(f)
        p = witness.polyfract
        assert p == MultiPolyfract(p.codomain, p.nvars, p.terms)
        for t in tables:
            assert t == FiniteFn(t.domain_moduli, t.codomain_moduli, columns=t.columns)
        for x, row in zip(f.points(), f.values):
            assert tuple(v.value for v in witness.evaluate(x)) == row
