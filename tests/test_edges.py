"""Edge shapes, larger-parameter stress checks and argument checks."""
import ast
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polyfract
from polyfract import (
    DiffOp,
    FiniteFn,
    MultiPolyfract,
    UniPolyfract,
    brute_force_polyfractal,
    cofract,
    degree_bound,
    delta_power,
    divisibility_check,
    extend_information_coeffs,
    grid_vanish_equiv,
    hrycaj_periodicity,
    interpolate_prime_power,
    is_polyfractal,
    lagrange_polyfract,
    padic_valuation,
    periodic_degree_bound,
    represent,
    represent_univariate,
    split_variable,
    taylor_expand,
    taylor_expand_multi,
    wavelength_reduce,
)
from polyfract.cli import emit_polynomial, parse_polynomial
from polyfract.exactnum import check_modulus, factorization


class TestDegenerateShapes:
    def test_empty_domain_table(self):
        f = FiniteFn((), (9,), ((5,),))
        assert f.size == 1
        assert f.value(()) == (5,)
        poly = interpolate_prime_power(f)
        assert poly == MultiPolyfract.constant((5,), (9,), 0)
        assert poly.evaluate(()) == f.residues(())

    def test_empty_domain_taylor(self):
        f = FiniteFn((), (4,), ((3,),))
        assert taylor_expand_multi(f, ()) == MultiPolyfract.constant((3,), (4,), 0)

    def test_empty_domain_classification(self):
        f = FiniteFn((), (12,), ((7,),))
        assert is_polyfractal(f).polyfractal
        w = represent(f)
        assert tuple(r.value for r in w.evaluate(())) == (7,)

    def test_trivial_groups_everywhere(self):
        f = FiniteFn((1, 1), (1, 1), (((0, 0)),) * 1)
        assert is_polyfractal(f).polyfractal
        w = represent(f)
        assert w.polyfract.is_zero()
        assert tuple(r.value for r in w.evaluate((0, 0))) == (0, 0)


class TestLargerParameters:
    def test_indicator_on_nine_mod_twenty_seven(self):
        lag = lagrange_polyfract(3, 2, 3, 4)
        q = 9
        assert lag.degree == q - 1 + 2 * 2 * 3  # 20
        assert lag.values(0, 2 * q) == [
            1 if x % q == 4 else 0 for x in range(2 * q)
        ]

    def test_interpolation_on_eight_into_sixteen(self):
        rng = random.Random(1)
        table = [rng.randrange(16) for _ in range(8)]
        f = FiniteFn.univariate(8, 16, table)
        poly = interpolate_prime_power(f)
        uni = poly.component_uni(0)
        assert uni.values(0, 8) == table
        assert hrycaj_periodicity(uni, 8)
        # support respects the single-variable bound 8 - 1 + 3*1*4
        assert (uni.degree or 0) <= 19

    def test_representation_is_periodic(self):
        rng = random.Random(2)
        for _ in range(20):
            q = rng.choice([2, 3, 4, 6, 8, 9, 12])
            r = rng.choice([2, 3, 4, 6, 8, 9, 12])
            table = [rng.randrange(r) for _ in range(q)]
            f = FiniteFn.univariate(q, r, table)
            if not is_polyfractal(f).polyfractal:
                continue
            uni, _ = represent_univariate(f)
            assert hrycaj_periodicity(uni, q)
            assert uni.values(0, q) == table

    def test_wide_codomain_representation(self):
        # four codomain factors across three primes; each slot built to
        # depend only on its own prime's part of the domain
        rng = random.Random(4)
        domain, codomain = (10,), (4, 5, 3, 2)
        for _ in range(5):
            mod4 = [rng.randrange(4) for _ in range(2)]      # from x mod 2
            mod5 = [rng.randrange(5) for _ in range(5)]      # from x mod 5
            c3 = rng.randrange(3)                            # constant
            mod2 = [rng.randrange(2) for _ in range(2)]      # from x mod 2
            rows = tuple(
                (mod4[x % 2], mod5[x % 5], c3, mod2[x % 2]) for x in range(10)
            )
            f = FiniteFn(domain, codomain, rows)
            assert is_polyfractal(f).polyfractal
            w = represent(f)
            for x in range(10):
                assert tuple(r.value for r in w.evaluate((x,))) == f.values[x]


class TestEmissionFuzz:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_emit_parse_emit_is_stable(self, data):
        nvars = data.draw(st.integers(1, 3))
        width = data.draw(st.integers(1, 3))
        codomain = tuple(data.draw(st.integers(2, 9)) for _ in range(width))
        terms = {}
        for _ in range(data.draw(st.integers(0, 5))):
            exp = tuple(data.draw(st.integers(0, 3)) for _ in range(nvars))
            terms[exp] = tuple(data.draw(st.integers(0, r - 1)) for r in codomain)
        poly = MultiPolyfract(codomain, nvars, tuple(terms.items()))
        for basis in ("binomial", "monomial"):
            text = emit_polynomial(poly, basis)
            restored = parse_polynomial(text)
            assert restored == poly
            assert emit_polynomial(restored, basis) == text


Z6 = FiniteFn.univariate(6, 6, range(6))
Z8 = FiniteFn.univariate(8, 0, range(8))
PAIR = MultiPolyfract((2, 3), 1, (((1,), (1, 2)),))
TWO_VARS = MultiPolyfract((5,), 2, (((0, 0), (1,)), ((1, 1), (2,))))
PERIODIC = UniPolyfract(4, (1, 2))

# Each check that rejects an integer out of range, with its exact message.
OUT_OF_RANGE = [
    ("stride", lambda: DiffOp("stride", 0, 0), "stride must be >= 1"),
    ("delta stride", lambda: DiffOp("delta", 0, 3), "delta stride must be 1, got 3"),
    ("difference power", lambda: delta_power(Z6, -1), "difference power must be >= 0"),
    ("period of the degree bound", lambda: periodic_degree_bound(0, 4),
     "period must be >= 1"),
    ("period of the coefficient criterion", lambda: hrycaj_periodicity(PERIODIC, 0),
     "period must be >= 1"),
    ("period of the wavelength", lambda: wavelength_reduce(PERIODIC, 0),
     "period must be >= 1"),
    ("beta of the divisibility check", lambda: divisibility_check(Z8, -1),
     "beta must be >= 0"),
    ("beta of the degree bound", lambda: degree_bound(2, 0, (1,)), "beta must be >= 1"),
    ("monofract delta", lambda: UniPolyfract.monofract(-1, 4), "delta must be >= 0"),
    ("factorization", lambda: factorization(0), "n must be >= 1"),
    ("modulus", lambda: check_modulus(-1), "modulus must be >= 0"),
    ("univariate modulus", lambda: UniPolyfract(-3, (1,)), "modulus must be >= 0"),
    ("taylor degree bound", lambda: taylor_expand(Z6, -1),
     "degree bound must be >= 0, got -1"),
    ("multivariate degree bound", lambda: taylor_expand_multi(Z6, (-2,)),
     "degree bound must be >= 0, got -2"),
    ("oracle degree bound", lambda: brute_force_polyfractal(Z6, degree_bound=-1),
     "degree bound must be >= 0, got -1"),
]

# Arguments of the wrong type or kind: each raises ValueError naming it.
REJECTED = [
    ("oracle degree bound", lambda: brute_force_polyfractal(Z6, degree_bound=1.5),
     "degree bound 1.5 is not an integer"),
    ("valuation of a float", lambda: padic_valuation(12.5, 2), "n 12.5 is not an integer"),
    ("table index", lambda: Z6.index((2.5,)), "coordinate 2.5 is not an integer"),
    ("table value", lambda: Z6.value((2.0,)), "coordinate 2.0 is not an integer"),
    ("table residues", lambda: Z6.residues((2.5,)), "coordinate 2.5 is not an integer"),
    ("witness", lambda: represent(Z6).evaluate((2.5,)),
     "coordinate 2.5 is not an integer"),
    ("multivariate point", lambda: TWO_VARS.evaluate((2.5, 1)),
     "coordinate 2.5 is not an integer"),
    ("multivariate point after a zero binomial",
     lambda: MultiPolyfract((5,), 2, (((1, 1), (1,)),)).evaluate((0, 2.5)),
     "coordinate 2.5 is not an integer"),
    ("multivariate point of zero", lambda: MultiPolyfract.zero((5,), 2).evaluate((2.5, 0)),
     "coordinate 2.5 is not an integer"),
    ("univariate point", lambda: PERIODIC.evaluate(2.5), "point 2.5 is not an integer"),
    ("value table stop", lambda: PERIODIC.values(0, 2.5), "stop 2.5 is not an integer"),
    ("grid bound", lambda: grid_vanish_equiv(TWO_VARS, (1, 1.5)),
     "grid bound 1.5 is not an integer"),
    ("cofract point", lambda: cofract(3, 2, 0, 0.5), "x 0.5 is not an integer"),
    ("cofract degree", lambda: cofract(3.0, 2, 0, 1), "d 3.0 is not an integer"),
    ("cofract period", lambda: cofract(3, 2.0, 0, 1), "q 2.0 is not an integer"),
    ("split period factor", lambda: split_variable(PAIR, 2.0, 3),
     "q1 2.0 is not an integer"),
    ("split period", lambda: split_variable(PAIR, 0, 3), "period must be >= 1"),
    ("information coefficient", lambda: extend_information_coeffs([1.5, 0], 2, 1, 2),
     "information coefficient 1.5 is not an integer"),
]


class TestArgumentChecks:
    def test_stride_boundary(self):
        assert DiffOp("stride", 0, 1).stride == 1
        with pytest.raises(ValueError, match="^stride must be >= 1$"):
            DiffOp("stride", 0, 0)

    @pytest.mark.parametrize("call, message", [row[1:] for row in OUT_OF_RANGE],
                             ids=[row[0] for row in OUT_OF_RANGE])
    def test_out_of_range_integer(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert info.type is ValueError and str(info.value) == message

    @pytest.mark.parametrize("call, message", [row[1:] for row in REJECTED],
                             ids=[row[0] for row in REJECTED])
    def test_rejected_argument(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert info.type is ValueError and str(info.value) == message


def test_only_the_monomial_edge_imports_fractions():
    # Fraction belongs to the monomial-basis I/O boundary: the polyfract
    # modules and the command line that parses and emits monomial files
    importers = set()
    for info in pkgutil.iter_modules(polyfract.__path__):
        path = Path(polyfract.__path__[0]) / f"{info.name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "fractions" in names:
                importers.add(info.name)
    assert importers == {"uni", "multi", "cli"}
