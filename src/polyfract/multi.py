"""Multivariate polyfracts over tuple codomains Z_{r_1} x ... x Z_{r_t}.

A term maps an exponent tuple d to a coefficient tuple, one slot per
codomain factor; the induced map sends x to the componentwise-reduced sum
of coeff * C(x_1, d_1) * ... * C(x_n, d_n).  Ring arithmetic works slot by
slot, with multiplication running the five-step procedure generalized to n
variables: expand into sparse rational monomials, multiply, re-express in
the binomial basis, reduce.  Both basis changes are the n-variable drivers
in ``uni`` (``_expand_to_monomials`` and ``_binomial_coeffs``), which run
the univariate kernels ``_to_monomial`` and ``_to_falling`` along one
variable at a time; ``NotIntegerValued`` names the first coefficient that
is not an integer by its exponent tuple, or by its degree for one variable.
The rational monomials are kept as integer numerators over one denominator
per polynomial; ``Fraction`` appears only in ``RationalPolyMulti``, the
monomial-basis edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Callable, Mapping, Sequence

from .errors import ArityMismatch, ModulusMismatch
from .exactnum import Residue, as_integer, balanced_lift, binom, canonical
from .uni import (
    RationalPoly, UniPolyfract, _MPoly, _binomial_coeffs, _expand_to_monomials,
    _numerators, _to_monomial,
)

__all__ = [
    "MultiPolyfract",
    "RationalPolyMulti",
    "compose",
    "grid_vanish_equiv",
    "merge_variables",
]

def _normal_terms(terms, nvars: int, width: int,
                  coerce: Callable[[tuple], tuple]) -> tuple:
    """The unique term form: one term per exponent (the last given wins),
    each an int exponent tuple of arity ``nvars`` with a coefficient tuple
    of ``width`` entries passed through ``coerce``, all-zero coefficient
    tuples dropped, sorted by exponent."""
    cleaned = []
    for exp, coeffs in dict(terms).items():
        exp = tuple(as_integer(e, "exponent") for e in exp)
        if len(exp) != nvars:
            raise ArityMismatch(f"exponent {exp} has arity != {nvars}")
        coeffs = tuple(coeffs)
        if len(coeffs) != width:
            raise ArityMismatch("coefficient tuple width mismatch")
        coeffs = coerce(coeffs)
        if any(coeffs):
            cleaned.append((exp, coeffs))
    cleaned.sort(key=lambda t: t[0])
    return tuple(cleaned)


def _join_slots(slots: Sequence[Mapping[tuple[int, ...], object]]) -> tuple:
    """Terms (exponent, coefficient tuple) from one {exponent: coefficient}
    map per codomain slot; a slot without an exponent reads 0 there."""
    return tuple((exp, tuple(sl.get(exp, 0) for sl in slots))
                 for exp in set().union(*slots))


def _mpoly_mul(a: _MPoly, b: _MPoly) -> _MPoly:
    out: _MPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


@dataclass(frozen=True)
class RationalPolyMulti:
    """Sparse monomial-basis polynomial with rational tuple coefficients."""

    nvars: int
    width: int
    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _normal_terms(
            self.terms, self.nvars, self.width, lambda cs: tuple(map(Fraction, cs))
        ))

    def evaluate(self, x: Sequence[int]) -> tuple[Fraction, ...]:
        if len(x) != self.nvars:
            raise ArityMismatch(f"expected {self.nvars} coordinates")
        out = [Fraction(0)] * self.width
        for exp, coeffs in self.terms:
            mono = 1
            for xi, e in zip(x, exp):
                mono *= xi**e
            for i, c in enumerate(coeffs):
                out[i] += c * mono
        return tuple(out)

    def slot(self, i: int) -> dict[tuple[int, ...], Fraction]:
        return {exp: coeffs[i] for exp, coeffs in self.terms if coeffs[i]}


@dataclass(frozen=True)
class MultiPolyfract:
    """Sparse multivariate polyfract over a product-of-cycles codomain.

    Terms are stored sorted lexicographically by exponent; all-zero
    coefficient tuples are dropped, so structural equality is equality of
    induced maps (the representation is unique).
    """

    codomain: tuple[int, ...]
    nvars: int
    terms: tuple = ()

    def __post_init__(self):
        codomain = tuple(as_integer(r, "codomain modulus") for r in self.codomain)
        if any(r < 0 for r in codomain):
            raise ValueError("codomain moduli must be >= 0")
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "terms", _normal_terms(
            self.terms, self.nvars, len(codomain),
            lambda cs: tuple(canonical(as_integer(c, "coefficient"), r)
                             for c, r in zip(cs, codomain)),
        ))

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, codomain: tuple[int, ...], nvars: int,
                 terms: tuple) -> "MultiPolyfract":
        """Build without ``__post_init__``.  The caller guarantees a checked
        codomain tuple and a tuple of terms sorted by exponent, each an int
        exponent tuple of arity ``nvars`` with a coefficient tuple of
        canonical ints, one per codomain slot, not all zero."""
        p = object.__new__(cls)
        object.__setattr__(p, "codomain", codomain)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, codomain: Sequence[int], nvars: int) -> "MultiPolyfract":
        return cls(tuple(codomain), nvars, ())

    @classmethod
    def constant(cls, values: Sequence[int], codomain: Sequence[int],
                 nvars: int) -> "MultiPolyfract":
        return cls(tuple(codomain), nvars, (((0,) * nvars, tuple(values)),))

    @classmethod
    def one(cls, codomain: Sequence[int], nvars: int) -> "MultiPolyfract":
        return cls.constant((1,) * len(tuple(codomain)), codomain, nvars)

    @classmethod
    def from_uni(cls, p: UniPolyfract) -> "MultiPolyfract":
        terms = [((d,), (c,)) for d, c in enumerate(p.coeffs) if c]
        return cls((p.modulus,), 1, tuple(terms))

    @classmethod
    def from_components(cls, components: Sequence[UniPolyfract]) -> "MultiPolyfract":
        """Bundle univariate polyfracts into one single-variable polyfract
        with tuple coefficients, one codomain slot per component."""
        codomain = tuple(p.modulus for p in components)
        degrees = [len(p.coeffs) for p in components]
        terms = []
        for d in range(max(degrees, default=0)):
            terms.append(((d,), tuple(p.coefficient(d) for p in components)))
        return cls(codomain, 1, tuple(terms))

    @classmethod
    def from_rational(cls, poly: RationalPolyMulti,
                      codomain: Sequence[int]) -> "MultiPolyfract":
        codomain = tuple(codomain)
        if len(codomain) != poly.width:
            raise ArityMismatch("codomain width differs from coefficient width")
        slot_coeffs = []
        for i in range(poly.width):
            slot = poly.slot(i)
            nums, den = _numerators(slot.values())
            slot_coeffs.append(_binomial_coeffs(dict(zip(slot, nums)), den, poly.nvars))
        return cls(codomain, poly.nvars, _join_slots(slot_coeffs))

    # -- views ---------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.codomain)

    def term_map(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(self.terms)

    def slot_map(self, i: int) -> dict[tuple[int, ...], int]:
        return {exp: coeffs[i] for exp, coeffs in self.terms if coeffs[i]}

    def component_uni(self, i: int) -> UniPolyfract:
        """Slot i as a univariate polyfract; requires nvars == 1."""
        if self.nvars != 1:
            raise ArityMismatch("component_uni needs a single-variable polyfract")
        coeffs = [0] * (max((exp[0] for exp, _ in self.terms), default=-1) + 1)
        for exp, cs in self.terms:
            coeffs[exp[0]] = cs[i]
        return UniPolyfract(self.codomain[i], tuple(coeffs))

    def is_zero(self) -> bool:
        return not self.terms

    # -- evaluation and calculus ----------------------------------------

    def evaluate(self, x: Sequence[int]) -> tuple[Residue, ...]:
        if len(x) != self.nvars:
            raise ArityMismatch(
                f"point has {len(x)} coordinates, polyfract has {self.nvars}"
            )
        acc = [0] * self.width
        for exp, coeffs in self.terms:
            mono = 1
            for xi, e in zip(x, exp):
                mono *= binom(xi, e)
                if not mono:
                    break
            if not mono:
                continue
            for i, c in enumerate(coeffs):
                acc[i] += c * mono
        return tuple(Residue(v, r) for v, r in zip(acc, self.codomain))

    def difference(self, var: int) -> "MultiPolyfract":
        """Forward difference in one variable, acting on coefficients."""
        if not 0 <= var < self.nvars:
            raise ArityMismatch(f"variable {var} out of range")
        terms = []
        for exp, coeffs in self.terms:
            if exp[var] >= 1:
                dropped = exp[:var] + (exp[var] - 1,) + exp[var + 1:]
                terms.append((dropped, coeffs))
        return MultiPolyfract(self.codomain, self.nvars, tuple(terms))

    def degrees(self) -> tuple[int | None, tuple[int | None, ...]]:
        """(total degree, per-variable partial degrees); None when zero."""
        if not self.terms:
            return None, (None,) * self.nvars
        total = max(sum(exp) for exp, _ in self.terms)
        partials = tuple(
            max(exp[i] for exp, _ in self.terms) for i in range(self.nvars)
        )
        return total, partials

    # -- ring structure --------------------------------------------------

    def _check(self, other: "MultiPolyfract") -> None:
        if self.codomain != other.codomain:
            raise ModulusMismatch(
                f"codomains differ: {self.codomain} vs {other.codomain}"
            )
        if self.nvars != other.nvars:
            raise ArityMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "MultiPolyfract") -> "MultiPolyfract":
        self._check(other)
        acc = self.term_map()
        for exp, coeffs in other.terms:
            if exp in acc:
                acc[exp] = tuple(a + b for a, b in zip(acc[exp], coeffs))
            else:
                acc[exp] = coeffs
        return MultiPolyfract(self.codomain, self.nvars, tuple(acc.items()))

    def __neg__(self) -> "MultiPolyfract":
        terms = tuple(
            (exp, tuple(-c for c in coeffs)) for exp, coeffs in self.terms
        )
        return MultiPolyfract(self.codomain, self.nvars, terms)

    def __sub__(self, other: "MultiPolyfract") -> "MultiPolyfract":
        return self + (-other)

    def __mul__(self, other: "MultiPolyfract") -> "MultiPolyfract":
        """Componentwise five-step product over the tuple codomain."""
        self._check(other)
        slot_results = []
        for i in range(self.width):
            a, da = _expand_to_monomials(self.slot_map(i))
            b, db = _expand_to_monomials(other.slot_map(i))
            slot_results.append(_binomial_coeffs(_mpoly_mul(a, b), da * db, self.nvars))
        return MultiPolyfract(self.codomain, self.nvars, _join_slots(slot_results))

    def to_rational(self, lift: str = "balanced") -> RationalPolyMulti:
        """Monomial-basis representative with rational tuple coefficients."""
        slots = []
        for i, r in enumerate(self.codomain):
            int_terms = self.slot_map(i)
            if lift == "balanced":
                int_terms = {e: balanced_lift(c, r) for e, c in int_terms.items()}
            elif lift != "canonical":
                raise ValueError(f"unknown lift {lift!r}")
            mono, den = _expand_to_monomials(int_terms)
            slots.append({exp: Fraction(n, den) for exp, n in mono.items()})
        return RationalPolyMulti(self.nvars, self.width, _join_slots(slots))

    def __repr__(self) -> str:
        return (
            f"MultiPolyfract(codomain={self.codomain}, nvars={self.nvars}, "
            f"terms={list(self.terms)})"
        )


def compose(q: UniPolyfract, p: MultiPolyfract) -> MultiPolyfract:
    """Substitute the polyfract p into q; both must be over Z (modulus 0).

    The composed rational polynomial is integer valued, hence again a
    polyfract; for nonconstant inputs its degree is deg(q) * deg(p).  With
    q = sum_k a_k X^k / (deg q)! and p = P / D, Horner's rule runs on the
    integer numerators of sum_k a_k P^k D^(deg q - k) over (deg q)! D^(deg q).
    """
    if q.modulus != 0 or p.codomain != (0,):
        raise ModulusMismatch("composition is defined over modulus 0 only")
    p_mono, p_den = _expand_to_monomials(p.slot_map(0))
    top = max(len(q.coeffs) - 1, 0)
    q_nums, q_den = _to_monomial(q.coeffs, top), factorial(top)
    zero_exp = (0,) * p.nvars
    acc: _MPoly = {}
    power = 1  # D^(deg q - k) for the coefficient a_k being added
    for c in reversed(q_nums):
        acc = _mpoly_mul(acc, p_mono)
        if c:
            v = acc.get(zero_exp, 0) + c * power
            if v:
                acc[zero_exp] = v
            else:
                acc.pop(zero_exp, None)
        power *= p_den
    den = q_den * p_den ** max(len(q_nums) - 1, 0)
    coeffs = _binomial_coeffs(acc, den, p.nvars)
    return MultiPolyfract((0,), p.nvars, _join_slots([coeffs]))


def grid_vanish_equiv(p: MultiPolyfract, bounds: Sequence[int]) -> tuple[bool, bool]:
    """Evaluate both sides of the grid-vanishing equivalence independently.

    Returns (no coefficient with exponent inside the grid, all values on
    the grid are zero); the two booleans always agree.
    """
    bounds = tuple(bounds)
    if len(bounds) != p.nvars:
        raise ArityMismatch(
            f"grid has {len(bounds)} bounds, polyfract has {p.nvars} variables"
        )
    coeffs_vanish = not any(
        all(e <= d for e, d in zip(exp, bounds)) for exp, _ in p.terms
    )
    values_vanish = all(
        all(r.is_zero() for r in p.evaluate(x))
        for x in product(*(range(d + 1) for d in bounds))
    )
    return coeffs_vanish, values_vanish


def merge_variables(p: MultiPolyfract) -> MultiPolyfract:
    """Substitute one shared variable X for every X_j.

    Inverse of variable splitting, slot by slot: the slot is expanded into
    monomial numerators over one denominator, numerators of equal total
    degree are added (X_1^k_1...X_n^k_n becomes X^(k_1+...+k_n)), and the
    univariate rational polynomial is re-expressed in the binomial basis.
    """
    components = []
    for i, r in enumerate(p.codomain):
        mono, den = _expand_to_monomials(p.slot_map(i))
        nums = [0] * (max(map(sum, mono), default=-1) + 1)
        for exp, c in mono.items():
            nums[sum(exp)] += c
        rp = RationalPoly(tuple(Fraction(n, den) for n in nums))
        components.append(UniPolyfract.from_rational(rp, r))
    return MultiPolyfract.from_components(components)
