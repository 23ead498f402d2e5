"""Multivariate polyfracts over tuple codomains Z_{r_1} x ... x Z_{r_t}.

A term maps an exponent tuple d to a coefficient tuple, one slot per
codomain factor; the induced map sends x to the componentwise-reduced sum
of coeff * C(x_1, d_1) * ... * C(x_n, d_n).  Ring arithmetic works slot by
slot.  By the paper's Taylor-type theorem a polyfract's coefficients are
its differences Delta^e f(0), so one of degree at most D_j in variable j
is fixed by its values on the box prod_j [0..D_j].  Products, ``compose``
and ``calculus.taylor_expand_multi`` gather those values and end in
``_from_box``: the difference triangle ``uni.box_coeffs`` in integers
reduced mod r.  The monomial basis is the I/O edge:
``to_rational``, ``from_rational`` and ``merge_variables`` run the
n-variable basis-change drivers in ``uni`` (``_expand_to_monomials`` and
``_binomial_coeffs``) on integer numerators over one denominator per
polynomial; ``NotIntegerValued`` names the first coefficient that is not
an integer by its exponent tuple, or by its degree for one variable.
``Fraction`` appears only in ``RationalPolyMulti``, the monomial-basis
edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product, zip_longest
from math import factorial, prod
from operator import index, mul
from typing import Callable, Mapping, Sequence

from .errors import ArityMismatch, ModulusMismatch, TooLarge
from .exactnum import Residue, as_integer, balanced_lift, binom, canonical
from .uni import (
    RationalPoly, UniPolyfract, _binomial_coeffs, _expand_to_monomials, _numerators,
    _to_monomial, box_coeffs, box_values,
)

__all__ = [
    "MultiPolyfract",
    "RationalPolyMulti",
    "compose",
    "grid_vanish_equiv",
    "merge_variables",
]

# Most points of the box a product or compose runs on.  Each point is one
# int in each of a few flat lists at once: a square on 99**3 points peaks
# near 140 MB on 64-bit CPython 3.11.  A larger box raises TooLarge before
# anything is built.
MAX_BOX_POINTS = 1 << 20


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
        p.__dict__.update(codomain=codomain, nvars=nvars, terms=terms)
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
        return cls.from_components([p])

    @classmethod
    def from_components(cls, components: Sequence[UniPolyfract]) -> "MultiPolyfract":
        """Bundle univariate polyfracts into one single-variable polyfract
        with tuple coefficients, one codomain slot per component.  Built
        trusted: the components' coefficients are canonical and the terms
        come in degree order, so only all-zero coefficient tuples drop."""
        slots = zip_longest(*[p.coeffs for p in components], fillvalue=0)
        return cls._trusted(tuple([index(p.modulus) for p in components]), 1,
                            tuple([((d,), cs) for d, cs in enumerate(slots) if any(cs)]))

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
        """Values at x, one residue per slot.  Every coordinate is checked
        before any term is summed: one that is not an integer raises
        ValueError naming it, even where each term's binomial is 0."""
        if len(x) != self.nvars:
            raise ArityMismatch(
                f"point has {len(x)} coordinates, polyfract has {self.nvars}"
            )
        x = [as_integer(xi, "coordinate") for xi in x]
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
        if not 0 <= as_integer(var, "variable", ArityMismatch) < self.nvars:
            raise ArityMismatch(f"variable {var} out of range")
        terms = tuple((exp[:var] + (exp[var] - 1,) + exp[var + 1:], coeffs)
                      for exp, coeffs in self.terms if exp[var] >= 1)
        return MultiPolyfract(self.codomain, self.nvars, terms)

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
        """Product over the tuple codomain, slot by slot, on the degree box.

        P*Q has degree at most D_j = deg_j P + deg_j Q in variable j, so its
        coefficients are the differences Delta^e (P*Q)(0) on the box
        prod_j [0..D_j]: both operands' values there (``box_values``),
        multiplied pointwise, and the difference triangle back
        (``box_coeffs``), all in integers reduced mod r.  The cost grows
        with the box, prod_j (D_j + 1) points times sum_j (D_j + 1), not
        with the number of terms; a box of more than ``MAX_BOX_POINTS``
        points raises ``TooLarge`` before any of it is built.
        """
        self._check(other)
        if not self.terms or not other.terms:
            return MultiPolyfract._trusted(self.codomain, self.nvars, ())
        shape_a, shape_b = self._shape(), other._shape()
        sizes = _checked_box(tuple(x + y - 1 for x, y in zip(shape_a, shape_b)))
        return _from_box(self.codomain, [
            list(map(mul, box_values(ca, shape_a, sizes, r),
                     box_values(cb, shape_b, sizes, r)))
            for ca, cb, r in zip(self._box(shape_a), other._box(shape_b), self.codomain)
        ], sizes)

    def _shape(self) -> tuple[int, ...]:
        """deg_j + 1 for each variable j; needs a nonzero self."""
        return tuple(max(col) + 1 for col in zip(*(exp for exp, _ in self.terms)))

    def _box(self, shape: tuple[int, ...]) -> list[list[int]]:
        """The coefficients on the box prod_j [0..shape[j]), one row-major
        flat list per slot; ``shape`` is ``self._shape()``."""
        strides = [1] * self.nvars
        for j in range(self.nvars - 1, 0, -1):
            strides[j - 1] = strides[j] * shape[j]
        flats = [[0] * prod(shape) for _ in self.codomain]
        for exp, coeffs in self.terms:
            at = sum(map(mul, exp, strides))
            for flat, c in zip(flats, coeffs):
                flat[at] = c
        return flats

    def to_rational(self) -> RationalPolyMulti:
        """Monomial-basis representative with rational tuple coefficients,
        expanded from the balanced lifts (``balanced_lift``)."""
        slots = []
        for i, r in enumerate(self.codomain):
            mono, den = _expand_to_monomials(
                {e: balanced_lift(c, r) for e, c in self.slot_map(i).items()})
            slots.append({exp: Fraction(n, den) for exp, n in mono.items()})
        return RationalPolyMulti(self.nvars, self.width, _join_slots(slots))

    def __repr__(self) -> str:
        return (
            f"MultiPolyfract(codomain={self.codomain}, nvars={self.nvars}, "
            f"terms={list(self.terms)})"
        )


def compose(q: UniPolyfract, p: MultiPolyfract) -> MultiPolyfract:
    """Substitute the polyfract p into q; both must be over Z (modulus 0).

    The composed map is integer valued, hence again a polyfract, of degree
    at most D_j = deg(q) * deg_j(p) in variable j.  Its coefficients are
    the differences on the box prod_j [0..D_j]: p's values there
    (``box_values``), q evaluated at each distinct value, and the
    difference triangle back (``box_coeffs``).  As for the product, the
    cost grows with the box, and one of more than ``MAX_BOX_POINTS``
    points raises ``TooLarge`` before any of it is built.
    """
    if q.modulus != 0 or p.codomain != (0,):
        raise ModulusMismatch("composition is defined over modulus 0 only")
    if not q.coeffs or not p.terms:
        return MultiPolyfract.constant((q.coefficient(0),), (0,), p.nvars)
    shape = p._shape()
    top = len(q.coeffs) - 1
    sizes = _checked_box(tuple(top * (m - 1) + 1 for m in shape))
    (flat,) = p._box(shape)
    values = box_values(flat, shape, sizes, 0)
    nums, den = _to_monomial(q.coeffs, top)[::-1], factorial(top)
    at = {v: reduce(lambda acc, c: acc * v + c, nums, 0) // den for v in set(values)}
    return _from_box((0,), [[at[v] for v in values]], sizes)


def _checked_box(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """The box sizes, once their product is known to be at most
    ``MAX_BOX_POINTS``; otherwise TooLarge."""
    points = prod(sizes)
    if points > MAX_BOX_POINTS:
        raise TooLarge(f"degree box {' x '.join(map(str, sizes))} has {points} "
                       f"points, more than {MAX_BOX_POINTS}")
    return sizes


def _from_box(codomain: tuple[int, ...], values: Sequence[list[int]],
              sizes: tuple[int, ...]) -> MultiPolyfract:
    """The polyfract of degree below sizes[j] in each variable j with the
    given values on the box prod_j [0..sizes[j]), one row-major list per
    slot; row-major order is exponent order, so the terms come sorted."""
    slots = [box_coeffs(vals, sizes, r) for vals, r in zip(values, codomain)]
    terms = tuple(term for term in zip(product(*map(range, sizes)), zip(*slots))
                  if any(term[1]))
    return MultiPolyfract._trusted(codomain, len(sizes), terms)


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
    bounds = tuple(as_integer(d, "grid bound") for d in bounds)
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
    A one-variable polyfract comes back as it is: X for X_1 is the identity.
    """
    if p.nvars == 1:
        return p
    components = []
    for i, r in enumerate(p.codomain):
        mono, den = _expand_to_monomials(p.slot_map(i))
        nums = [0] * (max(map(sum, mono), default=-1) + 1)
        for exp, c in mono.items():
            nums[sum(exp)] += c
        rp = RationalPoly(tuple(Fraction(n, den) for n in nums))
        components.append(UniPolyfract.from_rational(rp, r))
    return MultiPolyfract.from_components(components)
