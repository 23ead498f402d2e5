"""Univariate polyfracts: binomial-basis polynomials with coefficients mod r.

A polyfract ``P = P_0*C(X,0) + P_1*C(X,1) + ... + P_d*C(X,d)`` over Z_r is
identified with the map Z -> Z_r it induces; that identification is
injective, so canonical coefficient form (trailing zeros trimmed, canonical
representatives) makes equality of values structural equality.

Multiplication follows the five-step route: lift coefficients to integers,
expand into the rational monomial basis, multiply there, re-express in the
binomial basis, reduce mod r.  Every step runs on integer numerators over
one shared denominator, and the two basis changes are one kernel pair:
``_to_monomial`` (Horner's rule in the falling-factorial basis) and
``_to_falling`` (repeated synthetic division).  The n-variable drivers
that run the pair along one variable at a time on sparse polynomials,
``_expand_to_monomials`` and ``_binomial_coeffs``, live here too; the
latter serves ``UniPolyfract.from_rational`` with n = 1 and raises
``NotIntegerValued`` naming the first failing coefficient by ``degree m``
for one variable and by ``exponent (e_1, ..., e_n)`` otherwise.
``Fraction`` appears only in the ``RationalPoly`` values handed across the
monomial-basis edge.

Whole value tables come from ``table_values``, the inverse of the
forward-difference transform: iterated prefix sums of the differences
at the first point, with no binomial per point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import factorial, lcm, prod
from operator import sub
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ModulusMismatch, NotIntegerValued
from .exactnum import Residue, as_integer, balanced_lift, canonical

__all__ = [
    "RationalPoly",
    "UniPolyfract",
    "binom_poly",
    "coeffs_from_values",
    "table_values",
]


def _to_monomial(coeffs: Sequence[int], top: int) -> list[int]:
    """Integers N with sum_d coeffs[d]*C(X, d) = N(X)/top!, constant term
    first; top must be at least the last index of coeffs.

    Horner's rule in the falling-factorial basis: N is
    sum_d coeffs[d]*top!/d! * X(X-1)...(X-d+1).  A loop, not a recursion,
    so any degree works.
    """
    if not coeffs:
        return []
    nums: list[int] = []
    scale = factorial(top) // factorial(len(coeffs) - 1)  # top!/d!
    for d in range(len(coeffs) - 1, -1, -1):
        # nums <- nums * (X - d) + coeffs[d] * top!/d!
        nums = [lo - d * hi for lo, hi in zip([0, *nums], [*nums, 0])]
        nums[0] += coeffs[d] * scale
        scale *= d
    return nums


def _to_falling(nums: Sequence[int]) -> list[int]:
    """Integers A with N = sum_m A_m * X(X-1)...(X-m+1), for the integer
    polynomial N given constant term first.

    Divides by X, X-1, X-2, ... in turn; A_m is the m-th remainder.
    """
    work = list(nums)
    out = []
    for k in range(len(work)):
        for j in range(len(work) - 2, -1, -1):
            work[j] += k * work[j + 1]
        out.append(work.pop(0))
    return out


def table_values(coeffs: Sequence[int], modulus: int, start: int,
                 stop: int) -> list[int]:
    """Values sum_d coeffs[d]*C(x, d) for start <= x < stop, reduced mod
    modulus (left as integers for modulus 0).

    Row k holds Delta^k P(x) for x = start..stop-1: it starts at
    Delta^k P(start) and goes on by the prefix sums of row k+1, so m - 1
    prefix sums from the constant top row down cost O(n*m) additions.
    Delta^k P(0) = P_k; elsewhere Delta^k P(start) = sum_j P_j*C(start, j-k).
    Only the last row is reduced, which is faster on the sweeps' small
    tables; the rows grow by about log2(n) bits each.
    """
    n = stop - start
    if n <= 0:
        return []
    if not coeffs:
        return [0] * n
    diffs = coeffs if start == 0 else _differences_at(coeffs, start)
    row = [diffs[-1]] * n
    for d in reversed(diffs[:-1]):
        row = list(accumulate(row[:-1], initial=d))
    return [v % modulus for v in row] if modulus else row


def _differences_at(coeffs: Sequence[int], start: int) -> list[int]:
    """Delta^k P(start) for k = 0..m-1: sum_j coeffs[j]*C(start, j - k)."""
    row = [1]  # C(start, i) for i = 0..m-1
    for i in range(1, len(coeffs)):
        row.append(row[-1] * (start - i + 1) // i)
    return [sum(c * b for c, b in zip(coeffs[k:], row))
            for k in range(len(coeffs))]


def binom_poly(delta: int) -> tuple[Fraction, ...]:
    """Monomial coefficients (constant term first) of C(X, delta) over Q."""
    fac = factorial(delta)
    return tuple(Fraction(n, fac) for n in _to_monomial((0,) * delta + (1,), delta))


def _numerators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the values over their least common denominator."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two dense integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _trim(seq: list) -> list:
    while seq and not seq[-1]:
        seq.pop()
    return seq


# Internal sparse polynomials with integer coefficients: exponent tuple ->
# int.  A rational polynomial is such a dict of numerators together with
# one shared denominator.
_MPoly = dict


def _along(poly: _MPoly, axis: int,
           kernel: Callable[[list[int]], list[int]]) -> _MPoly:
    """Apply a dense univariate kernel to a sparse polynomial along one
    variable: the terms are grouped by their other exponents, each group
    becomes one dense row indexed by the exponent of ``axis``, and the
    kernel's output rows are scattered back."""
    rows: dict[tuple[int, ...], list[int]] = {}
    for exp, c in poly.items():
        row = rows.setdefault(exp[:axis] + exp[axis + 1:], [])
        k = exp[axis]
        if k >= len(row):
            row.extend([0] * (k + 1 - len(row)))
        row[k] = c
    out: _MPoly = {}
    for rest, row in rows.items():
        head, tail = rest[:axis], rest[axis:]
        for k, v in enumerate(kernel(row)):
            if v:
                out[head + (k,) + tail] = v
    return out


def _expand_to_monomials(int_terms: Mapping[tuple[int, ...], int]) -> tuple[_MPoly, int]:
    """Monomial numerators of sum c*C(X, e) over the denominator
    prod_j (max e_j)!, the largest exponent of each variable: the
    univariate ``_to_monomial`` run along each variable in turn."""
    poly = {exp: c for exp, c in int_terms.items() if c}
    tops = [max(col) for col in zip(*poly)]
    for axis, top in enumerate(tops):
        poly = _along(poly, axis, partial(_to_monomial, top=top))
    return poly, prod(factorial(top) for top in tops)


def _binomial_coeffs(poly: _MPoly, den: int, nvars: int) -> dict[tuple[int, ...], int]:
    """Binomial-basis coefficients of the rational polynomial poly / den in
    n variables.

    The univariate ``_to_falling`` run along each variable gives integers
    A_e with poly = sum_e A_e * prod_j X_j(X_j-1)...(X_j-e_j+1), so the
    coefficient of C(X_1,e_1)...C(X_n,e_n) is A_e * e_1!...e_n! / den.
    Each must be an integer (the polynomial is integer valued), or
    NotIntegerValued is raised for the first that is not, the terms taken
    by their exponents read from the last variable to the first, largest
    first.
    """
    for axis in range(nvars):
        poly = _along(poly, axis, _to_falling)
    out: dict[tuple[int, ...], int] = {}
    for exp in sorted(poly, key=lambda e: e[::-1], reverse=True):
        c = poly[exp] * prod(map(factorial, exp))
        ci, rest = divmod(c, den)
        if rest:
            where = f"degree {exp[0]}" if nvars == 1 else f"exponent {exp}"
            raise NotIntegerValued(
                f"binomial coefficient at {where} is {Fraction(c, den)}, not an integer"
            )
        out[exp] = ci
    return out


@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial over Q in the ordinary monomial basis.

    Coefficients are indexed by exponent, stored in lowest terms with
    trailing zeros trimmed (the zero polynomial has no coefficients).
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        normalized = _trim([Fraction(c) for c in self.coeffs])
        object.__setattr__(self, "coeffs", tuple(normalized))

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __call__(self, x: int | Fraction) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if not self.coeffs or not other.coeffs:
            return RationalPoly()
        na, da = _numerators(self.coeffs)
        nb, db = _numerators(other.coeffs)
        den = da * db
        return RationalPoly(tuple(Fraction(n, den) for n in _convolve(na, nb)))

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)


@dataclass(frozen=True)
class UniPolyfract:
    """Finite coefficient sequence in the binomial basis over Z_r.

    ``coeffs[d]`` multiplies C(X, d); coefficients are canonical residues
    and trailing zeros are not stored, so the zero polyfract is the empty
    sequence.
    """

    modulus: int
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if as_integer(self.modulus, "modulus") < 0:
            raise ValueError("modulus must be >= 0")
        reduced = _trim([canonical(as_integer(c, "coefficient"), self.modulus)
                         for c in self.coeffs])
        object.__setattr__(self, "coeffs", tuple(reduced))

    @classmethod
    def zero(cls, modulus: int) -> "UniPolyfract":
        return cls(modulus, ())

    @classmethod
    def constant(cls, value: int, modulus: int) -> "UniPolyfract":
        return cls(modulus, (value,))

    @classmethod
    def monofract(cls, delta: int, modulus: int) -> "UniPolyfract":
        """The basis element C(X, delta) over Z_r."""
        if as_integer(delta, "delta") < 0:
            raise ValueError("delta must be >= 0")
        return cls(modulus, (0,) * delta + (1,))

    @classmethod
    def from_rational(cls, poly: RationalPoly, modulus: int) -> "UniPolyfract":
        """Unique polyfract inducing the same map mod r as an integer-valued
        rational polynomial; raises NotIntegerValued otherwise."""
        nums, den = _numerators(poly.coeffs)
        coeffs = _binomial_coeffs({(d,): n for d, n in enumerate(nums) if n}, den, 1)
        return cls(modulus, tuple([coeffs.get((d,), 0) for d in range(len(nums))]))

    @property
    def degree(self) -> int | None:
        """Index of the last nonzero coefficient; None for the zero polyfract."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, delta: int) -> int:
        return self.coeffs[delta] if delta < len(self.coeffs) else 0

    def evaluate(self, x: int) -> Residue:
        """Value sum P_d * C(x, d) reduced mod r; x may be negative."""
        total = 0
        row = 1
        for d, c in enumerate(self.coeffs):
            if d:
                row = row * (x - d + 1) // d
            total += c * row
        return Residue(total, self.modulus)

    def values(self, start: int, stop: int) -> list[int]:
        """Canonical values at start..stop-1, the whole table at once
        (``table_values``); ``evaluate`` is the per-point route."""
        return table_values(self.coeffs, self.modulus, start, stop)

    def _check(self, other: "UniPolyfract") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"moduli differ: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other: "UniPolyfract") -> "UniPolyfract":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPolyfract(
            self.modulus,
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n)),
        )

    def __neg__(self) -> "UniPolyfract":
        return UniPolyfract(self.modulus, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPolyfract") -> "UniPolyfract":
        return self + (-other)

    def __mul__(self, other: "UniPolyfract") -> "UniPolyfract":
        """Five-step product; lifts use the stored canonical representatives."""
        self._check(other)
        a = self.to_rational(lift="canonical")
        b = other.to_rational(lift="canonical")
        return UniPolyfract.from_rational(a * b, self.modulus)

    def difference(self) -> "UniPolyfract":
        """Coefficient-level forward difference: shifts the sequence down."""
        return UniPolyfract(self.modulus, self.coeffs[1:])

    def to_rational(self, lift: str = "balanced") -> RationalPoly:
        """Monomial-basis representative over Q.

        ``lift`` picks the integer representatives of the coefficients:
        "balanced" (smallest absolute value, the readable output form) or
        "canonical" (least nonnegative).  Either choice induces the same
        map mod r.  The result is _to_monomial's numerators over (n-1)!,
        n the number of coefficients.
        """
        if lift == "balanced":
            lifted = [balanced_lift(c, self.modulus) for c in self.coeffs]
        elif lift == "canonical":
            lifted = list(self.coeffs)
        else:
            raise ValueError(f"unknown lift {lift!r}")
        if not lifted:
            return RationalPoly()
        top = len(lifted) - 1
        den = factorial(top)
        return RationalPoly(tuple(Fraction(n, den) for n in _to_monomial(lifted, top)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        return f"UniPolyfract(mod {self.modulus}, {list(self.coeffs)})"


def coeffs_from_values(values: Sequence[Residue]) -> tuple[Residue, ...]:
    """Binomial-basis coefficients from consecutive values f(0..m).

    The difference triangle of the values: P_d = Delta^d f(0) is the
    first entry of row d, and row d+1 holds the differences of row d.
    The inverse of evaluation at 0..m for polyfracts of degree <= m.
    """
    if not values:
        return ()
    modulus = values[0].modulus
    for v in values[1:]:
        if v.modulus != modulus:
            raise ModulusMismatch("values do not share a modulus")
    out = []
    row = [v.value for v in values]
    while row:
        out.append(Residue(row[0], modulus))
        row = list(map(sub, row[1:], row[:-1]))
    return tuple(out)
