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
``_to_falling`` (repeated synthetic division).  ``Fraction`` appears only
in the ``RationalPoly`` values handed across the monomial-basis edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Sequence

from .errors import ModulusMismatch, NotIntegerValued
from .exactnum import Residue, as_integer, balanced_lift, binom, canonical

__all__ = [
    "RationalPoly",
    "UniPolyfract",
    "binom_poly",
    "coeffs_from_values",
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


def _extract_binomial_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    """Re-express a rational polynomial in the binomial basis.

    The coefficients c_m are the rationals with sum c_m*C(X, m) equal to
    the polynomial; checked from the top degree down, the first one that
    is not an integer raises NotIntegerValued.  The polynomial is taken as
    integer numerators N over their least common denominator D; with
    A = _to_falling(N), c_m = A_m * m! / D.
    """
    nums, den = _numerators(_trim([Fraction(c) for c in coeffs]))
    newton = _to_falling(nums)
    out = [0] * len(newton)
    fac = factorial(len(newton) - 1) if newton else 1
    for m in range(len(newton) - 1, -1, -1):
        c, rest = divmod(newton[m] * fac, den)
        if rest:
            raise NotIntegerValued(
                f"binomial coefficient at degree {m} is "
                f"{Fraction(newton[m] * fac, den)}, not an integer"
            )
        out[m] = c
        fac //= m or 1
    return out


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
        return cls(modulus, (0,) * delta + (1,))

    @classmethod
    def from_rational(cls, poly: RationalPoly, modulus: int) -> "UniPolyfract":
        """Unique polyfract inducing the same map mod r as an integer-valued
        rational polynomial; raises NotIntegerValued otherwise."""
        return cls(modulus, tuple(_extract_binomial_coeffs(poly.coeffs)))

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
        return [self.evaluate(x).value for x in range(start, stop)]

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

    Implements the alternating difference sums
    P_d = sum_i (-1)^(d-i) C(d, i) f(i); the inverse of evaluation at
    0..m for polyfracts of degree <= m.
    """
    if not values:
        return ()
    modulus = values[0].modulus
    for v in values[1:]:
        if v.modulus != modulus:
            raise ModulusMismatch("values do not share a modulus")
    out = []
    for d in range(len(values)):
        acc = sum(
            (-1) ** (d - i) * binom(d, i) * values[i].value for i in range(d + 1)
        )
        out.append(Residue(acc, modulus))
    return tuple(out)
