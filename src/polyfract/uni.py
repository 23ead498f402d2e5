"""Univariate polyfracts: binomial-basis polynomials with coefficients mod r.

A polyfract ``P = P_0*C(X,0) + P_1*C(X,1) + ... + P_d*C(X,d)`` over Z_r is
identified with the map Z -> Z_r it induces; that identification is
injective, so canonical coefficient form (trailing zeros trimmed, canonical
representatives) makes equality of values structural equality.

Multiplication follows the five-step route: lift coefficients to integers,
expand into the rational monomial basis, multiply there, re-express in the
binomial basis by repeated leading-coefficient extraction, reduce mod r.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from .errors import ModulusMismatch, NotIntegerValued
from .exactnum import Residue, balanced_lift, binom, canonical

__all__ = [
    "RationalPoly",
    "UniPolyfract",
    "binom_poly",
    "coeffs_from_values",
]


@lru_cache(maxsize=1024)
def binom_poly(delta: int) -> tuple[Fraction, ...]:
    """Monomial coefficients (constant term first) of C(X, delta) over Q."""
    coeffs = [1]
    for i in range(delta):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= c * i
        coeffs = nxt
    fac = factorial(delta)
    return tuple(Fraction(c, fac) for c in coeffs)


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

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if not self.coeffs or not other.coeffs:
            return RationalPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(tuple(out))

    def scale(self, k: int | Fraction) -> "RationalPoly":
        return RationalPoly(tuple(c * k for c in self.coeffs))

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)


def _extract_binomial_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    """Re-express a rational polynomial in the binomial basis.

    Repeatedly divides off the leading monofract: the top coefficient is
    m! times the leading rational coefficient and must be an integer, the
    remainder has lower degree.  Raises NotIntegerValued at the first
    stage where the extracted coefficient is not an integer.
    """
    work = _trim([Fraction(c) for c in coeffs])
    out = [0] * len(work)
    for m in range(len(work) - 1, -1, -1):
        c = work[m] * factorial(m)
        if c.denominator != 1:
            raise NotIntegerValued(
                f"binomial coefficient at degree {m} is {c}, not an integer"
            )
        ci = int(c)
        out[m] = ci
        if ci:
            bp = binom_poly(m)
            for j in range(m + 1):
                work[j] -= ci * bp[j]
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
        if self.modulus < 0:
            raise ValueError("modulus must be >= 0")
        reduced = _trim([canonical(c, self.modulus) for c in self.coeffs])
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
    def from_values(cls, values: Sequence[int], modulus: int) -> "UniPolyfract":
        """Polyfract of degree < len(values) matching f(0), f(1), ... f(m)."""
        residues = [Residue(v, modulus) for v in values]
        return cls(modulus, tuple(r.value for r in coeffs_from_values(residues)))

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
        map mod r.
        """
        if lift == "balanced":
            lifted = [balanced_lift(c, self.modulus) for c in self.coeffs]
        elif lift == "canonical":
            lifted = list(self.coeffs)
        else:
            raise ValueError(f"unknown lift {lift!r}")
        out = RationalPoly()
        for d, c in enumerate(lifted):
            if c:
                out = out + RationalPoly(binom_poly(d)).scale(c)
        return out

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
