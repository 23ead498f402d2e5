"""Finite abelian groups as products of cycles, and their prime splittings.

Provides explicit Chinese Remainder isomorphisms with stored Bezout
multipliers, the block-major primary splitting of a product of cyclic
groups built on them, the variable splitting isomorphism for polyfracts
over product codomains, and wavelength reduction of periodic polyfracts.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .calculus import hrycaj_periodicity
from .errors import (
    ArityMismatch, CoprimalityViolation, ModulusMismatch, NotPeriodic, NotPrime,
)
from .exactnum import Residue, as_integer, at_least, is_prime, prime_factors, prime_part
from .multi import MultiPolyfract
from .uni import UniPolyfract

__all__ = [
    "CRTMap",
    "Splitting",
    "crt_map",
    "split_group",
    "split_variable",
    "wavelength_reduce",
]


@dataclass(frozen=True)
class CRTMap:
    """Chinese Remainder isomorphism Z_r -> Z_{r_1} x ... x Z_{r_t}.

    Factors are pairwise coprime prime powers with product r; the stored
    multipliers satisfy sum_i s_i * (r / r_i) == 1 exactly, which makes
    the inverse a plain integer combination.
    """

    modulus: int
    factors: tuple[int, ...]
    multipliers: tuple[int, ...]

    def forward(self, x: Residue) -> tuple[Residue, ...]:
        if x.modulus != self.modulus:
            raise ModulusMismatch(f"expected a residue mod {self.modulus}")
        return tuple(Residue(x.value, f) for f in self.factors)

    def inverse(self, parts: Sequence[Residue]) -> Residue:
        if tuple(p.modulus for p in parts) != self.factors:
            raise ModulusMismatch(f"expected residues mod {self.factors}")
        return Residue(self.combine([p.value for p in parts]), self.modulus)

    def split(self, x: int) -> tuple[int, ...]:
        return tuple(x % f for f in self.factors)

    def combine(self, parts: Sequence[int]) -> int:
        r = self.modulus
        total = 0
        for x, s, f in zip(parts, self.multipliers, self.factors):
            total += x * s * (r // f)
        return total % r


def _covering_primes(moduli: Sequence[int],
                     primes: Sequence[int] | None) -> tuple[int, ...]:
    """The sorted prime list of a splitting: ``primes``, checked to cover
    every prime divisor of the moduli, or those divisors themselves."""
    needed: set[int] = set()
    for q in moduli:
        needed.update(prime_factors(q))
    if primes is None:
        return tuple(sorted(needed))
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    if not needed <= set(primes):
        raise ValueError(f"prime list must cover {sorted(needed)}")
    return tuple(sorted(set(primes)))


def crt_map(r: int, primes: Sequence[int] | None = None) -> CRTMap:
    """CRT splitting of Z_r into prime-power cycles, r >= 2.

    ``primes`` may list extra primes, materialized as trivial factors
    Z_1, so that several splittings share one prime layout.
    """
    r = at_least(r, 2, "r")
    factors = tuple(prime_part(r, p) for p in _covering_primes((r,), primes))
    cofactors = [r // f for f in factors]
    multipliers = [
        pow(m % f, -1, f) if f > 1 else 0 for m, f in zip(cofactors, factors)
    ]
    excess = (sum(s * m for s, m in zip(multipliers, cofactors)) - 1) // r
    for i, f in enumerate(factors):
        if f > 1:
            multipliers[i] -= excess * f
            break
    assert sum(s * m for s, m in zip(multipliers, cofactors)) == 1
    return CRTMap(r, factors, tuple(multipliers))


@dataclass(frozen=True)
class Splitting:
    """Block-major prime-power splitting of a product of cycles.

    ``parts[i][j]`` is the p_i-part of the j-th modulus q_j and
    ``crts[j]`` is the CRT map of q_j over ``primes`` (None when q_j = 1).
    Flattened coordinates are ordered block-major: position i*n + j holds
    the p_i-part of coordinate j.
    """

    moduli: tuple[int, ...]
    primes: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    crts: tuple[CRTMap | None, ...]

    @property
    def width(self) -> int:
        return len(self.moduli)

    @property
    def flat_moduli(self) -> tuple[int, ...]:
        return tuple(m for row in self.parts for m in row)

    def block(self, i: int, x: Sequence[int]) -> tuple[int, ...]:
        """The p_i-block of a point: each coordinate reduced mod its p_i-part."""
        return tuple(a % m for a, m in zip(x, self.parts[i]))

    def split(self, x: Sequence[int]) -> tuple[int, ...]:
        """The block coordinates of x, block-major; a coordinate that is
        not an integer raises ValueError."""
        if len(x) != self.width:
            raise ArityMismatch(f"expected {self.width} coordinates, got {len(x)}")
        x = [as_integer(a, "coordinate") for a in x]
        return tuple(c for i in range(len(self.primes)) for c in self.block(i, x))

    def unsplit(self, coords: Sequence[int]) -> tuple[int, ...]:
        n = self.width
        return tuple(
            0 if crt is None else crt.combine(coords[j::n])
            for j, crt in enumerate(self.crts)
        )

    def columns(self, start: int, stop: int) -> Splitting:
        """The splitting of factors start..stop-1 over the same primes."""
        return Splitting(
            self.moduli[start:stop],
            self.primes,
            tuple(row[start:stop] for row in self.parts),
            self.crts[start:stop],
        )


def split_group(moduli: Sequence[int],
                primes: Sequence[int] | None = None) -> Splitting:
    """Split every modulus into its prime-power parts, grouped by prime.

    Moduli must be integers >= 1.  ``primes`` may extend the default list
    (the prime divisors of the moduli) so that several groups share one
    layout; the extra parts are trivial.
    """
    moduli = tuple(as_integer(q, "modulus") for q in moduli)
    if any(q < 1 for q in moduli):
        raise ValueError("moduli must be >= 1")
    primes = _covering_primes(moduli, primes)
    parts = tuple(tuple(prime_part(q, p) for q in moduli) for p in primes)
    crts = tuple(crt_map(q, primes) if q > 1 else None for q in moduli)
    return Splitting(moduli, primes, parts, crts)


def split_variable(p: MultiPolyfract, q1: int, q2: int) -> MultiPolyfract:
    """Split one variable of a pair-valued polyfract into two.

    For a q1*q2-periodic P = (P_1, P_2) over Z_{r_1} x Z_{r_2} with q1
    coprime to r_2 and q2 coprime to r_1, returns (P_1(X_1), P_2(X_2));
    substituting the same variable back into both merges to P again, and
    as maps the result is P composed with the inverse domain splitting.
    q1 and q2 must be integers with q1 * q2 >= 1, checked before their
    coprimality.
    """
    if p.nvars != 1 or p.width != 2:
        raise ArityMismatch("a one-variable polyfract with two slots is required")
    r1, r2 = p.codomain
    q1, q2 = as_integer(q1, "q1"), as_integer(q2, "q2")
    period = at_least(q1 * q2, 1, "period")
    if gcd(q1, r2) != 1 or gcd(q2, r1) != 1:
        raise CoprimalityViolation(
            f"need gcd({q1}, {r2}) == 1 and gcd({q2}, {r1}) == 1"
        )
    for i in range(2):
        if not hrycaj_periodicity(p.component_uni(i), period):
            raise NotPeriodic(f"component {i} is not {period}-periodic")
    terms: dict[tuple[int, int], list[int]] = {}
    for (delta,), (c1, c2) in p.terms:
        if c1:
            terms.setdefault((delta, 0), [0, 0])[0] = c1
        if c2:
            terms.setdefault((0, delta), [0, 0])[1] = c2
    return MultiPolyfract(
        (r1, r2), 2, tuple((e, tuple(c)) for e, c in terms.items())
    )


def wavelength_reduce(p: UniPolyfract, period: int) -> int:
    """Strip the coprime-to-r part of a verified period.

    Returns the divisor q of ``period`` with every prime factor coprime
    to the codomain modulus removed; the polyfract is verified to be
    q-periodic (it always is), and q == 1 means it is constant.
    """
    at_least(p.modulus, 2, "codomain modulus")
    period = at_least(period, 1, "period")
    if not hrycaj_periodicity(p, period):
        raise NotPeriodic(f"polyfract is not {period}-periodic")
    q = 1
    for prime, e in prime_factors(period).items():
        if p.modulus % prime == 0:
            q *= prime**e
    if not hrycaj_periodicity(p, q):
        raise NotPeriodic(f"reduced period {q} failed verification")
    return q
