"""Unbounded integer helpers and residue rings with explicit moduli.

Moduli follow the conventions ``Z_0 = Z`` (plain integers) and
``Z_1 = {0}`` (the trivial group); everything else is the usual ring of
least nonnegative representatives mod r.  All arithmetic is exact.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

from .errors import ModulusMismatch, NotADivisor, NotPrime, ZeroInput

__all__ = [
    "Residue",
    "as_integer",
    "at_least",
    "binom",
    "check_modulus",
    "mod_project",
    "padic_valuation",
    "is_prime",
    "prime_factors",
    "prime_part",
    "canonical",
    "balanced_lift",
    "factorization",
]


def as_integer(value, what: str, error: type[Exception] = ValueError) -> int:
    """``value`` as a Python int; anything that is not an integer type
    (a float such as 2.0 included) raises ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def at_least(value, minimum: int, what: str) -> int:
    """``value`` as an int >= minimum, else ValueError naming ``what``; it
    indexes ``value`` itself, so the hot ``check_modulus`` stays one call deep."""
    try:
        value = operator.index(value)
    except TypeError:
        as_integer(value, what)  # raises, with its message
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}")
    return value


def check_modulus(modulus) -> None:
    """Reject a modulus that is not an integer >= 0."""
    at_least(modulus, 0, "modulus")


def binom(n: int, k: int) -> int:
    """Generalized binomial coefficient C(n, k) for any integer n, k >= 0.

    ``math.comb`` for n >= 0; for negative n the reflection
    C(n, k) = (-1)^k C(k - n - 1, k), so the result is an exact integer
    (e.g. ``binom(-1, 3) == -1``).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if n >= 0:
        return comb(n, k)
    c = comb(k - n - 1, k)
    return -c if k & 1 else c


def canonical(value: int, modulus: int) -> int:
    """Least nonnegative representative for modulus >= 1, identity for 0.
    ``check_modulus`` checks the modulus and ``as_integer`` the value; a
    constructor that has checked its modulus reduces inline instead."""
    check_modulus(modulus)
    value = as_integer(value, "value")
    return value % modulus if modulus else value


def balanced_lift(value: int, modulus: int) -> int:
    """Representative of smallest absolute value (ties resolved upward).

    For modulus 0 the value itself.  Used when emitting rational
    polynomial forms, where small lifts keep coefficients readable.  The
    arguments are checked as ``canonical`` checks them.
    """
    check_modulus(modulus)
    return _balanced_lift(as_integer(value, "value"), modulus)


def _balanced_lift(value: int, modulus: int) -> int:
    """``balanced_lift`` without its checks, for canonical ints and checked moduli."""
    if modulus == 0:
        return value
    half = (modulus - 1) // 2
    return (value + half) % modulus - half


@dataclass(frozen=True)
class Residue:
    """An element of Z_r, stored as its canonical representative.

    ``modulus == 0`` means Z itself and ``modulus == 1`` the trivial
    group.  Instances normalize on construction, so equality is
    structural.
    """

    value: int
    modulus: int

    def __post_init__(self):
        check_modulus(self.modulus)
        value, r = as_integer(self.value, "value"), self.modulus
        object.__setattr__(self, "value", value % r if r else value)

    def _check(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"moduli differ: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value - other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value * other.value, self.modulus)

    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self) -> str:
        return f"{self.value} mod {self.modulus}"


def mod_project(x: Residue, r: int) -> Residue:
    """Project x from Z_{r'} onto Z_r, defined when r divides r'.

    Every r divides r' = 0, so projections out of Z are always allowed.
    A target modulus that is not an integer >= 0 raises ValueError.
    """
    check_modulus(r)
    rp = x.modulus
    if rp == 0 or (r >= 1 and rp % r == 0):
        return Residue(x.value, r)
    raise NotADivisor(f"{r} does not divide {rp}")


def is_prime(p: int) -> bool:
    """Primality: p >= 2 is its own smallest prime factor."""
    return as_integer(p, "p") >= 2 and next(_prime_powers(p)) == (p, 1)


def _multiplicity(n: int, p: int) -> int:
    """Largest e with p^e dividing n, for n != 0 and p >= 2."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def padic_valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n; requires an integer n != 0 and p prime."""
    if as_integer(n, "n") == 0:
        raise ZeroInput("valuation of 0 is undefined")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _multiplicity(n, p)


@lru_cache(maxsize=256, typed=True)
def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes
    ascending, by trial division.  Cached, since the sweeps factor a few
    moduli many times: a tuple, so no caller can change a shared result,
    and ``typed``, so 2.0 cannot hit the entry of 2."""
    return tuple(_prime_powers(at_least(n, 1, "n")))


def _prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1 by trial division, in order."""
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            yield d, e
        d += 1
    if n > 1:
        yield n, 1


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an ordered {prime: exponent} map,
    a fresh dict on every call."""
    return dict(factorization(n))


def prime_part(n: int, p: int) -> int:
    """The p-power part p^{v_p(n)} of n >= 1 (so 1 when p does not divide n)."""
    if as_integer(n, "n") < 1 or as_integer(p, "p") < 2:
        raise ValueError(f"need n >= 1 and p >= 2, got n={n}, p={p}")
    return p ** _multiplicity(n, p)
