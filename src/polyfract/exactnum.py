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

from .errors import ModulusMismatch, NotADivisor, NotPrime, ZeroInput

__all__ = [
    "Residue",
    "as_integer",
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


def check_modulus(modulus) -> None:
    """Reject a modulus that is not an integer >= 0."""
    if as_integer(modulus, "modulus") < 0:
        raise ValueError("modulus must be >= 0")


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
    """Least nonnegative representative for modulus >= 1, identity for 0."""
    if modulus < 0:
        raise ValueError("modulus must be >= 0")
    return value if modulus == 0 else value % modulus


def balanced_lift(value: int, modulus: int) -> int:
    """Representative of smallest absolute value (ties resolved upward).

    For modulus 0 the value itself.  Used when emitting rational
    polynomial forms, where small lifts keep coefficients readable.
    """
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
        value = as_integer(self.value, "value")
        object.__setattr__(self, "value", canonical(value, self.modulus))

    @classmethod
    def _trusted(cls, value: int, modulus: int) -> "Residue":
        """Build without ``__post_init__``.  The caller guarantees an int
        value and an int modulus >= 0; the value is reduced here, once.
        The fields go straight into the instance dict, which the frozen
        ``__setattr__`` only guards."""
        x = object.__new__(cls)
        x.__dict__.update(value=value % modulus if modulus else value, modulus=modulus)
        return x

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
    """
    rp = x.modulus
    if rp == 0 or (r >= 1 and rp % r == 0):
        return Residue(x.value, r)
    raise NotADivisor(f"{r} does not divide {rp}")


def is_prime(p: int) -> bool:
    """Trial-division primality test; inputs here are desk-scale."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def padic_valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n; requires n != 0 and p prime."""
    if n == 0:
        raise ZeroInput("valuation of 0 is undefined")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@lru_cache(maxsize=256, typed=True)
def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes
    ascending, by trial division.  Cached, since the sweeps factor a few
    moduli many times: a tuple, so no caller can change a shared result,
    and ``typed``, so 2.0 cannot hit the entry of 2."""
    n = as_integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an ordered {prime: exponent} map,
    a fresh dict on every call."""
    return dict(factorization(n))


def prime_part(n: int, p: int) -> int:
    """The p-power part p^{v_p(n)} of n >= 1 (so 1 when p does not divide n)."""
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part
