"""Plain integer arithmetic shared by the input generator, the output
checker and the speed reference.

Nothing here imports ``polyfract``: the benchmark builds its inputs, judges
the program's outputs and gauges the machine with these small, independent
routines.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod
from typing import Sequence


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, ascending."""
    found = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            found.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        found.append(n)
    return found


def prime_part(n: int, p: int) -> int:
    """Largest power of p dividing n >= 1."""
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part


def layout_primes(domain: Sequence[int], codomain: Sequence[int]) -> list[int]:
    """Primes of a map's prime splitting: those dividing either group order."""
    return sorted(set(prime_factors(prod(domain))) | set(prime_factors(prod(codomain))))


def crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """The x mod prod(moduli) with x = residues[i] mod moduli[i] (coprime moduli)."""
    x, m = 0, 1
    for a, n in zip(residues, moduli):
        if n == 1:
            continue
        t = ((a - x) * pow(m, -1, n)) % n
        x += m * t
        m *= n
    return x % m


def decode(value: int, moduli: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix digits of value, first modulus most significant."""
    out = []
    for m in reversed(moduli):
        out.append(value % m)
        value //= m
    return tuple(reversed(out))


def encode(digits: Sequence[int], moduli: Sequence[int]) -> int:
    value = 0
    for x, m in zip(digits, moduli):
        value = value * m + x % m
    return value


def points(domain: Sequence[int]):
    """Domain points in mixed-radix order (first coordinate most significant)."""
    for idx in range(prod(domain)):
        yield decode(idx, domain)


def binom(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0."""
    if n >= 0:
        return comb(n, k)
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def eval_binomial(terms, x: Sequence[int]) -> list[int]:
    """Integer value of sum coeffs * prod_j C(x_j, e_j), one entry per slot.

    ``terms`` is a list of (exponents, coefficients) pairs with integer
    coefficients; no reduction happens here.
    """
    width = len(terms[0][1]) if terms else 0
    acc = [0] * width
    for exp, coeffs in terms:
        mono = 1
        for xj, e in zip(x, exp):
            mono *= binom(xj, e)
            if not mono:
                break
        if mono:
            for i, c in enumerate(coeffs):
                acc[i] += c * mono
    return acc


def falling_coeffs(d: int) -> list[int]:
    """Integer monomial coefficients of x(x-1)...(x-d+1), constant first."""
    coeffs = [1]
    for i in range(d):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= c * i
        coeffs = nxt
    return coeffs


def to_monomial(terms, nvars: int, width: int) -> dict[tuple[int, ...], list[Fraction]]:
    """Monomial-basis form of a binomial-basis polynomial over Q."""
    out: dict[tuple[int, ...], list[Fraction]] = {}
    for exp, coeffs in terms:
        mono = {(): Fraction(1)}
        for e in exp:
            fc = falling_coeffs(e)
            scale = factorial(e)
            mono = {
                m + (k,): w * Fraction(c, scale)
                for m, w in mono.items()
                for k, c in enumerate(fc)
                if c
            }
        for m, w in mono.items():
            row = out.setdefault(m, [Fraction(0)] * width)
            for i, c in enumerate(coeffs):
                row[i] += c * w
    return {m: row for m, row in out.items() if any(row)}


class MonomialPoly:
    """A monomial-basis polynomial with Fraction coefficients, evaluated
    exactly over one common denominator."""

    def __init__(self, terms):
        self.den = lcm(*(c.denominator for _, coeffs in terms for c in coeffs))
        self.terms = [
            (tuple(exp), [int(c * self.den) for c in coeffs]) for exp, coeffs in terms
        ]
        self.width = len(terms[0][1]) if terms else 0

    def __call__(self, x: Sequence[int]) -> list[Fraction]:
        acc = [0] * self.width
        for exp, coeffs in self.terms:
            mono = prod(xj**e for xj, e in zip(x, exp))
            for i, c in enumerate(coeffs):
                acc[i] += c * mono
        return [Fraction(v, self.den) for v in acc]


# CPU time of one reference_kernel call on an idle 2-vCPU cloud VM running
# CPython 3.11; run.py scales measured times by a power of REFERENCE_S over
# the reference times measured alongside them, so they read as seconds at
# that reference speed.
REFERENCE_S = 0.0008


def reference_kernel() -> int:
    """Fixed pure-Python exact arithmetic that shares no code with polyfract.

    Fraction products and a dict of big-integer tuples, like the program's
    own work.  Its CPU time tracks how fast the machine runs such code at
    the moment; on a machine shared with other tenants that drifts by tens
    of percent over minutes, and the program's times drift with it.
    """
    a = [Fraction(i, i + 1) for i in range(1, 12)]
    b = [Fraction(1, 2 * i + 1) for i in range(1, 12)]
    out = [Fraction(0)] * 24
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    table = {}
    for i in range(400):
        table[(i, i * i % 101, i % 7)] = (i * 12345678901234567) ** 3 % 998244353
    return len(table) + out[5].numerator
