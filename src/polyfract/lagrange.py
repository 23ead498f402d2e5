"""Co-monofracts, Lagrange polyfracts, and prime-power interpolation.

The co-monofract (d | x)_{q,r} is the alternating sum of C(d, xh) over the
representatives xh of x mod q inside {0..d}, reduced mod r.  Expanding the
indicator of a point of Z_{p^a} in these quantities gives its polyfractal
representation, and summing shifted indicators interpolates arbitrary maps
between p-groups, with weights built by Pascal's rule (``_weights``).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import mul
from typing import Sequence

from .calculus import FiniteFn, _difference, periodic_degree_bound
from .errors import BadCodomain, LengthMismatch, MixedPrimes, NotPrime
from .exactnum import Residue, as_integer, at_least, binom, factorization, is_prime
from .multi import MultiPolyfract
from .uni import UniPolyfract, box_values

__all__ = [
    "cofract",
    "degree_bound",
    "extend_information_coeffs",
    "interpolate_prime_power",
    "lagrange_polyfract",
]


def cofract(d: int, q: int, r: int, x: int) -> Residue:
    """The co-monofract (d | x)_{q,r}.

    Sums (-1)^xh * C(d, xh) over all xh congruent to x mod q with
    0 <= xh <= d (at most floor(d/q) + 1 terms) and reduces mod r; the
    sign uses the actual integer representative xh.  q, d and x are
    checked first, in that order: each must be an integer, q >= 1 and
    d >= 0, else ValueError names it.  The modulus r is checked by
    ``Residue`` after the sum.
    """
    q, d, x = at_least(q, 1, "q"), at_least(d, 0, "d"), as_integer(x, "x")
    total = 0
    for xh in range(x % q, d + 1, q):
        if xh & 1:
            total -= binom(d, xh)
        else:
            total += binom(d, xh)
    return Residue(total, r)


@lru_cache(maxsize=64)
def _weights(q: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Weights W[delta][x] = (delta | delta - x)_{q,r}, 0 <= x < q, delta up
    to the q-periodic degree bound mod r.  By Pascal's rule, (delta | y) =
    (delta-1 | y) - (delta-1 | y-1), so each row is one ``_difference`` step
    (stride -1) of the last.  Row 0, the point indicator, takes its 1 from
    ``cofract`` to keep the benchmark's cofract and binom counts firing.
    Row delta keeps its prefix x <= min(delta, q - 1); the rest is 0."""
    rows, row = [], (cofract(0, q, r, 0).value,) + (0,) * (q - 1)
    for delta in range(periodic_degree_bound(q, r) + 1):
        rows.append(row[:min(delta, q - 1) + 1])
        row = _difference(row, r, (q,), 0, -1)
    return tuple(rows)


def _check_prime_power_args(p, alpha, beta) -> None:
    """Reject a p that is not a prime or an alpha or beta that is not an
    integer >= 1; the types are checked first, so a float names its own
    argument rather than failing later in q = p**alpha."""
    for value, what in ((p, "p"), (alpha, "alpha"), (beta, "beta")):
        as_integer(value, what)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be >= 1")


def lagrange_polyfract(p: int, alpha: int, beta: int, x0: int) -> UniPolyfract:
    """Polyfractal expansion of the indicator of x0 on Z_{p^alpha}, mod p^beta.

    Coefficients are (delta | delta - x0)_{p^alpha, p^beta} up to the exact
    degree d = p^alpha - 1 + (beta-1)(p-1)p^(alpha-1); the induced map is
    the p^alpha-periodic point indicator.
    """
    _check_prime_power_args(p, alpha, beta)
    x0 = as_integer(x0, "x0")
    q = p**alpha
    r = p**beta
    d = periodic_degree_bound(q, r)
    coeffs = tuple(cofract(delta, q, r, delta - x0).value for delta in range(d + 1))
    return UniPolyfract(r, coeffs)


def degree_bound(p: int, beta: int, alphas: Sequence[int]) -> int:
    """Best possible total degree of polyfracts on a product of p-cycles
    Z_{p^a1} x ... x Z_{p^an} into Z_{p^beta}:

        sum_j p^aj - n + (beta - 1)(p - 1) p^(a_max - 1).
    """
    if not is_prime(as_integer(p, "p")):
        raise NotPrime(f"{p} is not prime")
    at_least(beta, 1, "beta")
    alphas = tuple(as_integer(a, "alpha") for a in alphas)
    if not alphas:
        return 0
    if any(a < 1 for a in alphas):
        raise ValueError("alphas must be >= 1")
    n = len(alphas)
    return sum(p**a for a in alphas) - n + (beta - 1) * (p - 1) * p ** (max(alphas) - 1)


def interpolate_prime_power(f: FiniteFn) -> MultiPolyfract:
    """Interpolating polyfract of a map between same-prime power groups.

    The coefficient at delta is the full cofract-weighted value sum
    sum_x prod_j (delta_j | delta_j - x_j)_{q_j, p^beta} f(x); support stays
    inside the per-variable bounds and evaluation reproduces f everywhere.
    """
    if len(f.codomain_moduli) != 1:
        raise BadCodomain("a single cyclic codomain factor is required")
    r = f.codomain_moduli[0]
    domain_primes = set()
    for q in f.domain_moduli:
        fac = factorization(q)
        if len(fac) > 1:
            raise MixedPrimes(f"domain modulus {q} is not a prime power")
        domain_primes.update(p for p, _ in fac)
    if len(domain_primes) > 1:
        raise MixedPrimes(f"domain involves primes {sorted(domain_primes)}")
    if r == 1:
        # trivial codomain: everything interpolates to zero
        return MultiPolyfract.zero((1,), f.nvars)
    rfac = factorization(r) if r else ()
    if len(rfac) != 1:
        raise BadCodomain(f"codomain modulus {r} is not a prime power")
    ((p, _),) = rfac
    if domain_primes and domain_primes != {p}:
        raise BadCodomain(
            f"codomain prime {p} differs from domain prime {domain_primes.pop()}"
        )

    # The weight prod_j (delta_j | delta_j - x_j) is a tensor product, so
    # the value table is contracted against one axis table at a time.  Each
    # step sums away the last remaining x axis and puts its delta axis in
    # front; after all n steps the flat list is in delta order.  A short
    # weight row ends the products early: its missing weights are 0.
    tables = {q: _weights(q, r) for q in set(f.domain_moduli)}
    flat = f.columns[0]
    for q in reversed(f.domain_moduli):
        blocks = [flat[i:i + q] for i in range(0, len(flat), q)]
        flat = [sum(map(mul, weights, block)) % r
                for weights in tables[q] for block in blocks]
    # Every c is reduced mod r and the exponents come in product order,
    # which is the sorted order the constructor would produce.
    deltas = product(*(range(len(tables[q])) for q in f.domain_moduli))
    terms = tuple((delta, (c,)) for delta, c in zip(deltas, flat) if c)
    return MultiPolyfract._trusted((r,), f.nvars, terms)


def extend_information_coeffs(info: Sequence[int], p: int, alpha: int,
                              beta: int) -> UniPolyfract:
    """Extend q = p^alpha information coefficients to a q-periodic polyfract.

    The given coefficients determine the values at 0..q-1; interpolating
    those values appends the uniquely determined periodicity coefficients
    (at most (beta-1)(p-1)p^(alpha-1) of them).
    """
    _check_prime_power_args(p, alpha, beta)
    q = p**alpha
    r = p**beta
    info = list(info)
    if len(info) != q:
        raise LengthMismatch(f"expected {q} information coefficients, got {len(info)}")
    info = [as_integer(v, "information coefficient") % r for v in info]
    table = FiniteFn.univariate(q, r, box_values(info, (q,), (q,), r))
    return interpolate_prime_power(table).component_uni(0)
