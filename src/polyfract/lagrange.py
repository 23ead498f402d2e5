"""Co-monofracts, Lagrange polyfracts, and prime-power interpolation.

The co-monofract (d | x)_{q,r} is the alternating sum of C(d, xh) over the
representatives xh of x mod q inside {0..d}, reduced mod r.  Expanding the
indicator of a point of Z_{p^a} in these quantities gives its polyfractal
representation, and summing shifted indicators interpolates arbitrary maps
between p-groups, by Pascal-rule weights and a recurrence (``_weights``).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import mul
from typing import Sequence

from .calculus import FiniteFn, _periodicity_taps, periodic_degree_bound
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
def _weights(q: int, r: int) -> tuple:
    """One axis's tables for Z_q into Z_r: rows[delta][x] = (delta | delta
    - x)_{q,r}, delta < q, weigh the information coefficients, each row the
    last differenced by Pascal's rule (delta | y) = (delta-1 | y) - (delta-1
    | y-1) and kept as its prefix x <= delta (row 0's 1 is read from
    ``cofract`` to keep the benchmark's cofract and binom counts firing);
    then the stride s of the periodicity taps, the recurrence steps -C(q, j)
    mod r for j = s, 2s, .., q - s, and range(d + 1), d the degree bound."""
    rows = [(cofract(0, q, r, 0).value,)]
    for _ in range(q - 1):
        row = rows[-1]
        rows.append(tuple([(b - a) % r for a, b in zip(row + (0,), (0,) + row)]))
    s, taps = _periodicity_taps(q, r)
    steps = tuple(-c % r for c in taps[:-1])
    return tuple(rows), s, steps, range(periodic_degree_bound(q, r) + 1)


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
    q, r = p**alpha, p**beta
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


@lru_cache(maxsize=64)
def _plan(domain: tuple[int, ...], r: int) -> tuple | None:
    """Interpolation plan of a table shape, made once: None for r = 1, else
    each axis's (q, rows, s, steps, degrees) from ``_weights``, last axis
    first, and the degree box's exponents in product order.  A shape that
    is not single-prime raises on every call (exceptions are not cached)."""
    domain_primes = set()
    for q in domain:
        fac = factorization(q)
        if len(fac) > 1:
            raise MixedPrimes(f"domain modulus {q} is not a prime power")
        domain_primes.update(p for p, _ in fac)
    if len(domain_primes) > 1:
        raise MixedPrimes(f"domain involves primes {sorted(domain_primes)}")
    if r == 1:  # trivial codomain: everything interpolates to zero
        return None
    rfac = factorization(r) if r else ()
    if len(rfac) != 1:
        raise BadCodomain(f"codomain modulus {r} is not a prime power")
    ((p, _),) = rfac
    if domain_primes and domain_primes != {p}:
        raise BadCodomain(f"codomain prime {p} differs from domain prime "
                          f"{domain_primes.pop()}")
    axes = tuple((q, *_weights(q, r)) for q in reversed(domain))
    return axes, tuple(product(*(_weights(q, r)[3] for q in domain)))


def interpolate_prime_power(f: FiniteFn) -> MultiPolyfract:
    """Interpolating polyfract of a map between same-prime power groups.

    The coefficient at delta is the cofract-weighted value sum
    sum_x prod_j (delta_j | delta_j - x_j)_{q_j, p^beta} f(x); support stays
    inside the per-variable bounds and evaluation reproduces f everywhere.
    Along each axis only the q information coefficients are such sums; the
    rest follow from P_(k+q) = -sum_(j<q) C(q, j) P_(k+j) (mod r).  The
    shape's checks, weights and exponents come from its cached ``_plan``;
    each call runs only the contraction.
    """
    if len(f.codomain_moduli) != 1:
        raise BadCodomain("a single cyclic codomain factor is required")
    r = f.codomain_moduli[0]
    plan = _plan(f.domain_moduli, r)
    if plan is None:
        return MultiPolyfract.zero((1,), f.nvars)
    axes, exponents = plan
    # The weight prod_j (delta_j | delta_j - x_j) is a tensor product, so
    # the table is contracted one axis at a time: each step sums away the
    # last x axis and puts its delta axis in front, one n-entry segment (one
    # per line) per delta.  Past the q information segments each entry is
    # the steps times its line's entries (q - j) * n back: a strided slice.
    flat = f.columns[0]
    for q, rows, s, steps, degrees in axes:
        blocks = [flat[i:i + q] for i in range(0, len(flat), q)]
        flat = [sum(map(mul, weights, block)) % r for weights in rows for block in blocks]
        n = len(blocks)
        for e in range(q * n, len(degrees) * n):
            flat.append(sum(map(mul, steps, flat[e - (q - s) * n:e:s * n])) % r)
    # Every c is reduced mod r and the exponents come in product order,
    # which is the sorted order the constructor would produce.
    terms = tuple((delta, (c,)) for delta, c in zip(exponents, flat) if c)
    return MultiPolyfract._trusted((r,), f.nvars, terms)


def extend_information_coeffs(info: Sequence[int], p: int, alpha: int,
                              beta: int) -> UniPolyfract:
    """Extend q = p^alpha information coefficients to a q-periodic polyfract.

    The given coefficients determine the values at 0..q-1; interpolating
    those values appends the uniquely determined periodicity coefficients
    (at most (beta-1)(p-1)p^(alpha-1) of them).
    """
    _check_prime_power_args(p, alpha, beta)
    q, r = p**alpha, p**beta
    info = list(info)
    if len(info) != q:
        raise LengthMismatch(f"expected {q} information coefficients, got {len(info)}")
    info = [as_integer(v, "information coefficient") % r for v in info]
    table = FiniteFn.univariate(q, r, box_values(info, (q,), (q,), r))
    return interpolate_prime_power(table).component_uni(0)
