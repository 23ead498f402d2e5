"""Self-verification sweeps behind the ``certify`` command.

Each check exercises one guaranteed property over exhaustive or sampled
parameter sweeps and reports a pass/fail line; together they certify the
arithmetic core against its own independent routes (tables vs
coefficients, interpolation vs difference expansion, block test vs
brute-force search).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import wraps
from itertools import product
from typing import Callable, Iterator

from .calculus import (
    FiniteFn,
    divisibility_check,
    hrycaj_periodicity,
    taylor_expand,
)
from .classify import (
    DEFAULT_MAX_SEARCH,
    brute_force_polyfractal,
    count_polyfractal,
    counterexample_is_valid,
    is_polyfractal,
)
from .errors import TooLarge
from .exactnum import is_prime, mod_project, Residue
from .groups import split_variable
from .lagrange import (
    cofract,
    degree_bound,
    extend_information_coeffs,
    interpolate_prime_power,
    lagrange_polyfract,
)
from .multi import MultiPolyfract, grid_vanish_equiv, merge_variables
from .uni import UniPolyfract, coeffs_from_values

__all__ = ["CertifyOptions", "CheckResult", "run_all"]

# Sweeps enumerate every table when there are at most this many, else sample.
EXHAUSTIVE_LIMIT = 20000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CertifyOptions:
    max_prime: int = 3
    max_alpha: int = 2
    max_beta: int = 2
    samples: int = 2000
    count_limit: int = 5
    seed: int = 0
    max_search: int = DEFAULT_MAX_SEARCH
    degree_bound_override: int | None = None


def _primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


def _pab_sweep(opts: CertifyOptions):
    for p in _primes_up_to(opts.max_prime):
        for alpha in range(1, opts.max_alpha + 1):
            for beta in range(1, opts.max_beta + 1):
                yield p, alpha, beta


def _tables(q: int, height: int, opts: CertifyOptions, rng: random.Random):
    """All (or sampled) value tables of length q with entries < height."""
    if height**q <= EXHAUSTIVE_LIMIT:
        yield from product(range(height), repeat=q)
    else:
        for _ in range(opts.samples):
            yield tuple(rng.randrange(height) for _ in range(q))


def _table(q: int, r: int, values) -> FiniteFn:
    """A sweep's own table on Z_q -> Z_r, built once without re-checking.

    The sweeps generate every value themselves, already canonical: below
    r, or any int when r is 0.  The library constructors stay checked.
    """
    return FiniteFn._trusted((q,), (r,), (tuple(values),))


def _sweep(unit: str):
    """Turn a case generator into a ``check_<sweep>`` returning a CheckResult.

    The generator yields one value per case: ``None`` for a case that
    passed, or the failure message, after which it is not resumed.  A check
    that is not a case yields only its failure message.  An exception raised
    inside the sweep fails it with its type and message, so the other sweeps
    still report; only ``TooLarge``, the user's resource guard, propagates.
    The sweep's name is the function's, without ``check_`` and with dashes;
    the detail of a passing sweep is its case count and ``unit``.
    """
    def wrap(cases: Callable[[CertifyOptions], Iterator[str | None]]):
        name = cases.__name__.removeprefix("check_").replace("_", "-")

        @wraps(cases)
        def check(opts: CertifyOptions) -> CheckResult:
            count = 0
            try:
                for failure in cases(opts):
                    if failure is not None:
                        return CheckResult(name, False, failure)
                    count += 1
            except TooLarge:
                raise
            except Exception as exc:
                return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
            return CheckResult(name, True, f"{count} {unit}")
        return check
    return wrap


@_sweep("tables checked")
def check_divisibility(opts: CertifyOptions):
    """Iterated differences of integer tables on p-power cycles are
    divisible by the predicted prime powers, in both exponent regimes."""
    rng = random.Random(opts.seed)
    for p, alpha, beta in _pab_sweep(opts):
        q = p**alpha
        for mode in ("sharp", "coarse"):
            for table in _tables(q, p**beta, opts, rng):
                f = _table(q, 0, table)
                yield None if divisibility_check(f, beta, mode) else (
                    f"{mode} failed for p={p} alpha={alpha} beta={beta} {table}")
    # single-step variant needs a vanishing value sum
    for p, alpha, _ in _pab_sweep(opts):
        q = p**alpha
        for _ in range(min(opts.samples, 200)):
            head = [rng.randrange(-9, 10) for _ in range(q - 1)]
            table = head + [-sum(head)]
            f = _table(q, 0, table)
            yield None if divisibility_check(f, 1, "single") else (
                f"single failed for p={p} alpha={alpha} {table}")


@_sweep("values checked")
def check_cofract_tail(opts: CertifyOptions):
    """Co-monofract values vanish mod p^beta beyond the threshold degree."""
    for p, alpha, beta in _pab_sweep(opts):
        q = p**alpha
        threshold = (beta * (p - 1) + 1) * p ** (alpha - 1)
        for delta in range(threshold, 2 * threshold + 1):
            for x in range(q):
                value = cofract(delta, q, 0, x).value
                yield None if value % p**beta == 0 else (
                    f"p^{beta} does not divide ({delta}|{x})_{q}")


@_sweep("cases checked")
def check_lagrange(opts: CertifyOptions):
    """Lagrange polyfracts are periodic point indicators of exact degree,
    with the predicted leading-coefficient divisibility and projection
    compatibility between coefficient moduli."""
    for p, alpha, beta in _pab_sweep(opts):
        q = p**alpha
        d = q - 1 + (beta - 1) * (p - 1) * p ** (alpha - 1)
        for x0 in range(q):
            lag = lagrange_polyfract(p, alpha, beta, x0)
            vals = lag.values(0, 2 * q)
            want = [1 if x % q == x0 else 0 for x in range(2 * q)]
            if vals != want:
                yield f"indicator failed for p={p} alpha={alpha} beta={beta} x0={x0}"
            if lag.degree != d:
                yield f"degree {lag.degree} != {d} for p={p} alpha={alpha} beta={beta}"
            leading = cofract(d, q, 0, d - x0).value
            yield None if leading % p ** (beta - 1) == 0 else (
                f"p^{beta - 1} does not divide leading cofract {leading}")
        # reducing the coefficient modulus rediscovers the smaller expansion
        for beta_small in range(1, beta):
            small = lagrange_polyfract(p, alpha, beta_small, 0)
            big = lagrange_polyfract(p, alpha, beta, 0)
            projected = UniPolyfract(
                p**beta_small,
                tuple(
                    mod_project(Residue(c, p**beta), p**beta_small).value
                    for c in big.coeffs
                ),
            )
            yield None if projected == small else (
                f"projection p^{beta}->p^{beta_small} mismatch (p={p}, alpha={alpha})")


@_sweep("random polyfracts checked")
def check_hrycaj(opts: CertifyOptions):
    """Coefficient periodicity criterion agrees with table periodicity."""
    rng = random.Random(opts.seed + 1)
    for _ in range(opts.samples):
        r = rng.randrange(2, 17)
        deg = rng.randrange(0, 13)
        q = rng.randrange(1, 9)
        p = UniPolyfract(r, tuple(rng.randrange(r) for _ in range(deg + 1)))
        span = (p.degree or 0) + q + 1
        vals = p.values(0, span + q)
        direct = all(vals[x + q] == vals[x] for x in range(span))
        yield None if hrycaj_periodicity(p, q) == direct else (
            f"disagreement for r={r} q={q} coeffs={p.coeffs}")


@_sweep("random grids checked")
def check_grid_vanishing(opts: CertifyOptions):
    """Coefficient support and value table vanish on the same grids."""
    rng = random.Random(opts.seed + 2)
    for _ in range(min(opts.samples, 400)):
        nvars = rng.randrange(1, 4)
        r = rng.randrange(2, 9)
        terms = {}
        for _ in range(rng.randrange(0, 5)):
            exp = tuple(rng.randrange(0, 4) for _ in range(nvars))
            terms[exp] = (rng.randrange(r),)
        p = MultiPolyfract((r,), nvars, tuple(terms.items()))
        bounds = tuple(rng.randrange(0, 5) for _ in range(nvars))
        a, b = grid_vanish_equiv(p, bounds)
        yield None if a == b else f"split verdict for {p} on {bounds}"


@_sweep("interpolations checked")
def check_degree_bound(opts: CertifyOptions):
    """Interpolated maps respect the total degree bound and attain it."""
    rng = random.Random(opts.seed + 3)
    for p, alpha, beta in _pab_sweep(opts):
        q = p**alpha
        bound = degree_bound(p, beta, [alpha])
        best = -1
        exhaustive = (p**beta) ** q <= EXHAUSTIVE_LIMIT
        for table in _tables(q, p**beta, opts, rng):
            f = _table(q, p**beta, table)
            total, _ = interpolate_prime_power(f).degrees()
            total = -1 if total is None else total
            yield None if total <= bound else (
                f"degree {total} exceeds bound {bound} for {table}")
            best = max(best, total)
        if exhaustive and best != bound:
            yield f"bound {bound} not attained for p={p} alpha={alpha} beta={beta}"


@_sweep("maps checked")
def check_counting(opts: CertifyOptions):
    """Block test, brute-force oracle, and the closed-form count agree."""
    limit = opts.count_limit
    for q in range(1, limit + 1):
        for r in range(1, limit + 1):
            if r**q > EXHAUSTIVE_LIMIT:
                continue
            hits = 0
            for table in product(range(r), repeat=q):
                f = _table(q, r, table)
                verdict = is_polyfractal(f)
                oracle = brute_force_polyfractal(
                    f, opts.max_search, opts.degree_bound_override
                )
                if verdict.polyfractal != oracle:
                    yield (f"verdict {verdict.polyfractal} vs oracle {oracle} "
                           f"for {table} (q={q}, r={r})")
                if not verdict.polyfractal and not counterexample_is_valid(
                    f, verdict.counterexample
                ):
                    yield f"invalid counterexample for {table} (q={q}, r={r})"
                hits += verdict.polyfractal
                yield None
            expected = count_polyfractal([q], [r])
            if hits != expected:
                yield f"counted {hits} != closed form {expected} for q={q} r={r}"


@_sweep("cases checked")
def check_taylor_interpolation(opts: CertifyOptions):
    """The difference expansion and the cofract interpolation coincide,
    and information coefficients extend consistently."""
    rng = random.Random(opts.seed + 4)
    for p, alpha, beta in _pab_sweep(opts):
        q = p**alpha
        r = p**beta
        bound = degree_bound(p, beta, [alpha])
        for table in _tables(q, r, opts, rng):
            f = _table(q, r, table)
            via_taylor = taylor_expand(f, bound)
            via_interp = interpolate_prime_power(f).component_uni(0)
            yield None if via_taylor == via_interp else (
                f"mismatch for {table} (p={p} alpha={alpha} beta={beta})")
        for _ in range(min(opts.samples, 100)):
            info = [rng.randrange(r) for _ in range(q)]
            extended = extend_information_coeffs(info, p, alpha, beta)
            if [extended.coefficient(i) for i in range(q)] != info:
                yield f"extension does not preserve info {info}"
            values = [Residue(v, r) for v in extended.values(0, q)]
            back = [c.value for c in coeffs_from_values(values)]
            yield None if back == info else (
                f"difference transform does not invert for {info}")


def _random_periodic(q: int, r: int, rng: random.Random) -> UniPolyfract:
    table = [rng.randrange(r) for _ in range(q)]
    return interpolate_prime_power(_table(q, r, table)).component_uni(0)


@_sweep("round trips checked")
def check_split_merge(opts: CertifyOptions):
    """Variable splitting round-trips and commutes with evaluation."""
    rng = random.Random(opts.seed + 5)
    pairs = [(2, 3), (2, 5), (3, 2), (4, 3), (8, 3), (9, 2), (4, 9), (5, 4)]
    for _ in range(min(opts.samples, 300)):
        q1, q2 = pairs[rng.randrange(len(pairs))]
        r1, r2 = q1, q2  # same prime support keeps the components periodic
        p1 = _random_periodic(q1, r1, rng)
        p2 = _random_periodic(q2, r2, rng)
        pair = MultiPolyfract.from_components([p1, p2])
        split = split_variable(pair, q1, q2)
        if merge_variables(split) != pair:
            yield f"round trip failed for {pair}"
        for x in range(q1 * q2):
            if split.evaluate((x % q1, x % q2)) != pair.evaluate((x,)):
                yield f"evaluation mismatch at {x} for {pair}"
        yield None


@_sweep("random triples checked")
def check_ring_laws(opts: CertifyOptions):
    """Ring axioms and pointwise correctness of the five-step product."""
    rng = random.Random(opts.seed + 6)
    for _ in range(min(opts.samples, 300)):
        r = rng.randrange(2, 13)
        polys = [
            UniPolyfract(
                r, tuple(rng.randrange(r) for _ in range(rng.randrange(1, 6)))
            )
            for _ in range(3)
        ]
        p, q, s = polys
        if (p + q) + s != p + (q + s) or p + q != q + p:
            yield f"addition broke for {polys}"
        if p * q != q * p or (p * q) * s != p * (q * s):
            yield f"multiplication broke for {polys}"
        if p * (q + s) != p * q + p * s:
            yield f"distributivity broke for {polys}"
        window = max(t.degree or 0 for t in polys) * 2 + 3
        prod_poly = p * q
        for x in range(window):
            if prod_poly.evaluate(x) != p.evaluate(x) * q.evaluate(x):
                yield f"pointwise product broke at {x} for {polys}"
        yield None


_CHECKS: tuple[Callable[[CertifyOptions], CheckResult], ...] = (
    check_divisibility,
    check_cofract_tail,
    check_lagrange,
    check_hrycaj,
    check_grid_vanishing,
    check_degree_bound,
    check_counting,
    check_taylor_interpolation,
    check_split_merge,
    check_ring_laws,
)


def run_all(opts: CertifyOptions | None = None) -> list[CheckResult]:
    opts = opts or CertifyOptions()
    return [check(opts) for check in _CHECKS]
