"""Decide and construct polynomial representations of maps between groups.

A map between finite commutative groups is induced by a rational
polynomial exactly when, after splitting domain and codomain into their
primary components, each prime's output block depends only on the same
prime's input block.  The pipeline here transports a value table through
the splitting isomorphisms, checks that block structure, interpolates the
block maps, and reassembles witnesses, counterexamples, counts, and an
independent brute-force oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from operator import mod
from typing import Sequence

from .calculus import FiniteFn, periodic_degree_bound
from .errors import InfiniteGroup, NotCyclic, NotPolyfractal, TooLarge
from .exactnum import Residue
from .groups import Splitting, merge_variables, split_group
from .lagrange import interpolate_prime_power
from .multi import MultiPolyfract
from .uni import RationalPoly, UniPolyfract, table_values

__all__ = [
    "ClassificationResult",
    "Counterexample",
    "Witness",
    "brute_force_polyfractal",
    "count_polyfractal",
    "counterexample_is_valid",
    "is_polyfractal",
    "represent",
    "represent_univariate",
]

DEFAULT_MAX_SEARCH = 1_000_000


@lru_cache(maxsize=256)
def _split_group(domain_moduli: tuple[int, ...],
                 codomain_moduli: tuple[int, ...]) -> tuple[Splitting, Splitting]:
    """Splittings of a domain and a codomain over their shared primes."""
    if 0 in domain_moduli or 0 in codomain_moduli:
        raise InfiniteGroup("classification requires finite groups")
    both = split_group(domain_moduli + codomain_moduli)
    n = len(domain_moduli)
    return both.columns(0, n), both.columns(n, both.width)


def _splits(f: FiniteFn) -> tuple[Splitting, Splitting]:
    return _split_group(f.domain_moduli, f.codomain_moduli)


@dataclass(frozen=True)
class Counterexample:
    """Two domain points that agree on one prime block of the domain yet
    map to different values in that prime's codomain block."""

    prime: int
    first: tuple[int, ...]
    second: tuple[int, ...]


@dataclass(frozen=True)
class Witness:
    """A representing polyfract plus the splittings used to build it.

    The polyfract lives over the split domain (one variable per prime and
    original factor, block-major) and split codomain; ``evaluate``
    transports a point of the original domain through the splitting,
    evaluates, and recombines through the inverse codomain splitting.
    """

    polyfract: MultiPolyfract
    domain: Splitting
    codomain: Splitting

    def evaluate(self, x: Sequence[int]) -> tuple[Residue, ...]:
        vals = self.polyfract.evaluate(self.domain.split(x))
        out = self.codomain.unsplit([v.value for v in vals])
        return tuple(Residue(v, r) for v, r in zip(out, self.codomain.moduli))


@dataclass(frozen=True)
class ClassificationResult:
    polyfractal: bool
    counterexample: Counterexample | None = None
    witness: Witness | None = None


def is_polyfractal(f: FiniteFn) -> ClassificationResult:
    """Block-dependency test for representability by a rational polynomial.

    Scans primes in order and domain points lexicographically, grouping
    points by their block coordinates; the first block output that varies
    within a group yields the reported counterexample.  The first point of
    a group is its block point a itself (a_j < P_j <= q_j), so the group's
    key doubles as that point.
    """
    dom, cod = _splits(f)
    for i, p in enumerate(dom.primes):
        in_parts = dom.parts[i]
        # No codomain factor leaves outs empty: a map into {0} passes.
        outs = zip(*[[v % m for v in col] for col, m in zip(f.columns, cod.parts[i])])
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for x, out in zip(f.points(), outs):
            key = tuple(map(mod, x, in_parts))
            expected = seen.setdefault(key, out)
            if expected != out:
                return ClassificationResult(
                    False, counterexample=Counterexample(p, key, x)
                )
    return ClassificationResult(True)


def counterexample_is_valid(f: FiniteFn, ce: Counterexample) -> bool:
    """Check a counterexample against the table it came from."""
    dom, cod = _splits(f)
    if ce.prime not in dom.primes or not len(ce.first) == len(ce.second) == f.nvars:
        return False
    i = dom.primes.index(ce.prime)
    return (dom.block(i, ce.first) == dom.block(i, ce.second)
            and cod.block(i, f.value(ce.first)) != cod.block(i, f.value(ce.second)))


def represent(f: FiniteFn) -> Witness:
    """Construct the representing polyfract of a polyfractal table.

    Interpolates each prime's block map into the matching codomain slots;
    variables outside a coefficient's block never occur in its monofracts.
    Raises NotPolyfractal (carrying a counterexample) otherwise.
    """
    result = is_polyfractal(f)
    if not result.polyfractal:
        ce = result.counterexample
        raise NotPolyfractal(
            f"block {ce.prime}: points {ce.first} and {ce.second} split the block", ce
        )
    dom, cod = _splits(f)
    n = dom.width
    t = cod.width
    nvars = len(dom.primes) * n
    codomain = cod.flat_moduli
    terms: dict[tuple[int, ...], list[int]] = {}
    for i, block_domain in enumerate(dom.parts):
        # A block point is a domain point of that block, and the block test
        # has shown the block output does not depend on the representative.
        # The table constructor reduces each value into the block Z_m.
        cells = [f.index(a) for a in product(*(range(q) for q in block_domain))]
        for k, (m, col) in enumerate(zip(cod.parts[i], f.columns)):
            if m == 1:
                continue
            slot = i * t + k
            table = FiniteFn(block_domain, (m,), columns=([col[j] for j in cells],))
            for exp, (c,) in interpolate_prime_power(table).terms:
                full_exp = [0] * nvars
                full_exp[i * n:(i + 1) * n] = exp
                row = terms.setdefault(tuple(full_exp), [0] * len(codomain))
                row[slot] = c
    poly = MultiPolyfract(
        codomain, nvars, tuple((e, tuple(c)) for e, c in terms.items())
    )
    return Witness(poly, dom, cod)


def represent_univariate(f: FiniteFn) -> tuple[UniPolyfract, RationalPoly]:
    """Single-variable representation of a cyclic-to-cyclic polyfractal map.

    Merges all block variables back into one X and recombines the
    codomain slots through the inverse splitting; the rational polynomial
    is the balanced-lift monomial expansion of the result (one
    representative of the coefficient coset; any lift induces the same
    map).
    """
    if f.nvars != 1 or len(f.codomain_moduli) != 1:
        raise NotCyclic("a cyclic domain and codomain are required")
    witness = represent(f)
    merged = merge_variables(witness.polyfract)
    cod = witness.codomain
    term_map = merged.term_map()
    max_deg = max((exp[0] for exp, _ in merged.terms), default=-1)
    zero = (0,) * len(cod.primes)
    coeffs = tuple(
        cod.unsplit(term_map.get((d,), zero))[0] for d in range(max_deg + 1)
    )
    poly = UniPolyfract(cod.moduli[0], coeffs)
    return poly, poly.to_rational(lift="balanced")


def count_polyfractal(domain: Sequence[int], codomain: Sequence[int]) -> int:
    """Number of polyfractal maps: the product over primes of
    |B_p| ** |A_p| for the primary components A_p, B_p."""
    a, b = _split_group(tuple(domain), tuple(codomain))
    return prod(prod(b_p) ** prod(a_p) for a_p, b_p in zip(a.parts, b.parts))


@lru_cache(maxsize=128)
def _representable_tables(q: int, r: int, bound: int) -> frozenset[tuple[int, ...]]:
    """All value tables of q-periodic polyfracts over Z_r, by enumeration.

    Every q-periodic polyfract has degree at most the blockwise bound, so
    enumerating coefficient vectors up to that degree and keeping the
    periodic ones is exhaustive.  Each vector's values at 0..q+bound come
    straight from ``table_values``; the polyfract is periodic when the
    last bound + 1 of them repeat the first, since P(x + q) - P(x) has
    degree at most bound.
    """
    found = set()
    span = q + bound + 1
    for coeffs in product(range(r), repeat=bound + 1):
        vals = table_values(coeffs, r, 0, span)
        if vals[q:] == vals[:bound + 1]:
            found.add(tuple(vals[:q]))
    return frozenset(found)


def brute_force_polyfractal(f: FiniteFn,
                            max_search: int = DEFAULT_MAX_SEARCH,
                            degree_bound: int | None = None) -> bool:
    """Oracle: search all bounded-degree periodic polyfracts for one that
    induces f.

    Independent of the block-dependency logic; the search space is
    r ** (bound + 1) coefficient vectors and is guarded by max_search.
    ``degree_bound`` overrides the blockwise bound (testing only; a too
    small value loses completeness).
    """
    if f.nvars != 1 or len(f.codomain_moduli) != 1:
        raise NotCyclic("the oracle handles cyclic domain and codomain only")
    q = f.domain_moduli[0]
    r = f.codomain_moduli[0]
    if r == 0:
        raise InfiniteGroup("the oracle requires a finite codomain")
    if r == 1:
        return True
    bound = periodic_degree_bound(q, r) if degree_bound is None else degree_bound
    space = r ** (bound + 1)
    if space > max_search:
        raise TooLarge(f"search space {space} exceeds limit {max_search}")
    return f.columns[0] in _representable_tables(q, r, bound)
