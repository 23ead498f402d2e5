"""Decide and construct polynomial representations of maps between groups.

A map between finite commutative groups is induced by a rational
polynomial exactly when, after splitting domain and codomain into their
primary components, each prime's output block depends only on the same
prime's input block.  The pipeline here transports a value table through
the splitting isomorphisms, checks that block structure, interpolates the
block maps, and reassembles witnesses, counterexamples, counts, and an
independent brute-force oracle.  One index map, ``calculus._box_cells``,
gathers the block points for the block test and for each block's table.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from math import comb, log10, prod
from operator import ne
from typing import Sequence

from .calculus import FiniteFn, _box_cells, _degree_bound, periodic_degree_bound
from .errors import InfiniteGroup, NotCyclic, NotPolyfractal, TooLarge
from .exactnum import Residue
from .groups import Splitting, split_group
from .lagrange import interpolate_prime_power
from .multi import MultiPolyfract, merge_variables
from .uni import RationalPoly, UniPolyfract

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


@lru_cache(maxsize=256)
def _block_plan(domain: tuple[int, ...], codomain: tuple[int, ...]) -> tuple:
    """(p, cells, slots) for each prime that can fail, in order: its domain
    parts are not the whole domain, and slots, each codomain column k with
    p-part m != 1 as (k, m, whether m is its modulus), is not empty.
    cells[x] is the position of x's block point.  Made once per shape."""
    dom, cod = _split_group(domain, codomain)
    plan = []
    for p, in_parts, out_parts in zip(dom.primes, dom.parts, cod.parts):
        slots = tuple((k, m, m == r) for k, (m, r) in enumerate(zip(out_parts, codomain))
                      if m != 1)
        if in_parts != domain and slots:
            plan.append((p, tuple(_box_cells(domain, domain, in_parts)), slots))
    return tuple(plan)


def is_polyfractal(f: FiniteFn) -> ClassificationResult:
    """Block-dependency test for representability by a rational polynomial.

    For each prime of the shape's cached ``_block_plan``, in order, every
    codomain column of a nontrivial slot is reduced into that prime's
    block (no reduction where the block is the whole factor) and compared,
    as a whole, with itself read at each point's block point a = x mod P
    (a_j < P_j <= q_j, so a is the first point of its group in index
    order).  The counterexample is the earliest point that clashes in any
    column, paired with its block point.
    """
    for p, cells, slots in _block_plan(f.domain_moduli, f.codomain_moduli):
        first = None
        for k, m, whole in slots:
            col = f.columns[k]
            red = list(col) if whole else [v % m for v in col]
            got = list(map(red.__getitem__, cells))
            if got != red:
                j = next(compress(count(), map(ne, got, red)))
                first = j if first is None else min(first, j)
        if first is not None:
            return ClassificationResult(False, counterexample=Counterexample(
                p, f.point(cells[first]), f.point(first)))
    return ClassificationResult(True)


def counterexample_is_valid(f: FiniteFn, ce: Counterexample) -> bool:
    """Check a counterexample against the table it came from: the two
    points agree mod each domain p-part and their values differ mod some
    codomain p-part.  Coordinates wrap through the periodicity."""
    dom, cod = _splits(f)
    if ce.prime not in dom.primes or not len(ce.first) == len(ce.second) == f.nvars:
        return False
    i = dom.primes.index(ce.prime)
    if any((a - b) % m for a, b, m in zip(ce.first, ce.second, dom.parts[i])):
        return False
    j, k = f.index(ce.first), f.index(ce.second)
    return any((col[j] - col[k]) % m for col, m in zip(f.columns, cod.parts[i]))


def represent(f: FiniteFn) -> Witness:
    """Construct the representing polyfract of a polyfractal table.

    Interpolates each prime's block map into the matching codomain slots;
    variables outside a coefficient's block never occur in its monofracts.
    Raises NotPolyfractal (carrying a counterexample) otherwise.  The block
    tables and the witness are built trusted: each block value is reduced
    mod its slot's modulus here, every coefficient comes canonical and
    nonzero from the interpolation, and the terms are sorted by exponent.
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
        cells = _box_cells(f.domain_moduli, block_domain, block_domain)
        for k, (m, col) in enumerate(zip(cod.parts[i], f.columns)):
            if m == 1:
                continue
            slot = i * t + k
            table = FiniteFn._trusted(block_domain, (m,),
                                      (tuple([col[j] % m for j in cells]),))
            for exp, (c,) in interpolate_prime_power(table).terms:
                full_exp = [0] * nvars
                full_exp[i * n:(i + 1) * n] = exp
                row = terms.setdefault(tuple(full_exp), [0] * len(codomain))
                row[slot] = c
    poly = MultiPolyfract._trusted(
        codomain, nvars, tuple([(e, tuple(c)) for e, c in sorted(terms.items())]))
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
    return poly, poly.to_rational()


def count_polyfractal(domain: Sequence[int], codomain: Sequence[int],
                      max_digits: int | None = None) -> int:
    """Number of polyfractal maps: the product over primes of
    |B_p| ** |A_p| for the primary components A_p, B_p.

    With ``max_digits``, a count that certainly has more decimal digits
    raises TooLarge before any power is taken: it is at least 2 to the
    sum over primes of |A_p| * floor(log2 |B_p|).
    """
    a, b = _split_group(tuple(domain), tuple(codomain))
    sizes = [(prod(a_p), prod(b_p)) for a_p, b_p in zip(a.parts, b.parts)]
    if max_digits is not None:
        bits = sum(n * (m.bit_length() - 1) for n, m in sizes)
        if bits > (max_digits + 1) / log10(2):
            raise TooLarge(f"count has more than {max_digits} digits")
    return prod(m**n for n, m in sizes)


@lru_cache(maxsize=128)
def _representable_tables(q: int, r: int, bound: int) -> frozenset[tuple[int, ...]]:
    """All value tables of q-periodic polyfracts over Z_r, by enumeration.

    Every q-periodic polyfract has degree at most the blockwise bound, so
    enumerating coefficient vectors up to that degree and keeping the
    periodic ones is exhaustive.  The vectors are walked depth first,
    carrying the partial sums sum_{j<k} c_j*C(x, j) mod r at x =
    0..q+bound-1 over rows C(x, k) mod r built once, so each vector costs
    one list of q+bound values.  The polyfract is periodic when the last
    bound of them repeat the first, since P(x + q) - P(x) has degree at
    most bound - 1 (its C(x, bound) coefficient cancels), and a polyfract
    of degree below bound that vanishes at 0..bound-1 is zero.
    """
    span = q + bound
    rows = [[comb(x, k) % r for x in range(span)] for k in range(bound + 1)]
    last = len(rows) - 1
    found = set()
    # each entry: the values of the coefficients chosen below degree k;
    # adding row k c times makes c the degree-k coefficient
    stack = [([0] * span, 0)]
    while stack:
        sums, k = stack.pop()
        row = rows[k]
        for c in range(r):
            if c:
                sums = [(s + b) % r for s, b in zip(sums, row)]
            if k < last:
                stack.append((sums, k + 1))
            elif sums[q:] == sums[:bound]:
                found.add(tuple(sums[:q]))
    return frozenset(found)


def brute_force_polyfractal(f: FiniteFn,
                            max_search: int = DEFAULT_MAX_SEARCH,
                            degree_bound: int | None = None) -> bool:
    """Oracle: search all bounded-degree periodic polyfracts for one that
    induces f.

    Independent of the block-dependency logic; the search space is
    r ** (bound + 1) coefficient vectors and is guarded by max_search.
    ``degree_bound`` overrides the blockwise bound (testing only; a too
    small value loses completeness; a bad one raises ValueError).
    """
    if degree_bound is not None:
        degree_bound = _degree_bound(degree_bound)
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
