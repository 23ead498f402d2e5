"""Discrete difference calculus on dense tables of group-valued functions.

A ``FiniteFn`` is a total function on a product of cyclic groups, stored
as a dense table in mixed-radix order (first coordinate most significant).
Difference operators wrap around the cyclic domain, so ``delta`` of a
q-periodic function is again q-periodic by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import index
from typing import Callable, Iterator, Sequence

from .errors import (
    BadCodomain,
    BadDomain,
    BadVariableIndex,
    NotAnnihilated,
    PreconditionFailed,
)
from .exactnum import Residue, as_integer, binom, canonical, prime_factors
from .multi import MultiPolyfract
from .uni import UniPolyfract

__all__ = [
    "DiffOp",
    "FiniteFn",
    "apply_diff",
    "delta_power",
    "divisibility_check",
    "hrycaj_periodicity",
    "map_degree",
    "periodic_degree_bound",
    "taylor_expand",
    "taylor_expand_multi",
    "value_sum",
]


@dataclass(frozen=True)
class FiniteFn:
    """Dense value table of a map between products of cyclic groups.

    ``values[index(x)]`` is the codomain tuple at x, where
    index(x_1, ..., x_n) = ((x_1*q_2 + x_2)*q_3 + ...); codomain modulus 0
    means plain integer values.
    """

    domain_moduli: tuple[int, ...]
    codomain_moduli: tuple[int, ...]
    values: tuple = ()

    def __post_init__(self):
        domain = tuple(as_integer(q, "domain modulus", BadDomain)
                       for q in self.domain_moduli)
        codomain = tuple(as_integer(r, "codomain modulus", BadCodomain)
                         for r in self.codomain_moduli)
        if any(q < 1 for q in domain):
            raise BadDomain("domain moduli must be >= 1")
        if any(r < 0 for r in codomain):
            raise BadCodomain("codomain moduli must be >= 0")
        object.__setattr__(self, "domain_moduli", domain)
        object.__setattr__(self, "codomain_moduli", codomain)
        size = prod(domain)
        rows = tuple(self.values)
        if len(rows) != size:
            raise ValueError(f"expected {size} table rows, got {len(rows)}")
        if any(len(row) != len(codomain) for row in rows):
            raise ValueError("row width differs from codomain width")
        try:
            if len(codomain) == 1 and codomain[0]:
                # Most tables are width 1; here the per-row generator below
                # would cost several times the reduction.
                r = codomain[0]
                rows = tuple([(index(v) % r,) for (v,) in rows])
            else:
                rows = tuple(
                    tuple(index(v) % r if r else index(v) for v, r in zip(row, codomain))
                    for row in rows
                )
        except TypeError:
            for row in rows:
                for v in row:
                    as_integer(v, "table value")
            raise
        object.__setattr__(self, "values", rows)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, domain: tuple[int, ...], codomain: tuple[int, ...],
                 rows: tuple) -> "FiniteFn":
        """Build without ``__post_init__``.  The caller guarantees checked
        moduli tuples and a tuple of canonical row tuples of the right size
        and width."""
        f = object.__new__(cls)
        object.__setattr__(f, "domain_moduli", domain)
        object.__setattr__(f, "codomain_moduli", codomain)
        object.__setattr__(f, "values", rows)
        return f

    @classmethod
    def univariate(cls, q: int, r: int, values: Sequence[int]) -> "FiniteFn":
        return cls((q,), (r,), tuple((v,) for v in values))

    @classmethod
    def from_callable(cls, domain: Sequence[int], codomain: Sequence[int],
                      fn: Callable[[tuple[int, ...]], Sequence[int]]) -> "FiniteFn":
        domain = tuple(domain)
        rows = [tuple(fn(x)) for x in product(*(range(q) for q in domain))]
        return cls(domain, tuple(codomain), tuple(rows))

    # -- indexing ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.domain_moduli)

    @property
    def size(self) -> int:
        return prod(self.domain_moduli)

    def index(self, x: Sequence[int]) -> int:
        idx = 0
        for xi, q in zip(x, self.domain_moduli):
            idx = idx * q + (xi % q)
        return idx

    def point(self, idx: int) -> tuple[int, ...]:
        coords = []
        for q in reversed(self.domain_moduli):
            coords.append(idx % q)
            idx //= q
        return tuple(reversed(coords))

    def points(self) -> Iterator[tuple[int, ...]]:
        return product(*(range(q) for q in self.domain_moduli))

    def value(self, x: Sequence[int]) -> tuple[int, ...]:
        """Table entry at x; coordinates wrap through the periodicity."""
        return self.values[self.index(x)]

    def residues(self, x: Sequence[int]) -> tuple[Residue, ...]:
        return tuple(
            Residue(v, r) for v, r in zip(self.value(x), self.codomain_moduli)
        )

    def is_zero(self) -> bool:
        return all(not any(row) for row in self.values)


@dataclass(frozen=True)
class DiffOp:
    """A shift T^s, forward difference, or stride difference in one variable.

    kinds: "shift" (f(x + s*e_i)), "delta" (f(x + e_i) - f(x)) and
    "stride" (f(x + s*e_i) - f(x), the T^s - Id operator).
    """

    kind: str
    var: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.kind not in ("shift", "delta", "stride"):
            raise ValueError(f"unknown difference kind {self.kind!r}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


def _shifted_rows(f: FiniteFn, var: int, step: int) -> list[tuple[int, ...]]:
    """Rows of x -> f(x + step*e_var), using the mixed-radix layout: each
    run of q_var blocks (one span) is rotated left by step blocks."""
    domain = f.domain_moduli
    block = prod(domain[var + 1:])
    span = domain[var] * block
    cut = step * block % span
    rows = f.values
    out = []
    for base in range(0, len(rows), span):
        out += rows[base + cut:base + span]
        out += rows[base:base + cut]
    return out


def apply_diff(op: DiffOp, f: FiniteFn) -> FiniteFn:
    """Apply a difference operator pointwise; indices wrap mod q_var."""
    if not 0 <= op.var < f.nvars:
        raise BadVariableIndex(f"variable {op.var} out of range")
    step = 1 if op.kind == "delta" else op.stride
    shifted = _shifted_rows(f, op.var, step)
    codomain = f.codomain_moduli
    if op.kind == "shift":
        rows = shifted
    elif len(codomain) == 1:
        # The Taylor, degree and divisibility tables are all width 1; here
        # the per-row tuple generator below would cost several times the
        # subtraction itself.
        (r,) = codomain
        if r:
            rows = [((a - b) % r,) for (a,), (b,) in zip(shifted, f.values)]
        else:
            rows = [(a - b,) for (a,), (b,) in zip(shifted, f.values)]
    else:
        rows = [
            tuple((a - b) % r if r else a - b for a, b, r in zip(srow, row, codomain))
            for srow, row in zip(shifted, f.values)
        ]
    return FiniteFn._trusted(f.domain_moduli, codomain, tuple(rows))


def delta_power(f: FiniteFn, k: int, var: int = 0) -> FiniteFn:
    """k-fold forward difference in one variable."""
    op = DiffOp("delta", var)
    for _ in range(k):
        f = apply_diff(op, f)
    return f


def value_sum(f: FiniteFn) -> tuple[Residue, ...]:
    """Componentwise sum of all table values."""
    acc = [0] * len(f.codomain_moduli)
    for row in f.values:
        for i, v in enumerate(row):
            acc[i] += v
    return tuple(Residue(v, r) for v, r in zip(acc, f.codomain_moduli))


def taylor_expand(f: FiniteFn, d: int) -> UniPolyfract:
    """Expand a univariate table into the polyfract with coefficients
    delta^k f(0), k = 0..d.

    Requires delta^(d+1) f == 0 on the whole (wrapped) domain; then the
    returned polyfract matches f at every domain point.
    """
    if f.nvars != 1:
        raise BadDomain("taylor_expand needs a one-variable table")
    if len(f.codomain_moduli) != 1:
        raise BadCodomain("taylor_expand needs a single codomain factor")
    g = f
    coeffs = []
    for _ in range(d + 1):
        coeffs.append(g.values[0][0])
        g = apply_diff(DiffOp("delta"), g)
    if not g.is_zero():
        raise PreconditionFailed(
            f"difference power {d + 1} does not annihilate the table"
        )
    return UniPolyfract(f.codomain_moduli[0], tuple(coeffs))


def taylor_expand_multi(f: FiniteFn, bounds: Sequence[int]) -> MultiPolyfract:
    """n-variable expansion with per-variable degree bounds.

    Coefficients are the iterated differences delta_1^d1 ... delta_n^dn
    f(0) over the grid [bounds]; requires delta_j^(d_j + 1) to annihilate
    the table for every variable j separately (which pins the whole
    coefficient support inside the grid, so the expansion reproduces f).
    """
    bounds = tuple(bounds)
    if len(bounds) != f.nvars:
        raise BadDomain("one bound per variable required")
    for var, d in enumerate(bounds):
        if not delta_power(f, d + 1, var).is_zero():
            raise PreconditionFailed(
                f"difference power {d + 1} does not annihilate variable {var}"
            )
    terms = {}

    def collect(table: FiniteFn, var: int, exp: tuple[int, ...]) -> None:
        if var == len(bounds):
            terms[exp] = table.values[0]
            return
        g = table
        for d in range(bounds[var] + 1):
            collect(g, var + 1, exp + (d,))
            g = apply_diff(DiffOp("delta", var), g)

    collect(f, 0, ())
    return MultiPolyfract(f.codomain_moduli, f.nvars, tuple(terms.items()))


def periodic_degree_bound(q: int, r: int) -> int:
    """Largest possible degree of a q-periodic polyfract into Z_r.

    Blockwise: for each prime p dividing both q and r the prime-power
    degree bound applies, primes dividing only one side force constants.
    """
    if r <= 1:
        return 0
    best = 0
    for p, beta in prime_factors(r).items():
        alpha = 0
        qq = q
        while qq % p == 0:
            qq //= p
            alpha += 1
        if alpha == 0:
            continue
        best = max(best, p**alpha - 1 + (beta - 1) * (p - 1) * p ** (alpha - 1))
    return best


def map_degree(f: FiniteFn, var: int = 0) -> int | None:
    """Partial degree of the map: one less than the smallest difference
    power that annihilates it; None for the zero map.

    Searches up to the blockwise degree bound plus one; maps that are not
    annihilated by then never are, and NotAnnihilated is raised.
    """
    if not 0 <= var < f.nvars:
        raise BadVariableIndex(f"variable {var} out of range")
    q = f.domain_moduli[var]
    bound = max(
        (periodic_degree_bound(q, r) for r in f.codomain_moduli), default=0
    )
    g = f
    for applied in range(bound + 2):
        if g.is_zero():
            return applied - 1 if applied else None
        g = apply_diff(DiffOp("delta", var), g)
    raise NotAnnihilated(
        f"no difference power up to {bound + 1} annihilates variable {var}"
    )


def hrycaj_periodicity(p: UniPolyfract, q: int) -> bool:
    """Coefficient criterion for q-periodicity of a polyfractal map.

    True iff sum_j C(q, j) * P_(d+j), j = 1..q, vanishes mod r for every
    d up to the degree; equivalent to P(x + q) = P(x) for all x.
    """
    if q < 1:
        raise ValueError("period must be >= 1")
    deg = p.degree
    if deg is None:
        return True
    for d in range(deg + 1):
        s = sum(binom(q, j) * p.coefficient(d + j) for j in range(1, q + 1))
        if canonical(s, p.modulus) != 0:
            return False
    return True


def divisibility_check(f: FiniteFn, beta: int, mode: str = "sharp") -> bool:
    """Certify prime-power divisibility of iterated differences.

    For f: Z_{p^a} -> Z the predicate checks p^beta | delta^k f with
    k = (beta*(p-1)+1)*p^(a-1) ("sharp"), or the weaker k =
    beta*(p^a - 1)+1 ("coarse"); mode "single" checks p | delta^(p^a - 1) f
    and requires a vanishing value sum.  All three are theorems, so the
    predicate certifies rather than decides.
    """
    if f.nvars != 1:
        raise BadDomain("a single cyclic domain factor is required")
    if f.codomain_moduli != (0,):
        raise BadCodomain("values must live in Z (modulus 0)")
    fac = prime_factors(f.domain_moduli[0])
    if len(fac) != 1:
        raise BadDomain(f"domain order {f.domain_moduli[0]} is not a prime power")
    p, alpha = next(iter(fac.items()))
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if mode == "sharp":
        k, divisor = (beta * (p - 1) + 1) * p ** (alpha - 1), p**beta
    elif mode == "coarse":
        k, divisor = beta * (p**alpha - 1) + 1, p**beta
    elif mode == "single":
        if any(not s.is_zero() for s in value_sum(f)):
            raise PreconditionFailed("value sum does not vanish")
        k, divisor = p**alpha - 1, p
    else:
        raise ValueError(f"unknown mode {mode!r}")
    g = delta_power(f, k)
    return all(v % divisor == 0 for row in g.values for v in row)
