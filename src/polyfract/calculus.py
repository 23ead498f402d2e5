"""Discrete difference calculus on dense tables of group-valued functions.

A ``FiniteFn`` is a total function on a product of cyclic groups, stored
as one flat integer column per codomain factor, each in mixed-radix order
of the domain (first coordinate most significant).
Difference operators wrap around the cyclic domain, so ``delta`` of a
q-periodic function is again q-periodic by construction.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from itertools import chain, product
from math import gcd, prod
from operator import index, mul, sub
from typing import Callable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    BadCodomain,
    BadDomain,
    BadVariableIndex,
    NotAnnihilated,
    PreconditionFailed,
)
from .exactnum import (
    Residue, as_integer, at_least, binom, canonical, check_modulus, factorization,
)
from .multi import MultiPolyfract, _from_box
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

    ``columns[k][index(x)]`` is the k-th codomain coordinate at x, where
    index(x_1, ..., x_n) = ((x_1*q_2 + x_2)*q_3 + ...); codomain modulus 0
    means plain integer values.  ``FiniteFn(domain, codomain, rows)`` takes
    one row per point, ``FiniteFn(domain, codomain, columns=...)`` one
    sequence per codomain factor; ``values`` is the row view.
    """

    domain_moduli: tuple[int, ...]
    codomain_moduli: tuple[int, ...]
    rows: InitVar[Sequence[Sequence[int]] | None] = None
    columns: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self, rows):
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
        if self.columns is None:
            rows = tuple(() if rows is None else rows)
            lengths, widths = (len(rows),), set(map(len, rows))
            columns = tuple(zip(*rows))
        elif rows is not None:
            raise TypeError("give the table as rows or as columns, not both")
        else:
            columns = tuple(map(tuple, self.columns))
            lengths, widths = tuple(map(len, columns)), {len(columns)}
        for n in lengths:
            if n != size:
                raise ValueError(f"expected {size} table rows, got {n}")
        if widths - {len(codomain)}:
            raise ValueError("row width differs from codomain width")
        try:
            columns = tuple([
                tuple([v % r for v in map(index, col)]) if r else tuple(map(index, col))
                for col, r in zip(columns, codomain)
            ])
        except TypeError:
            for v in chain.from_iterable(zip(*columns)):
                as_integer(v, "table value")
            raise
        object.__setattr__(self, "columns", columns)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, domain: tuple[int, ...], codomain: tuple[int, ...],
                 columns: tuple) -> "FiniteFn":
        """Build without ``__post_init__``.  The caller guarantees checked
        moduli tuples and one tuple of canonical ints per codomain factor,
        each of the table's size.  The fields go straight into the instance
        dict, which the frozen ``__setattr__`` only guards."""
        f = object.__new__(cls)
        f.__dict__.update(domain_moduli=domain, codomain_moduli=codomain,
                          columns=columns)
        return f

    @classmethod
    def univariate(cls, q: int, r: int, values: Sequence[int]) -> "FiniteFn":
        return cls((q,), (r,), columns=(values,))

    @classmethod
    def from_callable(cls, domain: Sequence[int], codomain: Sequence[int],
                      fn: Callable[[tuple[int, ...]], Sequence[int]]) -> "FiniteFn":
        domain = tuple(domain)
        rows = [tuple(fn(x)) for x in product(*(range(q) for q in domain))]
        return cls(domain, tuple(codomain), rows)

    @cached_property
    def values(self) -> tuple[tuple[int, ...], ...]:
        """Row view: the codomain tuple at each point, in index order."""
        return tuple(zip(*self.columns)) or ((),) * self.size

    # -- indexing ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.domain_moduli)

    @property
    def size(self) -> int:
        return prod(self.domain_moduli)

    def index(self, x: Sequence[int]) -> int:
        """Position of x in the columns.  Each coordinate is checked before
        it wraps mod its period: one that is not an integer raises
        ValueError naming it."""
        if len(x) != len(self.domain_moduli):
            raise ArityMismatch(f"point {tuple(x)} needs {self.nvars} coordinates")
        idx = 0
        for xi, q in zip(x, self.domain_moduli):
            idx = idx * q + as_integer(xi, "coordinate") % q
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
        """Table entry at x, read from each column; coordinates wrap
        through the periodicity."""
        i = self.index(x)
        return tuple([col[i] for col in self.columns])

    def residues(self, x: Sequence[int]) -> tuple[Residue, ...]:
        return tuple(map(Residue, self.value(x), self.codomain_moduli))

    def is_zero(self) -> bool:
        return not any(map(any, self.columns))


@dataclass(frozen=True)
class DiffOp:
    """A shift T^s, forward difference, or stride difference in one variable.

    kinds: "shift" (f(x + s*e_i)), "delta" (f(x + e_i) - f(x), stride 1
    only) and "stride" (f(x + s*e_i) - f(x), the T^s - Id operator).
    """

    kind: str
    var: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.kind not in ("shift", "delta", "stride"):
            raise ValueError(f"unknown difference kind {self.kind!r}")
        stride = at_least(self.stride, 1, "stride")
        if self.kind == "delta" and stride != 1:
            raise ValueError(f"delta stride must be 1, got {stride}")
        object.__setattr__(self, "stride", stride)


def _shifted(seq: Sequence, domain: tuple[int, ...], var: int, step: int) -> list:
    """Entries of x -> seq[index(x + step*e_var)] for any column laid out
    in the mixed-radix order of ``domain``: each run of q_var blocks (one
    span) is rotated left by step blocks."""
    block = prod(domain[var + 1:])
    span = domain[var] * block
    cut = step * block % span
    out = []
    for base in range(0, len(seq), span):
        out += seq[base + cut:base + span]
        out += seq[base:base + cut]
    return out


def _box_cells(domain: Sequence[int], shape: Sequence[int],
               moduli: Sequence[int]) -> list[int]:
    """Column position on ``domain`` of x mod moduli (each at most its
    domain factor), for x over the box prod_j [0..shape[j]) row by row."""
    cells = [0]
    stride = prod(domain)
    for q, n, m in zip(domain, shape, moduli):
        stride //= q
        wrap = list(range(0, m * stride, stride))
        offsets = wrap * (n // m) + wrap[:n % m]
        cells = [c + o for c in cells for o in offsets]
    return cells


def _check_var(f: FiniteFn, var: int) -> int:
    var = as_integer(var, "variable", BadVariableIndex)
    if not 0 <= var < f.nvars:
        raise BadVariableIndex(f"variable {var} out of range")
    return var


def _difference(col: tuple, r: int, domain: tuple[int, ...], var: int,
                step: int) -> tuple:
    """One column of f(x + step*e_var) - f(x), reduced mod r (kept in Z
    for r = 0)."""
    diff = map(sub, _shifted(col, domain, var, step), col)
    return tuple([v % r for v in diff]) if r else tuple(diff)


def apply_diff(op: DiffOp, f: FiniteFn) -> FiniteFn:
    """Apply a difference operator to each codomain column; indices wrap
    mod q_var.  A shift only rotates the column; the differences run
    ``_difference``.
    """
    var = _check_var(f, op.var)
    domain = f.domain_moduli
    if op.kind == "shift":
        columns = tuple([tuple(_shifted(col, domain, var, op.stride))
                         for col in f.columns])
    else:
        columns = tuple([_difference(col, r, domain, var, op.stride)
                         for col, r in zip(f.columns, f.codomain_moduli)])
    return FiniteFn._trusted(domain, f.codomain_moduli, columns)


def delta_power(f: FiniteFn, k: int, var: int = 0) -> FiniteFn:
    """k-fold forward difference in one variable: k ``_difference`` steps."""
    var = _check_var(f, var)
    k = at_least(k, 0, "difference power")
    columns = list(f.columns)
    for i, r in enumerate(f.codomain_moduli):
        for _ in range(k):
            columns[i] = _difference(columns[i], r, f.domain_moduli, var, 1)
    return FiniteFn._trusted(f.domain_moduli, f.codomain_moduli, tuple(columns))


def value_sum(f: FiniteFn) -> tuple[Residue, ...]:
    """Componentwise sum of all table values."""
    return tuple(Residue(sum(col), r) for col, r in zip(f.columns, f.codomain_moduli))


def _degree_bound(d) -> int:
    """d as an int >= 0: the d of the precondition delta^(d+1) f = 0."""
    d = as_integer(d, "degree bound")
    if d < 0:
        raise ValueError(f"degree bound must be >= 0, got {d}")
    return d


def _check_univariate(f: FiniteFn) -> None:
    """Reject a table that ``taylor_expand`` cannot expand."""
    if f.nvars != 1:
        raise BadDomain("taylor_expand needs a one-variable table")
    if len(f.codomain_moduli) != 1:
        raise BadCodomain("taylor_expand needs a single codomain factor")


def taylor_expand(f: FiniteFn, d: int) -> UniPolyfract:
    """Expand a univariate table into the polyfract with coefficients
    delta^k f(0), k = 0..d.

    Requires delta^(d+1) f == 0 on the whole (wrapped) domain; then the
    returned polyfract matches f at every domain point.  A table that some
    delta^(d+1) annihilates is a q-periodic polyfract, of degree at most
    D = ``_degree_cap``, so delta^(min(d, D)+1) annihilates it exactly
    when delta^(d+1) does, and only that many steps run.

    It steps through ``apply_diff``, one table per step, not a plain
    ``_difference`` loop: the benchmark's traced run requires
    ``calculus.apply_diff`` to fire on interp and certify (ROADMAP item
    1), and only this loop calls it.
    """
    d = _degree_bound(d)
    _check_univariate(f)
    steps = min(d, _degree_cap(f.domain_moduli[0], f.codomain_moduli)) + 1
    op = DiffOp("delta")
    coeffs = []
    for _ in range(steps):
        coeffs.append(f.columns[0][0])
        f = apply_diff(op, f)
    if not f.is_zero():
        raise PreconditionFailed(
            f"difference power {d + 1} does not annihilate the table"
        )
    return UniPolyfract(f.codomain_moduli[0], tuple(coeffs))


def taylor_expand_multi(f: FiniteFn, bounds: Sequence[int]) -> MultiPolyfract:
    """n-variable expansion with per-variable degree bounds.

    Coefficients are the iterated differences delta_1^d1 ... delta_n^dn
    f(0) over the grid [bounds]; requires delta_j^(d_j + 1) to annihilate
    the table for every variable j separately (which pins the whole
    coefficient support inside the grid, so the expansion reproduces f),
    checked first with ``delta_power``, one variable after the other.
    Every line along variable j that some difference power annihilates is
    a q_j-periodic polyfract of degree at most D_j = ``_degree_cap``, so
    the check runs delta_j^(min(d_j, D_j)+1), and f's periodic extension
    on the box prod_j [0..min(d_j, D_j)] fixes the coefficients
    (``multi._from_box``).
    """
    bounds = tuple(bounds)
    if len(bounds) != f.nvars:
        raise BadDomain("one bound per variable required")
    bounds = tuple(map(_degree_bound, bounds))
    sizes = tuple(min(d, _degree_cap(q, f.codomain_moduli)) + 1
                  for d, q in zip(bounds, f.domain_moduli))
    for var, (d, n) in enumerate(zip(bounds, sizes)):
        if not delta_power(f, n, var).is_zero():
            raise PreconditionFailed(
                f"difference power {d + 1} does not annihilate variable {var}"
            )
    cells = _box_cells(f.domain_moduli, sizes, f.domain_moduli)
    return _from_box(f.codomain_moduli,
                     [[col[i] for i in cells] for col in f.columns], sizes)


@lru_cache(maxsize=256, typed=True)
def periodic_degree_bound(q: int, r: int) -> int:
    """Largest possible degree of a q-periodic polyfract into Z_r.

    Blockwise: for each prime p dividing both q and r the prime-power
    degree bound applies, primes dividing only one side force constants.
    Cached, since the oracle and the interpolation weights ask for the
    same few (q, r) on every table; ``typed``, so 2.0 cannot hit the
    entry of 2.  A period that is not an integer >= 1 or a modulus that
    is not an integer >= 0 raises ValueError.
    """
    at_least(q, 1, "period")
    check_modulus(r)
    if r <= 1:
        return 0
    alphas = dict(factorization(q))
    best = 0
    for p, beta in factorization(r):
        alpha = alphas.get(p, 0)
        if alpha == 0:
            continue
        best = max(best, p**alpha - 1 + (beta - 1) * (p - 1) * p ** (alpha - 1))
    return best


def _degree_cap(q: int, codomain: tuple[int, ...]) -> int:
    """The largest ``periodic_degree_bound(q, r)`` over the codomain."""
    return max((periodic_degree_bound(q, r) for r in codomain), default=0)


def map_degree(f: FiniteFn, var: int = 0) -> int | None:
    """Partial degree of the map: one less than the smallest difference
    power that annihilates it; None for the zero map.

    Steps every column with ``_difference``, as ``delta_power`` does, up
    to the blockwise degree bound plus one; maps that are not annihilated
    by then never are, and NotAnnihilated is raised.
    """
    var = _check_var(f, var)
    bound = _degree_cap(f.domain_moduli[var], f.codomain_moduli)
    columns = list(f.columns)
    applied = 0
    while any(map(any, columns)):
        if applied > bound:
            raise NotAnnihilated(
                f"no difference power up to {bound + 1} annihilates variable {var}"
            )
        for i, r in enumerate(f.codomain_moduli):
            columns[i] = _difference(columns[i], r, f.domain_moduli, var, 1)
        applied += 1
    return applied - 1 if applied else None


@lru_cache(maxsize=256)
def _periodicity_taps(q: int, r: int) -> tuple[int, tuple[int, ...]]:
    """(s, taps) of the periodicity criterion: every j in 1..q with C(q, j)
    nonzero mod r is a multiple of s, and taps holds C(q, j) mod r for
    j = s, 2s, .., q; the last, C(q, q), is 1 unless r = 1."""
    taps = {j: c for j in range(1, q + 1) if (c := canonical(binom(q, j), r))}
    s = gcd(q, *taps)
    return s, tuple(taps.get(j, 0) for j in range(s, q + 1, s))


def hrycaj_periodicity(p: UniPolyfract, q: int) -> bool:
    """Coefficient criterion for q-periodicity of a polyfractal map: True
    iff sum_j C(q, j) * P_(d+j), j = 1..q, vanishes mod r for every d up to
    the degree (summed over the j of ``_periodicity_taps``); equivalent to
    P(x + q) = P(x) for all x."""
    q, r = at_least(q, 1, "period"), p.modulus
    (s, taps), coeffs = _periodicity_taps(q, r), p.coeffs + (0,) * q
    return not any(canonical(sum(map(mul, taps, coeffs[d + s:d + q + 1:s])), r)
                   for d in range(len(p.coeffs)))


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
    fac = factorization(f.domain_moduli[0])
    if len(fac) != 1:
        raise BadDomain(f"domain order {f.domain_moduli[0]} is not a prime power")
    ((p, alpha),) = fac
    beta = at_least(beta, 0, "beta")
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
    return not any(v % divisor for v in delta_power(f, k).columns[0])
