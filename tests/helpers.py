"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: coefficients come
from alternating difference sums over plain ``math.comb``, evaluation from
direct falling-factorial products.  The kernel references at the end
keep the library's earlier algorithms; their co-monofract weights come
from the definition over ``math.comb``, and only ``ref_apply_diff``
reuses the library's checked ``FiniteFn`` constructor; ``ref_taylor_terms``
iterates it and ``ref_value_sum`` sums the rows.
``ref_representable_tables`` is the brute-force oracle's enumeration as it
ran before whole-table evaluation, one point at a time.  ``ref_block_scan``
is the block test as it ran before it keyed groups by their block point,
with the prime parts worked out by trial division; ``block_built_rows``
builds polyfractal tables from per-prime block maps on the same parts.
"""
import math
from fractions import Fraction
from itertools import product

from polyfract import MultiPolyfract
from polyfract.calculus import DiffOp, FiniteFn, periodic_degree_bound


def diff_coeffs(values):
    """Binomial-basis coefficients of the polynomial matching f(0..m),
    via alternating difference sums (independent of the library)."""
    return [
        sum((-1) ** (d - i) * math.comb(d, i) * values[i] for i in range(d + 1))
        for d in range(len(values))
    ]


def binom_any(n, k):
    """Generalized binomial via the plain product formula."""
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def eval_binomial_coeffs(coeffs, x):
    """Evaluate sum_d coeffs[d] * C(x, d) without the library."""
    return sum(c * binom_any(x, d) for d, c in enumerate(coeffs))


def wrap_diff(table, modulus):
    """One forward difference of a cyclic value table, entries mod modulus."""
    n = len(table)
    out = [table[(i + 1) % n] - table[i] for i in range(n)]
    if modulus:
        out = [v % modulus for v in out]
    return out


def all_tables(length, height):
    """Every value table of the given length with entries below height."""
    return product(range(height), repeat=length)


# -- Fraction reference for the binomial <-> monomial basis change ----------
#
# The five-step route as it ran before the integer-numerator kernels:
# every step on ``Fraction`` values.  The kernels must give the same
# coefficients and, for polynomials that are not integer valued, raise with
# the same message (the reference raises ``RefNotIntegerValued``).


class RefNotIntegerValued(Exception):
    """The reference's counterpart of ``NotIntegerValued``."""


def ref_binom_poly(delta):
    """Monomial coefficients of C(X, delta) over Q, constant term first."""
    coeffs = [1]
    for i in range(delta):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= c * i
        coeffs = nxt
    fac = math.factorial(delta)
    return tuple(Fraction(c, fac) for c in coeffs)


def ref_trim(seq):
    seq = list(seq)
    while seq and not seq[-1]:
        seq.pop()
    return tuple(seq)


def ref_lift(c, modulus, lift):
    """Integer representative of a canonical residue under ``lift``."""
    if lift == "canonical" or modulus == 0:
        return c
    half = (modulus - 1) // 2
    return (c + half) % modulus - half


def ref_to_rational(coeffs, modulus, lift):
    """Monomial coefficients of sum lift(c_d)*C(X, d), trimmed."""
    out = []
    for d, c in enumerate(coeffs):
        c = ref_lift(c, modulus, lift)
        bp = ref_binom_poly(d)
        out.extend([Fraction(0)] * (len(bp) - len(out)))
        for j, w in enumerate(bp):
            out[j] += c * w
    return ref_trim(out)


def ref_poly_mul(a, b):
    """Product of two dense rational polynomials, trimmed."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * y
    return ref_trim(out)


def ref_extract(coeffs):
    """Binomial-basis coefficients by leading-coefficient extraction."""
    work = list(ref_trim(Fraction(c) for c in coeffs))
    out = [0] * len(work)
    for m in range(len(work) - 1, -1, -1):
        c = work[m] * math.factorial(m)
        if c.denominator != 1:
            raise RefNotIntegerValued(
                f"binomial coefficient at degree {m} is {c}, not an integer"
            )
        out[m] = int(c)
        bp = ref_binom_poly(m)
        for j in range(m + 1):
            work[j] -= out[m] * bp[j]
    return out


def _sparse_add(out, key, value):
    v = out.get(key, Fraction(0)) + value
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def ref_expand(int_terms):
    """Sparse monomial expansion of sum c*C(X_1,e_1)...C(X_n,e_n)."""
    out = {}
    for exp, c in int_terms.items():
        if not c:
            continue
        monos = {(): Fraction(1)}
        for d in exp:
            monos = {e + (k,): w * b for e, w in monos.items()
                     for k, b in enumerate(ref_binom_poly(d)) if b}
        for mono, w in monos.items():
            _sparse_add(out, mono, c * w)
    return out


def ref_mpoly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _sparse_add(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def ref_binomial_coeffs_multi(poly, nvars):
    """Binomial-basis coefficients of a sparse rational polynomial,
    stripping leading monofracts in the last variable and recursing.  A
    coefficient that is not an integer is named by its degree for one
    variable and by its full exponent otherwise."""

    def strip(poly, k, suffix):
        if k == 0:
            c = poly.get((), Fraction(0))
            if not c:
                return {}
            if c.denominator != 1:
                where = f"degree {suffix[0]}" if nvars == 1 else f"exponent {suffix}"
                raise RefNotIntegerValued(
                    f"binomial coefficient at {where} is {c}, not an integer"
                )
            return {(): int(c)}
        work = {e: c for e, c in poly.items() if c}
        out = {}
        while work:
            m = max(e[-1] for e in work)
            head = {e[:-1]: c * math.factorial(m) for e, c in work.items() if e[-1] == m}
            bp = ref_binom_poly(m)
            for e, c in head.items():
                for j, w in enumerate(bp):
                    if w:
                        _sparse_add(work, e + (j,), -c * w)
            for e, ci in strip(head, k - 1, (m,) + suffix).items():
                out[e + (m,)] = ci
        return out

    return strip(poly, nvars, ())


def ref_slot(terms, i):
    """Slot i of (exp, coefficient tuple) terms as a sparse dict."""
    return {exp: coeffs[i] for exp, coeffs in terms if coeffs[i]}


def ref_multi_mul(a_terms, b_terms, width, nvars):
    """Five-step product per slot: {exp: coefficient} dict per slot."""
    return [
        ref_binomial_coeffs_multi(
            ref_mpoly_mul(ref_expand(ref_slot(a_terms, i)),
                          ref_expand(ref_slot(b_terms, i))),
            nvars,
        )
        for i in range(width)
    ]


def ref_compose(q_coeffs, p_terms, nvars):
    """Binomial coefficients of q(p(X)) over Z by Horner on Fractions."""
    p_mono = ref_expand(ref_slot(p_terms, 0))
    zero = (0,) * nvars
    acc = {}
    for c in reversed(ref_to_rational(q_coeffs, 0, "canonical")):
        acc = ref_mpoly_mul(acc, p_mono)
        if c:
            _sparse_add(acc, zero, c)
    return ref_binomial_coeffs_multi(acc, nvars)


def ref_merge(terms, width):
    """Monomial coefficients, per slot, of the diagonal X_j = X."""
    slots = []
    for i in range(width):
        rp = ()
        for exp, c in ref_slot(terms, i).items():
            prod = (Fraction(1),)
            for d in exp:
                prod = ref_poly_mul(prod, ref_binom_poly(d))
            scaled = [c * v for v in prod]
            n = max(len(rp), len(scaled))
            rp = ref_trim(
                (rp[j] if j < len(rp) else 0) + (scaled[j] if j < len(scaled) else 0)
                for j in range(n)
            )
        slots.append(rp)
    return slots


# -- References for the interpolation and difference kernels ----------------
#
# The cofract-weighted interpolation sum and the difference operator as they
# ran before the axis-by-axis contraction and the row kernel: one coefficient
# at a time over every table point, and one cell at a time with the result
# re-canonicalized by ``FiniteFn``'s constructor.


def ref_cofract(d, q, r, x):
    """The co-monofract (d | x)_{q,r} from its definition: the sum of
    (-1)^xh * C(d, xh) over 0 <= xh <= d with xh = x (mod q), mod r
    (r = 0 is Z: the sum itself)."""
    total = sum((-1) ** xh * math.comb(d, xh)
                for xh in range(d + 1) if (xh - x) % q == 0)
    return total % r if r else total


def ref_interpolate_prime_power(f):
    """sum_x prod_j (delta_j | delta_j - x_j)_{q_j, r} f(x) for every delta
    in the degree box, for a valid single-prime table into Z_r."""
    (r,) = f.codomain_moduli
    if r == 1:
        return MultiPolyfract.zero((1,), f.nvars)
    bounds = [periodic_degree_bound(q, r) for q in f.domain_moduli]
    tables = [
        [[ref_cofract(delta, q, r, delta - x) for x in range(q)]
         for delta in range(d + 1)]
        for q, d in zip(f.domain_moduli, bounds)
    ]
    points = [f.point(i) for i in range(f.size)]
    terms = []
    for delta in product(*(range(d + 1) for d in bounds)):
        acc = 0
        for x, row in zip(points, f.values):
            w = row[0]
            for j, xj in enumerate(x):
                w *= tables[j][delta[j]][xj]
            acc += w
        terms.append((delta, (acc,)))
    return MultiPolyfract((r,), f.nvars, tuple(terms))


def ref_apply_diff(op, f):
    """The difference operator cell by cell; indices wrap mod q_var and the
    constructor reduces the result."""
    domain = f.domain_moduli
    block = math.prod(domain[op.var + 1:])
    span = domain[op.var] * block
    step = 1 if op.kind == "delta" else op.stride
    shifted = []
    for idx in range(f.size):
        base = (idx // span) * span
        shifted.append(f.values[base + (idx - base + step * block) % span])
    if op.kind == "shift":
        rows = shifted
    else:
        rows = [tuple(a - b for a, b in zip(srow, row))
                for srow, row in zip(shifted, f.values)]
    return FiniteFn(f.domain_moduli, f.codomain_moduli, tuple(rows))


def ref_value_sum(f):
    """Per-coordinate sums of the rows, reduced mod each codomain modulus."""
    sums = [sum(row[k] for row in f.values) for k in range(len(f.codomain_moduli))]
    return tuple(s % r if r else s for s, r in zip(sums, f.codomain_moduli))


def ref_taylor_terms(f, bounds):
    """(exponent, row at 0 of delta_1^d1 ... delta_n^dn f) for every d within
    bounds, each table one ``ref_apply_diff`` from a smaller exponent's;
    None when some delta_j^(bounds[j] + 1) f has a nonzero cell."""
    for var, b in enumerate(bounds):
        g = f
        for _ in range(b + 1):
            g = ref_apply_diff(DiffOp("delta", var), g)
        if any(any(row) for row in g.values):
            return None
    tables = {}
    for exp in product(*(range(b + 1) for b in bounds)):
        var = next((j for j in reversed(range(len(exp))) if exp[j]), None)
        if var is None:
            tables[exp] = f
        else:
            prev = exp[:var] + (exp[var] - 1,) + exp[var + 1:]
            tables[exp] = ref_apply_diff(DiffOp("delta", var), tables[prev])
    return [(exp, g.values[0]) for exp, g in tables.items()]


def ref_representable_tables(q, r, bound):
    """Value tables of every q-periodic polyfract over Z_r of degree at
    most bound: each coefficient vector evaluated point by point, kept
    when its values at 0..bound repeat q places later."""
    found = set()
    for coeffs in product(range(r), repeat=bound + 1):
        vals = [eval_binomial_coeffs(coeffs, x) % r for x in range(q + bound + 1)]
        if all(vals[x + q] == vals[x] for x in range(bound + 1)):
            found.add(tuple(vals[:q]))
    return frozenset(found)


# -- reference block scan and block-built tables ---------------------------
#
# The block-dependency test with each group remembering its first point
# explicitly, and tables assembled block by block, on prime parts found by
# trial division instead of the library's ``Splitting``.


def _prime_divisors(n):
    found, p = [], 2
    while p * p <= n:
        if n % p == 0:
            found.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return found + [n] if n > 1 else found


def _prime_part(q, p):
    part = 1
    while q % p == 0:
        q //= p
        part *= p
    return part


def ref_block_scan(f):
    """None when every prime's output block depends only on its input
    block, else (prime, first, second) for the first clash: primes
    ascending, points in table order, ``first`` the earliest point of the
    group that ``second`` joins with a different block output."""
    moduli = f.domain_moduli + f.codomain_moduli
    primes = sorted({p for q in moduli for p in _prime_divisors(q)})
    for p in primes:
        in_parts = [_prime_part(q, p) for q in f.domain_moduli]
        out_parts = [_prime_part(r, p) for r in f.codomain_moduli]
        seen = {}
        points = product(*(range(q) for q in f.domain_moduli))
        for x, y in zip(points, f.values):
            key = tuple(a % m for a, m in zip(x, in_parts))
            out = tuple(b % m for b, m in zip(y, out_parts))
            if key not in seen:
                seen[key] = (x, out)
            elif seen[key][1] != out:
                return p, seen[key][0], x
    return None


def block_built_rows(domain, codomain, rng):
    """Rows of a polyfractal table: one random map per prime from the
    domain's p-block to the codomain's p-block, recombined into each
    codomain factor by searching Z_r for the residues (no library CRT)."""
    primes = sorted({p for m in domain + codomain for p in _prime_divisors(m)})
    in_parts = {p: [_prime_part(q, p) for q in domain] for p in primes}
    out_parts = {p: [_prime_part(r, p) for r in codomain] for p in primes}
    block_maps = {p: {} for p in primes}
    lift = [{tuple(y % out_parts[p][k] for p in primes): y for y in range(r)}
            for k, r in enumerate(codomain)]
    rows = []
    for x in product(*(range(q) for q in domain)):
        outs = []
        for p in primes:
            a = tuple(xj % m for xj, m in zip(x, in_parts[p]))
            if a not in block_maps[p]:
                block_maps[p][a] = tuple(rng.randrange(m) for m in out_parts[p])
            outs.append(block_maps[p][a])
        rows.append(tuple(lift[k][tuple(o[k] for o in outs)]
                          for k in range(len(codomain))))
    return rows
