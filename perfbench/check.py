"""Independent checker for the outputs of the benchmark items.

It imports nothing from ``polyfract``.  Binomial-basis outputs are
evaluated with plain integer binomials at every domain point; monomial
outputs are evaluated exactly as rationals, must be integers there and
agree with the table modulo r; a "no" verdict needs a counterexample that
holds on the table and names the prime block the generator split; library
products are checked pointwise on a grid that pins them down; ``certify``
must print ten PASS lines with the case counts its bounds imply.

``check_item`` returns None for a correct output, else a short reason.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from arith import (
    MonomialPoly,
    binom,
    crt,
    decode,
    eval_binomial,
    layout_primes,
    points,
    prime_part,
)

SWEEPS = (
    "divisibility", "cofract-tail", "lagrange", "hrycaj", "grid-vanishing",
    "degree-bound", "counting", "taylor-interpolation", "split-merge", "ring-laws",
)
EXHAUSTIVE_LIMIT = 20000  # CertifyOptions.exhaustive_limit, fixed on the CLI


class Problem:
    """A problem file: the table as {point: codomain tuple}."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.domain = doc["domain"]
        self.codomain = doc["codomain"]
        self.table = {
            x: decode(v, self.codomain) for x, v in zip(points(self.domain), doc["values"])
        }


def _poly_terms(doc, basis: str):
    """(exponent, coefficients) pairs of a polynomial file document."""
    if doc["basis"] != basis:
        raise ValueError(f"basis {doc['basis']!r}, expected {basis!r}")
    conv = int if basis == "binomial" else Fraction
    return [(tuple(e), [conv(c) for c in cs]) for e, cs in doc["terms"]]


def _check_canonical(doc) -> str | None:
    exps = [tuple(e) for e, _ in doc["terms"]]
    if exps != sorted(set(exps)):
        return "terms not sorted or duplicated"
    for _, cs in doc["terms"]:
        if not any(int(c) for c in cs):
            return "all-zero coefficient tuple"
        if any(not 0 <= int(c) < r for c, r in zip(cs, doc["codomain"]) if r):
            return "coefficient not a canonical residue"
    return None


def _check_table_binomial(prob: Problem, doc) -> str | None:
    """A polynomial over the problem's own domain and single codomain."""
    if doc["vars"] != len(prob.domain) or doc["codomain"] != prob.codomain:
        return "wrong arity or codomain"
    bad = _check_canonical(doc)
    if bad:
        return bad
    terms = _poly_terms(doc, "binomial")
    r = prob.codomain[0]
    for x, want in prob.table.items():
        got = eval_binomial(terms, x) if terms else [0]
        if got[0] % r != want[0]:
            return f"value at {list(x)} is {got[0] % r}, table has {want[0]}"
    return None


def _check_split(prob: Problem, doc) -> str | None:
    """Unmerged ``represent``: one variable per prime and domain factor
    (block-major), codomain split per prime; recombined by CRT."""
    primes = layout_primes(prob.domain, prob.codomain)
    n, t = len(prob.domain), len(prob.codomain)
    dom_parts = [[prime_part(q, p) for q in prob.domain] for p in primes]
    cod_parts = [[prime_part(r, p) for r in prob.codomain] for p in primes]
    if doc["vars"] != len(primes) * n:
        return f"{doc['vars']} variables, expected {len(primes) * n}"
    if doc["codomain"] != [m for row in cod_parts for m in row]:
        return f"split codomain {doc['codomain']} is wrong"
    bad = _check_canonical(doc)
    if bad:
        return bad
    terms = _poly_terms(doc, "binomial")
    for x, want in prob.table.items():
        coords = [x[j] % dom_parts[i][j] for i in range(len(primes)) for j in range(n)]
        slots = eval_binomial(terms, coords) if terms else [0] * len(primes) * t
        for k in range(t):
            col = [slots[i * t + k] % cod_parts[i][k] for i in range(len(primes))]
            got = crt(col, [cod_parts[i][k] for i in range(len(primes))])
            if got != want[k]:
                return f"slot {k} at {list(x)} is {got}, table has {want[k]}"
    return None


def _check_merged_monomial(prob: Problem, doc) -> str | None:
    if doc["vars"] != 1 or doc["codomain"] != prob.codomain:
        return "wrong arity or codomain"
    poly = MonomialPoly(_poly_terms(doc, "monomial"))
    r = prob.codomain[0]
    for x, want in prob.table.items():
        value = poly(x)[0] if poly.terms else Fraction(0)
        if value.denominator != 1:
            return f"value {value} at {x[0]} is not an integer"
        if value.numerator % r != want[0]:
            return f"value at {x[0]} is {value.numerator % r}, table has {want[0]}"
    return None


def _check_classify(prob: Problem, truth, out: str) -> str | None:
    lines = out.splitlines()
    verdict = lines[0] if lines else ""
    if truth["polyfractal"]:
        if verdict != "polyfractal: yes":
            return f"verdict {verdict!r} on a polyfractal map"
        primes = layout_primes(prob.domain, prob.codomain)
        split = [prime_part(r, p) for p in primes for r in prob.codomain]
        want = [f"variables: {len(primes) * len(prob.domain)}",
                f"split codomain: {split}"]
        if lines[1:3] != want or len(lines) != 5:
            return f"classify summary {lines[1:]} disagrees with {want}"
        return None
    if verdict != "polyfractal: no":
        return f"verdict {verdict!r} on a map with a split block"
    try:
        p = int(lines[1].removeprefix("counterexample prime: "))
        x = tuple(json.loads(lines[2].removeprefix("counterexample x: ")))
        y = tuple(json.loads(lines[3].removeprefix("counterexample y: ")))
    except (IndexError, ValueError):
        return "malformed counterexample"
    if p != truth["prime"]:
        return f"counterexample prime {p}, the split block is {truth['prime']}"
    if x not in prob.table or y not in prob.table:
        return "counterexample point outside the domain"
    dom = [prime_part(q, p) for q in prob.domain]
    cod = [prime_part(r, p) for r in prob.codomain]
    same_block = all(a % m == b % m for a, b, m in zip(x, y, dom))
    differ = any(a % m != b % m for a, b, m in zip(prob.table[x], prob.table[y], cod))
    if not (same_block and differ):
        return f"counterexample {x}, {y} does not split block {p}"
    return None


def _check_construct(item, prob: Problem, out: str) -> str | None:
    if item["cmd"] == "classify":
        return _check_classify(prob, item["truth"], out)
    if not item["truth"]["polyfractal"]:
        return "output on a map that is not polyfractal" if out else None
    doc = json.loads(out)
    if "--merge" not in item["args"]:
        return _check_split(prob, doc)
    if "monomial" in item["args"]:
        return _check_merged_monomial(prob, doc)
    return _check_table_binomial(prob, doc)


def certify_counts(args: list[str]) -> dict[str, int]:
    """Cases each sweep reports for the given ``certify`` bounds."""
    opt = dict(zip(args[::2], map(int, args[1::2])))
    mp, ma, mb = opt["--max-prime"], opt["--max-alpha"], opt["--max-beta"]
    samples, limit = opt["--samples"], opt["--count-limit"]
    primes = [p for p in range(2, mp + 1) if all(p % d for d in range(2, p))]
    pab = [(p, a, b) for p in primes for a in range(1, ma + 1) for b in range(1, mb + 1)]

    def tables(q, height):
        return height**q if height**q <= EXHAUSTIVE_LIMIT else samples

    return {
        "divisibility": sum(2 * tables(p**a, p**b) + min(samples, 200) for p, a, b in pab),
        "cofract-tail": sum(((b * (p - 1) + 1) * p ** (a - 1) + 1) * p**a for p, a, b in pab),
        "lagrange": sum(p**a + b - 1 for p, a, b in pab),
        "hrycaj": samples,
        "grid-vanishing": min(samples, 400),
        "degree-bound": sum(tables(p**a, p**b) for p, a, b in pab),
        "counting": sum(r**q for q in range(1, limit + 1) for r in range(1, limit + 1)
                        if r**q <= EXHAUSTIVE_LIMIT),
        "taylor-interpolation": sum(tables(p**a, p**b) + min(samples, 100)
                                    for p, a, b in pab),
        "split-merge": min(samples, 300),
        "ring-laws": min(samples, 300),
    }


def _check_certify(item, out: str) -> str | None:
    lines = out.splitlines()
    expected = certify_counts(item["args"])
    if len(lines) != len(SWEEPS):
        return f"{len(lines)} lines, expected {len(SWEEPS)}"
    for line, name in zip(lines, SWEEPS):
        head, _, detail = line.partition(": ")
        if head != f"PASS {name}":
            return f"{line!r} is not a PASS line for {name}"
        count = detail.split()[0]
        if int(count) != expected[name]:
            return f"{name} checked {count} cases, expected {expected[name]}"
    return None


def certify_cases(out: str) -> int:
    """Total cases the sweeps report in one ``certify`` output."""
    return sum(int(line.partition(": ")[2].split()[0]) for line in out.splitlines())


def _uni_terms(doc):
    return [((d,), [c]) for d, c in enumerate(doc["coeffs"])]


def _multi_terms(doc):
    return [(tuple(e), cs) for e, cs in doc["terms"]]


def _degrees(terms, nvars):
    return [max((e[j] for e, _ in terms), default=0) for j in range(nvars)]


def _grid_agrees(f, g, moduli, bounds) -> str | None:
    """f and g agree modulo moduli at every point of [0..b_j]; for
    binomial-basis polynomials of partial degrees <= b_j that pins them."""
    for x in points([b + 1 for b in bounds]):
        for a, b, r in zip(f(x), g(x), moduli):
            if (a - b) % r if r else a != b:
                return f"values differ at {list(x)}"
    return None


def _check_ring(item, operands, out: str) -> str | None:
    op = item["op"]
    result = json.loads(out)
    if op == "uni_mul":
        a, b = operands["a"], operands["b"]
        r = a["modulus"]
        if result["modulus"] != r:
            return "wrong modulus"
        if any(not 0 <= c < r for c in result["coeffs"]) or (
                result["coeffs"] and not result["coeffs"][-1]):
            return "coefficients not canonical"
        ta, tb, tc = _uni_terms(a), _uni_terms(b), _uni_terms(result)
        bound = len(a["coeffs"]) + len(b["coeffs"])
        return _grid_agrees(
            lambda x: eval_binomial(tc, x) if tc else [0],
            lambda x: [eval_binomial(ta, x)[0] * eval_binomial(tb, x)[0]],
            [r], [bound])
    if op == "multi_mul":
        a, b = operands["a"], operands["b"]
        ta, tb, tc = _multi_terms(a), _multi_terms(b), _multi_terms(result)
        if result["codomain"] != a["codomain"] or result["nvars"] != a["nvars"]:
            return "wrong codomain or arity"
        n = a["nvars"]
        bounds = [da + db for da, db in zip(_degrees(ta, n), _degrees(tb, n))]
        width = len(a["codomain"])
        return _grid_agrees(
            lambda x: eval_binomial(tc, x) if tc else [0] * width,
            lambda x: [u * v for u, v in zip(eval_binomial(ta, x), eval_binomial(tb, x))],
            a["codomain"], bounds)
    if op == "compose":
        q, p = operands["q"], operands["p"]
        tp, tc = _multi_terms(p), _multi_terms(result)
        if result["codomain"] != [0] or result["nvars"] != p["nvars"]:
            return "wrong codomain or arity"
        deg_q = len(q["coeffs"]) - 1
        bounds = [deg_q * d for d in _degrees(tp, p["nvars"])]

        def composed(x):
            y = eval_binomial(tp, x)[0] if tp else 0
            return [sum(c * binom(y, d) for d, c in enumerate(q["coeffs"]))]

        return _grid_agrees(lambda x: eval_binomial(tc, x) if tc else [0],
                            composed, [0], bounds)
    if op == "grid_eval":
        p = operands["p"]
        tp = _multi_terms(p)
        grid = list(points([operands["side"]] * p["nvars"]))
        if len(result) != len(grid):
            return "wrong number of grid values"
        for x, got in zip(grid, result):
            want = [v % r for v, r in zip(eval_binomial(tp, x), p["codomain"])]
            if got != want:
                return f"value at {list(x)} is {got}, expected {want}"
        return None
    return f"unknown op {op!r}"


def _check_eval(item, doc, out: str) -> str | None:
    poly = MonomialPoly(_poly_terms(doc, "monomial"))
    x = [int(v) for v in item["args"][item["args"].index("--at") + 1].split(",")]
    want = []
    for v, r in zip(poly(x), doc["codomain"]):
        if v.denominator != 1:
            return f"monomial file is not integer valued at {x}"
        want.append(v.numerator % r if r else v.numerator)
    got = json.loads(out)
    return None if got == want else f"eval gave {got}, expected {want}"


class Checker:
    """Checks the outputs of one workload's items against its inputs."""

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self._texts: dict[str, str] = {}

    def _text(self, name: str) -> str:
        if name not in self._texts:
            self._texts[name] = (self.inputs / name).read_text(encoding="utf-8")
        return self._texts[name]

    def check_item(self, item, code: int | None, out: str) -> str | None:
        if code != item["expect_exit"]:
            return f"exit code {code}, expected {item['expect_exit']}"
        try:
            if "op" in item:
                return _check_ring(item, json.loads(self._text(item["file"])), out)
            cmd = item["cmd"]
            if cmd == "certify":
                return _check_certify(item, out)
            if cmd == "eval":
                return _check_eval(item, json.loads(self._text(item["file"])), out)
            prob = Problem(self._text(item["file"]))
            if cmd in ("interp", "taylor"):
                return _check_table_binomial(prob, json.loads(out))
            return _check_construct(item, prob, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
