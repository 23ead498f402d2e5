"""Command line surface: problem/polynomial files and one command per
user-facing capability.

Problem files describe a map between products of cyclic groups:

    {"domain": [3], "codomain": [9], "values": [1, 0, 0]}

``values`` is a flat list in mixed-radix order over the domain (first
coordinate most significant); each entry encodes a codomain tuple the same
way.  Polynomial files carry terms either in the ``binomial`` basis
(integer coefficient strings, canonical representatives) or the
``monomial`` basis (rational coefficient strings in lowest terms); either
is parsed into the one polyfract it describes:

    {"basis": "binomial", "vars": 1, "codomain": [9],
     "terms": [[[0], ["1"]], [[1], ["8"]], ...]}

Emission is deterministic: terms sorted lexicographically by exponent,
fixed key order, newline-terminated UTF-8.

Exit codes: 0 success, 2 parse/validation error, 3 precondition failure,
4 resource guard tripped, a result too long to print included (1 is
reserved for failed certify checks).
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Sequence

from .calculus import FiniteFn, _check_univariate, map_degree, taylor_expand
from .certify import CertifyOptions, run_all
from .classify import count_polyfractal, represent, represent_univariate
from .errors import (
    InfiniteGroup,
    NotPolyfractal,
    ParseError,
    PolyfractError,
    TooLarge,
    ValidationError,
)
from .exactnum import Residue, _balanced_lift, mod_project
from .lagrange import cofract, interpolate_prime_power, lagrange_polyfract
from .multi import MultiPolyfract, RationalPolyMulti

__all__ = [
    "emit_polynomial",
    "emit_problem",
    "main",
    "parse_polynomial",
    "parse_problem",
]


# ---------------------------------------------------------------------------
# problem files


def _unique_keys(pairs: list) -> dict:
    """json object hook: a key given twice is an error, not last-wins."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValidationError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer beyond the digit limit
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc


def _require_keys(data: dict, keys: set[str], what: str) -> None:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    if set(data) != keys:
        raise ValidationError(
            f"{what} must have exactly the fields {sorted(keys)}, got {sorted(data)}"
        )


def _int_list(values, what: str, minimum: int) -> list[int]:
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise ValidationError(f"{what} must be a list of integers")
    if values and min(values) < minimum:
        raise ValidationError(f"{what} entries must be >= {minimum}")
    return list(values)


def parse_problem(text: str) -> FiniteFn:
    """Parse and validate a problem file into a value table."""
    data = _load_json(text)
    _require_keys(data, {"domain", "codomain", "values"}, "problem file")
    domain = _int_list(data["domain"], "domain", 1)
    codomain = _int_list(data["codomain"], "codomain", 1)
    values = _int_list(data["values"], "values", 0)
    size = prod(domain)
    if len(values) != size:
        raise ValidationError(f"expected {size} values, got {len(values)}")
    span = prod(codomain)
    bad = [v for v in values if v >= span]
    if bad:
        raise ValidationError(
            f"value {bad[0]} is not a mixed-radix encoding for codomain {codomain}"
        )
    # Codomain coordinate k of an encoded value v is v // w % r_k, with w
    # the product of the moduli after r_k.
    columns = []
    for k, r in enumerate(codomain):
        w = prod(codomain[k + 1:])
        columns.append([v // w % r for v in values])
    return FiniteFn(tuple(domain), tuple(codomain), columns=columns)


def emit_problem(f: FiniteFn) -> str:
    """Serialize a value table back into the problem file format."""
    if 0 in f.codomain_moduli:
        raise ValidationError("codomain entries must be >= 1")
    values = [0] * f.size
    for col, r in zip(f.columns, f.codomain_moduli):
        values = [v * r + c for v, c in zip(values, col)]
    doc = {
        "domain": list(f.domain_moduli),
        "codomain": list(f.codomain_moduli),
        "values": values,
    }
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# polynomial files


def parse_polynomial(text: str) -> MultiPolyfract:
    """Parse a polynomial file into the polyfract it describes.

    A monomial-basis file is converted with ``MultiPolyfract.from_rational``,
    which raises NotIntegerValued for a polynomial that is not integer
    valued.
    """
    data = _load_json(text)
    _require_keys(data, {"basis", "vars", "codomain", "terms"}, "polynomial file")
    basis = data["basis"]
    if basis not in ("binomial", "monomial"):
        raise ValidationError(f"unknown basis {basis!r}")
    nvars = data["vars"]
    if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 0:
        raise ValidationError("vars must be a natural number")
    codomain = tuple(_int_list(data["codomain"], "codomain", 0))
    raw_terms = data["terms"]
    if not isinstance(raw_terms, list):
        raise ValidationError("terms must be a list")
    seen: set[tuple[int, ...]] = set()
    terms = []
    for entry in raw_terms:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValidationError(f"malformed term {entry!r}")
        exp = tuple(_int_list(entry[0], "exponent", 0))
        if len(exp) != nvars:
            raise ValidationError(f"exponent {list(exp)} has arity != {nvars}")
        if exp in seen:
            raise ValidationError(f"duplicate exponent {list(exp)}")
        seen.add(exp)
        raw_coeffs = entry[1]
        if not (isinstance(raw_coeffs, list) and len(raw_coeffs) == len(codomain)
                and all(isinstance(c, str) for c in raw_coeffs)):
            raise ValidationError(f"coefficients of {list(exp)} must be "
                                  f"{len(codomain)} strings")
        try:
            if basis == "binomial":
                coeffs = tuple(int(c) for c in raw_coeffs)
            else:
                coeffs = tuple(Fraction(c) for c in raw_coeffs)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad coefficient in term {entry!r}: {exc}") from exc
        if not any(coeffs):
            raise ValidationError(f"all-zero coefficients at {list(exp)}")
        terms.append((exp, coeffs))
    if basis == "binomial":
        return MultiPolyfract(codomain, nvars, tuple(terms))
    return MultiPolyfract.from_rational(
        RationalPolyMulti(nvars, len(codomain), tuple(terms)), codomain)


def emit_polynomial(poly: MultiPolyfract, basis: str = "binomial") -> str:
    """Serialize a polyfract deterministically in the requested basis.

    Monomial emission expands the balanced coefficient lifts, so small
    negative coefficients come out as small negative rationals.
    """
    if basis == "binomial":
        payload = poly
    elif basis == "monomial":
        _check_leading_denominator(poly)
        payload = poly.to_rational()
    else:
        raise ValidationError(f"unknown basis {basis!r}")
    with _printable():
        doc = {
            "basis": basis,
            "vars": poly.nvars,
            "codomain": list(poly.codomain),
            "terms": [
                [list(exp), [str(c) for c in coeffs]] for exp, coeffs in payload.terms
            ],
        }
        return json.dumps(doc) + "\n"


def _max_digits() -> int:
    """The most digits Python converts an int to text with; 0 for no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _too_long() -> TooLarge:
    return TooLarge(f"result has more than {_max_digits()} digits, the most "
                    "Python prints; PYTHONINTMAXSTRDIGITS raises the limit")


@contextmanager
def _printable():
    """Report a number with more digits than Python will convert to text
    as TooLarge, not as a bare ValueError."""
    try:
        yield
    except ValueError:
        raise _too_long() from None


def _check_leading_denominator(poly: MultiPolyfract) -> None:
    """Raise TooLarge before the monomial expansion when it would print a
    denominator longer than Python prints.

    Of the terms, only the lexicographically last, e, reaches the monomial
    x^e, so in every slot where c_e is nonzero that monomial's coefficient
    is lift(c_e) / prod_j e_j!.  A reduced denominator of b bits is at
    least 2^(b-1), so it has more than (b - 1) * 0.30102 digits.
    """
    limit = _max_digits()
    if not limit or not poly.terms:
        return
    exp, coeffs = poly.terms[-1]
    fact = prod(map(factorial, exp))
    for c, r in zip(coeffs, poly.codomain):
        if c:
            den = fact // gcd(_balanced_lift(c, r), fact)
            if (den.bit_length() - 1) * 30102 // 100000 >= limit:
                raise _too_long()


# ---------------------------------------------------------------------------
# commands


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad point {text!r}: {exc}") from exc


def _cmd_classify(args) -> int:
    table = parse_problem(_read(args.problem))
    try:
        poly = represent(table).polyfract
    except NotPolyfractal as exc:
        ce = exc.counterexample
        print("polyfractal: no")
        print(f"counterexample prime: {ce.prime}")
        print(f"counterexample x: {list(ce.first)}")
        print(f"counterexample y: {list(ce.second)}")
        return 0
    total, _ = poly.degrees()
    print("polyfractal: yes")
    print(f"variables: {poly.nvars}")
    print(f"split codomain: {list(poly.codomain)}")
    print(f"terms: {len(poly.terms)}")
    print(f"total degree: {total if total is not None else 'none'}")
    return 0


def _cmd_represent(args) -> int:
    table = parse_problem(_read(args.problem))
    if args.merge:
        uni, _ = represent_univariate(table)
        poly = MultiPolyfract.from_uni(uni)
    else:
        poly = represent(table).polyfract
    sys.stdout.write(emit_polynomial(poly, args.basis))
    return 0


def _cmd_interp(args) -> int:
    table = parse_problem(_read(args.problem))
    poly = interpolate_prime_power(table)
    sys.stdout.write(emit_polynomial(poly, args.basis))
    return 0


def _cmd_eval(args) -> int:
    poly = parse_polynomial(_read(args.polynomial))
    if args.modulus is not None:
        if poly.width != 1:
            raise ValidationError("--modulus applies to single-component files")
        projected = {
            exp: (mod_project(Residue(c, poly.codomain[0]), args.modulus).value,)
            for exp, (c,) in poly.terms
        }
        poly = MultiPolyfract((args.modulus,), poly.nvars, tuple(projected.items()))
    point = _parse_point(args.at) if args.at else ()  # --at= is the empty point
    values = poly.evaluate(point)
    with _printable():
        print(json.dumps([r.value for r in values]))
    return 0


def _cmd_lagrange(args) -> int:
    poly = lagrange_polyfract(args.p, args.alpha, args.beta, args.x0)
    sys.stdout.write(emit_polynomial(MultiPolyfract.from_uni(poly), args.basis))
    return 0


def _cmd_cofract(args) -> int:
    value = cofract(args.d, args.q, args.r, args.x).value
    with _printable():
        print(value)
    return 0


def _cmd_taylor(args) -> int:
    table = parse_problem(_read(args.problem))
    _check_univariate(table)
    degree = args.degree if args.degree is not None else map_degree(table) or 0
    poly = taylor_expand(table, degree)
    sys.stdout.write(emit_polynomial(MultiPolyfract.from_uni(poly), args.basis))
    return 0


def _parse_moduli(text: str, what: str) -> tuple[int, ...]:
    moduli = _parse_point(text)
    if any(m == 0 for m in moduli):
        raise InfiniteGroup(f"{what} moduli must be finite (>= 1)")
    if any(m < 0 for m in moduli):
        raise ValidationError(f"{what} moduli must be >= 1")
    return moduli


def _cmd_count(args) -> int:
    count = count_polyfractal(_parse_moduli(args.domain, "domain"),
                              _parse_moduli(args.codomain, "codomain"),
                              _max_digits() or None)
    with _printable():
        print(count)
    return 0


def _cmd_certify(args) -> int:
    opts = CertifyOptions(**{f.name: getattr(args, f.name)
                             for f in fields(CertifyOptions)})
    results = run_all(opts)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    return 0 if all(r.passed for r in results) else 1


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum, so a bad argument exits 2."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_basis(p) -> None:
    p.add_argument("--basis", choices=("binomial", "monomial"),
                   default="binomial", help="output basis")


def _classify_args(p) -> None:
    p.add_argument("problem", help="problem file path ('-' for stdin)")
    p.set_defaults(func=_cmd_classify)


def _represent_args(p) -> None:
    p.add_argument("problem")
    p.add_argument("--merge", action="store_true",
                   help="merge into one variable (cyclic domain and codomain)")
    _add_basis(p)
    p.set_defaults(func=_cmd_represent)


def _interp_args(p) -> None:
    p.add_argument("problem")
    _add_basis(p)
    p.set_defaults(func=_cmd_interp)


def _eval_args(p) -> None:
    p.add_argument("polynomial")
    p.add_argument("--at", required=True, help="comma-separated coordinates")
    p.add_argument("--modulus", type=_int_at_least(0),
                   help="project a single-component result to this modulus")
    p.set_defaults(func=_cmd_eval)


def _lagrange_args(p) -> None:
    p.add_argument("p", type=int)
    p.add_argument("alpha", type=_int_at_least(1))
    p.add_argument("beta", type=_int_at_least(1))
    p.add_argument("x0", type=int)
    _add_basis(p)
    p.set_defaults(func=_cmd_lagrange)


def _cofract_args(p) -> None:
    p.add_argument("d", type=_int_at_least(0))
    p.add_argument("q", type=_int_at_least(1))
    p.add_argument("r", type=_int_at_least(0))
    p.add_argument("x", type=int)
    p.set_defaults(func=_cmd_cofract)


def _taylor_args(p) -> None:
    p.add_argument("problem")
    p.add_argument("--degree", type=_int_at_least(0),
                   help="expansion degree (default: the map degree)")
    _add_basis(p)
    p.set_defaults(func=_cmd_taylor)


def _count_args(p) -> None:
    p.add_argument("--domain", required=True, help="comma-separated moduli")
    p.add_argument("--codomain", required=True, help="comma-separated moduli")
    p.set_defaults(func=_cmd_count)


def _certify_args(p) -> None:
    p.add_argument("--max-prime", type=_int_at_least(2),
                   default=CertifyOptions.max_prime)
    p.add_argument("--max-alpha", type=_int_at_least(1),
                   default=CertifyOptions.max_alpha)
    p.add_argument("--max-beta", type=_int_at_least(1),
                   default=CertifyOptions.max_beta)
    p.add_argument("--samples", type=_int_at_least(0),
                   default=CertifyOptions.samples)
    p.add_argument("--count-limit", type=_int_at_least(0),
                   default=CertifyOptions.count_limit)
    p.add_argument("--seed", type=int, default=CertifyOptions.seed)
    p.add_argument("--max-search", type=_int_at_least(1),
                   default=CertifyOptions.max_search)
    p.add_argument("--degree-bound-override", type=_int_at_least(0),
                   default=CertifyOptions.degree_bound_override,
                   help="override the oracle degree bound (testing only)")
    p.set_defaults(func=_cmd_certify)


# command name -> (help line, function that adds its arguments), in the
# order the usage line lists them
_COMMANDS = {
    "classify": ("decide polyfractality of a map", _classify_args),
    "represent": ("construct a representing polynomial", _represent_args),
    "interp": ("prime-power interpolation of a table", _interp_args),
    "eval": ("evaluate a polynomial file at a point", _eval_args),
    "lagrange": ("point-indicator polyfract on Z_{p^alpha}", _lagrange_args),
    "cofract": ("one co-monofract value (d|x)_{q,r}", _cofract_args),
    "taylor": ("difference expansion of a cyclic table", _taylor_args),
    "count": ("number of polyfractal maps A -> B", _count_args),
    "certify": ("run the theorem verification sweeps", _certify_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command."""
    parser = argparse.ArgumentParser(
        prog="polyfract",
        description="Decide and construct polynomial representations of maps "
                    "between finite commutative groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse a command line with a parser of only the command it names,
    built as its subparser is; building all nine costs several times as
    much.  A line that names no command, or has leftovers (which argparse
    reports with the usage line of all nine), goes to the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"polyfract {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        parser.set_defaults(command=argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PolyfractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
