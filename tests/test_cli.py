"""File formats, command dispatch, exit codes, deterministic emission."""
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polyfract
from polyfract import FiniteFn, MultiPolyfract, UniPolyfract
from polyfract import certify
from polyfract.certify import CertifyOptions
from polyfract.cli import (
    _parse_args,
    build_parser,
    emit_polynomial,
    emit_problem,
    main,
    parse_polynomial,
    parse_problem,
)
from polyfract.errors import (
    NotIntegerValued, NotPeriodic, ParseError, TooLarge, ValidationError,
)

QUICK_CERTIFY = ("certify", "--samples", "30", "--count-limit", "3",
                 "--max-alpha", "1", "--max-beta", "1")
QUICK_CERTIFY_LINES = [
    "PASS divisibility: 122 tables checked",
    "PASS cofract-tail: 18 values checked",
    "PASS lagrange: 5 cases checked",
    "PASS hrycaj: 30 random polyfracts checked",
    "PASS grid-vanishing: 30 random grids checked",
    "PASS degree-bound: 31 interpolations checked",
    "PASS counting: 56 maps checked",
    "PASS taylor-interpolation: 91 cases checked",
    "PASS split-merge: 30 round trips checked",
    "PASS ring-laws: 30 random triples checked",
]

INDICATOR_PROBLEM = '{"domain": [3], "codomain": [9], "values": [1, 0, 0]}'


def run_module(*argv, timeout):
    """``python -m polyfract`` on this source tree in a fresh interpreter."""
    src = Path(polyfract.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "polyfract", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def assert_usage_error(capsys, message, *argv):
    """The arguments are rejected before any work: exit 2, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.fixture
def problem_file(tmp_path):
    def write(text, name="problem.json"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestProblemFiles:
    def test_parse_indicator(self):
        table = parse_problem(INDICATOR_PROBLEM)
        assert table.domain_moduli == (3,)
        assert table.codomain_moduli == (9,)
        assert table.values == ((1,), (0,), (0,))

    def test_parse_product_domain(self):
        doc = {"domain": [2, 25], "codomain": [12],
               "values": [x % 12 for x in range(50)]}
        table = parse_problem(json.dumps(doc))
        assert table.size == 50
        assert table.value((1, 3)) == ((25 + 3) % 12,)

    def test_tuple_codomain_decoding(self):
        doc = {"domain": [3], "codomain": [4, 3], "values": [11, 0, 5]}
        table = parse_problem(json.dumps(doc))
        # 11 = 3*3 + 2 and 5 = 1*3 + 2 in mixed radix over (4, 3)
        assert table.values == ((3, 2), (0, 0), (1, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mixed_radix_round_trip(self, data):
        domain = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
        codomain = data.draw(st.lists(st.integers(1, 6), max_size=3))
        size, span = math.prod(domain), math.prod(codomain)
        values = data.draw(st.lists(st.integers(0, span - 1),
                                    min_size=size, max_size=size))
        doc = {"domain": domain, "codomain": codomain, "values": values}
        table = parse_problem(json.dumps(doc))
        for v, row in zip(values, table.values):
            # the first codomain factor is the most significant digit
            encoded = 0
            for x, m in zip(row, codomain):
                assert 0 <= x < m
                encoded = encoded * m + x
            assert encoded == v
        assert json.loads(emit_problem(table)) == doc

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            parse_problem('{"domain": [3], "codomain": [9], "values": [1, 0]}')

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValidationError):
            parse_problem('{"domain": [1], "codomain": [9], "values": [9]}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            parse_problem('{"domain": [1], "codomain": [2], "values": [0], "x": 1}')

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_problem("{nope}")

    @pytest.mark.parametrize("codomain", [(0,), (3, 0), (0, 3)])
    def test_emit_rejects_integer_codomain(self, codomain):
        table = FiniteFn((2,), codomain, ((1,) * len(codomain), (2,) * len(codomain)))
        with pytest.raises(ValidationError, match="codomain entries must be >= 1"):
            emit_problem(table)

    @pytest.mark.parametrize("fields, message", [
        ('"domain": [2, true], "codomain": [4], "values": [1, 2]',
         "domain must be a list of integers"),
        ('"domain": [2], "codomain": [4], "values": [1, false]',
         "values must be a list of integers"),
        ('"domain": [2], "codomain": [4], "values": [1, 2.0]',
         "values must be a list of integers"),
        ('"domain": [2], "codomain": [4], "values": 3', "values must be a list of integers"),
        ('"domain": [0], "codomain": [4], "values": []', "domain entries must be >= 1"),
        ('"domain": [2], "codomain": [4], "values": [-1, 0]',
         "values entries must be >= 0"),
        # every entry's type is checked before any entry's range
        ('"domain": [2], "codomain": [4], "values": [-1, true]',
         "values must be a list of integers"),
    ])
    def test_integer_lists_checked(self, fields, message):
        with pytest.raises(ValidationError) as info:
            parse_problem("{" + fields + "}")
        assert str(info.value) == message

    def test_empty_domain_list_accepted(self):
        f = parse_problem('{"domain": [], "codomain": [4], "values": [3]}')
        assert f == FiniteFn((), (4,), ((3,),))

    def test_round_trip_idempotent(self):
        first = parse_problem(INDICATOR_PROBLEM)
        emitted = emit_problem(first)
        assert parse_problem(emitted) == first
        assert emit_problem(parse_problem(emitted)) == emitted


class TestPolynomialFiles:
    def test_binomial_round_trip(self):
        poly = MultiPolyfract.from_uni(UniPolyfract(9, (1, -1, 1, 0, -3)))
        text = emit_polynomial(poly, "binomial")
        assert json.loads(text)["basis"] == "binomial"
        parsed = parse_polynomial(text)
        assert parsed == poly and parsed.codomain == (9,)
        assert emit_polynomial(parsed, "binomial") == text

    def test_monomial_round_trip(self):
        poly = MultiPolyfract.from_uni(UniPolyfract(9, (1, -1, 1, 0, -3)))
        text = emit_polynomial(poly, "monomial")
        assert json.loads(text)["basis"] == "monomial"
        assert parse_polynomial(text) == poly

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_parse_inverts_emit(self, data):
        # moduli include Z (0) and the trivial group (1), and coefficients
        # are any integers, which the constructor reduces
        nvars = data.draw(st.integers(0, 3))
        codomain = tuple(data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=3)))
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * nvars),
            st.tuples(*[st.integers(-10**6, 10**6)] * len(codomain)), max_size=5))
        poly = MultiPolyfract(codomain, nvars, tuple(terms.items()))
        for basis in ("binomial", "monomial"):
            assert parse_polynomial(emit_polynomial(poly, basis)) == poly

    def test_emission_is_deterministic(self):
        poly = MultiPolyfract(
            (6, 4), 2, (((1, 0), (2, 3)), ((0, 2), (5, 1)), ((0, 0), (1, 0))),
        )
        assert emit_polynomial(poly) == emit_polynomial(poly)
        doc = json.loads(emit_polynomial(poly))
        assert doc["terms"] == sorted(doc["terms"], key=lambda t: t[0])

    def test_duplicate_exponents_rejected(self):
        text = ('{"basis": "binomial", "vars": 1, "codomain": [4], '
                '"terms": [[[0], ["1"]], [[0], ["2"]]]}')
        with pytest.raises(ValidationError, match="duplicate"):
            parse_polynomial(text)

    def test_all_zero_coefficients_rejected(self):
        text = ('{"basis": "binomial", "vars": 1, "codomain": [4], '
                '"terms": [[[1], ["0"]]]}')
        with pytest.raises(ValidationError):
            parse_polynomial(text)

    def test_bad_rational_rejected(self):
        text = ('{"basis": "monomial", "vars": 1, "codomain": [4], '
                '"terms": [[[1], ["1/0"]]]}')
        with pytest.raises(ValidationError):
            parse_polynomial(text)

    def test_zero_polyfract_emits_empty_terms(self):
        text = emit_polynomial(MultiPolyfract.zero((9,), 1))
        assert json.loads(text)["terms"] == []

    def test_rational_payload_round_trip(self):
        poly = MultiPolyfract.from_uni(UniPolyfract(9, (1, -1, 1, 0, -3)))
        rational = poly.to_rational()
        text = emit_polynomial(poly, "monomial")
        assert json.loads(text)["terms"] == [
            [list(exp), [str(c) for c in coeffs]] for exp, coeffs in rational.terms]
        assert MultiPolyfract.from_rational(rational, (9,)) == poly


# Small JSON values to put where a file field or entry belongs.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(-4, 4),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6,
)


@st.composite
def small_problem(draw):
    """A well-formed problem file of at most 36 points."""
    domain = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    codomain = draw(st.lists(st.integers(1, 9), min_size=1, max_size=2))
    size, span = math.prod(domain), math.prod(codomain)
    values = draw(st.lists(st.integers(0, span - 1), min_size=size, max_size=size))
    return {"domain": domain, "codomain": codomain, "values": values}


@st.composite
def small_polynomial(draw):
    """A well-formed polynomial file of either basis, exponents at most 5."""
    basis = draw(st.sampled_from(["binomial", "monomial"]))
    nvars = draw(st.integers(0, 2))
    codomain = draw(st.lists(st.integers(0, 12), min_size=1, max_size=2))
    exps = draw(st.lists(st.lists(st.integers(0, 5), min_size=nvars, max_size=nvars),
                         max_size=4, unique_by=tuple))
    coeff = st.integers(-20, 20).map(str)
    if basis == "monomial":
        coeff = st.one_of(coeff, st.sampled_from(["1/2", "-3/4", "5/6"]))
    terms = [[exp, [draw(coeff) for _ in codomain]] for exp in exps]
    return {"basis": basis, "vars": nvars, "codomain": codomain, "terms": terms}


# The commands that read a problem file, with the arguments after the path.
TABLE_COMMANDS = [
    (name, *merge, *basis)
    for name, merge in [("classify", ()), ("represent", ()), ("represent", ("--merge",)),
                        ("interp", ()), ("taylor", ())]
    for basis in ([(), ("--basis", "monomial")] if name != "classify" else [()])
]


@st.composite
def fuzzed_run(draw):
    """A command that reads a file, and the bytes of a small problem file
    (for ``classify``, ``represent``, ``interp`` or ``taylor``) or
    polynomial file (for ``eval``), left whole or broken in one way: a
    field replaced, dropped or added, one list entry or one entry of an
    item replaced, the text cut short or one byte inserted."""
    if draw(st.booleans()):
        doc = draw(small_problem())
        command = draw(st.sampled_from(TABLE_COMMANDS))
    else:
        doc = draw(small_polynomial())
        point = draw(st.lists(st.integers(-3, 6), min_size=max(doc["vars"], 1),
                              max_size=max(doc["vars"], 1)))
        command = ("eval", "--at=" + ",".join(map(str, point)),
                   *draw(st.sampled_from([(), ("--modulus", "4")])))
    how = draw(st.sampled_from(["whole", "field", "drop", "add", "entry", "cut", "byte"]))
    key = draw(st.sampled_from(sorted(doc)))
    if how == "field":
        doc[key] = draw(JSON_VALUES)
    elif how == "drop":
        del doc[key]
    elif how == "add":
        doc[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    elif how == "entry" and isinstance(doc[key], list) and doc[key]:
        items = doc[key]
        i = draw(st.integers(0, len(items) - 1))
        if isinstance(items[i], list) and items[i] and draw(st.booleans()):
            items = items[i]
            i = draw(st.integers(0, len(items) - 1))
        items[i] = draw(JSON_VALUES)
    text = json.dumps(doc).encode()
    at = draw(st.integers(0, len(text)))
    if how == "cut":
        text = text[:at]
    elif how == "byte":
        text = text[:at] + bytes([draw(st.integers(0, 255))]) + text[at:]
    return command, text


class TestMalformedFiles:
    """Every malformed problem or polynomial file exits 2 with one
    ``error:`` line, never a traceback."""

    PROBLEM = b'{"domain": [2], "codomain": [4], "values": [1, 2]}'
    POLYNOMIAL = b'{"basis": "binomial", "vars": 1, "codomain": [9], "terms": []}'

    def assert_rejected(self, run, tmp_path, content, kind):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(content)
        if kind == "problem":
            code, out, err = run("classify", str(path))
        else:
            code, out, err = run("eval", str(path), "--at", "0")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["problem", "polynomial"])
    def test_non_utf8_bytes(self, run, tmp_path, kind):
        text = self.PROBLEM if kind == "problem" else self.POLYNOMIAL
        self.assert_rejected(run, tmp_path, text[:-1] + b', "x": "\xff"}', kind)

    @pytest.mark.parametrize("kind", ["problem", "polynomial"])
    def test_deep_nesting(self, run, tmp_path, kind):
        self.assert_rejected(run, tmp_path, b"[" * 100_000, kind)

    def test_duplicate_key_in_problem(self, run, tmp_path):
        # last-wins would classify a map Z_2 -> Z_3
        self.assert_rejected(
            run, tmp_path, self.PROBLEM[:-1] + b', "codomain": [3]}', "problem")

    def test_duplicate_key_in_polynomial(self, run, tmp_path):
        self.assert_rejected(
            run, tmp_path, self.POLYNOMIAL[:-1] + b', "vars": 1}', "polynomial")

    def test_integer_beyond_digit_limit(self, run, tmp_path):
        huge = self.PROBLEM.replace(b"2]}", b"9" * 5000 + b"]}")
        self.assert_rejected(run, tmp_path, huge, "problem")

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_run())
    def test_fuzzed_file_exits_cleanly(self, tmp_path_factory, case):
        # no exception escapes main: a result, or one error line and an
        # exit code of 2 (parse), 3 (precondition) or 4 (resource guard)
        command, content = case
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
        assert code in (0, 2, 3, 4)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1
        else:
            assert err.getvalue() == ""

    def test_duplicate_key_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="duplicate key 'codomain'"):
            parse_problem(self.PROBLEM[:-1].decode() + ', "codomain": [3]}')


class TestCommands:
    def test_classify_yes(self, run, problem_file):
        code, out, _ = run("classify", problem_file(INDICATOR_PROBLEM))
        assert code == 0
        assert out.splitlines()[0] == "polyfractal: yes"

    def test_classify_no_with_counterexample(self, run, problem_file):
        doc = {"domain": [50], "codomain": [12],
               "values": [x % 2 for x in range(50)]}
        code, out, _ = run("classify", problem_file(json.dumps(doc)))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "polyfractal: no"
        assert lines[1].startswith("counterexample prime:")

    def test_represent_merge_binomial(self, run, problem_file):
        code, out, _ = run("represent", problem_file(INDICATOR_PROBLEM), "--merge")
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == "binomial"
        assert doc["codomain"] == [9]
        assert doc["terms"] == [
            [[0], ["1"]], [[1], ["8"]], [[2], ["1"]], [[4], ["6"]],
        ]

    def test_represent_merge_monomial(self, run, problem_file):
        code, out, _ = run(
            "represent", problem_file(INDICATOR_PROBLEM), "--merge",
            "--basis", "monomial",
        )
        assert code == 0
        doc = json.loads(out)
        coeffs = {tuple(e): c[0] for e, c in doc["terms"]}
        assert coeffs == {(0,): "1", (1,): "-3/4", (2,): "-7/8",
                          (3,): "3/4", (4,): "-1/8"}

    def test_represent_rejects_nonpolyfractal(self, run, problem_file):
        doc = {"domain": [50], "codomain": [12],
               "values": [x % 2 for x in range(50)]}
        code, _, err = run("represent", problem_file(json.dumps(doc)))
        assert code == 3
        assert "error" in err

    def test_represent_split_output(self, run, problem_file):
        doc = {"domain": [50], "codomain": [12],
               "values": [(6 * (x % 2) + 4) % 12 for x in range(50)]}
        code, out, _ = run("represent", problem_file(json.dumps(doc)))
        assert code == 0
        parsed = json.loads(out)
        assert parsed["vars"] == 3
        assert parsed["codomain"] == [4, 3, 1]

    def test_eval_binomial_and_monomial(self, run, problem_file, tmp_path):
        for basis in ("binomial", "monomial"):
            code, out, _ = run(
                "represent", problem_file(INDICATOR_PROBLEM), "--merge",
                "--basis", basis,
            )
            poly_path = tmp_path / f"poly-{basis}.json"
            poly_path.write_text(out)
            values = []
            for x in range(6):
                code, out2, _ = run("eval", str(poly_path), "--at", str(x))
                assert code == 0
                values.append(json.loads(out2)[0])
            assert values == [1, 0, 0, 1, 0, 0]

    def test_eval_rejects_non_integer_valued_monomial(self, run, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(
            '{"basis": "monomial", "vars": 1, "codomain": [4], '
            '"terms": [[[1], ["1/2"]]]}\n'
        )
        code, _, err = run("eval", str(path), "--at", "1")
        assert code == 3
        assert "error" in err

    def test_eval_names_the_failing_binomial_coefficient(self, run, tmp_path):
        # X^2/3 = (2*C(X,2) + C(X,1))/3: the coefficient of C(X,2) fails first
        path = tmp_path / "third.json"
        path.write_text('{"basis":"monomial","vars":1,"codomain":[5],'
                        '"terms":[[[2],["1/3"]]]}\n')
        code, out, err = run("eval", str(path), "--at", "1")
        assert code == 3
        assert out == ""
        assert err == "error: binomial coefficient at degree 2 is 2/3, not an integer\n"
        # the file is rejected while it is parsed, before any evaluation
        with pytest.raises(NotIntegerValued, match="^binomial coefficient at degree 2 "):
            parse_polynomial(path.read_text())

    def test_eval_with_projection(self, run, problem_file, tmp_path):
        code, out, _ = run("represent", problem_file(INDICATOR_PROBLEM), "--merge")
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(out)
        code, out, _ = run("eval", str(poly_path), "--at", "0", "--modulus", "3")
        assert code == 0
        assert json.loads(out) == [1]
        code, _, _ = run("eval", str(poly_path), "--at", "0", "--modulus", "5")
        assert code == 3

    def test_eval_of_no_variables_at_the_empty_point(self, run, problem_file):
        path = problem_file('{"basis": "binomial", "vars": 0, "codomain": [9], '
                            '"terms": [[[], ["4"]]]}')
        for argv in (("--at=",), ("--at", "")):
            assert run("eval", path, *argv) == (0, "[4]\n", "")
        code, out, err = run("eval", path, "--at=1")
        assert (code, out) == (3, "")
        assert err == "error: point has 1 coordinates, polyfract has 0\n"

    def test_eval_at_a_negative_first_coordinate(self, run, capsys, problem_file):
        # 4*C(x, 1) + C(y, 2) at (-3, 1) is -12 = 6 mod 9, and at (-3, -1)
        # -12 + C(-1, 2) = -11 = 7 mod 9; the separate spelling "--at -3,1"
        # is read by argparse as an option
        path = problem_file('{"basis": "binomial", "vars": 2, "codomain": [9], '
                            '"terms": [[[0, 2], ["1"]], [[1, 0], ["4"]]]}')
        assert run("eval", path, "--at=-3,1") == (0, "[6]\n", "")
        assert run("eval", path, "--at=-3,-1") == (0, "[7]\n", "")
        assert_usage_error(capsys, "argument --at: expected one argument",
                           "eval", path, "--at", "-3,1")

    def test_lagrange(self, run):
        code, out, _ = run("lagrange", "3", "1", "2", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == [
            [[0], ["1"]], [[1], ["8"]], [[2], ["1"]], [[4], ["6"]],
        ]

    def test_lagrange_not_prime(self, run):
        code, _, err = run("lagrange", "6", "1", "1", "0")
        assert code == 3

    def test_cofract(self, run):
        code, out, _ = run("cofract", "4", "3", "0", "1")
        assert (code, out.strip()) == (0, "-3")
        code, out, _ = run("cofract", "4", "3", "9", "1")
        assert (code, out.strip()) == (0, "6")

    def test_taylor(self, run, problem_file):
        code, out, _ = run("taylor", problem_file(INDICATOR_PROBLEM))
        assert code == 0
        assert json.loads(out)["terms"] == [
            [[0], ["1"]], [[1], ["8"]], [[2], ["1"]], [[4], ["6"]],
        ]

    def test_taylor_degree_beyond_the_periodic_bound(self, run, problem_file):
        # every difference past the periodic bound 4 is zero, so a huge
        # --degree expands in the bound's few steps
        path = problem_file(INDICATOR_PROBLEM)
        start = time.perf_counter()
        huge = run("taylor", path, "--degree", "2000000")
        assert time.perf_counter() - start < 1.0
        assert huge == run("taylor", path, "--degree", "4")
        assert huge[0] == 0

    def test_taylor_degree_too_small(self, run, problem_file):
        code, _, err = run(
            "taylor", problem_file(INDICATOR_PROBLEM), "--degree", "2"
        )
        assert code == 3

    @pytest.mark.parametrize("doc", [
        {"domain": [3, 2], "codomain": [4], "values": [0, 1, 2, 3, 0, 1]},
        {"domain": [], "codomain": [4], "values": [1]},
    ])
    def test_taylor_shape_error_ignores_degree(self, run, problem_file, doc):
        # the table's shape is checked before the degree search, so the
        # error is the same with and without --degree
        path = problem_file(json.dumps(doc))
        found = run("taylor", path)
        given = run("taylor", path, "--degree", "3")
        assert found == given == (3, "", "error: taylor_expand needs a one-variable table\n")

    def test_interp(self, run, problem_file):
        doc = {"domain": [2, 2], "codomain": [2], "values": [1, 0, 0, 0]}
        code, out, _ = run("interp", problem_file(json.dumps(doc)))
        assert code == 0
        parsed = json.loads(out)
        assert parsed["vars"] == 2
        assert len(parsed["terms"]) == 4

    def test_interp_mixed_primes(self, run, problem_file):
        doc = {"domain": [6], "codomain": [4], "values": [0] * 6}
        code, _, err = run("interp", problem_file(json.dumps(doc)))
        assert code == 3

    def test_count(self, run):
        code, out, _ = run("count", "--domain", "50", "--codomain", "12")
        assert (code, out.strip()) == (0, "48")
        code, out, _ = run("count", "--domain", "2,25", "--codomain", "12")
        assert (code, out.strip()) == (0, "48")

    def test_count_rejects_zero(self, run):
        code, _, err = run("count", "--domain", "0", "--codomain", "12")
        assert code == 3

    @pytest.mark.parametrize("flag", ("--domain", "--codomain"))
    def test_count_rejects_empty_moduli(self, run, flag):
        # the empty text is a point for eval, but not a list of moduli
        argv = {"--domain": "50", "--codomain": "12", flag: ""}
        code, out, err = run("count", *(t for kv in argv.items() for t in kv))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad point ''")

    def test_eval_rejects_negative_modulus(self, capsys, problem_file):
        path = problem_file('{"basis": "binomial", "vars": 1, "codomain": [0], '
                            '"terms": [[[1], ["1"]]]}')
        assert_usage_error(capsys, "--modulus: must be >= 0",
                           "eval", path, "--at", "2", "--modulus", "-3")

    def test_cofract_rejects_zero_period(self, capsys):
        assert_usage_error(capsys, "q: must be >= 1", "cofract", "3", "0", "9", "1")

    def test_cofract_rejects_negative_modulus(self, capsys):
        assert_usage_error(capsys, "r: must be >= 0", "cofract", "3", "3", "-9", "1")

    def test_lagrange_rejects_zero_exponent(self, capsys):
        assert_usage_error(capsys, "alpha: must be >= 1", "lagrange", "2", "0", "1", "0")

    def test_certify_rejects_negative_samples(self, capsys):
        assert_usage_error(capsys, "--samples: must be >= 0", "certify", "--samples", "-1")

    def test_taylor_rejects_negative_degree(self, capsys, problem_file):
        assert_usage_error(capsys, "--degree: must be >= 0",
                           "taylor", problem_file(INDICATOR_PROBLEM), "--degree", "-1")

    def test_certify_rejects_max_prime_below_two(self, capsys):
        assert_usage_error(capsys, "--max-prime: must be >= 2",
                           "certify", "--max-prime", "-3")

    def test_certify_rejects_zero_max_alpha(self, capsys):
        assert_usage_error(capsys, "--max-alpha: must be >= 1",
                           "certify", "--max-alpha", "0")

    def test_certify_rejects_zero_max_beta(self, capsys):
        assert_usage_error(capsys, "--max-beta: must be >= 1",
                           "certify", "--max-beta", "0")

    def test_certify_rejects_negative_count_limit(self, capsys):
        assert_usage_error(capsys, "--count-limit: must be >= 0",
                           "certify", "--count-limit", "-1")

    def test_certify_rejects_zero_max_search(self, capsys):
        assert_usage_error(capsys, "--max-search: must be >= 1",
                           "certify", "--max-search", "0")

    def test_certify_rejects_negative_degree_bound_override(self, capsys):
        assert_usage_error(capsys, "--degree-bound-override: must be >= 0",
                           "certify", "--degree-bound-override", "-1")

    def test_python_dash_m_runs_the_cli(self, run):
        argv = ("cofract", "3", "3", "9", "1")
        code, out, err = run(*argv)
        proc = run_module(*argv, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_parse_error_exit_code(self, run, problem_file):
        code, _, err = run("classify", problem_file("{broken"))
        assert code == 2
        code, _, err = run("classify", problem_file(
            '{"domain": [3], "codomain": [9], "values": [1, 0]}'
        ))
        assert code == 2

    def test_missing_file_exit_code(self, run):
        code, _, err = run("classify", "/nonexistent/nowhere.json")
        assert code == 2

    def test_certify_defaults_come_from_options(self):
        args = build_parser().parse_args(["certify"])
        assert CertifyOptions(**{
            name: getattr(args, name) for name in vars(CertifyOptions())
        }) == CertifyOptions()

    def test_certify_quick(self, run):
        code, out, _ = run(*QUICK_CERTIFY)
        assert code == 0
        # exact case counts, so a sweep that silently tests fewer tables fails
        assert out.splitlines() == QUICK_CERTIFY_LINES

    def test_certify_reports_a_raising_sweep(self, run, monkeypatch):
        @certify._sweep("round trips checked")
        def check_split_merge(opts):
            yield None
            raise NotPeriodic("component 0 is not 24-periodic")

        checks = tuple(check_split_merge if c.__name__ == "check_split_merge" else c
                       for c in certify._CHECKS)
        monkeypatch.setattr(certify, "_CHECKS", checks)
        code, out, err = run(*QUICK_CERTIFY)
        # the raising sweep fails with its exception; the others still run
        expected = list(QUICK_CERTIFY_LINES)
        expected[8] = "FAIL split-merge: raised NotPeriodic: component 0 is not 24-periodic"
        assert (code, out.splitlines(), err) == (1, expected, "")

    def test_certify_guard_exit_code(self, run):
        code, _, err = run(
            "certify", "--samples", "5", "--count-limit", "4",
            "--max-search", "1",
        )
        assert code == 4

    def test_certify_reports_unsound_override(self, run):
        # squeezing the oracle degree bound must surface as a FAIL line
        code, out, _ = run(
            "certify", "--samples", "5", "--count-limit", "4",
            "--max-alpha", "1", "--max-beta", "1",
            "--degree-bound-override", "0",
        )
        assert code == 1
        # the failing sweep stops at its first bad case; the others still run
        assert out.splitlines() == [
            "PASS divisibility: 72 tables checked",
            "PASS cofract-tail: 18 values checked",
            "PASS lagrange: 5 cases checked",
            "PASS hrycaj: 5 random polyfracts checked",
            "PASS grid-vanishing: 5 random grids checked",
            "PASS degree-bound: 31 interpolations checked",
            "FAIL counting: verdict True vs oracle False for (0, 1) (q=2, r=2)",
            "PASS taylor-interpolation: 41 cases checked",
            "PASS split-merge: 5 round trips checked",
            "PASS ring-laws: 5 random triples checked",
        ]


class TestLongResults:
    """A result with more digits than Python converts to text (4300 by
    default) is a tripped resource guard: exit 4 and one error line."""

    def assert_too_large(self, run, *argv):
        code, out, err = run(*argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "digits" in err

    def test_count_rejected_before_the_power(self, run):
        self.assert_too_large(run, "count", "--domain", "16384", "--codomain", "2")

    def test_count_that_never_finished_is_rejected(self, run):
        # 2**40 ** 2**40 has about 3.6e12 digits
        self.assert_too_large(run, "count", "--domain", "1099511627776",
                              "--codomain", "1099511627776")

    def test_count_rejected_when_printed(self, run):
        # 3**6561 * 2**4096 has 4364 digits, more than the guard's lower
        # bound 2**(6561 + 4096) proves
        self.assert_too_large(run, "count", "--domain", "6561,4096", "--codomain", "6")

    def test_long_count_that_fits_still_prints(self, run):
        code, out, _ = run("count", "--domain", "6561,2048", "--codomain", "6")
        assert (code, out) == (0, f"{3**6561 * 2**2048}\n")

    def test_cofract(self, run):
        self.assert_too_large(run, "cofract", "16000", "16000", "0", "8000")

    def test_eval(self, run, problem_file):
        path = problem_file('{"basis": "binomial", "vars": 1, "codomain": [0], '
                            '"terms": [[[3000], ["1"]]]}')
        self.assert_too_large(run, "eval", path, "--at", "100000")

    def test_monomial_output_rejected_before_the_expansion(self, run):
        # x^2047 has coefficient 1/2047!, 5,886 digits below the line; the
        # whole expansion took seconds before it failed to print
        start = time.perf_counter()
        code, out, err = run("lagrange", "2", "11", "1", "0", "--basis", "monomial")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert err == ("error: result has more than 4300 digits, the most Python "
                       "prints; PYTHONINTMAXSTRDIGITS raises the limit\n")

    @pytest.mark.parametrize("basis", ["binomial", "monomial"])
    def test_emit_polynomial(self, basis):
        poly = MultiPolyfract((0,), 1, (((1,), (10**4999,)),))
        with pytest.raises(TooLarge, match="digits"):
            emit_polynomial(poly, basis)


COMMANDS = ("classify", "represent", "interp", "eval", "lagrange", "cofract",
            "taylor", "count", "certify")
CHOICES = "{" + ",".join(COMMANDS) + "}"
TOP_USAGE = ("usage: polyfract [-h]\n"
             f"                 {CHOICES}\n"
             "                 ...\n")
BASIS_HELP = ("  --basis {binomial,monomial}\n"
              "                        output basis\n")

# --help output, which argparse wraps to the COLUMNS width; these are the
# texts at 80 columns
HELP = {
    "--help": (
        TOP_USAGE
        + "\n"
        "Decide and construct polynomial representations of maps between finite\n"
        "commutative groups.\n"
        "\n"
        "positional arguments:\n"
        f"  {CHOICES}\n"
        "    classify            decide polyfractality of a map\n"
        "    represent           construct a representing polynomial\n"
        "    interp              prime-power interpolation of a table\n"
        "    eval                evaluate a polynomial file at a point\n"
        "    lagrange            point-indicator polyfract on Z_{p^alpha}\n"
        "    cofract             one co-monofract value (d|x)_{q,r}\n"
        "    taylor              difference expansion of a cyclic table\n"
        "    count               number of polyfractal maps A -> B\n"
        "    certify             run the theorem verification sweeps\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "classify --help": (
        "usage: polyfract classify [-h] problem\n"
        "\n"
        "positional arguments:\n"
        "  problem     problem file path ('-' for stdin)\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "represent --help": (
        "usage: polyfract represent [-h] [--merge] [--basis {binomial,monomial}]\n"
        "                           problem\n"
        "\n"
        "positional arguments:\n"
        "  problem\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --merge               merge into one variable (cyclic domain and codomain)\n"
        + BASIS_HELP
    ),
    "interp --help": (
        "usage: polyfract interp [-h] [--basis {binomial,monomial}] problem\n"
        "\n"
        "positional arguments:\n"
        "  problem\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        + BASIS_HELP
    ),
    "eval --help": (
        "usage: polyfract eval [-h] --at AT [--modulus MODULUS] polynomial\n"
        "\n"
        "positional arguments:\n"
        "  polynomial\n"
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --at AT            comma-separated coordinates\n"
        "  --modulus MODULUS  project a single-component result to this modulus\n"
    ),
    "lagrange --help": (
        "usage: polyfract lagrange [-h] [--basis {binomial,monomial}] p alpha beta x0\n"
        "\n"
        "positional arguments:\n"
        "  p\n"
        "  alpha\n"
        "  beta\n"
        "  x0\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        + BASIS_HELP
    ),
    "cofract --help": (
        "usage: polyfract cofract [-h] d q r x\n"
        "\n"
        "positional arguments:\n"
        "  d\n"
        "  q\n"
        "  r\n"
        "  x\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "taylor --help": (
        "usage: polyfract taylor [-h] [--degree DEGREE] [--basis {binomial,monomial}]\n"
        "                        problem\n"
        "\n"
        "positional arguments:\n"
        "  problem\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --degree DEGREE       expansion degree (default: the map degree)\n"
        + BASIS_HELP
    ),
    "count --help": (
        "usage: polyfract count [-h] --domain DOMAIN --codomain CODOMAIN\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --domain DOMAIN      comma-separated moduli\n"
        "  --codomain CODOMAIN  comma-separated moduli\n"
    ),
    "certify --help": (
        "usage: polyfract certify [-h] [--max-prime MAX_PRIME] [--max-alpha MAX_ALPHA]\n"
        "                         [--max-beta MAX_BETA] [--samples SAMPLES]\n"
        "                         [--count-limit COUNT_LIMIT] [--seed SEED]\n"
        "                         [--max-search MAX_SEARCH]\n"
        "                         [--degree-bound-override DEGREE_BOUND_OVERRIDE]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --max-prime MAX_PRIME\n"
        "  --max-alpha MAX_ALPHA\n"
        "  --max-beta MAX_BETA\n"
        "  --samples SAMPLES\n"
        "  --count-limit COUNT_LIMIT\n"
        "  --seed SEED\n"
        "  --max-search MAX_SEARCH\n"
        "  --degree-bound-override DEGREE_BOUND_OVERRIDE\n"
        "                        override the oracle degree bound (testing only)\n"
    ),
}

USAGE_ERRORS = {
    "classify x.json extra": TOP_USAGE + "polyfract: error: unrecognized arguments: extra\n",
    "bogus": (
        TOP_USAGE
        + "polyfract: error: argument command: invalid choice: 'bogus' (choose from "
        + ", ".join(f"'{name}'" for name in COMMANDS) + ")\n"
    ),
    "": TOP_USAGE + "polyfract: error: the following arguments are required: command\n",
    "cofract 1 2 3": (
        "usage: polyfract cofract [-h] d q r x\n"
        "polyfract cofract: error: the following arguments are required: x\n"
    ),
}

FLAGS = ("-h", "--help", "--basis", "--merge", "--at", "--modulus", "--degree",
         "--domain", "--codomain", "--max-prime", "--max-alpha", "--max-beta",
         "--samples", "--count-limit", "--seed", "--max-search",
         "--degree-bound-override")
TOKENS = st.one_of(
    st.sampled_from(COMMANDS + FLAGS + ("--", "--nope", "extra", "binomial", "monomial")),
    st.integers(-3, 12).map(str),
)


def parse_outcome(parse, argv):
    """How a parse ends: the namespace, or the exit code; with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ending = ("parsed", vars(parse(argv)))
        except SystemExit as exc:
            ending = ("exit", exc.code)
    return ending, out.getvalue(), err.getvalue()


class TestLargeTables:
    """A random map Z_2048 -> Z_2 interpolates, expands by differences and
    classifies, a random map Z_1024 -> Z_512 expands by differences to its
    interpolant, and a random map Z_512 -> Z_16 is represented merged, well
    inside the timeout: each interpolation weight row is one difference
    step, each difference step one packed whole-int step, and merging one
    variable is the identity."""

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        rng = random.Random(2048)
        values = [rng.randrange(2) for _ in range(2048)]
        path = tmp_path_factory.mktemp("large") / "z2048.json"
        path.write_text(json.dumps({"domain": [2048], "codomain": [2], "values": values}))
        return str(path), values

    @pytest.fixture(scope="class")
    def interp_stdout(self, table):
        proc = run_module("interp", table[0], timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    @pytest.fixture(scope="class")
    def interpolant(self, interp_stdout):
        return parse_polynomial(interp_stdout)

    def test_taylor_prints_the_interpolant(self, table, interp_stdout):
        proc = run_module("taylor", table[0], timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == interp_stdout

    def test_interp_evaluates_back_to_the_table(self, table, interpolant):
        assert interpolant.component_uni(0).values(0, 2048) == table[1]

    def test_classify_reports_the_interpolant(self, table, interpolant):
        proc = run_module("classify", table[0], timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        degree = max(exp for (exp,), _ in interpolant.terms)
        assert proc.stdout.splitlines() == [
            "polyfractal: yes", "variables: 1", "split codomain: [2]",
            f"terms: {len(interpolant.terms)}", f"total degree: {degree}"]

    @pytest.fixture(scope="class")
    def table512(self, tmp_path_factory):
        rng = random.Random(512)
        values = [rng.randrange(16) for _ in range(512)]
        path = tmp_path_factory.mktemp("large") / "z512.json"
        path.write_text(json.dumps({"domain": [512], "codomain": [16], "values": values}))
        return str(path), values

    @pytest.fixture(scope="class")
    def merged_stdout(self, table512):
        proc = run_module("represent", "--merge", table512[0], timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    def test_merged_representation_evaluates_back_to_the_table(self, table512,
                                                               merged_stdout):
        merged = parse_polynomial(merged_stdout)
        assert (merged.nvars, merged.codomain) == (1, (16,))
        assert merged.component_uni(0).values(0, 512) == table512[1]

    def test_merge_of_one_prime_prints_the_plain_representation(self, table512,
                                                                merged_stdout):
        # one prime splits into one variable, and merging it changes nothing
        proc = run_module("represent", table512[0], timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == merged_stdout

    def test_taylor_and_interp_agree_on_sixteen_bit_lanes(self, tmp_path):
        # Z_1024 -> Z_512 needs 16-bit lanes: taylor's walk packs through
        # array, reads each coefficient off entry 0 and checks the last
        rng = random.Random(1024)
        path = tmp_path / "z1024.json"
        path.write_text(json.dumps({"domain": [1024], "codomain": [512],
                                    "values": [rng.randrange(512) for _ in range(1024)]}))
        taylor, interp = (run_module(cmd, str(path), timeout=30) for cmd in ("taylor", "interp"))
        assert (taylor.returncode, taylor.stderr) == (interp.returncode, interp.stderr) == (0, "")
        assert taylor.stdout == interp.stdout


class TestArgumentHandling:
    """Building only the invoked command's parser changes no byte that
    argument handling prints.  Nothing here runs a command."""

    @pytest.mark.parametrize("line", HELP)
    def test_help_is_unchanged(self, monkeypatch, capsys, line):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(line.split())
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP[line], "")

    @pytest.mark.parametrize("line", USAGE_ERRORS)
    def test_usage_errors_are_unchanged(self, monkeypatch, capsys, line):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(line.split())
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", USAGE_ERRORS[line])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(TOKENS, max_size=7),
        st.builds(lambda name, rest: [name, *rest],
                  st.sampled_from(COMMANDS), st.lists(TOKENS, max_size=6)),
    ))
    def test_parse_step_matches_the_full_parser(self, argv):
        assert parse_outcome(_parse_args, argv) == parse_outcome(
            lambda argv: build_parser().parse_args(argv), argv)
