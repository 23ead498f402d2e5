"""File formats, command dispatch, exit codes, deterministic emission."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polyfract
from polyfract import FiniteFn, MultiPolyfract, UniPolyfract
from polyfract.certify import CertifyOptions
from polyfract.cli import (
    build_parser,
    emit_polynomial,
    emit_problem,
    main,
    parse_polynomial,
    parse_problem,
)
from polyfract.errors import ParseError, ValidationError

INDICATOR_PROBLEM = '{"domain": [3], "codomain": [9], "values": [1, 0, 0]}'


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
        doc = {"domain": [2], "codomain": [4, 3], "values": [11, 0]}
        table = parse_problem(json.dumps(doc))
        # 11 = 3*3 + 2 in mixed radix over (4, 3)
        assert table.values == ((3, 2), (0, 0))

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

    def test_round_trip_idempotent(self):
        first = parse_problem(INDICATOR_PROBLEM)
        emitted = emit_problem(first)
        assert parse_problem(emitted) == first
        assert emit_problem(parse_problem(emitted)) == emitted


class TestPolynomialFiles:
    def test_binomial_round_trip(self):
        poly = MultiPolyfract.from_uni(UniPolyfract(9, (1, -1, 1, 0, -3)))
        text = emit_polynomial(poly, "binomial")
        basis, parsed, rational, codomain = parse_polynomial(text)
        assert basis == "binomial" and rational is None
        assert parsed == poly and codomain == (9,)
        assert emit_polynomial(parsed, "binomial") == text

    def test_monomial_round_trip(self):
        poly = MultiPolyfract.from_uni(UniPolyfract(9, (1, -1, 1, 0, -3)))
        text = emit_polynomial(poly, "monomial")
        basis, parsed, rational, codomain = parse_polynomial(text)
        assert basis == "monomial" and parsed is None
        back = MultiPolyfract.from_rational(rational, codomain)
        assert back == poly

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
        rational = poly.to_rational(lift="balanced")
        text = emit_polynomial(rational, codomain=(9,))
        assert text == emit_polynomial(poly, "monomial")
        with pytest.raises(ValidationError):
            emit_polynomial(rational)


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

    def test_eval_with_projection(self, run, problem_file, tmp_path):
        code, out, _ = run("represent", problem_file(INDICATOR_PROBLEM), "--merge")
        poly_path = tmp_path / "poly.json"
        poly_path.write_text(out)
        code, out, _ = run("eval", str(poly_path), "--at", "0", "--modulus", "3")
        assert code == 0
        assert json.loads(out) == [1]
        code, _, _ = run("eval", str(poly_path), "--at", "0", "--modulus", "5")
        assert code == 3

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

    def test_taylor_degree_too_small(self, run, problem_file):
        code, _, err = run(
            "taylor", problem_file(INDICATOR_PROBLEM), "--degree", "2"
        )
        assert code == 3

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
        src = Path(polyfract.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "polyfract", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
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
        code, out, _ = run(
            "certify", "--samples", "30", "--count-limit", "3",
            "--max-alpha", "1", "--max-beta", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

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
        assert any(line.startswith("FAIL counting") for line in out.splitlines())
