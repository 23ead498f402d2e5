"""Tests of the benchmark's own generator, checker and tracer.

    python3 -m pytest perfbench/tests -q

The checker must accept the program's real outputs and reject corrupted
ones; the generator must give identical files for one seed.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from check import Checker  # noqa: E402
from gen import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402

DATA = HERE / "data"


def _items(workload):
    manifest = json.loads((DATA / workload / "manifest.json").read_text())
    return {item["id"]: item for item in manifest["items"]}


def _cli(item, workload):
    from polyfract import cli

    argv = [item["cmd"]]
    if "file" in item:
        argv.append(str(DATA / workload / item["file"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + item["args"])
    return code, out.getvalue()


def _flip_coefficient(text, index=0, monomial=False):
    doc = json.loads(text)
    exp, coeffs = doc["terms"][index]
    if monomial:
        coeffs[0] = str(json.loads(coeffs[0].split("/")[0]) + 1) + (
            "/" + coeffs[0].split("/")[1] if "/" in coeffs[0] else "")
    else:
        coeffs[0] = str((int(coeffs[0]) + 1) % doc["codomain"][0])
    return json.dumps(doc) + "\n"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7)[1] != generate(workload, 8)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_committed_inputs_match_the_default_seed(workload):
    _, files = generate(workload, DEFAULT_SEED)
    for name, text in files.items():
        assert (DATA / workload / name).read_text(encoding="utf-8") == text


@pytest.mark.parametrize("workload,item_id,monomial", [
    ("interp", "128-4:interp", False),
    ("interp", "81-9:taylor", False),
    ("interp", "16x8-8:interp", False),
    ("construct", "c288:merge", False),
    ("construct", "c288:represent", False),
    ("construct", "m4x9:represent", False),
    ("construct", "c288:merge-monomial", True),
])
def test_checker_rejects_a_flipped_coefficient(workload, item_id, monomial):
    item = _items(workload)[item_id]
    checker = Checker(DATA / workload)
    code, out = _cli(item, workload)
    assert checker.check_item(item, code, out) is None
    bad = _flip_coefficient(out, index=len(json.loads(out)["terms"]) // 2, monomial=monomial)
    assert checker.check_item(item, code, bad) is not None


def test_checker_rejects_wrong_verdicts():
    items = _items("construct")
    checker = Checker(DATA / "construct")
    yes, no = items["c72:classify"], items["c144:classify"]
    code, out = _cli(yes, "construct")
    assert checker.check_item(yes, code, out) is None
    assert checker.check_item(yes, code, "polyfractal: no\n" + out.split("\n", 1)[1]) is not None
    code, out = _cli(no, "construct")
    assert checker.check_item(no, code, out) is None
    lines = out.splitlines()
    assert checker.check_item(no, code, "polyfractal: yes\n") is not None
    # a counterexample whose second point is the first one proves nothing
    forged = "\n".join(lines[:3] + ["counterexample y: " + lines[2].split(": ")[1]]) + "\n"
    assert checker.check_item(no, code, forged) is not None
    represent = items["c144:represent"]
    assert checker.check_item(represent, 0, "") is not None


def test_checker_rejects_wrong_ring_results_and_certify_counts():
    from polyfract.uni import UniPolyfract

    items = _items("ring")
    item = items["uni20:uni_mul"]
    doc = json.loads((DATA / "ring" / item["file"]).read_text())
    a, b = (UniPolyfract(d["modulus"], tuple(d["coeffs"])) for d in (doc["a"], doc["b"]))
    c = a * b
    good = {"coeffs": list(c.coeffs), "modulus": c.modulus}
    checker = Checker(DATA / "ring")
    assert checker.check_item(item, 0, json.dumps(good)) is None
    good["coeffs"][5] = (good["coeffs"][5] + 1) % c.modulus
    assert checker.check_item(item, 0, json.dumps(good)) is not None

    certify = next(iter(_items("certify").values()))
    code, out = _cli(certify, "certify")
    checker = Checker(DATA / "certify")
    assert checker.check_item(certify, code, out) is None
    line = next(row for row in out.splitlines() if row.startswith("PASS hrycaj: "))
    count = int(line.split()[2])
    wrong = out.replace(line, line.replace(f": {count} ", f": {count + 1} "))
    assert checker.check_item(certify, code, wrong) is not None
    assert checker.check_item(certify, 1, out) is not None


def test_tracer_restores_bindings_and_accounts_for_item_time():
    import tracer
    from polyfract import classify, cli, uni

    before = (cli.represent, classify.interpolate_prime_power, uni.UniPolyfract.__mul__)
    rec = tracer.Recorder()
    rec.install()
    try:
        assert cli.represent is not before[0]
        rec.begin_item()
        _cli(_items("construct")["c72:merge"], "construct")
        rec.end_item()
    finally:
        rec.uninstall()
    assert (cli.represent, classify.interpolate_prime_power,
            uni.UniPolyfract.__mul__) == before
    summary = rec.summary()
    assert sum(summary["self_ns"].values()) == summary["item_ns"]
    assert summary["calls"]["classify.represent_univariate"] == 1
    assert summary["calls"]["lagrange.interpolate_prime_power"] >= 2


def test_traced_run_flags_item_spans_that_disagree_with_latencies():
    import run

    names = [name for name, _ in run.PER_LAYER]
    run_doc = {
        "passes": 1,
        "reference_s": [run.REFERENCE_S] * 2,
        "latencies_ns": [5_000_000, 8_000_000],
        "bytes_out": 0,
        "cache_misses": {name: 0 for name in names if name.endswith(".misses")},
    }
    summary = {"self_ns": {"bench.item": 13_000_000}, "calls": {}, "counts": {},
               "item_ns": 13_000_000, "item_durations_ns": [5_000_500, 8_000_700]}
    traced = dict(run_doc, trace=summary)
    _, problems = run.per_layer(traced, run_doc)
    assert problems == []
    summary["item_durations_ns"] = [5_000_500, 9_000_000]
    _, problems = run.per_layer(traced, run_doc)
    assert len(problems) == 1 and problems[0].startswith("item 1:")
