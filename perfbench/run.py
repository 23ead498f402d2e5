"""Benchmark of the polyfract CLI and library on four seeded workloads.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 25 --trace 0

Run it from the repository root; it drives the code in ``src/`` through
``PYTHONPATH=src``.  Every timed run is one fresh single-threaded
interpreter (``worker.py``), and every pass over the items in it starts
with polyfract's module caches emptied, so each pass pays their cold cost
as a CLI user's one-command process does.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh interpreters that import polyfract and load the inputs),
items per second, per-item latency p50/p90, and peak RSS.  ``--trace 1``
runs the same passes untraced and then traced, and reports per-layer
self times and counts per pass, plus the tracing overhead.

Every output is checked by ``check.py``, which shares no code with
polyfract; on the default seed every output must also match the digest
recorded in ``data/<workload>/digests.json`` byte for byte.  The last line
of stdout is one JSON object; the exit code is 1 when any check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from arith import REFERENCE_S
from check import SWEEPS, Checker, certify_cases
from gen import DEFAULT_SEED, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
TRACE_PASSES = 3
DEADLINE_S = 170
# The machine's speed drifts by up to 2x within minutes on a shared VM.  The
# worker runs a fixed reference kernel after every item, and each item's
# time is scaled by (REFERENCE_S / r) ** SPEED_EXPONENT, where r is the
# median reference time of the SPEED_WINDOW samples around the item.  The
# program's times move less than the kernel's when the speed changes; the
# exponent is fitted to that on a 2-vCPU Xeon VM, where it made the spread
# of run medians smallest on all four workloads.
SPEED_EXPONENT = 0.8
SPEED_WINDOW = 9
# An item's span may exceed its latency by the clock reads around it.
SPAN_SLACK_NS = 100_000
# Latency percentiles are taken over all items of a run's passes pooled;
# a run goes on until it holds this many, so that at least ten lie beyond
# the p90.  certify has 11 items a pass and takes no more passes than fit.
MIN_ITEMS = {"construct": 100, "interp": 100, "ring": 100, "certify": 0}

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Self times, counts and cache misses are per pass.
PER_LAYER = (
    ("cli.parse.self_s", "s"), ("cli.emit.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("classify.is_polyfractal.self_s", "s"), ("classify.is_polyfractal.points", "count"),
    ("classify.represent.self_s", "s"), ("classify.represent_univariate.self_s", "s"),
    ("classify.brute_force_polyfractal.self_s", "s"),
    ("classify.oracle_tables.misses", "count"), ("classify.split_group.misses", "count"),
    ("groups.crt_map.calls", "count"), ("groups.crt_map.self_s", "s"),
    ("lagrange.interpolate_prime_power.self_s", "s"),
    ("lagrange.interpolate_prime_power.calls", "count"),
    ("lagrange.interpolate_prime_power.terms", "count"),
    ("lagrange.interpolate_prime_power.products", "count"),
    ("lagrange.cofract.calls", "count"),
    ("calculus.apply_diff.self_s", "s"), ("calculus.apply_diff.calls", "count"),
    ("calculus.apply_diff.cells", "count"), ("calculus.finitefn.builds", "count"),
    ("calculus.taylor_expand.self_s", "s"), ("calculus.map_degree.self_s", "s"),
    ("calculus.divisibility_check.self_s", "s"),
    ("multi.merge_variables.self_s", "s"), ("multi.merge_variables.calls", "count"),
    ("multi.mul.self_s", "s"), ("multi.compose.self_s", "s"),
    ("multi.evaluate.self_s", "s"), ("multi.evaluate.calls", "count"),
    ("multi.to_rational.self_s", "s"), ("multi.from_rational.self_s", "s"),
    ("multi.monofract_monomials.misses", "count"),
    ("uni.mul.self_s", "s"), ("uni.mul.calls", "count"),
    ("uni.from_rational.self_s", "s"), ("uni.to_rational.self_s", "s"),
    ("uni.binom_poly.misses", "count"),
    ("exactnum.binom.calls", "count"),
    *((f"certify.{s}.{k}", u) for s in SWEEPS for k, u in (("self_s", "s"), ("cases", "count"))),
    ("bench.item.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Spans and counters that must fire on a workload; the traced run fails if
# one stays at zero.
REQUIRED = {
    "construct": ("cli.parse", "cli.emit", "classify.is_polyfractal", "classify.represent",
                  "classify.represent_univariate", "groups.crt_map",
                  "lagrange.interpolate_prime_power", "lagrange.cofract.calls",
                  "multi.merge_variables", "multi.to_rational", "uni.from_rational",
                  "uni.to_rational", "exactnum.binom.calls"),
    "interp": ("cli.parse", "cli.emit", "lagrange.interpolate_prime_power",
               "lagrange.cofract.calls", "calculus.apply_diff", "calculus.taylor_expand",
               "calculus.map_degree", "calculus.finitefn.builds", "exactnum.binom.calls"),
    "certify": ("classify.is_polyfractal", "classify.brute_force_polyfractal",
                "lagrange.interpolate_prime_power", "calculus.apply_diff",
                "calculus.taylor_expand", "calculus.divisibility_check",
                "calculus.finitefn.builds", "multi.merge_variables", "uni.mul",
                *(f"certify.{s}" for s in SWEEPS)),
    "ring": ("cli.parse", "uni.mul", "multi.mul", "multi.compose", "multi.evaluate",
             "multi.from_rational", "uni.from_rational", "uni.to_rational",
             "exactnum.binom.calls"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _inputs(workload: str, seed: int, out: Path) -> Path:
    """Directory holding the workload's inputs for this seed.

    The default seed's inputs are committed; they must equal what the
    generator makes, so later changes time identical files.
    """
    _, files = generate(workload, seed)
    if seed == DEFAULT_SEED:
        committed = HERE / "data" / workload
        for name, text in files.items():
            path = committed / name
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                raise BenchError(f"{path} differs from the generator's output")
        return committed
    dest = out / "inputs" / f"{workload}-{seed}"
    dest.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (dest / name).write_text(text, encoding="utf-8")
    return dest


class Runner:
    """Starts worker interpreters one after another, within one deadline."""

    def __init__(self, workload: str, inputs: Path, out: Path):
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, *extra: str) -> str:
        """Run one worker; returns its standard output."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(self.inputs), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
        return proc.stdout

    def setup_s(self) -> float:
        """Median CPU time of fresh interpreters that import polyfract and
        load the inputs, each scaled by the reference kernel it runs next."""
        self.spawn("--setup-only")  # warm the file cache and the bytecode cache
        times = []
        for _ in range(SETUP_RUNS):
            probe = json.loads(self.spawn("--setup-only"))
            times.append(probe["setup_s"] * _scale(probe["reference_s"]))
        return statistics.median(times)

    def run(self, tag: str, *extra: str) -> dict:
        result = self.out / f"{self.workload}-{tag}.json"
        self.spawn("--result", str(result), *extra)
        return json.loads(result.read_text(encoding="utf-8"))


def _failures(items, results, checker: Checker, recorded: dict | None) -> tuple[int, int, list]:
    """(attempted, failed, reasons) over every item run in the given results."""
    attempted = failed = 0
    reasons = []
    reference = results[0]["digests"][0]
    for res in results:
        first = {row["id"]: row for row in res["first"]}
        for pass_no, digests in enumerate(res["digests"]):
            for item, digest, ref in zip(items, digests, reference):
                attempted += 1
                row = first[item["id"]]
                if row["error"]:
                    why = row["error"].strip().splitlines()[-1]
                elif recorded is not None and digest != recorded.get(item["id"]):
                    why = "output differs from the recorded digest"
                elif digest != ref:
                    why = "output differs between passes"
                elif pass_no == 0 and res is results[0]:
                    why = checker.check_item(item, row["exit"], row["out"])
                else:
                    why = None
                if why:
                    failed += 1
                    reasons.append(f"{item['id']}: {why}")
    return attempted, failed, reasons


def _pass_work(workload: str, items, res) -> int:
    """Work in one whole pass: items, or sweep cases for certify."""
    if workload != "certify":
        return len(items)
    return sum(certify_cases(row["out"]) for row in res["first"])


def _scale(reference_s) -> float:
    """Factor that turns CPU times taken alongside these reference times
    into times at the reference speed."""
    return (REFERENCE_S / statistics.median(reference_s)) ** SPEED_EXPONENT


def _scaled_ms(res) -> list[float]:
    """Each item's latency in ms at the reference speed, scaled by the
    reference times measured around it."""
    ref, half = res["reference_s"], SPEED_WINDOW // 2
    return [ns / 1e6 * _scale(ref[max(0, i - half):i + half + 1])
            for i, ns in enumerate(res["latencies_ns"])]


def end_to_end(workload: str, items, res, setup: float) -> dict:
    """Throughput and latency over a run's whole passes, all cold.

    Throughput uses the median pass time; p50 and p90 are taken over the
    scaled latencies of every item of every pass, pooled.
    """
    m = len(items)
    passes = len(res["latencies_ns"]) // m
    lat_ms = _scaled_ms(res)[:passes * m]
    pass_s = [sum(lat_ms[k * m:(k + 1) * m]) / 1e3 for k in range(passes)]
    if len(pass_s) < 2:
        raise BenchError("fewer than two whole passes finished in time")
    if len(lat_ms) < MIN_ITEMS[workload]:
        raise BenchError(f"only {len(lat_ms)} items timed, fewer than {MIN_ITEMS[workload]}")
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "setup_s": setup,
        "items_per_s": _pass_work(workload, items, res) / statistics.median(pass_s),
        "p50_ms": deciles[4],
        "p90_ms": deciles[8],
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }


def per_layer(traced: dict, untraced: dict) -> tuple[dict, list]:
    summary = traced["trace"]
    passes = traced["passes"]
    scale = _scale(traced["reference_s"])
    self_ns, calls, counts = summary["self_ns"], summary["calls"], summary["counts"]
    # The self times under an item add up to its span by construction; the
    # span must in turn agree with the item's latency, read on separate
    # clock calls by the worker.
    problems = [
        f"item {k}: span {span} ns, latency {lat} ns"
        for k, (span, lat) in enumerate(zip(summary["item_durations_ns"],
                                            traced["latencies_ns"]))
        if abs(span - lat) > SPAN_SLACK_NS + lat // 50
    ]
    if len(summary["item_durations_ns"]) != len(traced["latencies_ns"]):
        problems.append("item spans and item latencies differ in number")
    metrics = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            value = sum(_scaled_ms(traced)) / sum(_scaled_ms(untraced)) - 1
        elif name == "cli.bytes_out":
            value = traced["bytes_out"] / passes
        elif name.endswith(".misses"):
            value = traced["cache_misses"][name] / passes
        elif name.endswith(".self_s"):
            value = self_ns.get(name[: -len(".self_s")], 0) / 1e9 * scale / passes
        elif name in counts:
            value = counts[name] / passes
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0) / passes
        else:
            value = 0
        metrics[name] = value
    return metrics, problems


def src_lines() -> int:
    """Line count of src/polyfract, recorded as information, never gated."""
    src = ROOT / "src" / "polyfract"
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))


def _info() -> str:
    return (f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"src/polyfract {src_lines()} lines")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "polyfract" / "__init__.py").is_file():
            raise BenchError(f"no polyfract package under {ROOT / 'src'}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        inputs = _inputs(args.workload, args.seed, out)
        items = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))["items"]
        recorded = None
        if args.seed == DEFAULT_SEED:
            recorded = json.loads((inputs / "digests.json").read_text(encoding="utf-8"))
        runner = Runner(args.workload, inputs, out)
        checker = Checker(inputs)
        if args.trace:
            untraced = runner.run("untraced", "--passes", str(TRACE_PASSES))
            traced = runner.run("traced", "--passes", str(TRACE_PASSES),
                                "--trace", str(out / f"{args.workload}-spans.jsonl"))
            results = [untraced, traced]
            metrics, problems = per_layer(traced, untraced)
            summary = traced["trace"]
            fired = {**summary["calls"], **summary["counts"]}
            problems += [f"span {name} never fired" for name in REQUIRED[args.workload]
                         if not fired.get(name)]
            units = dict(PER_LAYER)
        else:
            setup = runner.setup_s()
            res = runner.run("timed", "--seconds", str(args.seconds),
                             "--min-items", str(MIN_ITEMS[args.workload]))
            results = [res]
            metrics = end_to_end(args.workload, items, res, setup)
            problems = []
            units = dict(END_TO_END)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, reasons = _failures(items, results, checker, recorded)
    for reason in reasons[:20] + problems:
        print(f"FAIL {reason}", file=sys.stderr)
    correct = failed == 0 and not problems

    print(_info())
    res = results[0]
    print(f"# {args.workload} seed {args.seed}: {res['passes']} passes of {len(items)} items"
          f" in {res['wall_s']:.2f} s")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':44s} {failed / attempted:14.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
