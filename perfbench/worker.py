"""One benchmark run in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH=src``.  It imports ``polyfract``,
loads the workload's inputs (that is the set-up), then runs whole passes
over the items until ``--seconds`` have gone by, or exactly ``--passes``
passes.  Every pass starts with polyfract's module caches emptied, so each
pass pays their cold cost as one CLI command in a fresh process does.  CLI
items go through ``polyfract.cli.main`` with stdout captured; ring items
call the library.  It writes what it saw to ``--result`` as JSON: per-item
latencies, the first pass's outputs, a digest of every output,
``ru_maxrss``, the named caches' misses summed over passes and, with
``--trace``, the per-layer aggregates.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from arith import reference_kernel

SETUP_REFERENCE_RUNS = 25


def _load(inputs: Path):
    from polyfract import cli, multi
    from polyfract.multi import MultiPolyfract
    from polyfract.uni import UniPolyfract

    def make_uni(doc):
        return UniPolyfract(doc["modulus"], tuple(doc["coeffs"]))

    def make_multi(doc):
        return MultiPolyfract(tuple(doc["codomain"]), doc["nvars"],
                              tuple((tuple(e), tuple(c)) for e, c in doc["terms"]))

    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def make_op(op, doc):
        if op == "uni_mul":
            a, b = make_uni(doc["a"]), make_uni(doc["b"])
            return lambda: a * b
        if op == "multi_mul":
            a, b = make_multi(doc["a"]), make_multi(doc["b"])
            return lambda: a * b
        if op == "compose":
            q, p = make_uni(doc["q"]), make_multi(doc["p"])
            return lambda: multi.compose(q, p)
        if op == "grid_eval":
            from itertools import product

            p = make_multi(doc["p"])
            grid = list(product(range(doc["side"]), repeat=p.nvars))
            return lambda: [p.evaluate(x) for x in grid]
        raise ValueError(f"unknown op {op!r}")

    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    runners = []
    for item in manifest["items"]:
        if "op" in item:
            doc = json.loads((inputs / item["file"]).read_text(encoding="utf-8"))
            runners.append((False, make_op(item["op"], doc)))
        else:
            argv = [item["cmd"]]
            if "file" in item:
                argv.append(str(inputs / item["file"]))
            argv += item["args"]
            runners.append((True, lambda argv=argv: run_cli(argv)))
    return manifest, runners


def _render(result) -> str:
    """Canonical text of a library result, for the checker and the digest."""
    if isinstance(result, list):
        doc = [[r.value for r in row] for row in result]
    elif hasattr(result, "coeffs"):
        doc = {"coeffs": list(result.coeffs), "modulus": result.modulus}
    else:
        doc = {"codomain": list(result.codomain), "nvars": result.nvars,
               "terms": [[list(e), list(c)] for e, c in result.terms]}
    return json.dumps(doc, sort_keys=True) + "\n"


# Module caches whose misses are reported: (metric, module, attribute).
NAMED_CACHES = (
    ("uni.binom_poly.misses", "uni", "binom_poly"),
    ("multi.monofract_monomials.misses", "multi", "_monofract_monomials"),
    ("classify.split_group.misses", "classify", "_split_group"),
    ("classify.oracle_tables.misses", "classify", "_representable_tables"),
)


def _cache_misses() -> dict[str, int]:
    """Misses of the named caches since they were last cleared; a cache
    that no longer exists counts none."""
    out = {}
    for metric, module, attr in NAMED_CACHES:
        cached = getattr(importlib.import_module(f"polyfract.{module}"), attr, None)
        info = getattr(cached, "cache_info", None)
        out[metric] = info().misses if info else 0
    return out


def _clear_caches() -> None:
    """Empty every functools cache bound in a polyfract module."""
    for name, module in list(sys.modules.items()):
        if name != "polyfract" and not name.startswith("polyfract."):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes instead of --seconds")
    ap.add_argument("--min-items", type=int, default=0,
                    help="with --seconds, go on until the passes hold this many items")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path, help="record spans and write them here")
    args = ap.parse_args(argv)

    manifest, runners = _load(args.inputs)
    if args.setup_only:
        setup_s = time.process_time()  # CPU time since the interpreter started
        reference = []
        for _ in range(SETUP_REFERENCE_RUNS):
            r0 = time.thread_time_ns()
            reference_kernel()
            reference.append((time.thread_time_ns() - r0) / 1e9)
        print(json.dumps({"setup_s": setup_s, "reference_s": reference}))
        return 0

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()

    items = manifest["items"]
    latencies: list[int] = []
    digests: list[list[str]] = []
    first: list[dict] = []
    bytes_out = 0
    clock = time.perf_counter_ns
    # Items are single-threaded and CPU-bound; this thread's CPU time leaves
    # out the time other tenants of a shared machine steal from it.
    cpu_clock = time.thread_time_ns
    hard_stop = (args.seconds + 60) * 1e9
    start = clock()
    passes = 0
    reference: list[int] = []
    misses = dict.fromkeys((name for name, _, _ in NAMED_CACHES), 0)
    min_passes = max(2, -(-args.min_items // len(items)))
    while True:
        _clear_caches()
        row = []
        for item, (is_cli, run) in zip(items, runners):
            if recorder:
                recorder.begin_item()
            error = None
            t0 = cpu_clock()
            try:
                if is_cli:
                    code, out = run()
                else:
                    code, out = 0, run()
            except Exception:
                code, out, error = None, "", traceback.format_exc(limit=3)
            t1 = cpu_clock()
            if recorder:
                recorder.end_item()
            latencies.append(t1 - t0)
            # sample the machine's speed between items, outside the timings
            r0 = cpu_clock()
            reference_kernel()
            reference.append(cpu_clock() - r0)
            if not is_cli and error is None:
                out = _render(out)
            elif is_cli:
                bytes_out += len(out.encode())
            row.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest())
            if passes == 0:
                first.append({"id": item["id"], "exit": code, "out": out, "error": error})
            if not args.passes and clock() - start > hard_stop:
                break
        digests.append(row)
        for name, value in _cache_misses().items():
            misses[name] += value
        passes += 1
        elapsed = clock() - start
        if args.passes:
            if passes >= args.passes:
                break
        elif (elapsed >= args.seconds * 1e9 and passes >= min_passes) or elapsed > hard_stop:
            break
    wall_ns = clock() - start

    result = {
        "passes": passes,
        "wall_s": wall_ns / 1e9,
        "reference_s": [ns / 1e9 for ns in reference],
        "latencies_ns": latencies,
        "first": first,
        "digests": digests,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache_misses": misses,
        "bytes_out": bytes_out,
    }
    if recorder:
        recorder.uninstall()
        result["trace"] = recorder.summary()
        recorder.write_spans(args.trace)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
