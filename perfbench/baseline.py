"""Reproduce the ROADMAP's baseline timings with this harness.

    python3 perfbench/baseline.py

Each measurement is a fresh interpreter (``worker.py``) running one item
once, so module caches are cold, as for a CLI user.  It times ``certify`` at
default bounds (with a traced run for the three heaviest sweeps),
``represent --merge`` on the benchmark's Z_576 -> Z_48 map and ``interp`` on
its Z_128 -> Z_4 table, and writes ``perfbench/baseline.json`` with the
medians next to the ROADMAP's single-run numbers, the Python version,
``nproc`` and the line count of ``src/polyfract``.  It takes about four
minutes on a 2-vCPU machine.
"""
from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys

from run import HERE, Runner, _scale, src_lines

# ROADMAP "Baseline" section: one run each, python 3.11.7, 2 vCPUs.
ROADMAP_S = {
    "certify": 42.0,
    "certify.divisibility": 15.6,
    "certify.taylor-interpolation": 15.7,
    "certify.degree-bound": 7.7,
    "represent --merge Z_576->Z_48": 0.85,
    "interp Z_128->Z_4": 0.21,
}
CASES = (  # name, input file, item, fresh runs
    ("certify", None, {"cmd": "certify", "args": []}, 2),
    ("represent --merge Z_576->Z_48", "construct/c576.json",
     {"cmd": "represent", "args": ["--merge"]}, 5),
    ("interp Z_128->Z_4", "interp/t128-4.json", {"cmd": "interp", "args": []}, 5),
)


def _measure(runner: Runner, tag: str, *extra: str) -> tuple[float, float, dict]:
    res = runner.run(tag, "--passes", "1", *extra)
    if res["first"][0]["error"] or res["first"][0]["exit"] != 0:
        raise SystemExit(f"{tag} failed: {res['first'][0]}")
    return res["wall_s"], res["latencies_ns"][0] / 1e9 * _scale(res["reference_s"]), res


def main() -> int:
    out = HERE / "out" / "baseline"
    out.mkdir(parents=True, exist_ok=True)
    rows = {}
    for name, source, item, runs in CASES:
        inputs = out / name.split()[0]
        inputs.mkdir(exist_ok=True)
        item = {"id": name, "expect_exit": 0, **item}
        if source:
            shutil.copy(HERE / "data" / source, inputs / "input.json")
            item["file"] = "input.json"
        (inputs / "manifest.json").write_text(json.dumps({"items": [item]}), encoding="utf-8")
        runner = Runner("baseline", inputs, out)
        walls, scaled = [], []
        for i in range(runs):
            wall, cpu, _ = _measure(runner, f"{name.split()[0]}-{i}")
            walls.append(wall)
            scaled.append(cpu)
        rows[name] = {"runs": runs, "wall_s": statistics.median(walls),
                      "scaled_cpu_s": statistics.median(scaled)}
        if name == "certify":
            _, _, res = _measure(runner, "certify-traced", "--trace", str(out / "spans.jsonl"))
            total = res["trace"]["total_ns"]
            for sweep in ("divisibility", "taylor-interpolation", "degree-bound"):
                rows[f"certify.{sweep}"] = {"runs": 1, "traced_cpu_s": total[f"certify.{sweep}"] / 1e9}
    for name, row in rows.items():
        row["roadmap_s"] = ROADMAP_S[name]
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "note": "wall_s and scaled_cpu_s are medians over fresh interpreters; "
                "traced_cpu_s is one traced run (tracing adds about a quarter on certify); "
                "roadmap_s is the ROADMAP's single run",
        "baseline": rows,
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, row in rows.items():
        measured = row.get("wall_s", row.get("traced_cpu_s"))
        print(f"{name:34s} {measured:8.3f} s   ROADMAP {row['roadmap_s']:6.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
