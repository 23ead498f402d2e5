"""Write the default seed's inputs and output digests under ``data/``.

    python3 perfbench/record.py [workload ...]

Run it from the repository root when the generator changes (never to make a
failing digest pass: a digest records what the program printed, and the
program promises byte-identical output).  It runs one pass of each
workload, checks every output, and records digests only if all are correct.
"""
from __future__ import annotations

import json
import sys

from check import Checker
from gen import DEFAULT_SEED, WORKLOADS, generate
from run import HERE, Runner


def record(workload: str) -> int:
    dest = HERE / "data" / workload
    dest.mkdir(parents=True, exist_ok=True)
    manifest, files = generate(workload, DEFAULT_SEED)
    for name, text in files.items():
        (dest / name).write_text(text, encoding="utf-8")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    res = Runner(workload, dest, out).run("record", "--passes", "1")
    checker = Checker(dest)
    bad = 0
    for item, row in zip(manifest["items"], res["first"]):
        why = row["error"] or checker.check_item(item, row["exit"], row["out"])
        if why:
            bad += 1
            print(f"FAIL {item['id']}: {why}", file=sys.stderr)
    if bad:
        return 1
    digests = {item["id"]: d for item, d in zip(manifest["items"], res["digests"][0])}
    (dest / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    print(f"{workload}: {len(digests)} items recorded in {res['wall_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(max(record(w) for w in (sys.argv[1:] or WORKLOADS)))
