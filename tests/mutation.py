"""Mutation check for the table kernels.

Copies ``src/`` and ``tests/`` to a temporary directory, applies one
mutant at a time to the copy, runs the test files that should kill it and
reports every mutant that survives.  Stdlib only; pytest does not collect
this file.  Run from anywhere:

    python tests/mutation.py

Exit status 0 when every mutant is killed except those listed in
``EQUIVALENT``, which must survive; 1 otherwise.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


CALCULUS = "src/polyfract/calculus.py"
KERNELS = "tests/test_interp_kernels.py::"

MUTANTS = (
    # whole-table evaluation and the brute-force oracle's enumeration
    Mutant("wrong C(start, i) row", "src/polyfract/uni.py",
           "row.append(row[-1] * (start - i + 1) // i)",
           "row.append(row[-1] * (start - i) // i)",
           (KERNELS + "TestTableValues",)),
    Mutant("dropped last value", "src/polyfract/uni.py",
           "row = [diffs[-1]] * n",
           "row = [diffs[-1]] * (n - 1)",
           (KERNELS + "TestTableValues",)),
    Mutant("periodicity on too few points", "src/polyfract/classify.py",
           "elif sums[q:] == sums[:bound]:",
           "elif sums[q:-2] == sums[:bound - 2]:",
           (KERNELS + "TestOracleEnumeration",)),
    Mutant("periodicity on one point fewer", "src/polyfract/classify.py",
           "elif sums[q:] == sums[:bound]:",
           "elif sums[q:-1] == sums[:bound - 1]:",
           (KERNELS + "TestOracleEnumeration",)),
    Mutant("top binomial row dropped", "src/polyfract/classify.py",
           "for k in range(bound + 1)]",
           "for k in range(bound)]",
           (KERNELS + "TestOracleEnumeration",)),
    # the interpolation weights
    Mutant("weight row one entry short", "src/polyfract/lagrange.py",
           "for x in range(min(delta, q - 1) + 1))",
           "for x in range(min(delta - 1, q - 1) + 1))",
           (KERNELS + "TestInterpolation",)),
    Mutant("cofract reduction dropped", "src/polyfract/exactnum.py",
           "value=value % modulus if modulus else value",
           "value=value",
           (KERNELS + "TestCofract",)),
    # the block test
    Mutant("block point by the full modulus", "src/polyfract/classify.py",
           "cells = _block_cells(domain, in_parts)",
           "cells = _block_cells(domain, domain)",
           ("tests/test_classify.py::TestBlockScanDifferential",)),
    Mutant("counterexample from the first clashing column", "src/polyfract/classify.py",
           "first = j if first is None else min(first, j)",
           "first = j if first is None else first",
           ("tests/test_classify.py::TestBlockScanDifferential",)),
    # the difference walk and the difference triangle
    Mutant("walk stops one step early", CALCULUS,
           "for _ in range(steps):",
           "for _ in range(steps - 1):",
           ("tests/test_calculus.py::TestTaylor",)),
    Mutant("triangle reads the wrong end of its row", "src/polyfract/uni.py",
           "out.append(Residue(row[0], modulus))",
           "out.append(Residue(row[-1], modulus))",
           ("tests/test_uni.py::TestCoeffsFromValues",)),
    # the difference step
    Mutant("differences along the wrong variable", CALCULUS,
           "col = _difference(col, r, f.domain_moduli, var, 1)",
           "col = _difference(col, r, f.domain_moduli, 0, 1)",
           (KERNELS + "TestDeltaPower",)),
    Mutant("k = 1 returned unchanged", CALCULUS,
           "for _ in range(k):",
           "for _ in range(k if k != 1 else 0):",
           (KERNELS + "TestDeltaPower",)),
    Mutant("wrong _shifted cut", CALCULUS,
           "cut = step * block % span",
           "cut = step % span",
           (KERNELS + "TestApplyDiff",)),
    Mutant("difference reduction dropped", CALCULUS,
           "return tuple([v % r for v in diff]) if r else tuple(diff)",
           "return tuple(diff)",
           (KERNELS + "TestApplyDiff",)),
    # the column format
    Mutant("constructor reduction dropped", CALCULUS,
           "tuple([v % r for v in map(index, col)]) if r else tuple(map(index, col))",
           "tuple(map(index, col))",
           (KERNELS + "TestFiniteFnRows", KERNELS + "TestColumnFormat")),
    Mutant("is_zero reads only the first column", CALCULUS,
           "return not any(map(any, self.columns))",
           "return not any(map(any, self.columns[:1]))",
           (KERNELS + "TestTaylorExpandMulti",)),
    Mutant("transposed values view", CALCULUS,
           "return tuple(zip(*self.columns)) or",
           "return tuple(self.columns) or",
           (KERNELS + "TestColumnFormat",)),
    Mutant("problem file digits in the wrong order", "src/polyfract/cli.py",
           "w = prod(codomain[k + 1:])",
           "w = prod(codomain[:k])",
           ("tests/test_cli.py::TestProblemFiles",)),
    # trusted sweep tables: certify still passes, since interpolation
    # reduces mod r, and no case count moves
    Mutant("sweep hands over its modulus as a value", "src/polyfract/certify.py",
           "f = _table(q, p**beta, table)",
           "f = _table(q, p**beta, [v or p**beta for v in table])",
           ("tests/test_certify.py",)),
)

# Mutants that change no result, so no test can kill them, with the reason.
EQUIVALENT: dict[str, str] = {}

# Loaded by the copied tests: no shrinking and no example database, so a
# failing mutant stops at its first counterexample.
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutation", database=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutation")
"""


def _apply(root: Path, mutant: Mutant) -> None:
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} does not occur exactly "
                         f"once in {mutant.path}; update the mutant list")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _killed(root: Path, mutant: Mutant) -> bool:
    """Run the mutant's test files on a fresh copy; True when one fails."""
    work = root / "work"
    if work.exists():
        shutil.rmtree(work)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__", "mutation.py"))
    (work / "tests" / "conftest.py").write_text(CONFTEST, encoding="utf-8")
    _apply(work, mutant)
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = "import polyfract; print(polyfract.__file__)"
    where = subprocess.run([sys.executable, "-c", probe], cwd=work, env=env,
                           stdout=subprocess.PIPE, text=True).stdout.strip()
    if not Path(where).is_relative_to(work):
        raise SystemExit(f"polyfract imports from {where}, not from the copy")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-p", "no:randomly", *mutant.tests],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
    return proc.returncode == 1


def main() -> int:
    survivors = []
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="polyfract-mutation-") as tmp:
        for mutant in MUTANTS:
            t0 = time.monotonic()
            killed = _killed(Path(tmp), mutant)
            if killed == (mutant.name in EQUIVALENT):
                # a survivor, or a mutant listed as equivalent that a test kills
                survivors.append(mutant.name)
            verdict = "killed" if killed else "survived"
            secs = time.monotonic() - t0
            print(f"{verdict:8s} {secs:5.1f} s  {mutant.name}", flush=True)
            if mutant.name in EQUIVALENT:
                print(f"{'':17s}equivalent: {EQUIVALENT[mutant.name]}")
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed or survived "
          f"as equivalent in {time.monotonic() - start:.0f} s")
    for name in survivors:
        print(f"unexpected: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
