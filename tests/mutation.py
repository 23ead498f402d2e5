"""Mutation check for the table kernels.

Copies ``src/`` and ``tests/`` to a temporary directory, applies one
mutant at a time to the copy, runs the test files that should kill it and
reports every mutant that survives.  Hypothesis tests run only their
explicit examples there, so the verdict is the same on every run.  Stdlib
only; pytest does not collect this file.  Run from anywhere:

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
CERTIFY = "src/polyfract/certify.py"
EXACTNUM = "src/polyfract/exactnum.py"
LAGRANGE = "src/polyfract/lagrange.py"
MULTI = "src/polyfract/multi.py"
UNI = "src/polyfract/uni.py"
KERNELS = "tests/test_interp_kernels.py::"
BOX = "tests/test_kernels.py::TestBoxKernels"
EDGE_REJECTED = "tests/test_edges.py::TestArgumentChecks::test_rejected_argument"
PRODUCT = ("tests/test_kernels.py::TestMultivariate::test_product_cases",
           "tests/test_kernels.py::TestMultivariate::test_dense_one_variable_matches_univariate",
           "tests/test_kernels.py::TestMultivariate::test_compose_case")

MUTANTS = (
    # whole-table evaluation and the brute-force oracle's enumeration
    Mutant("wrong C(start, i) row", UNI,
           "row.append(row[-1] * (start - i + 1) // i)",
           "row.append(row[-1] * (start - i) // i)",
           (KERNELS + "TestTableValues",)),
    Mutant("dropped last value", UNI,
           "(max(stop - start, 0),)",
           "(max(stop - start - 1, 0),)",
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
    # the interpolation weights and the periodicity recurrence
    Mutant("weight row one entry short", LAGRANGE,
           "for a, b in zip(row + (0,), (0,) + row)",
           "for a, b in zip(row, (0,) + row)",
           (KERNELS + "TestWeights::test_rows_are_the_nonzero_prefixes",
            KERNELS + "TestInterpolation")),
    Mutant("weight walk steps forward", LAGRANGE,
           "for a, b in zip(row + (0,), (0,) + row)",
           "for a, b in zip(row + (0,), row[1:] + (0, 0))",
           (KERNELS + "TestWeights::test_rows_are_the_nonzero_prefixes",)),
    Mutant("weight walk starts one row late", LAGRANGE,
           "rows = [(cofract(0, q, r, 0).value,)]",
           "rows = [(-cofract(0, q, r, 0).value % r, cofract(0, q, r, 0).value)]",
           (KERNELS + "TestWeights::test_rows_are_the_nonzero_prefixes",)),
    Mutant("information rows one short", LAGRANGE,
           "for _ in range(q - 1):",
           "for _ in range(q - 2):",
           (KERNELS + "TestWeights::test_indicators",)),
    Mutant("recurrence sign flipped", LAGRANGE,
           "steps = tuple(-c % r for c in taps[:-1])",
           "steps = tuple(c % r for c in taps[:-1])",
           (KERNELS + "TestWeights::test_indicators",)),
    Mutant("taps start at j = 2", CALCULUS,
           "for j in range(1, q + 1) if (c := canonical(binom(q, j), r))",
           "for j in range(2, q + 1) if (c := canonical(binom(q, j), r))",
           (KERNELS + "TestWeights::test_indicators",)),
    Mutant("extension one step short", LAGRANGE,
           "for e in range(q * n, len(degrees) * n):",
           "for e in range(q * n, (len(degrees) - 1) * n):",
           (KERNELS + "TestWeights::test_indicators",)),
    Mutant("cofract reduction dropped", EXACTNUM,
           'object.__setattr__(self, "value", canonical(value, self.modulus))',
           'object.__setattr__(self, "value", value)',
           (KERNELS + "TestCofract",)),
    # the block test
    Mutant("block point by the full modulus", "src/polyfract/classify.py",
           "cells = _box_cells(domain, domain, in_parts)",
           "cells = _box_cells(domain, domain, domain)",
           ("tests/test_classify.py::TestBlockScanDifferential",)),
    Mutant("counterexample from the first clashing column", "src/polyfract/classify.py",
           "first = j if first is None else min(first, j)",
           "first = j if first is None else first",
           ("tests/test_classify.py::TestBlockScanDifferential",)),
    # the degree search and the difference triangle
    Mutant("degree search starts one step late", CALCULUS,
           "columns = list(f.columns)\n    applied = 0",
           "columns = [_difference(col, r, f.domain_moduli, var, 1)\n"
           "               for col, r in zip(f.columns, f.codomain_moduli)]\n"
           "    applied = 0",
           ("tests/test_calculus.py::TestMapDegree",)),
    Mutant("Taylor loop stops one step early", CALCULUS,
           "for _ in range(steps):",
           "for _ in range(steps - 1):",
           ("tests/test_calculus.py::TestTaylor",)),
    Mutant("Taylor steps clipped one short of the periodic bound", CALCULUS,
           "min(d, _degree_cap(f.domain_moduli[0], f.codomain_moduli)) + 1",
           "min(d, _degree_cap(f.domain_moduli[0], f.codomain_moduli) - 1) + 1",
           ("tests/test_calculus.py::TestTaylor::test_degrees_beyond_the_periodic_bound",)),
    Mutant("triangle reads the wrong end of its row", UNI,
           "out += row[:width]",
           "out += row[-width:]",
           ("tests/test_uni.py::TestCoeffsFromValues",)),
    # the degree-box kernels behind the product and compose
    Mutant("empty-box guard dropped", UNI,
           "    if not all(chain(shape, sizes)):\n        return [0] * prod(sizes)\n",
           "",
           (BOX,)),
    Mutant("one axis skipped", UNI,
           "for m, n in zip(reversed(shape), reversed(sizes)):",
           "for m, n in zip(reversed(shape[1:]), reversed(sizes[1:])):",
           (BOX,)),
    Mutant("triangle stops one row short", UNI,
           "for _ in range(n):",
           "for _ in range(n - 1):",
           (BOX,)),
    Mutant("axis stepped without moving it to the front", UNI,
           "column = list(chain.from_iterable(flat[i::m] for i in range(m)))",
           "column = list(flat)",
           (BOX,)),
    Mutant("Newton step adds the neighbouring line", UNI,
           "col[:-width] = map(add, col, col[width:])",
           "col[:-width] = map(add, col, col[1:])",
           (BOX,)),
    Mutant("box reduction after each axis dropped", UNI,
           "        if modulus:\n            flat = [v % modulus for v in flat]\n",
           "",
           (BOX,)),
    Mutant("product box one short of the degree sum", MULTI,
           "tuple(x + y - 1 for x, y in zip(shape_a, shape_b))",
           "tuple(x + y - 2 for x, y in zip(shape_a, shape_b))",
           PRODUCT),
    Mutant("compose box sized by p's degree alone", MULTI,
           "tuple(top * (m - 1) + 1 for m in shape)",
           "tuple(m for m in shape)",
           PRODUCT),
    Mutant("box limit doubled", MULTI,
           "if points > MAX_BOX_POINTS:",
           "if points > 2 * MAX_BOX_POINTS:",
           ("tests/test_multi.py::TestRingOps::test_box_limit_counts_product_points",)),
    # the difference step
    Mutant("differences along the wrong variable", CALCULUS,
           "range(k):\n            columns[i] = _difference(columns[i], r, f.domain_moduli, var, 1)",
           "range(k):\n            columns[i] = _difference(columns[i], r, f.domain_moduli, 0, 1)",
           (KERNELS + "TestDeltaPower::test_two_variable_table",)),
    Mutant("k = 1 returned unchanged", CALCULUS,
           "for _ in range(k):",
           "for _ in range(k if k != 1 else 0):",
           (KERNELS + "TestDeltaPower::test_two_variable_table",)),
    # the Taylor expansion's degree box and the box-to-column index map
    Mutant("degree box clipped one short", CALCULUS,
           "min(d, _degree_cap(q, f.codomain_moduli)) + 1",
           "min(d, _degree_cap(q, f.codomain_moduli) - 1) + 1",
           (KERNELS + "TestTaylorExpandMulti::test_bounds_beyond_the_periodic_bound",)),
    Mutant("box cells wrap by the domain modulus", CALCULUS,
           "wrap = list(range(0, m * stride, stride))\n"
           "        offsets = wrap * (n // m) + wrap[:n % m]",
           "wrap = list(range(0, q * stride, stride))\n"
           "        offsets = wrap * (n // q) + wrap[:n % q]",
           (KERNELS + "TestBoxCells::test_cases",)),
    Mutant("wrong _shifted cut", CALCULUS,
           "cut = step * block % span",
           "cut = step % span",
           (KERNELS + "TestApplyDiffCases",)),
    Mutant("difference reduction dropped", CALCULUS,
           "return tuple([v % r for v in diff]) if r else tuple(diff)",
           "return tuple(diff)",
           (KERNELS + "TestApplyDiffCases",)),
    # the column format
    Mutant("constructor reduction dropped", CALCULUS,
           "tuple([v % r for v in map(index, col)]) if r else tuple(map(index, col))",
           "tuple(map(index, col))",
           (KERNELS + "TestFiniteFnRows", KERNELS + "TestColumnFormat")),
    Mutant("is_zero reads only the first column", CALCULUS,
           "return not any(map(any, self.columns))",
           "return not any(map(any, self.columns[:1]))",
           (KERNELS + "TestColumnFormat::test_is_zero_reads_every_column",)),
    Mutant("transposed values view", CALCULUS,
           "return tuple(zip(*self.columns)) or",
           "return tuple(self.columns) or",
           (KERNELS + "TestColumnFormat",)),
    Mutant("problem file digits in the wrong order", "src/polyfract/cli.py",
           "w = prod(codomain[k + 1:])",
           "w = prod(codomain[:k])",
           ("tests/test_cli.py::TestProblemFiles::test_tuple_codomain_decoding",)),
    Mutant("leftover arguments reported by the one-command parser", "src/polyfract/cli.py",
           "        if not extras:\n            return args\n",
           "        return args\n",
           ("tests/test_cli.py::TestArgumentHandling",)),
    # trusted sweep tables: certify still passes, since interpolation
    # reduces mod r, and no case count moves
    Mutant("sweep hands over its modulus as a value", CERTIFY,
           "f = _table(q, p**beta, table)",
           "f = _table(q, p**beta, [v or p**beta for v in table])",
           ("tests/test_certify.py",)),
    # the one driver of the certify sweeps
    Mutant("driver counts a failure message as a passed case and goes on", CERTIFY,
           "if failure is not None:",
           "if False:",
           ("tests/test_cli.py::TestCommands::test_certify_reports_unsound_override",)),
    Mutant("driver's case count starts at 1", CERTIFY,
           "count = 0",
           "count = 1",
           ("tests/test_cli.py::TestCommands::test_certify_quick",)),
    # a point is checked before its terms are summed
    Mutant("point checked only where a binomial fails", MULTI,
           '        x = [as_integer(xi, "coordinate") for xi in x]\n',
           "",
           (EDGE_REJECTED + "[multivariate point after a zero binomial]",
            EDGE_REJECTED + "[multivariate point of zero]")),
    # the shared argument check and division loop
    Mutant("range check lets the minimum minus one through", EXACTNUM,
           "if value < minimum:",
           "if value < minimum - 1:",
           ("tests/test_edges.py::TestArgumentChecks::test_stride_boundary",)),
    Mutant("valuation loop divides once", EXACTNUM,
           "while n % p == 0:",
           "if n % p == 0:",
           ("tests/test_exactnum.py::TestHelpers::test_prime_part",)),
)

# Mutants that change no result, so no test can kill them, with the reason.
EQUIVALENT: dict[str, str] = {}

# Loaded by the copied tests: every ``@given`` test runs only its
# ``@example`` cases, so each mutant needs a deterministic killer and a
# verdict never rests on a random draw.
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutation", database=None, phases=(Phase.explicit,))
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
