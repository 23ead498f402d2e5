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
CLASSIFY = "src/polyfract/classify.py"
EXACTNUM = "src/polyfract/exactnum.py"
LAGRANGE = "src/polyfract/lagrange.py"
MULTI = "src/polyfract/multi.py"
UNI = "src/polyfract/uni.py"
KERNELS = "tests/test_interp_kernels.py::"
BOX = "tests/test_kernels.py::TestBoxKernels"
EDGE_REJECTED = "tests/test_edges.py::TestArgumentChecks::test_rejected_argument"
UNI_FORM = "tests/test_uni.py::TestCanonicalForm::"
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
    # the interpolation plan of a table shape
    Mutant("interpolation plan's axes in the wrong order", LAGRANGE,
           "for q in reversed(domain))",
           "for q in domain)",
           (KERNELS + "TestInterpolationPlan",)),
    Mutant("cofract reduction dropped", EXACTNUM,
           'object.__setattr__(self, "value", value % r if r else value)',
           'object.__setattr__(self, "value", value)',
           (KERNELS + "TestCofract",)),
    # the block test and its plan of a table shape
    Mutant("block point by the full modulus", CLASSIFY,
           "tuple(_box_cells(domain, domain, in_parts))",
           "tuple(_box_cells(domain, domain, domain))",
           ("tests/test_classify.py::TestBlockScanDifferential",
            "tests/test_classify.py::TestBlockPlan")),
    Mutant("counterexample from the first clashing column", CLASSIFY,
           "first = j if first is None else min(first, j)",
           "first = j if first is None else first",
           ("tests/test_classify.py::TestBlockScanDifferential",
            "tests/test_classify.py::TestBlockPlan")),
    Mutant("block plan drops its last prime", CLASSIFY,
           "    return tuple(plan)\n",
           "    return tuple(plan[:-1])\n",
           ("tests/test_classify.py::TestBlockPlan",)),
    Mutant("block plan's whole-factor shortcut inverted", CLASSIFY,
           "(k, m, m == r)",
           "(k, m, m != r)",
           ("tests/test_classify.py::TestBlockPlan",)),
    # the degree search and the difference triangle
    Mutant("degree search starts one step late", CALCULUS,
           "        steps = 0\n        while x and",
           "        steps, x = 0, advance(x)\n        while x and",
           ("tests/test_calculus.py::TestMapDegree",)),
    Mutant("Taylor loop stops one step early", CALCULUS,
           "for _ in range(steps - 1):",
           "for _ in range(steps - 2):",
           ("tests/test_calculus.py::TestTaylor",)),
    Mutant("Taylor steps clipped one short of the periodic bound", CALCULUS,
           "min(d, periodic_degree_bound(domain[0], r)) + 1",
           "min(d, periodic_degree_bound(domain[0], r) - 1) + 1",
           ("tests/test_calculus.py::TestTaylor::test_degrees_beyond_the_periodic_bound",)),
    Mutant("Taylor's final annihilation check skipped", CALCULUS,
           "if not apply_diff(_DELTA, last).is_zero():",
           "if False:",
           ("tests/test_calculus.py::TestTaylor::test_insufficient_degree",)),
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
    Mutant("one-variable bundle keeps an all-zero term", MULTI,
           "for d, cs in enumerate(slots) if any(cs)])",
           "for d, cs in enumerate(slots)])",
           ("tests/test_multi.py::TestConstruction::test_from_components_matches_the_checked_constructor",)),
    Mutant("box limit doubled", MULTI,
           "if points > MAX_BOX_POINTS:",
           "if points > 2 * MAX_BOX_POINTS:",
           ("tests/test_multi.py::TestRingOps::test_box_limit_counts_product_points",)),
    # the difference step
    Mutant("differences along the wrong variable", CALCULUS,
           "x, advance, read, _ = _walker(columns[i], r, f.domain_moduli, var)",
           "x, advance, read, _ = _walker(columns[i], r, f.domain_moduli, 0)",
           (KERNELS + "TestDeltaPower::test_two_variable_table",)),
    Mutant("k = 1 returned unchanged", CALCULUS,
           "        for _ in range(k):\n            x = advance(x)\n        columns[i] = read(x)",
           "        for _ in range(k if k != 1 else 0):\n            x = advance(x)\n"
           "        columns[i] = read(x)",
           (KERNELS + "TestDeltaPower::test_two_variable_table",)),
    # the packed difference kernel
    Mutant("packed step's conditional subtract dropped", CALCULUS,
           "return v - (((v + bias) & high) >> top) * r",
           "return v",
           (KERNELS + "TestPackedStep::test_matches_list_step",)),
    Mutant("packed wrap mask one lane short", CALCULUS,
           "wrap = every((1 << span * w) - (1 << left), span * w)",
           "wrap = every((1 << (span - 1) * w) - (1 << left), span * w)",
           (KERNELS + "TestPackedStep::test_matches_list_step",)),
    Mutant("lane-0 reader reads the far lane", CALCULUS,
           "cut, first = step * block % span, lambda x: x & low",
           "cut, first = step * block % span, lambda x: x >> far",
           (KERNELS + "TestPackedStep::test_matches_list_step",)),
    Mutant("big-endian lane-0 reader reads the far lane", CALCULUS,
           "cut, first = -step * block % span, lambda x: x >> far",
           "cut, first = -step * block % span, lambda x: x & low",
           (KERNELS + "TestPackedStep::test_big_endian_lanes",)),
    Mutant("big-endian lanes rotated the little-endian way", CALCULUS,
           "cut, first = -step * block % span,",
           "cut, first = step * block % span,",
           (KERNELS + "TestPackedStep::test_big_endian_lanes",)),
    Mutant("lane width test made strict", CALCULUS,
           "if r <= 1 << (w - 1))",
           "if r < 1 << (w - 1))",
           (KERNELS + "TestPackedStep::test_lane_widths",)),
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
           "c = tuple([v % r for v in diff]) if r else tuple(diff)",
           "c = tuple(diff)",
           (KERNELS + "TestPackedStep::test_matches_list_step",)),
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
    Mutant("driver lets a sweep's exception through", CERTIFY,
           "            except Exception as exc:\n",
           "            except TooLarge as exc:\n",
           ("tests/test_cli.py::TestCommands::test_certify_reports_a_raising_sweep",)),
    Mutant("driver's case count starts at 1", CERTIFY,
           "count = 0",
           "count = 1",
           ("tests/test_cli.py::TestCommands::test_certify_quick",)),
    # the trusted witness of represent and its block tables
    Mutant("witness terms left in insertion order", CLASSIFY,
           "for e, c in sorted(terms.items())]",
           "for e, c in terms.items()]",
           ("tests/test_classify.py::TestTrustedWitness",)),
    Mutant("block value left unreduced", CLASSIFY,
           "(tuple([col[j] % m for j in cells]),)",
           "(tuple([col[j] for j in cells]),)",
           ("tests/test_classify.py::TestTrustedWitness",)),
    # identity axes of the basis-change drivers (top 0 or 1, C(X, 1) = X);
    # the planted skip reaches top 2
    Mutant("monomial expansion skips an axis of top 2", UNI,
           "        if top > 1:\n            poly = _along(poly, axis, partial(",
           "        if top > 2:\n            poly = _along(poly, axis, partial(",
           ("tests/test_kernels.py::TestAbsentVariables::test_expand_cases",)),
    Mutant("falling-basis pass skips an axis of top 2", UNI,
           "        if top > 1:\n            poly = _along(poly, axis, _to_falling)",
           "        if top > 2:\n            poly = _along(poly, axis, _to_falling)",
           ("tests/test_kernels.py::TestAbsentVariables::test_binomial_cases",)),
    # the one-pass constructors and the Fraction edge
    Mutant("trusted univariate result left untrimmed", UNI,
           "coeffs=tuple(_trim(list(coeffs)))",
           "coeffs=tuple(coeffs)",
           ("tests/test_uni.py::TestTrustedResults",)),
    Mutant("univariate constructor leaves negatives unreduced", UNI,
           "reduced = [c % r for c in map(index, coeffs)] if r",
           "reduced = [c % r if c >= 0 else c for c in map(index, coeffs)] if r",
           (UNI_FORM + "test_constructor_matches_per_coefficient_reduction",)),
    Mutant("univariate constructor reduces modulus 0", UNI,
           "for c in map(index, coeffs)] if r else list(",
           "for c in map(index, coeffs)] if r >= 0 else list(",
           (UNI_FORM + "test_constructor_matches_per_coefficient_reduction",)),
    Mutant("Fraction subclass kept as it is", UNI,
           "c if type(c) is Fraction else Fraction(c)",
           "c if isinstance(c, Fraction) else Fraction(c)",
           ("tests/test_kernels.py::TestFractionInputs",)),
    Mutant("problem file lists accept bools", "src/polyfract/cli.py",
           "set(map(type, values)) <= {int}",
           "set(map(type, values)) <= {int, bool}",
           ("tests/test_cli.py::TestProblemFiles::test_integer_lists_checked",)),
    # the exact-arithmetic helpers check their arguments
    Mutant("canonical accepts a float modulus", EXACTNUM,
           '    check_modulus(modulus)\n    value = as_integer(value, "value")\n'
           "    return value % modulus",
           '    value = as_integer(value, "value")\n    return value % modulus',
           (EDGE_REJECTED + "[canonical modulus]",)),
    Mutant("balanced lift accepts a float modulus", EXACTNUM,
           "    check_modulus(modulus)\n    return _balanced_lift(",
           "    return _balanced_lift(",
           (EDGE_REJECTED + "[balanced lift modulus]",)),
    Mutant("projection accepts a float modulus", EXACTNUM,
           "    check_modulus(r)\n    rp = x.modulus",
           "    rp = x.modulus",
           (EDGE_REJECTED + "[projection modulus]",)),
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
