"""Span recorder that wraps ``polyfract``'s public functions from outside.

``Recorder.install`` replaces each traced function wherever callers look it
up: every module binding that holds it (so ``classify.interpolate_prime_power``
and ``cli.represent`` are wrapped along with the definitions), class
attributes such as ``UniPolyfract.__mul__``, and ``certify._CHECKS``.  A
span is (name, start, end, parent), timed on the thread's CPU clock as the
worker times items; spans stay in memory and are written when the run
ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans under one item add up to
the item's time.  The hottest kernels (``binom``, ``cofract``,
``FiniteFn`` construction) are counted, not timed.  Some counts are
computed from argument and result sizes rather than measured.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from arith import layout_primes, prime_factors

ITEM = "bench.item"


def _points_scanned(args, result) -> int:
    """Table points times primes scanned by the block test."""
    f = args[0]
    primes = layout_primes(f.domain_moduli, f.codomain_moduli)
    scanned = len(primes) if result.polyfractal else primes.index(result.counterexample.prime) + 1
    return f.size * scanned


def _interp_products(args, result) -> int:
    """Table size times the number of coefficients the cofract sum builds."""
    f = args[0]
    r = f.codomain_moduli[0]
    if r == 1:
        return 0
    p = prime_factors(r)[0]
    beta = 0
    while r % p == 0:
        r //= p
        beta += 1
    deltas = 1
    for q in f.domain_moduli:
        if q > 1:
            deltas *= q + (beta - 1) * (p - 1) * q // p
    return f.size * deltas


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.item_ns = 0
        self.item_durations: list[int] = []
        self._stack: list[int] = []
        self._child: list[int] = []
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self._child.append(0)
        self.starts.append(time.thread_time_ns())
        return idx

    def _close(self, idx: int) -> int:
        t1 = time.thread_time_ns()
        self.ends[idx] = t1
        self._stack.pop()
        dur = t1 - self.starts[idx]
        name = self.names[idx]
        self.self_ns[name] += dur - self._child.pop()
        self.total_ns[name] += dur
        self.calls[name] += 1
        if self._child:
            self._child[-1] += dur
        return dur

    def begin_item(self) -> None:
        self._item = self._open(ITEM)

    def end_item(self) -> None:
        dur = self._close(self._item)
        self.item_ns += dur
        self.item_durations.append(dur)

    def timed(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every polyfract module that binds it."""
        hits = 0
        for modname, module in list(sys.modules.items()):
            if modname != "polyfract" and not modname.startswith("polyfract."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
                    hits += 1
        if not hits:
            raise LookupError(f"{original.__qualname__} is bound nowhere")

    def _method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        self._undo.append((cls, attr, raw))

    def install(self) -> None:
        from polyfract import (
            calculus, certify, classify, cli, exactnum, groups, lagrange, multi, uni,
        )

        t = self.timed
        functions = [
            (cli.parse_problem, "cli.parse", None),
            (cli.parse_polynomial, "cli.parse", None),
            (cli.emit_polynomial, "cli.emit", None),
            (classify.is_polyfractal, "classify.is_polyfractal",
             lambda a, r: {"classify.is_polyfractal.points": _points_scanned(a, r)}),
            (classify.represent, "classify.represent", None),
            (classify.represent_univariate, "classify.represent_univariate", None),
            (classify.brute_force_polyfractal, "classify.brute_force_polyfractal", None),
            (groups.crt_map, "groups.crt_map", None),
            (lagrange.interpolate_prime_power, "lagrange.interpolate_prime_power",
             lambda a, r: {"lagrange.interpolate_prime_power.terms": len(r.terms),
                           "lagrange.interpolate_prime_power.products":
                               _interp_products(a, r)}),
            (calculus.apply_diff, "calculus.apply_diff",
             lambda a, r: {"calculus.apply_diff.cells":
                           a[1].size * len(a[1].codomain_moduli)}),
            (calculus.taylor_expand, "calculus.taylor_expand", None),
            (calculus.map_degree, "calculus.map_degree", None),
            (calculus.divisibility_check, "calculus.divisibility_check", None),
            (multi.merge_variables, "multi.merge_variables", None),
            (multi.compose, "multi.compose", None),
        ]
        for fn, name, count in functions:
            self._rebind(fn, t(name, fn, count))
        self._rebind(exactnum.binom, self.counted("exactnum.binom.calls", exactnum.binom))
        self._rebind(lagrange.cofract, self.counted("lagrange.cofract.calls", lagrange.cofract))
        self._method(calculus.FiniteFn, "__post_init__",
                     lambda f: self.counted("calculus.finitefn.builds", f))
        for cls, attr, name in (
            (multi.MultiPolyfract, "__mul__", "multi.mul"),
            (multi.MultiPolyfract, "evaluate", "multi.evaluate"),
            (multi.MultiPolyfract, "to_rational", "multi.to_rational"),
            (multi.MultiPolyfract, "from_rational", "multi.from_rational"),
            (uni.UniPolyfract, "__mul__", "uni.mul"),
            (uni.UniPolyfract, "to_rational", "uni.to_rational"),
            (uni.UniPolyfract, "from_rational", "uni.from_rational"),
        ):
            self._method(cls, attr, lambda f, name=name: t(name, f))
        checks = certify._CHECKS
        certify._CHECKS = tuple(
            t(f"certify.{check.__name__.removeprefix('check_').replace('_', '-')}",
              check, self._sweep_cases)
            for check in checks
        )
        self._undo.append((certify, "_CHECKS", checks))

    @staticmethod
    def _sweep_cases(args, result) -> dict[str, int]:
        return {f"certify.{result.name}.cases": int(result.detail.split()[0])}

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "item_ns": self.item_ns,
            "item_durations_ns": self.item_durations,
        }

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: name, start and end in ns, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for rec in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(rec) + "\n")
