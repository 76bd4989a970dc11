"""Traced run: time the calls into projheat's public functions from outside.

While a Tracer is active, each target function is replaced by a probe in
every ``projheat.*`` module namespace that binds it (callers import by name,
e.g. ``projheat.heat.gauss_legendre``) and in module-level dicts such as
``verify.SCOPES``. A probe records one span (id, name, start, end, parent id,
value) per call and keeps it in memory; leaving the Tracer puts every
original binding back. Self time is computed afterwards: a span's duration
minus the union of its direct children's intervals.

A span opened in a worker thread with no open span of its own (verify's
suite pool) takes as parent the span open in the thread that entered the
Tracer, so ``cli.main`` does not count the suites it waits for as its own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

from projheat.verify import SCOPES

# (module, function) pairs named in the benchmark's per-layer metrics.
FUNCTIONS = (
    ("quadrature", "gauss_legendre"),
    ("quadrature", "radial_mu1_rule"),
    ("kernels", "monopole_norm_sq"),
    ("kernels", "monopole_basis"),
    ("orthopoly", "jacobi"),
    ("orthopoly", "gegenbauer_values"),
    ("exactnum", "binomial_general"),
    ("exactnum", "pochhammer"),
    ("exactnum", "bernoulli_polynomial"),
    ("heat", "heat_kernel_integral"),
    ("heat", "heat_kernel_integral_hi"),
    ("heat", "heat_kernel_series"),
    ("heat", "trace_direct"),
    ("spectrum", "dimension_product_form"),
    ("heatcoeff", "heat_coeff_table"),
    ("heatcoeff", "c_coefficients"),
    ("heatcoeff", "b_coefficients"),
    ("heatcoeff", "asymptotic_trace"),
    ("cli", "main"),
)
SUITES = tuple(("verify", f"suite_{scope}") for scope in SCOPES)
TARGETS = FUNCTIONS + SUITES

# Spans whose return value is recorded: name -> value taken from the result.
RESULT_VALUES = {"heat.heat_kernel_series": lambda result: result.terms_used}


class _Probe:
    """Callable stand-in for one target function.

    It exposes the original's ``__code__`` because ``verify.run_verify``
    reads a suite's parameter names from it.
    """

    def __init__(self, name: str, fn, tracer: "Tracer") -> None:
        functools.update_wrapper(self, fn)
        self.name = name
        self.fn = fn
        self.tracer = tracer
        self.__code__ = fn.__code__
        self.value_of = RESULT_VALUES.get(name)

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else tracer._foreign_parent()
        sid = next(tracer._ids)
        stack.append(sid)
        result = None
        start = perf_counter()
        try:
            result = self.fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            value = self.value_of(result) if self.value_of and result is not None else None
            tracer.spans.append((sid, self.name, start, end, parent, value))


def _projheat_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "projheat" or name.startswith("projheat."))]


class Tracer:
    """Context manager that records spans for TARGETS while it is active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._undo: list = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _foreign_parent(self):
        root = self._root_stack
        return root[-1] if root else None

    def __enter__(self) -> "Tracer":
        self._local.stack = self._root_stack
        importlib.import_module("projheat.cli")  # imports every module that holds a target
        modules = _projheat_modules()
        for module, fname in TARGETS:
            original = getattr(importlib.import_module(f"projheat.{module}"), fname)
            probe = _Probe(f"{module}.{fname}", original, self)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, probe)
                        self._undo.append((setattr, mod, attr, original))
                    elif type(val) is dict:
                        for key, item in list(val.items()):
                            if item is original:
                                val[key] = probe
                                self._undo.append((dict.__setitem__, val, key, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            restore, where, key, original = self._undo.pop()
            restore(where, key, original)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class TraceSummary:
    """Per-name call counts, wall and self seconds, value sums, and nesting."""

    def __init__(self, spans: list[tuple]) -> None:
        children = defaultdict(list)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        self.calls: Counter = Counter()
        self.wall_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.values: Counter = Counter()
        self._names = {}
        self._parents = {}
        for sid, name, start, end, parent, value in spans:
            self.calls[name] += 1
            self.wall_s[name] += end - start
            self.self_s[name] += (end - start) - _covered(start, end, children.get(sid, []))
            if value is not None:
                self.values[name] += value
            self._names[sid] = name
            self._parents[sid] = parent

    def calls_under(self, name: str, ancestors: set[str]) -> int:
        """Calls of `name` made, at any depth, inside a call of one of `ancestors`."""
        count = 0
        for sid, sname in self._names.items():
            if sname != name:
                continue
            parent = self._parents[sid]
            while parent is not None:
                if self._names.get(parent) in ancestors:
                    count += 1
                    break
                parent = self._parents.get(parent)
        return count
