"""In-memory span tracer that wraps genfrac's public functions from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded ``genfrac`` module that holds a reference to it, so calls made by
the package itself (``from .kernels import ...``) are traced too.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span records its name, its parent span, the operation it belongs to,
its start and end, and its self time: the duration minus the time its
direct child spans cover.  Functions that are not traced stay inside the
self time of the nearest traced caller; the private history-sum
primitive, for instance, counts towards whichever layer called it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

#: span name -> (module, function); counters are attached in ``COUNTERS``
TRACED = {
    "kernels.build": ("genfrac.kernels", "build_kernel_table"),
    "laplace.curve": ("genfrac.phiexp", "phi_exp_laplace_curve"),
    "phiexp.suggest": ("genfrac.phiexp", "suggest_power_count"),
    "phiexp.powers": ("genfrac.phiexp", "convolution_powers"),
    "phiexp.series_curve": ("genfrac.phiexp", "phi_exp_series_curve"),
    "solver.solve": ("genfrac.solver", "solve_to_horizon"),
    "solver.holder": ("genfrac.solver", "verify_holder"),
    "gronwall.check": ("genfrac.gronwall", "check_instance"),
    "gronwall.series_bound": ("genfrac.gronwall", "series_bound"),
    "gronwall.ml_bound": ("genfrac.gronwall", "ml_bound"),
    "gronwall.monotone_bound": ("genfrac.gronwall", "monotone_bound"),
    "gronwall.continuity": ("genfrac.gronwall", "continuity_experiment_initial"),
    "mc.sample_stable": ("genfrac.mc", "sample_stable_increment"),
    "mc.sample_tempered": ("genfrac.mc", "sample_tempered_increment"),
    "mc.inverse_values": ("genfrac.mc", "sample_inverse_values"),
    "mc.laplace_exponent": ("genfrac.mc", "laplace_exponent_check"),
}


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_powers(tr, args, kwargs, result):
    tr.count("phiexp.powers_k", result.k_max)


def _count_solve(tr, args, kwargs, result):
    _sol, states = result
    tr.count("solver.segments", len(states))
    tr.count("solver.sweeps", sum(s.iteration_count for s in states))


def _count_paths(tr, args, kwargs, result):
    tr.count("mc.paths_drawn", _arg(args, kwargs, 0, "cfg").n_paths)


COUNTERS: Dict[str, Callable] = {
    "phiexp.powers": _count_powers,
    "solver.solve": _count_solve,
    "mc.inverse_values": _count_paths,
    "mc.laplace_exponent": _count_paths,
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent, op, start, end, self]
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack = []  # (span index, time covered by children so far)
        self._op: Optional[int] = None
        self._patched = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, parent, self._op, 0.0, 0.0, 0.0])
        self._stack.append([index, 0.0])
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            _, covered = self._stack.pop()
            rec = self.spans[index]
            rec[3], rec[4], rec[5] = start, end, (end - start) - covered
            if self._stack:
                self._stack[-1][1] += end - start

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever genfrac refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "genfrac" and m]
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- summaries ----------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time summed per span name."""
        out: Dict[str, float] = defaultdict(float)
        for name, _parent, _op, _start, _end, own in self.spans:
            out[name] += own
        return out

    def inclusive_times(self, name: str, unless_inside: str = "") -> float:
        """Summed duration of ``name`` spans, skipping those whose parent is
        an ``unless_inside`` span."""
        total = 0.0
        for rec_name, parent, _op, start, end, _own in self.spans:
            if rec_name != name:
                continue
            if unless_inside and parent is not None and self.spans[parent][0] == unless_inside:
                continue
            total += end - start
        return total

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "parent", "op", "start", "end", "self"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
