"""Span tracing around calls into groupcs, installed from outside the program.

A `Tracer` wraps functions so that each call records a span: its layer
name, the span that was open when it started (its parent), start and end
times, and an optional work count taken from the result.  `traced()`
installs wrappers on the public functions listed in `LAYERS` in every
loaded groupcs module that holds them, and on one operator instance's
`forward` and `adjoint`; leaving the block restores the originals.

A listed function that the program no longer defines is skipped, so its
layer reports zero and the run goes on.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function, layer, count of work items in the result or None).
LAYERS = (
    ("groupcs.cli", "main", "cli.main", None),
    ("groupcs.solver", "recover", "solver.recover", None),
    ("groupcs.solver", "q_update", "solver.robust_weights", None),
    ("groupcs.solver", "robust_sigma", "solver.robust_weights", None),
    ("groupcs.solver", "multiplier_update", "solver.multiplier_update", None),
    ("groupcs.solver", "z_step", "solver.z_step", None),
    ("groupcs.patches", "build_groups", "patches.build_groups", len),
    ("groupcs.patches", "aggregate_groups", "patches.aggregate_groups", None),
    ("groupcs.lowrank", "irnn_denoise_group", "lowrank.denoise_group", None),
    ("groupcs.lowrank", "svd_small", "lowrank.svd", None),
    ("groupcs.penalties", "rho", "penalties.eval", None),
    ("groupcs.penalties", "supergradient", "penalties.eval", None),
    ("groupcs.metrics", "psnr", "metrics.psnr", None),
    ("groupcs.pgm", "read_pgm", "pgm.read", None),
    ("groupcs.pgm", "write_pgm", "pgm.write", None),
)
OPERATOR_METHODS = (("forward", "measurement.forward"),
                    ("adjoint", "measurement.adjoint"))


class Tracer:
    """In-memory span recorder.

    Each span is a list [layer, parent index or -1, start, end, count].
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, layer, fn, count=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [layer, open_spans[-1] if open_spans else -1, 0.0, 0.0, 1]
            open_spans.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                open_spans.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced_call

    def summary(self):
        """Per layer: inclusive seconds, self seconds, calls and work count.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the durations
        of the root spans.
        """
        covered = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, parent, start, end, count) in enumerate(self.spans):
            row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0,
                                        "calls": 0, "count": 0})
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[i]
            row["calls"] += 1
            row["count"] += count
        return out


def _groupcs_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "groupcs" or name.startswith("groupcs."))]


@contextmanager
def traced(tracer, op=None):
    """Route the listed groupcs functions, and op's methods, through tracer."""
    restore = []
    modules = _groupcs_modules()
    for home, attr, layer, count in LAYERS:
        original = getattr(sys.modules.get(home), attr, None)
        if not callable(original):
            continue
        wrapper = tracer.wrap(layer, original, count)
        for module in modules:
            if vars(module).get(attr) is original:
                setattr(module, attr, wrapper)
                restore.append((module, attr, original))
    if op is not None:
        for attr, layer in OPERATOR_METHODS:
            method = getattr(op, attr, None)
            if callable(method):
                restore.append((op, attr, vars(op).get(attr)))
                setattr(op, attr, tracer.wrap(layer, method))
    try:
        yield tracer
    finally:
        for target, attr, original in reversed(restore):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
