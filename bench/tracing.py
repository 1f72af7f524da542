"""Span tracing of the smallball layers, installed from outside the package.

The traced run wraps the package's public functions at the names their
callers look them up by: ``mc`` imports the ``paths`` samplers by name, so
``mc.sup_samples`` and ``paths.sup_samples`` are both patched, while
``sup_bm_cdf`` reaches the theta series through ``asymptotics.sup_bm_log_cdf``.
Nothing is patched in an untraced run.

A span records its layer, the wrapped function's name, start, end, parent span
and thread id, plus a count of work computed from the call arguments.  Spans
stay in memory until the run ends.  A span opened on a thread with no open
span (a ``--workers`` batch thread) takes as parent the innermost open span of
the thread that installed the tracer, so an estimator waiting on its batch
threads is not charged for their work.  Self time is a span's duration minus
the union of its children's intervals; a layer's busy seconds are the sum of
its spans' self times over all threads, so they can exceed wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int


class Tracer:
    """Collects spans from wrapped functions; safe to call from several threads."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._local.stack = self._root_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, work=None):
        """Return fn recording one span per call.

        ``layer`` is a layer name or a function of the call arguments giving
        one; ``work`` maps the call arguments to a count of work units.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            name = layer(*args, **kwargs) if callable(layer) else layer
            units = work(*args, **kwargs) if work else 0
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx] = Span(name, fn.__qualname__, start, end, parent, threading.get_ident(), units)

        return traced

    def self_times(self) -> list[float]:
        """Per-span duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s is not None and s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(i, [])):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(s.end - s.start - covered)
        return out

    def write(self, fh, round_index: int) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        for i, s in enumerate(self.spans):
            rec = asdict(s)
            rec.update(id=i, round=round_index, start=s.start - t0, end=s.end - t0)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Work counts computed from call arguments
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _clock_paths(spec) -> int:
    """Brownian paths one clock sample needs: 2 per chaos term, 1 for a power clock."""
    q = getattr(spec, "effective_q", None)
    return 1 if q is None else 2 * len(q)


def _clock_work(spec, part, n_steps, n, rng=None):
    return n * n_steps * _clock_paths(spec)


def _sup_paths(process) -> int:
    kind = type(process).__name__
    if kind == "BrownianProcess":
        return 1
    if kind == "ChaosDirectProcess":
        return 2 * len(process.clock.effective_q)
    return _clock_paths(process.clock) + 1


def _sup_work(process, times, n_steps, n, rng=None):
    return n * n_steps * _sup_paths(process)


_SUP_LAYERS = {
    "BrownianProcess": "paths.sup_bm",
    "ChaosDirectProcess": "paths.sup_chaos",
    "TimeChangedProcess": "paths.sup_time_changed",
}


def _sup_layer(process, *args, **kwargs):
    return _SUP_LAYERS[type(process).__name__]


def _theta_work(x, *args, **kwargs):
    return int(np.size(x))


ESTIMATORS = (
    "estimate_smallball_raw",
    "estimate_smallball_conditional",
    "estimate_laplace",
    "estimate_laplace_multi",
    "probe_smallball_conditional",
)
ORACLES = (
    "oracle_smallball_chaos",
    "oracle_laplace_intbm2",
    "oracle_laplace_chaos",
    "log_oracle_laplace_intbm2",
    "log_oracle_laplace_chaos",
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the package's public functions with tracing wrappers, then restore them."""
    from smallball import acceptance, asymptotics, cli, mc, paths, schrodinger

    plan = [(cli, "main", "cli", None)]
    plan += [(mc, name, "mc.estimator", None) for name in ESTIMATORS]
    plan += [(mc, name, "mc.oracle", None) for name in ORACLES]
    plan += [(mc, "sup_bm_grid_cdf", "mc.grid_cdf", None)]
    for module in (mc, paths):
        plan.append((module, "sup_samples", _sup_layer, _sup_work))
        plan.append((module, "clock_interval_increment_samples", "paths.clock", _clock_work))
    plan.append((asymptotics, "sup_bm_log_cdf", "asymptotics.theta", _theta_work))
    plan.append((schrodinger, "lambda1", "schrodinger.lambda1", None))

    saved = [(module, name, getattr(module, name)) for module, name, _, _ in plan]
    saved_criteria = acceptance.CRITERIA
    try:
        for module, name, layer, work in plan:
            setattr(module, name, tracer.wrap(layer, getattr(module, name), work))
        acceptance.CRITERIA = [tracer.wrap("acceptance.criteria", fn) for fn in saved_criteria]
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
        acceptance.CRITERIA = saved_criteria


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("paths.clock_s", "s"),
    ("paths.sup_bm_s", "s"),
    ("paths.sup_chaos_s", "s"),
    ("paths.sup_time_changed_s", "s"),
    ("paths.calls", "count"),
    ("paths.path_steps", "count"),
    ("paths.ns_per_path_step", "ns"),
    ("mc.estimator_self_s", "s"),
    ("mc.grid_cdf_s", "s"),
    ("mc.oracle_s", "s"),
    ("asymptotics.theta_s", "s"),
    ("asymptotics.theta_values", "count"),
    ("asymptotics.ns_per_theta_value", "ns"),
    ("schrodinger.lambda1_s", "s"),
    ("acceptance.criteria_s", "s"),
    ("cli.self_s", "s"),
    ("cli.estimator_calls", "count"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Busy seconds, counts and rates per layer from one traced round.

    ``trace.overhead_s`` is left to the caller, which holds both timings.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    busy: dict[str, float] = {}
    work: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, self_s):
        busy[s.layer] = busy.get(s.layer, 0.0) + t
        work[s.layer] = work.get(s.layer, 0) + s.work
        calls[s.layer] = calls.get(s.layer, 0) + 1
    path_layers = ("paths.clock", "paths.sup_bm", "paths.sup_chaos", "paths.sup_time_changed")
    path_s = sum(busy.get(k, 0.0) for k in path_layers)
    path_steps = sum(work.get(k, 0) for k in path_layers)
    theta_values = work.get("asymptotics.theta", 0)
    cli_ids = {i for i, s in enumerate(spans) if s.layer == "cli"}
    return {
        "paths.clock_s": busy.get("paths.clock", 0.0),
        "paths.sup_bm_s": busy.get("paths.sup_bm", 0.0),
        "paths.sup_chaos_s": busy.get("paths.sup_chaos", 0.0),
        "paths.sup_time_changed_s": busy.get("paths.sup_time_changed", 0.0),
        "paths.calls": sum(calls.get(k, 0) for k in path_layers),
        "paths.path_steps": path_steps,
        "paths.ns_per_path_step": 1e9 * path_s / path_steps if path_steps else 0.0,
        "mc.estimator_self_s": busy.get("mc.estimator", 0.0),
        "mc.grid_cdf_s": busy.get("mc.grid_cdf", 0.0),
        "mc.oracle_s": busy.get("mc.oracle", 0.0),
        "asymptotics.theta_s": busy.get("asymptotics.theta", 0.0),
        "asymptotics.theta_values": theta_values,
        "asymptotics.ns_per_theta_value": (
            1e9 * busy.get("asymptotics.theta", 0.0) / theta_values if theta_values else 0.0
        ),
        "schrodinger.lambda1_s": busy.get("schrodinger.lambda1", 0.0),
        "acceptance.criteria_s": busy.get("acceptance.criteria", 0.0),
        "cli.self_s": busy.get("cli", 0.0),
        "cli.estimator_calls": sum(1 for s in spans if s.layer == "mc.estimator" and s.parent in cli_ids),
    }
