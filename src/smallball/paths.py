"""Simulation of Brownian paths, random clocks, Levy areas and chaos integrals.

Every simulator is a pure function of its arguments and an RNG stream:
distinct (seed, stream_id) pairs give statistically independent streams, and
the same pair reproduces output bit-for-bit on any platform or thread layout
(numpy's PCG64 + SeedSequence guarantee).  Batch kernels consume samples in
fixed-size blocks whose layout depends only on the arguments, so batching is
an internal detail, not a source of nondeterminism.

Simulated objects:

* Brownian motion with exact Gaussian increments.
* Power-functional clocks C(t) = int_0^t rho(s)^p |B(s)|^p ds with a
  piecewise-constant weight rho, by trapezoidal quadrature on the fine grid.
* Chaos clocks C(t) = sum_j q_j^2 int_0^t (X_j^2 + Y_j^2) ds truncated at J
  terms.
* Single Levy areas and weighted chaos sums Z = sum_j q_j int X_j dY_j - Y_j dX_j
  via left-point Ito sums.
* Time-changed Brownian motion B(C(t)): independent Gaussian increments with
  variances given by the per-step clock increments.

Sup functionals are taken over the simulation grid; grid sups underestimate
continuous sups, so comparisons elsewhere in the package are always made at
matched discretization.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "RngStream",
    "PathGrid",
    "PowerClockSpec",
    "ChaosClockSpec",
    "ClockSpec",
    "BrownianProcess",
    "ChaosDirectProcess",
    "TimeChangedProcess",
    "ProcessSpec",
    "geometric_q",
    "simulate_bm",
    "simulate_levy_area",
    "simulate_chaos_direct",
    "simulate_time_changed",
    "clock_increments",
    "clock_step_increments",
    "clock_interval_increment_samples",
    "clock_terminal_samples",
    "sup_samples",
    "dump_csv",
]

# Target doubles per temporary block array; keeps batch temporaries ~16 MB.
_BLOCK_DOUBLES = 2**21


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Distinct pairs yield independent PCG64 streams; equal pairs yield identical
    output everywhere.  ``generator()`` returns a fresh numpy Generator seeded
    from the pair, so repeated calls restart the stream.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(self.seed), int(self.stream_id)])))


RngLike = Union[RngStream, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Coerce an RngStream or Generator into a Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


@dataclass(frozen=True)
class PathGrid:
    """A sampled path: N+1 values at times k*T/N, with values[0] = 0."""

    step_count: int
    horizon: float
    values: np.ndarray

    def __post_init__(self):
        if self.step_count < 2:
            raise ValueError("need at least 2 steps")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.step_count + 1,):
            raise ValueError("values must have length step_count + 1")
        if v[0] != 0.0:
            raise ValueError("paths start at 0")
        object.__setattr__(self, "values", v)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.step_count + 1)

    def running_sup(self) -> np.ndarray:
        """Running maximum of |values| along the grid."""
        return np.maximum.accumulate(np.abs(self.values))


# ---------------------------------------------------------------------------
# Clock and process specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerClockSpec:
    """Clock C(t) = int_0^t rho(s)^p |B(s)|^p ds with piecewise-constant rho.

    ``rho`` is a scalar (constant weight) or one value per partition interval.
    """

    p: float
    rho: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must satisfy p >= 1")
        if np.isscalar(self.rho):
            if self.rho < 0:
                raise ValueError("rho must be nonnegative")
        else:
            r = tuple(float(v) for v in self.rho)
            if any(v < 0 for v in r):
                raise ValueError("rho must be nonnegative")
            object.__setattr__(self, "rho", r)


@dataclass(frozen=True)
class ChaosClockSpec:
    """Chaos clock sum_{j<=J} q_j^2 int_0^t (X_j^2 + Y_j^2) ds.

    ``q`` holds the collapsed singular values (one per conjugate pair); the
    trace norm of the underlying form is 2 * sum q_j.  ``truncation`` further
    caps the number of simulated terms.
    """

    q: tuple[float, ...]
    truncation: int | None = None

    def __post_init__(self):
        q = tuple(float(v) for v in self.q)
        if len(q) == 0 or any(v <= 0 for v in q):
            raise ValueError("q must be a nonempty positive sequence")
        object.__setattr__(self, "q", q)
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("truncation must be at least 1")

    @property
    def effective_q(self) -> np.ndarray:
        q = np.asarray(self.q)
        return q[: self.truncation] if self.truncation else q

    @property
    def one_norm(self) -> float:
        return 2.0 * float(np.sum(self.effective_q))


ClockSpec = Union[PowerClockSpec, ChaosClockSpec]


def geometric_q(ratio: float, terms: int) -> tuple[float, ...]:
    """Geometric singular values q_j = ratio^j for j = 1..terms."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    return tuple(ratio ** np.arange(1, terms + 1))


@dataclass(frozen=True)
class BrownianProcess:
    """The identity case Z = B (no clock)."""


@dataclass(frozen=True)
class ChaosDirectProcess:
    """Z = sum_j q_j (int X_j dY_j - Y_j dX_j), simulated by left-point Ito sums."""

    clock: ChaosClockSpec


@dataclass(frozen=True)
class TimeChangedProcess:
    """Z = B(C(t)) for an independent clock C given by a ClockSpec."""

    clock: ClockSpec


ProcessSpec = Union[BrownianProcess, ChaosDirectProcess, TimeChangedProcess]


# ---------------------------------------------------------------------------
# Grid layout
# ---------------------------------------------------------------------------

def _time_indices(times, n_steps: int) -> np.ndarray:
    """Indices of partition times on the uniform grid over [0, t_m].

    Every t_i must land on a grid node (n_steps must be a multiple of each
    per-interval resolution); otherwise quadrature would smear the interval
    boundaries.
    """
    t = np.asarray(times, dtype=float)
    horizon = t[-1]
    idx = t / horizon * n_steps
    rounded = np.rint(idx)
    if np.any(np.abs(idx - rounded) > 1e-9 * n_steps):
        raise ValueError("every partition time must be a grid node; adjust n_steps")
    return rounded.astype(int)


def _block_rows(n_steps: int) -> int:
    return max(1, _BLOCK_DOUBLES // max(n_steps, 1))


# ---------------------------------------------------------------------------
# Batch kernels (vectorized over samples)
#
# The fill-style kernels write into caller-provided buffers so the block loops
# in the public samplers can reuse memory; on long runs the allocator churn of
# fresh multi-MB temporaries would otherwise dominate.
# ---------------------------------------------------------------------------

class _Workspace:
    """Reusable (rows, N)/(rows, N+1) buffers for one block loop."""

    def __init__(self, rows: int, n_steps: int):
        self.steps = np.empty((rows, n_steps))
        self.steps2 = np.empty((rows, n_steps))
        self.paths = np.empty((rows, n_steps + 1))
        self.paths2 = np.empty((rows, n_steps + 1))
        self.acc = np.empty((rows, n_steps + 1))


def _fill_bm(paths, buf, scale: float, rng) -> None:
    """Fill Brownian paths into ``paths`` (b, N+1) using ``buf`` (b, N) for draws."""
    rng.standard_normal(out=buf)
    buf *= scale
    paths[:, 0] = 0.0
    np.cumsum(buf, axis=1, out=paths[:, 1:])


def _abs_power(arr, p: float, out) -> None:
    """out = |arr|^p elementwise; p = 2 avoids the generic pow path."""
    if p == 2.0:
        np.multiply(arr, arr, out=out)
    elif p == 1.0:
        np.abs(arr, out=out)
    else:
        np.abs(arr, out=out)
        np.power(out, p, out=out)


def _bm_paths(b: int, n_steps: int, horizon: float, rng) -> np.ndarray:
    """(b, N+1) Brownian paths started at 0."""
    out = np.empty((b, n_steps + 1))
    _fill_bm(out, np.empty((b, n_steps)), np.sqrt(horizon / n_steps), rng)
    return out


def _fill_power_clock_steps(d_c, ws: _Workspace, spec: PowerClockSpec, t_idx, horizon: float, rng) -> None:
    """Per-step increments of a power-functional clock into d_c (b, N)."""
    b, n_steps = d_c.shape
    h = horizon / n_steps
    paths = ws.paths[:b]
    _fill_bm(paths, d_c, np.sqrt(h), rng)  # d_c is free until the trapezoid step
    _abs_power(paths, spec.p, paths)
    np.add(paths[:, :-1], paths[:, 1:], out=d_c)
    d_c *= 0.5 * h
    rho = spec.rho
    if np.isscalar(rho):
        if rho != 1.0:
            d_c *= float(rho) ** spec.p
    else:
        if len(rho) != len(t_idx):
            raise ValueError("need one rho value per partition interval")
        lo = 0
        for r, hi in zip(rho, t_idx):
            d_c[:, lo:hi] *= float(r) ** spec.p
            lo = hi


def _fill_chaos_clock_steps(d_c, ws: _Workspace, spec: ChaosClockSpec, horizon: float, rng) -> None:
    """Per-step increments of a chaos clock into d_c (b, N), streaming over j."""
    b, n_steps = d_c.shape
    h = horizon / n_steps
    sqh = np.sqrt(h)
    v = ws.acc[:b]
    v[:] = 0.0
    paths = ws.paths[:b]
    buf = ws.steps[:b]
    for qj in spec.effective_q:
        w = qj * qj
        for _ in range(2):  # X_j then Y_j
            _fill_bm(paths, buf, sqh, rng)
            np.multiply(paths, paths, out=paths)
            np.multiply(paths, w, out=paths)
            v += paths
    np.add(v[:, :-1], v[:, 1:], out=d_c)
    d_c *= 0.5 * h


def _fill_clock_steps(d_c, ws: _Workspace, spec: ClockSpec, times, rng) -> None:
    if isinstance(spec, PowerClockSpec):
        t_idx = _time_indices(times, d_c.shape[1])
        _fill_power_clock_steps(d_c, ws, spec, t_idx, float(times[-1]), rng)
    elif isinstance(spec, ChaosClockSpec):
        _fill_chaos_clock_steps(d_c, ws, spec, float(times[-1]), rng)
    else:
        raise TypeError(f"not a clock spec: {spec!r}")


def _clock_steps(spec: ClockSpec, times, n_steps: int, b: int, rng) -> np.ndarray:
    d_c = np.empty((b, n_steps))
    _fill_clock_steps(d_c, _Workspace(b, n_steps), spec, np.asarray(times, dtype=float), rng)
    return d_c


def _fill_chaos_direct_increments(d_z, ws: _Workspace, q, horizon: float, rng) -> None:
    """Increments of Z = sum_j q_j (X_j dY_j - Y_j dX_j) into d_z (b, N); left-point sums."""
    b, n_steps = d_z.shape
    sqh = np.sqrt(horizon / n_steps)
    d_z[:] = 0.0
    d_x = ws.steps[:b]
    d_y = ws.steps2[:b]
    x_left = ws.paths[:b, :n_steps]
    y_left = ws.paths2[:b, :n_steps]
    for qj in q:
        rng.standard_normal(out=d_x)
        d_x *= sqh
        rng.standard_normal(out=d_y)
        d_y *= sqh
        x_left[:, 0] = 0.0
        np.cumsum(d_x[:, :-1], axis=1, out=x_left[:, 1:])
        y_left[:, 0] = 0.0
        np.cumsum(d_y[:, :-1], axis=1, out=y_left[:, 1:])
        # d_z += q_j * (X dY - Y dX), without temporaries
        np.multiply(x_left, d_y, out=x_left)
        np.multiply(y_left, d_x, out=y_left)
        x_left -= y_left
        x_left *= qj
        d_z += x_left


def _chaos_direct_increments(q: np.ndarray, horizon: float, n_steps: int, b: int, rng) -> np.ndarray:
    """(b, N) increments of Z = sum_j q_j (X_j dY_j - Y_j dX_j), left-point sums."""
    d_z = np.empty((b, n_steps))
    _fill_chaos_direct_increments(d_z, _Workspace(b, n_steps), np.asarray(q, dtype=float), horizon, rng)
    return d_z


def sup_samples(process: ProcessSpec, times, n_steps: int, n: int, rng: RngLike) -> np.ndarray:
    """Samples of the running sup M(t_i) = sup_{[0, t_i]} |Z| at partition times.

    Returns an (n, m) array for m partition times.  All processes are sampled
    on the same uniform grid of ``n_steps`` steps over [0, t_m].
    """
    gen = as_generator(rng)
    times = np.asarray(times, dtype=float)
    t_idx = _time_indices(times, n_steps)
    horizon = float(times[-1])
    block = min(n, _block_rows(n_steps))
    ws = _Workspace(block, n_steps)
    d_path = np.empty((block, n_steps))
    z = np.empty((block, n_steps + 1))
    out = np.empty((n, len(t_idx)))
    done = 0
    while done < n:
        b = min(block, n - done)
        zb = z[:b]
        if isinstance(process, BrownianProcess):
            _fill_bm(zb, ws.steps[:b], np.sqrt(horizon / n_steps), gen)
        elif isinstance(process, ChaosDirectProcess):
            _fill_chaos_direct_increments(d_path[:b], ws, process.clock.effective_q, horizon, gen)
            zb[:, 0] = 0.0
            np.cumsum(d_path[:b], axis=1, out=zb[:, 1:])
        elif isinstance(process, TimeChangedProcess):
            _fill_clock_steps(d_path[:b], ws, process.clock, times, gen)
            xi = ws.steps2[:b]
            gen.standard_normal(out=xi)
            np.sqrt(d_path[:b], out=d_path[:b])
            np.multiply(d_path[:b], xi, out=d_path[:b])
            zb[:, 0] = 0.0
            np.cumsum(d_path[:b], axis=1, out=zb[:, 1:])
        else:
            raise TypeError(f"not a process spec: {process!r}")
        np.abs(zb, out=zb)
        np.maximum.accumulate(zb, axis=1, out=zb)
        out[done : done + b] = zb[:, t_idx]
        done += b
    return out


def clock_interval_increment_samples(spec: ClockSpec, part, n_steps: int, n: int, rng: RngLike) -> np.ndarray:
    """Samples of the per-interval clock increments Delta_i C.  Shape (n, m).

    ``part`` is a :class:`smallball.asymptotics.Partition` (or anything with a
    ``times`` attribute).  Increments are nonnegative by construction.
    """
    times = np.asarray(getattr(part, "times", part), dtype=float)
    gen = as_generator(rng)
    t_idx = _time_indices(times, n_steps)
    block = min(n, _block_rows(n_steps))
    ws = _Workspace(block, n_steps)
    d_c = np.empty((block, n_steps))
    out = np.empty((n, len(t_idx)))
    done = 0
    while done < n:
        b = min(block, n - done)
        _fill_clock_steps(d_c[:b], ws, spec, times, gen)
        c_cum = ws.paths[:b, 1:]  # free once the clock kernels return
        np.cumsum(d_c[:b], axis=1, out=c_cum)
        c_at = c_cum[:, t_idx - 1]  # t_idx >= 1 since t_1 > 0
        out[done : done + b] = np.diff(np.concatenate([np.zeros((b, 1)), c_at], axis=1), axis=1)
        done += b
    return out


def clock_terminal_samples(spec: ClockSpec, t: float, n_steps: int, n: int, rng: RngLike) -> np.ndarray:
    """Samples of C(t) for a single horizon t.  Shape (n,)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return clock_interval_increment_samples(spec, (float(t),), n_steps, n, rng)[:, 0]


# ---------------------------------------------------------------------------
# Single-path simulators (spec surface; batch kernels with b = 1)
# ---------------------------------------------------------------------------

def simulate_bm(n_steps: int, horizon: float, rng: RngLike) -> PathGrid:
    """One Brownian path on the uniform grid; increments are exact Gaussians."""
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    values = _bm_paths(1, n_steps, horizon, as_generator(rng))[0]
    return PathGrid(n_steps, horizon, values)


def simulate_levy_area(n_steps: int, horizon: float, rng: RngLike) -> PathGrid:
    """One Levy area path A(t) = int_0^t X dY - Y dX by left-point Ito sums."""
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    d_z = _chaos_direct_increments(np.array([1.0]), horizon, n_steps, 1, as_generator(rng))[0]
    values = np.concatenate([[0.0], np.cumsum(d_z)])
    return PathGrid(n_steps, horizon, values)


def simulate_chaos_direct(spec: ChaosClockSpec, n_steps: int, horizon: float, rng: RngLike) -> PathGrid:
    """One chaos integral path Z = sum_j q_j A_j with independent Levy areas."""
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    d_z = _chaos_direct_increments(spec.effective_q, horizon, n_steps, 1, as_generator(rng))[0]
    values = np.concatenate([[0.0], np.cumsum(d_z)])
    return PathGrid(n_steps, horizon, values)


def simulate_time_changed(clock_step_increments, horizon: float, rng: RngLike) -> PathGrid:
    """B evaluated along a clock: Gaussian increments with variances Delta C.

    ``clock_step_increments`` is the per-fine-step increment array of a
    simulated (or deterministic) clock; it must be nonnegative.
    """
    d_c = np.asarray(clock_step_increments, dtype=float)
    if d_c.ndim != 1 or d_c.size < 2:
        raise ValueError("need a 1-D array of at least 2 clock increments")
    if np.any(d_c < 0):
        raise ValueError("clock increments must be nonnegative")
    xi = as_generator(rng).standard_normal(d_c.size)
    values = np.concatenate([[0.0], np.cumsum(np.sqrt(d_c) * xi)])
    return PathGrid(d_c.size, horizon, values)


def clock_increments(spec: ClockSpec, part, n_steps: int, rng: RngLike) -> np.ndarray:
    """Per-interval increments Delta_i C of one simulated clock path.  Shape (m,)."""
    return clock_interval_increment_samples(spec, part, n_steps, 1, rng)[0]


def clock_step_increments(spec: ClockSpec, times, n_steps: int, rng: RngLike) -> np.ndarray:
    """Per-fine-step increments of one simulated clock path.  Shape (N,).

    This is the input format of :func:`simulate_time_changed`; ``times`` may be
    a single horizon or a partition's time tuple (power clocks with per-interval
    weights need the full partition).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    gen = as_generator(rng)
    d_c = np.empty((1, n_steps))
    _fill_clock_steps(d_c, _Workspace(1, n_steps), spec, times, gen)
    return d_c[0]


def dump_csv(grid: PathGrid, path) -> None:
    """Write a path as CSV rows (time, value) for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "value"])
        for t, v in zip(grid.times, grid.values):
            writer.writerow([repr(float(t)), repr(float(v))])
