"""Simulation of Brownian paths, random clocks, Levy areas and chaos integrals.

Every simulator is a pure function of its arguments and an RNG stream:
distinct (seed, stream_id) pairs give statistically independent streams, and
the same pair gives the same stream on any platform (numpy's PCG64 +
SeedSequence guarantee) and the same output under any thread layout.  Kernels
that draw normals (Brownian paths, power clocks, the time change's xi) repeat
their bits on any platform.  Kernels that transform uniforms with numpy's
vectorized ``log`` or ``tan`` (the spectral draw's Exp(1) inversion and the
p = 2 power clock's radius-and-angle pairs, and the Box-Muller pairs behind
chaos clocks and direct chaos sums) repeat their bits for a given numpy build
and CPU: those functions may round differently elsewhere (``np.tan`` and the C
library's ``tan`` differ by one ulp on about 0.5% of arguments on one x86-64
build), but their law holds everywhere.  Each process has one increment
kernel, and every batch sampler runs it through one block loop whose layout
depends only on the arguments, so batching is not a source of
nondeterminism; a single path (``simulate_path``) is a one-row call of the
same kernels.
Times (partition times or a horizon) must be positive, finite and strictly
increasing, and must land on distinct grid nodes after node 0.

Simulated objects:

* Brownian motion with exact Gaussian increments.
* Power-functional clocks C(t) = int_0^t rho(s)^p |B(s)|^p ds with a
  piecewise-constant weight rho, by trapezoidal quadrature on the fine grid.
* Chaos clocks C(t) = sum_j q_j^2 int_0^t (X_j^2 + Y_j^2) ds truncated at J
  terms.
* Single Levy areas and weighted chaos sums Z = sum_j q_j int X_j dY_j - Y_j dX_j
  via left-point Ito sums.
* In both, each planar increment (dX_j, dY_j) is one Box-Muller pair
  (``_fill_planar_normals``): a planar Gaussian is rotation invariant, so a
  uniform radius-and-angle pair gives its law exactly, up to the 2^-53 grid
  of the uniforms, at about half the cost of two ziggurat normals.
* Time-changed Brownian motion B(C(t)): independent Gaussian increments with
  variances given by the per-step clock increments.
* The terminal value C_N(t) of a chaos clock, or of a p = 2 power clock with
  scalar rho, without a path: the N-step trapezoid clock is a Gaussian
  quadratic form with the closed-form spectrum of
  ``quadratic_clock_spectrum``, so it is drawn as a weighted sum of
  independent chi-squared atoms q_j^2 mu_k chi2_nu, from E = -log(1 - U) by
  inversion: 2E for two degrees of freedom, and for one, two modes at a time
  as the squared radius 2E and uniform angle of one planar Gaussian.  The
  spectrum mu_k decays like k^-2, so the draw samples only the atoms above
  one unit roundoff of the third cumulant, a few hundred (656 of 16384 modes
  of the p = 2 clock at N = 2^14), and carries the rest by one gamma variate
  of their mean and variance per sample (``_spectral_split``).  It is equal
  in law to the path quadrature up to that 2^-53 share of kappa_3 and the
  2^-53 grid of U, but not pathwise coupled to it.  It is drawn in
  replicates, as randomized quasi-Monte Carlo (``_terminal_law_sampler``,
  behind the estimators in ``mc``): the uniforms of the 32 largest atoms
  come from independently scrambled Sobol nets, one per replicate
  (``_Nets``), the rest from PCG64.  A one-point net is one uniform random
  point, so n one-point replicates are n i.i.d. draws.

The chaos path samplers (clock paths and direct chaos sums) draw no path for
the smallest q_j whose q_j^4 sum to at most 2^-53 (sum_j q_j^2)^2, one unit
roundoff (``_sampled_q``; 36 of q_j = 2^-j at J = 50, which keeps 14).  They
carry their part S = sum_skip q_j^2 by its first two moments instead, the
Gaussian treatment of a truncated Levy-area tail (Kloeden, Platen & Wright,
Stoch. Anal. Appl. 10, 1992; Wiktorsson, Ann. Appl. Probab. 11, 2001),
applied to the chaos index j: a clock gets the skipped terms' mean, and a
direct chaos sum an independent Gaussian increment of the skipped terms'
variance.  The skipped part of Z is independent of the rest, with mean zero
and no third cumulant, and the skipped part of a clock has variance of order
sum_skip q_j^4, so every sampled law moves by
O(sum_skip q_j^4 / (sum_j q_j^2)^2) = O(2^-53) relative.  The exact spectrum,
``effective_q`` and ``one_norm`` keep every term.

Sup functionals are taken over the simulation grid; grid sups underestimate
continuous sups, so comparisons elsewhere in the package are always made at
matched discretization.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NumericError

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
    "clock_interval_increment_samples",
    "clock_terminal_samples",
    "quadratic_clock_spectrum",
    "sup_samples",
    "simulate_path",
    "dump_csv",
]

# Target doubles per (rows, N) block buffer: 1 MB, half of a 2 MB L2 cache.
# 256-row batches at N = 512 still fit one block.
_BLOCK_DOUBLES = 2**17

# Unit roundoff of a double: the share of the leading moment that the skipped
# chaos terms (fourth order) or spectral atoms (third order) may hold.
_UNIT_ROUNDOFF = 2.0**-53

# Sobol direction numbers of Joe & Kuo (SIAM J. Sci. Comput. 30, 2008; the
# new-joe-kuo-6.21201 set) for dimensions 2 to 32: the primitive polynomial
# as bits, leading and constant terms included, and the initial m_1..m_s.
# Dimension 1 is van der Corput's (every m_k = 1).
_SOBOL_TABLE = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
)
# Net coordinates of the spectral draw: its 32 largest chaos atoms, or the
# radius and angle of the 16 largest p = 2 pairs.  Net digits: the 53 of a
# double's uniform grid.
_NET_DIMS = 1 + len(_SOBOL_TABLE)
_NET_DIGITS = 53


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
    ``p`` and every rho must be finite.
    """

    p: float
    rho: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        if not 1 <= self.p < np.inf:
            raise ValueError("p must be finite and satisfy p >= 1")
        rho = self.rho if np.isscalar(self.rho) else tuple(float(v) for v in self.rho)
        if not all(0 <= v < np.inf for v in np.atleast_1d(rho)):
            raise ValueError("rho must be nonnegative and finite")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class ChaosClockSpec:
    """Chaos clock sum_{j<=J} q_j^2 int_0^t (X_j^2 + Y_j^2) ds.

    ``q`` holds the collapsed singular values (one per conjugate pair); the
    trace norm of the underlying form is 2 * sum q_j.  The path samplers draw
    no path for the smallest q_j whose q_j^4 sum to at most
    2^-53 (sum_j q_j^2)^2 and carry those terms by their mean (clocks) or by
    a Gaussian of their variance (direct chaos sums), which moves no sampled
    law beyond O(2^-53) relative.  The spectral draw of C_N(t) prunes its
    atoms q_j^2 mu_k jointly in (j, k) instead and carries the skipped ones
    by a gamma variate (``_terminal_law_sampler``).  ``effective_q``,
    ``one_norm`` and the exact spectrum keep every term.
    Every q_j must be finite, and so must sum_j q_j^2.
    """

    q: tuple[float, ...]

    def __post_init__(self):
        q = tuple(float(v) for v in self.q)
        if len(q) == 0 or not all(0 < v < np.inf for v in q):
            raise ValueError("q must be a nonempty sequence of positive finite values")
        if sum(v * v for v in q) == np.inf:
            raise ValueError("sum of q_j^2 overflows")
        object.__setattr__(self, "q", q)

    @property
    def effective_q(self) -> np.ndarray:
        return np.asarray(self.q)

    @property
    def one_norm(self) -> float:
        return 2.0 * float(np.sum(self.effective_q))


def _sampled_q(spec: ChaosClockSpec) -> tuple[np.ndarray, float]:
    """(kept, S): the terms of ``spec.effective_q`` the chaos path samplers draw, in order, and S = sum_skip q_j^2.

    The smallest q_j whose q_j^4 sum to at most 2^-53 (sum_j q_j^2)^2 are
    skipped; for a decreasing q the kept terms are a prefix (14 of
    q_j = 2^-j, J = 50; 8 of q_j = 0.3^j, J = 80).  The samplers carry the
    skipped terms by their first two moments, which are linear in S: the mean
    2 t S of their part of v(t) = sum_j q_j^2 (X_j^2 + Y_j^2), and the variance
    2 t S dt of their part of dZ.  What they leave out is of fourth order: the
    variance 4 t^2 sum_skip q_j^4 of the skipped part of v(t), against
    (E v(t))^2 = 4 t^2 (sum_j q_j^2)^2, and the fourth cumulant of the skipped
    part of Z (its third is 0), so the law of every sampled clock, path and
    sup moves by O(2^-53) relative.  S is 0.0 exactly when nothing is skipped.
    The spectral draw of C_N(t) does not use this rule; it prunes its atoms
    jointly in (j, k) (``_spectral_split``).
    """
    q = spec.effective_q
    w = q * q
    order = np.argsort(w, kind="stable")
    share = w[order] / w.sum()  # scale-free: (q_j^2)^2 would overflow or underflow before the ratio does
    skip = order[np.cumsum(share * share) <= _UNIT_ROUNDOFF]
    return np.delete(q, skip), float(np.sum(w[skip]))


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

    The one check of every time grid: the times must be positive, finite and
    strictly increasing, and each must land on a grid node (n_steps a multiple
    of every per-interval resolution), or quadrature would smear the interval
    boundaries.  The nodes must be distinct and after node 0, so that every
    interval holds at least one step (a sup reads each as a nonempty segment).
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0 or not (t[0] > 0 and np.all(np.diff(t) > 0) and np.isfinite(t[-1])):
        raise ValueError("times must be positive, finite and strictly increasing")
    idx = t / t[-1] * n_steps
    rounded = np.rint(idx)
    if np.any(np.abs(idx - rounded) > 1e-9 * n_steps):
        raise ValueError("every partition time must be a grid node; adjust n_steps")
    if rounded[0] < 1 or np.any(np.diff(rounded) < 1):
        raise ValueError("partition times must fall on distinct grid nodes after 0; adjust n_steps")
    return rounded.astype(int)


# ---------------------------------------------------------------------------
# Batch kernels (vectorized over samples)
#
# The fill-style kernels write a block's output into the (b, N) buffer the
# block loop lends them and allocate their own temporaries once per block: a
# chaos clock a stacked (2b, N) pair buffer and a (b, N) scratch, a direct
# chaos sum two stacked pair buffers, a power clock its (b, N+1) path, a time
# change its (b, N) xi.  A call's working set is therefore a few block
# buffers, whatever its row count or number of chaos terms.
#
# Bits and block layout: kernels that fill a block with one draw (Brownian
# paths, power clocks, the spectral draw's atoms outside its nets) consume the
# stream row-major, so their output does not depend on the block size.
# Kernels that fill a block with several draws (chaos clocks, direct chaos
# sums, and every time change: clock, then xi) consume it block by block: a
# batch that spans several blocks splits the same i.i.d. stream differently
# from one that fits one block, equal in law but not in bits.  The spectral
# draw takes every net's scramble after every row's atoms outside the nets,
# and its gamma carry last.
# ---------------------------------------------------------------------------

def _cumulate(paths, d) -> None:
    """Paths (b, N+1) started at 0 from their per-step increments d (b, N)."""
    paths[:, 0] = 0.0
    np.cumsum(d, axis=1, out=paths[:, 1:])


def _fill_planar_normals(gen, xy, scratch, variance: float) -> None:
    """Fill xy (2b, N) with i.i.d. N(0, variance) values; xy[i, k] and xy[b + i, k] form one pair.

    Rows [0, b) and [b, 2b) hold the two coordinates (X, Y) = R (cos theta,
    sin theta) of a pair, drawn from one (2b, N) block of uniforms: the first
    half gives the radius R = sqrt(-2 variance log(1 - U)), the second the
    half-angle tangent t = tan(pi (U - 1/2)), and cos theta = (1 - t^2) / (1 + t^2),
    sin theta = 2t / (1 + t^2) (Box & Muller, Ann. Math. Stat. 1958).  A
    planar Gaussian is rotation invariant, so this is its law exactly, up to
    the 2^-53 grid of U: 1 - U is exact and positive, R <= sqrt(106 ln 2)
    times the standard deviation (a cut tail of probability 2^-53), and
    |t| <= 1.7e16 stays finite.  ``scratch`` is a (b, N) buffer it overwrites.
    """
    gen.random(out=xy)
    b = len(xy) // 2
    r, t = xy[:b], xy[b:]
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0 * variance
    np.sqrt(r, out=r)
    t -= 0.5
    t *= np.pi
    np.tan(t, out=t)
    np.multiply(t, t, out=scratch)
    scratch += 1.0  # 1 + t^2
    r /= scratch
    np.subtract(2.0, scratch, out=scratch)  # 1 - t^2
    t *= r
    t += t  # Y = 2 t R / (1 + t^2)
    r *= scratch  # X = (1 - t^2) R / (1 + t^2)


def _abs_power(arr, p: float, out) -> None:
    """out = |arr|^p elementwise; p = 2 avoids the generic pow path."""
    if p == 2.0:
        np.multiply(arr, arr, out=out)
    elif p == 1.0:
        np.abs(arr, out=out)
    else:
        np.abs(arr, out=out)
        np.power(out, p, out=out)


def _fill_power_clock_steps(d_c, spec: PowerClockSpec, t_idx, horizon: float, rng) -> None:
    """Per-step increments of a power-functional clock into d_c (b, N)."""
    b, n_steps = d_c.shape
    h = horizon / n_steps
    paths = np.empty((b, n_steps + 1))
    rng.standard_normal(out=d_c)  # Brownian increments, until the trapezoid step
    d_c *= np.sqrt(h)
    _cumulate(paths, d_c)
    _abs_power(paths, spec.p, paths)
    np.add(paths[:, :-1], paths[:, 1:], out=d_c)
    d_c *= 0.5 * h
    rho = spec.rho
    # np.float64 powers overflow to inf (which _require_finite reports) where
    # float ** float raises; both call the C library's pow, so the bits agree
    if np.isscalar(rho):
        if rho != 1.0:
            d_c *= np.float64(rho) ** spec.p
    else:
        if len(rho) != len(t_idx):
            raise ValueError("need one rho value per partition interval")
        lo = 0
        for r, hi in zip(rho, t_idx):
            d_c[:, lo:hi] *= np.float64(r) ** spec.p
            lo = hi


def _fill_chaos_clock_steps(d_c, spec: ChaosClockSpec, horizon: float, rng) -> None:
    """Per-step increments of a chaos clock into d_c (b, N), streaming over j.

    d_c first accumulates v = sum_j q_j^2 (X_j^2 + Y_j^2) at nodes 1..N (v is
    0 at node 0), starting from the skipped terms' mean 2 k h S at node k;
    the trapezoid rule then turns v into per-step increments.  X_j takes rows
    [0, b) of one (2b, N) buffer and Y_j rows [b, 2b), so one call draws,
    cumulates or squares both.
    """
    b, n_steps = d_c.shape
    h = horizon / n_steps
    xy, scratch = np.empty((2 * b, n_steps)), np.empty((b, n_steps))
    q, skipped = _sampled_q(spec)
    d_c[:] = (2.0 * h * skipped) * np.arange(1, n_steps + 1)
    for qj in q:
        _fill_planar_normals(rng, xy, scratch, h * qj**2)  # q_j dX_j, then q_j dY_j
        np.cumsum(xy, axis=1, out=xy)
        np.multiply(xy, xy, out=xy)
        d_c += xy[:b]
        d_c += xy[b:]
    scratch[:, 0] = d_c[:, 0]
    np.add(d_c[:, :-1], d_c[:, 1:], out=scratch[:, 1:])
    np.multiply(scratch, 0.5 * h, out=d_c)


def _fill_clock_steps(d_c, spec: ClockSpec, times, rng) -> None:
    if isinstance(spec, PowerClockSpec):
        t_idx = _time_indices(times, d_c.shape[1])
        _fill_power_clock_steps(d_c, spec, t_idx, float(times[-1]), rng)
    elif isinstance(spec, ChaosClockSpec):
        _fill_chaos_clock_steps(d_c, spec, float(times[-1]), rng)
    else:
        raise TypeError(f"not a clock spec: {spec!r}")


def _fill_chaos_direct_increments(d_z, spec: ChaosClockSpec, horizon: float, rng) -> None:
    """Increments of Z = sum_j q_j (X_j dY_j - Y_j dX_j) into d_z (b, N); left-point sums.

    dX_j and dY_j take rows [0, b) and [b, 2b) of one (2b, N) buffer, and X_j
    and Y_j at the left nodes the same rows of another.  The skipped terms'
    increment at step i (left node i) has variance 2 i h^2 S and is
    uncorrelated with every other step's and with the kept terms, so it is
    drawn as one independent N(0, 2 i h^2 S), only when S > 0.
    """
    b, n_steps = d_z.shape
    h = horizon / n_steps
    d_z[:] = 0.0
    d_xy, left = np.empty((2 * b, n_steps)), np.empty((2 * b, n_steps))
    d_x, d_y, x_left, y_left = d_xy[:b], d_xy[b:], left[:b], left[b:]
    q, skipped = _sampled_q(spec)
    for qj in q:
        # sqrt(q_j) dX_j, then sqrt(q_j) dY_j: their area term carries the factor q_j;
        # x_left is the pair draw's scratch until the cumsum fills left
        _fill_planar_normals(rng, d_xy, x_left, h * qj)
        left[:, 0] = 0.0
        np.cumsum(d_xy[:, :-1], axis=1, out=left[:, 1:])
        # d_z += X dY - Y dX, without temporaries
        np.multiply(x_left, d_y, out=x_left)
        np.multiply(y_left, d_x, out=y_left)
        x_left -= y_left
        d_z += x_left
    if skipped:
        rng.standard_normal(out=x_left)
        x_left *= h * np.sqrt(2.0 * skipped * np.arange(n_steps))
        d_z += x_left


def _fill_increments(d, process: ProcessSpec, times, rng) -> None:
    """Per-step increments of ``process`` into d (b, N); the one dispatch on process kind."""
    horizon = float(times[-1])
    if isinstance(process, BrownianProcess):
        rng.standard_normal(out=d)
        d *= np.sqrt(horizon / d.shape[1])
    elif isinstance(process, ChaosDirectProcess):
        _fill_chaos_direct_increments(d, process.clock, horizon, rng)
    elif isinstance(process, TimeChangedProcess):
        _fill_clock_steps(d, process.clock, times, rng)
        xi = rng.standard_normal(d.shape)
        np.sqrt(d, out=d)
        np.multiply(d, xi, out=d)
    else:
        raise TypeError(f"not a process spec: {process!r}")


def _require_finite(values: np.ndarray) -> None:
    """Raise ``NumericError`` unless every sample is finite.

    A power clock whose |B|^p overflows (a large p over a long horizon) turns
    into inf, and B(C) into inf or nan; without this check they would read as
    a sup of nan, zero hits or a Laplace value of 0.  The kernels run under
    ``np.errstate(over="ignore", invalid="ignore")``: every overflow or
    invalid operation in them leaves a sample that is not finite, and this
    check reports it.
    """
    if not np.isfinite(values).all():
        raise NumericError("a simulated sample is not finite (a clock overflowed double precision)")


def _block_loop(n: int, width: int, m: int, body) -> np.ndarray:
    """(n, m) array filled by ``body(d)`` one row block at a time.

    ``d`` is the block's (b, width) buffer, which ``body`` may overwrite: the
    per-step increments of the path samplers (width N), or the uniforms of
    the spectral draw.  ``body`` allocates any other temporaries itself and
    returns the block's (b, m) output rows, which must be finite.  The block
    layout depends only on (n, width).
    """
    block = max(1, min(n, _BLOCK_DOUBLES // max(width, 1)))
    d = np.empty((block, width))
    out = np.empty((n, m))
    for lo in range(0, n, block):
        rows = out[lo : lo + block]
        with np.errstate(over="ignore", invalid="ignore"):
            rows[:] = body(d[: len(rows)])
        _require_finite(rows)
    return out


def sup_samples(process: ProcessSpec, times, n_steps: int, n: int, rng: RngLike) -> np.ndarray:
    """Samples of the running sup M(t_i) = sup_{[0, t_i]} |Z| at partition times.

    Returns an (n, m) array for m partition times.  All processes are sampled
    on the same uniform grid of ``n_steps`` steps over [0, t_m].  |Z| at nodes
    1..N is cumulated in place; each partition time's sup is the running max
    over the maxima of the segments between partition nodes (Z(0) = 0 never
    raises a sup).
    """
    gen = as_generator(rng)
    times = np.asarray(times, dtype=float)
    starts = np.concatenate(([0], _time_indices(times, n_steps)[:-1]))

    def block(d):
        _fill_increments(d, process, times, gen)
        np.cumsum(d, axis=1, out=d)  # column k holds Z at node k + 1
        np.abs(d, out=d)
        sup = np.maximum.reduceat(d, starts, axis=1)
        return np.maximum.accumulate(sup, axis=1, out=sup)

    return _block_loop(n, n_steps, len(starts), block)


def clock_interval_increment_samples(spec: ClockSpec, part, n_steps: int, n: int, rng: RngLike) -> np.ndarray:
    """Samples of the per-interval clock increments Delta_i C.  Shape (n, m).

    ``part`` is a :class:`smallball.asymptotics.Partition` (or anything with a
    ``times`` attribute).  Increments are nonnegative by construction.
    """
    times = np.asarray(getattr(part, "times", part), dtype=float)
    gen = as_generator(rng)
    t_idx = _time_indices(times, n_steps)

    def block(d):
        _fill_clock_steps(d, spec, times, gen)
        np.cumsum(d, axis=1, out=d)  # column k holds C at node k + 1
        return np.diff(d[:, t_idx - 1], axis=1, prepend=0.0)

    return _block_loop(n, n_steps, len(t_idx), block)


def clock_terminal_samples(spec: ClockSpec, t: float, n_steps: int, n: int, rng: RngLike) -> np.ndarray:
    """Samples of C(t) for a single horizon t.  Shape (n,)."""
    return clock_interval_increment_samples(spec, (float(t),), n_steps, n, rng)[:, 0]


# ---------------------------------------------------------------------------
# Exact spectrum of the quadratic trapezoid clocks
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def quadratic_clock_spectrum(spec: ClockSpec, t: float, n_steps: int) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(w, mu, nu) with C_N(t) = sum_j w_j sum_k mu_k chi2_nu in law, or None.

    C_N(t) is the trapezoid clock on n_steps uniform steps over [0, t].  The
    trapezoid integral of one squared Brownian path is sum_k mu_k xi_k^2, where
    mu_k = h^2 / (4 sin^2((2k - 1) pi / (4N))), h = t/N, k = 1..N, are the
    eigenvalues of the covariance form h^2 (N - max(l, m) + 1/2).  A chaos
    clock has w_j = q_j^2 and nu = 2 (X_j and Y_j); a p = 2 power clock with
    scalar rho has w = (rho^2,) and nu = 1.  Other clocks are not such forms
    and give None.  The spectrum is a pure function of its arguments, so it
    is kept for the last 32 of them (an estimator and the exact law of one
    call, such as ``laplace``'s, read the same one) and its arrays are
    read-only.
    """
    if isinstance(spec, ChaosClockSpec):
        w, nu = spec.effective_q**2, 2
    elif isinstance(spec, PowerClockSpec) and spec.p == 2.0 and np.isscalar(spec.rho):
        # rho^2 overflows to inf, where a float square would raise; the draw then reports it
        with np.errstate(over="ignore"):
            w, nu = np.array([np.float64(spec.rho) ** 2]), 1
    else:
        return None
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    _time_indices((t,), n_steps)
    h = float(t) / n_steps
    s = np.sin((2 * np.arange(1, n_steps + 1) - 1) * np.pi / (4 * n_steps))
    mu = h * h / (4.0 * s * s)
    w.setflags(write=False)
    mu.setflags(write=False)
    return w, mu, nu


def _spectral_split(w: np.ndarray, mu: np.ndarray, nu: int) -> tuple[np.ndarray, float, float]:
    """(kept, shape, scale): the atoms of C = sum_{j,k} w_j mu_k chi2_nu the spectral draw samples, and its carry.

    Atom (j, k) is c_jk chi2_nu with c_jk = w_j mu_k (the form of
    :func:`quadratic_clock_spectrum`).  The smallest atoms whose third
    cumulants 8 nu c_jk^3 sum to at most 2^-53 (sum nu c_jk)^3, one unit
    roundoff of the cubed mean, are skipped.  mu decreases in k, so term j
    keeps its first ``kept[j]`` modes: 656 of the 16384 of the p = 2 clock at
    N = 2^14, and 978 of the 25600 atoms of q_j = 2^-j, J = 50, at N = 512.
    The rule reads shares s_jk = c_jk / sum c, products of the shares of w
    and of mu, so it does not see the scale of w or t, and nothing overflows
    or underflows.  Atoms with s < tau hold at most tau^2 sum s = tau^2 of
    the cubed shares, so every atom below tau = sqrt(budget) goes and only
    those above it, a prefix of each term's monotone modes, are sorted.

    The skipped part has mean nu sum c and variance 2 nu sum c^2, from suffix
    sums over each term's skipped modes.  The draw carries it by the gamma
    variate scale * Gamma(shape) with the same two moments (Satterthwaite,
    Biometrics Bull. 2, 1946), which keeps C >= 0: shape = nu (sum s)^2 /
    (2 sum s^2) and scale = 2 (sum s^2 / sum s) sum_jk c_jk.  The gamma's
    third cumulant 8 nu (sum c^2)^2 / sum c lies in [0, 8 nu sum c^3] by
    Cauchy-Schwarz, so what the draw leaves out is at most the skipped
    kappa_3.  Nothing skipped gives shape = scale = 0, and a zero weight
    (rho = 0) gives scale 0: then no gamma is drawn.
    """
    total = w.sum()
    a = w / total if 0 < total < np.inf else np.full(w.size, 1.0 / w.size)
    b = mu / mu.sum()
    budget = _UNIT_ROUNDOFF * nu * nu / 8.0  # 8 nu sum s^3 <= 2^-53 (nu sum s)^3, sum s = 1
    # last[r - 1, i]: sum of b^r over the last i modes, summed from the smallest
    r = b[::-1]
    last = np.zeros((3, b.size + 1))
    np.cumsum([r, r * r, r * r * r], axis=1, out=last[:, 1:])
    # atoms with s < tau hold at most tau^2 sum s = tau^2 of the cubed shares, so all below tau = sqrt(budget) go
    with np.errstate(divide="ignore"):  # a term whose share underflows has no candidate
        cand = np.searchsorted(-b, -np.sqrt(budget) / a, side="right")
    rows = np.repeat(np.arange(w.size), cand)
    s = a[rows] * b[np.arange(rows.size) - np.repeat(np.cumsum(cand) - cand, cand)]
    order = np.argsort(s, kind="stable")
    s = s[order]
    skipped = np.count_nonzero(np.dot(a**3, last[2, b.size - cand]) + np.cumsum(s * s * s) <= budget)
    kept = np.bincount(rows[order[skipped:]], minlength=w.size)
    s1, s2 = np.dot(a, last[0, b.size - kept]), np.dot(a * a, last[1, b.size - kept])
    if not s2 > 0:
        return kept, 0.0, 0.0
    return kept, nu * s1 * s1 / (2.0 * s2), 2.0 * s2 / s1 * (total * mu.sum())


@functools.lru_cache(maxsize=None)
def _sobol_directions(bits: int) -> np.ndarray:
    """(32, bits) uint64 Sobol direction numbers v_ik = m_ik 2^(53 - k), k = 1..bits.

    Row i is dimension i + 1.  m_ik follows the recurrence of Bratley & Fox
    (ACM TOMS 14, 1988) from ``_SOBOL_TABLE``, so point n of the
    unscrambled net is 2^-53 XOR_{k: bit k-1 of n set} v_ik.
    """
    rows = [[1] * bits]
    for poly, init in _SOBOL_TABLE:
        s = poly.bit_length() - 1
        m = list(init[:bits])
        for k in range(s, bits):
            new = m[k - s] ^ (m[k - s] << s)
            for lag in range(1, s):
                if poly >> (s - lag) & 1:
                    new ^= m[k - lag] << lag
            m.append(new)
        rows.append(m)
    v = np.array(rows, dtype=np.uint64).reshape(_NET_DIMS, bits)
    v <<= (_NET_DIGITS - 1 - np.arange(bits)).astype(np.uint64)
    v.setflags(write=False)
    return v


@functools.lru_cache(maxsize=64)
def _net_layout(sizes: tuple[int, ...]):
    """Everything about nets of the given sizes that does not depend on the scrambles.

    (bits, split, low, high, below, diag, digits): each net's points have
    ``bits``-bit indices, split at s = ``split`` = ceil(bits / 2).  Row i is
    point j of replicate r, whose Gray-code index g = j XOR (j >> 1) reads
    entry low[i] = r 2^s + (g mod 2^s) of the flattened (replicate, 2^s) rows
    of ``_Nets.low`` and entry high[i] = r 2^(bits - s) + (g >> s) of
    ``_Nets.high``.  Column r of a scramble is diag[r] = 2^-(r+1) (digit r)
    plus random digits masked by below[r], the less significant ones, and
    digits[r, 0, k] is digit r of v_k.
    """
    sizes = np.asarray(sizes)
    bits = int(sizes.max() - 1).bit_length()
    split = -(-bits // 2)
    rep = np.repeat(np.arange(sizes.size), sizes)
    j = np.arange(rep.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    gray = j ^ (j >> 1)
    pos = (_NET_DIGITS - 1 - np.arange(bits)).astype(np.uint64)[:, None, None, None]  # bit of digit r
    one = np.uint64(1)
    digits = (_sobol_directions(bits).T[None] >> pos) & one  # (digit, 1, k, dim)
    low, high = rep << split | gray & (1 << split) - 1, rep << bits - split | gray >> split
    return bits, split, low, high, (one << pos) - one, one << pos, digits


class _Nets:
    """Scrambled Sobol nets of the given sizes over ``dims`` coordinates, one per replicate, read in row blocks.

    Replicate r holds the first sizes[r] points of its own net, in Gray-code
    order (Antonov & Saleev, USSR Comput. Math. Math. Phys. 19, 1979): point
    j is e XOR G(g), g = j XOR (j >> 1), where G(g) is the XOR of the
    directions v_k over the set bits k of g.  Every coordinate of every net
    gets its own linear matrix scramble (Matousek, J. Complexity 14, 1998):
    digit r of the scrambled value is digit r plus a random GF(2) sum of the
    more significant digits, a lower-triangular L with unit diagonal, which
    keeps the net's (t, m, s) structure.  L is linear, so it maps the
    directions once.  Then the random digital shift e, XOR'd into every
    point, makes each point uniform on the 2^-53 grid, so a net's mean is
    unbiased and nets with independent scrambles are independent.  All
    scrambles are drawn from ``gen`` in one call when the nets are made.

    XOR is exact and associative, so a point is the XOR of two table
    entries, split at s = ceil(bits / 2) digit positions: ``low`` holds
    e XOR G(g) for the 2^s values of g below 2^s, ``high`` holds G(g) for
    the 2^(bits - s) multiples of 2^s, per replicate, and point j reads
    low[g mod 2^s] XOR high[g >> s].  Every row depends only on its own
    index, whichever block it is read in; a one-point net is low[0], its
    shift.  A 4096-point net of 32 coordinates holds 32 KB of tables.
    """

    def __init__(self, sizes, dims: int, gen: np.random.Generator):
        bits, split, self.low_row, self.high_row, below, diag, digits = _net_layout(tuple(map(int, sizes)))
        # v_ik has digits 1..k only, so L v needs the first ``bits`` columns of L:
        # column r is 2^-(r+1) plus random less significant digits; e comes last
        draws = gen.integers(0, 2**_NET_DIGITS, size=(bits + 1, len(sizes), 1, dims), dtype=np.uint64)
        cols, e = draws[:bits], draws[bits]
        cols &= below
        cols |= diag
        # (replicate, k, dim): L v_ik, the XOR of column r over the digits r of v_ik that are set
        v = np.bitwise_xor.reduce(cols * digits[..., :dims], axis=0)
        # each direction doubles its half's table: the new entries are the old ones XOR L v_k
        tables = [e, np.zeros_like(e)]
        for k in range(bits):
            t = tables[k >= split]
            tables[k >= split] = np.concatenate([t, t ^ v[:, k : k + 1]], axis=1)
        self.low, self.high = (t.reshape(-1, dims) for t in tables)
        self.pos = 0

    def take(self, out: np.ndarray) -> np.ndarray:
        """Fill out (b, dims) with the next b points, uniforms on the 2^-53 grid of [0, 1)."""
        lo, hi = self.pos, self.pos + len(out)
        self.pos = hi
        x = np.take(self.low, self.low_row[lo:hi], axis=0, out=out.view(np.uint64))  # into out: the high gather is the one temporary
        x ^= self.high[self.high_row[lo:hi]]
        return np.multiply(x, 2.0**-_NET_DIGITS, out=out)


def _pair_sum(r: np.ndarray, a: np.ndarray, base: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Row sums of log(1 - U) (base + slope s), s = 1 / (1 + tan^2(pi U')), U in r and U' in a (both overwritten)."""
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    a *= np.pi
    np.tan(a, out=a)
    np.multiply(a, a, out=a)
    a += 1.0
    np.divide(slope, a, out=a)  # slope s
    a += base
    r *= a
    return r.sum(axis=1)


def _log_sum(u: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Row sums of coef log(1 - U), U in u (overwritten)."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u *= coef
    return u.sum(axis=1)  # not a BLAS gemv: its threads would contend with the batch workers


@functools.lru_cache(maxsize=16)
def _terminal_law_sampler(spec: ClockSpec, t: float, n_steps: int):
    """The spectral draw of C_N(t) with its spectrum and split made once, for every batch, or None.

    For the clocks of :func:`quadratic_clock_spectrum` (None for any other
    clock, as there) ``draw(sizes, rng)`` returns sum(sizes) samples,
    consecutive replicates of the given sizes, and no path is simulated: a
    chaos clock is sum_{j,k} 2 q_j^2 mu_k E_jk with E_jk ~ Exp(1) (chi2_2 is
    2 Exp(1)), a p = 2 power clock rho^2 sum_k mu_k xi_k^2.  The atoms that
    hold at most one unit roundoff of the third cumulant are not drawn
    (``_spectral_split``: 656 of 16384 modes are drawn for p = 2 at
    N = 2^14); one gamma variate per row carries their mean and variance.
    The law of C moves by at most that kappa_3 share: log E exp(-lambda C)
    by about (lambda E C)^3 2^-53 / 6 relative (2e-15 at lambda E C = 5),
    the chaos small-ball law at eps = 0.1 by about 1e-12.  The draws are not
    pathwise coupled to :func:`clock_terminal_samples`.

    Each replicate is randomized quasi-Monte Carlo: the uniforms of the
    ``_NET_DIMS`` largest kept atoms, ranked over all (j, k) (for p = 2 the
    radius and angle of the 16 largest pairs, interleaved), are the
    replicate's points of one scrambled Sobol net (``_Nets``), in rank order
    so that the best-spread Sobol coordinates carry the largest atoms.  The
    other kept atoms draw from PCG64 first, in one row-major draw per block,
    then the nets' scrambles, then the gamma carry.  Each row has the law of
    the spectral draw and a replicate's mean is unbiased, but its rows are
    not independent, so a standard error must come from the spread of
    replicate means.  A one-point net is one uniform random point (Owen,
    Ann. Statist. 25, 1997), so n one-point replicates are n i.i.d. draws.

    E_jk is drawn by inversion, -log(1 - U) (one uniform and one vectorized
    log per value, cheaper than numpy's ziggurat ``standard_exponential``).
    The p = 2 power clock pairs kept mode k with kept mode k + M,
    M = ceil(K/2) for K kept modes (odd K pads mu with one zero):
    (xi_k, xi_{k+M}) is a planar Gaussian, whose squared radius 2E and angle
    phi are independent, so mu_k xi_k^2 + mu_{k+M} xi_{k+M}^2 =
    2E (mu_k s + mu_{k+M} (1 - s)) with s = cos^2 phi = 1 / (1 + tan^2(pi U')).
    Outside the nets each row takes the radii of its pairs first and then
    their angles: two uniforms, one log and one tan per pair, against two
    ziggurat normals.  U and U' lie on the 2^-53 grid of [0, 1), so 1 - U is
    exact and positive, E is finite and at most 53 ln 2 ~ 36.7 (the cut tail
    has probability 2^-53), and |tan(pi U')| <= |tan(pi fl(1/2))| ~ 1.6e16
    stays finite.  Both draws therefore differ in bits, not in law, from
    ziggurat draws of E and xi.

    The result is a pure function of the arguments and ``draw`` keeps no
    state, so the last 16 are kept: repeated estimator calls on one clock
    (seed sweeps, the benchmark's rounds) build it once.
    """
    form = quadratic_clock_spectrum(spec, t, n_steps)
    if form is None:
        return None
    w, mu, nu = form
    kept, shape, scale = _spectral_split(w, mu, nu)
    if nu == 1:
        k = int(kept[0])
        half = -(-k // 2)
        mu = np.append(mu[:k], np.zeros(2 * half - k))
        # 2E (mu_a s + mu_b (1 - s)) = log(1 - U) (base + slope s); the net takes the first pairs
        base, slope = -2.0 * w[0] * mu[half:], -2.0 * w[0] * (mu[:half] - mu[half:])
        pairs = min(half, _NET_DIMS // 2)
        dims, width = 2 * pairs, 2 * (half - pairs)

        def rest_sum(u):
            return _pair_sum(u[:, : half - pairs], u[:, half - pairs :], base[pairs:], slope[pairs:])

        def net_sum(u):
            return _pair_sum(u[:, 0::2], u[:, 1::2], base[:pairs], slope[:pairs])

    else:
        # atom (j, k) for the kept prefix of each term, where the net takes the largest
        rows = np.repeat(np.arange(w.size), kept)
        c = w[rows] * mu[np.arange(rows.size) - np.repeat(np.cumsum(kept) - kept, kept)]
        top = np.argsort(-c, kind="stable")[:_NET_DIMS]
        net_coef, rest_coef = -2.0 * c[top], -2.0 * np.delete(c, top)
        dims, width = top.size, rest_coef.size

        def rest_sum(u):
            return _log_sum(u, rest_coef)

        def net_sum(u):
            return _log_sum(u, net_coef)

    def draw(sizes, rng):
        gen = as_generator(rng)
        n = int(np.sum(sizes))

        def block(u):
            gen.random(out=u)
            return rest_sum(u)[:, None]

        c = _block_loop(n, width, 1, block)[:, 0]
        net = _Nets(sizes, dims, gen)  # then the scrambles; each block gathers its points from the nets' tables
        c += _block_loop(n, dims, 1, lambda u: net_sum(net.take(u))[:, None])[:, 0]
        _require_finite(c)
        if scale > 0:
            c += gen.gamma(shape, scale, n)
        return c

    return draw


# ---------------------------------------------------------------------------
# Single paths (the batch kernels with b = 1)
# ---------------------------------------------------------------------------

def _increments(process: ProcessSpec, times, n_steps: int, b: int, rng: RngLike) -> np.ndarray:
    """(b, N) per-step increments of ``process`` over [0, times[-1]], one block."""
    d = np.empty((b, n_steps))
    _fill_increments(d, process, np.asarray(times, dtype=float), as_generator(rng))
    return d


def simulate_path(process: ProcessSpec, n_steps: int, horizon: float, rng: RngLike) -> PathGrid:
    """One path of ``process`` on n_steps uniform steps over [0, horizon].

    This is the one-row block of the batch kernel behind :func:`sup_samples`:
    a Brownian path, a Levy area or chaos sum (``ChaosDirectProcess``), or
    B(C) along a clock drawn from the same stream (``TimeChangedProcess``:
    the clock, then the Gaussian increments).  Its running sup at the horizon
    equals ``sup_samples(process, (horizon,), n_steps, 1, rng)`` bit for bit.
    """
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    _time_indices((horizon,), n_steps)
    values = np.empty((1, n_steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        _cumulate(values, _increments(process, (horizon,), n_steps, 1, rng))
    _require_finite(values)
    return PathGrid(n_steps, horizon, values[0])


def dump_csv(grid: PathGrid, path) -> None:
    """Write a path as CSV rows (time, value) for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "value"])
        for t, v in zip(grid.times, grid.values):
            writer.writerow([repr(float(t)), repr(float(v))])
