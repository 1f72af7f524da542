"""Monte Carlo estimators, exact oracles, constant extraction, two-sample tests.

Every estimator runs on one batching engine.  A sampler returns one column per
probe (an eps or a lambda) for each sampled clock or path, so coupled probes
share their samples; ``probe_smallball_raw``, for one, reads the indicators of
all its eps, in any order, off one set of running sups.  The sample budget is
split into batches; batch k draws from ``RngStream(seed, stream_base + k)``
and yields a per-column (count, mean, sum of squared deviations) triple.  The
triples are merged in batch order with the pairwise update of Chan, Golub &
LeVeque ("Algorithms for computing the sample variance", Am. Stat. 1983),
which avoids the cancellation of sum-of-squares formulas.  Batches run on
``McConfig.workers`` threads; the fixed merge order keeps every output bit
independent of the worker count.

The rare-event strategy is conditional Monte Carlo: for a single-interval sup
event of a time-changed Brownian motion, the conditional probability given the
clock is the exact theta series, so only the clock terminal value needs to be
simulated.  This is unbiased for the discretized clock and has strictly
smaller variance than the raw indicator estimator (Rao-Blackwell).

Exact oracles:

* ``oracle_laplace_intbm2``: E exp(-lambda int_0^t B^2) = cosh(t sqrt(2 lambda))^(-1/2).
* ``oracle_laplace_chaos``: the product form over paired Brownian factors for
  a chaos clock, prod_j cosh(t q_j sqrt(2 lambda))^(-1).
* ``sup_bm_grid_cdf``: the exact law of the discrete-grid maximum of Brownian
  motion, by transfer-operator iteration; the matched-discretization
  counterpart of ``sup_bm_cdf`` for validating grid-sup estimators.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
from scipy import fft

from .asymptotics import Partition, sup_bm_cdf
from .errors import NumericError
from .paths import (
    ClockSpec,
    ProcessSpec,
    RngStream,
    clock_interval_increment_samples,
    clock_terminal_samples,
    sup_samples,
)

__all__ = [
    "McConfig",
    "EstimateResult",
    "ProbeGrid",
    "ConstantExtraction",
    "estimate_smallball_raw",
    "estimate_smallball_conditional",
    "estimate_laplace",
    "estimate_laplace_multi",
    "probe_smallball_conditional",
    "probe_smallball_raw",
    "extract_constant",
    "oracle_laplace_intbm2",
    "log_oracle_laplace_intbm2",
    "oracle_laplace_chaos",
    "log_oracle_laplace_chaos",
    "oracle_smallball_chaos",
    "sup_bm_grid_cdf",
    "ks_two_sample",
    "ks_critical_value",
    "logcosh",
]

# One-sided confidence level for the zero-hit Clopper-Pearson upper bound.
_ZERO_HIT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration: budget, grid, batching and RNG provenance.

    ``batch_size`` defaults to a memory-bounded value derived from ``n_steps``;
    it is part of the reproducibility contract (a config determines output
    exactly).  ``workers`` only parallelizes batch execution and never affects
    results.
    """

    samples: int = 100_000
    n_steps: int = 2**14
    seed: int = 0
    stream_base: int = 0
    batch_size: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    @property
    def effective_batch(self) -> int:
        if self.batch_size is not None:
            if self.batch_size < 1:
                raise ValueError("batch_size must be positive")
            return self.batch_size
        return max(256, 2**21 // self.n_steps)


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with standard error and RNG provenance.

    ``std_error`` is the sample standard deviation divided by sqrt(samples).
    When an indicator estimate registers zero hits, ``estimate`` is 0,
    ``std_error`` carries the one-sided 95% Clopper-Pearson upper bound for
    the probability instead, and ``zero_hits`` is flagged.
    """

    estimate: float
    std_error: float
    samples: int
    seed: int
    stream_base: int = 0
    zero_hits: bool = False

    def record(self, op: str, params: dict) -> dict:
        """JSON-ready record {op, params, estimate, stdError, samples, seed, zeroHits}.

        With ``zeroHits`` true, ``stdError`` holds the Clopper-Pearson bound.
        """
        return {
            "op": op,
            "params": params,
            "estimate": self.estimate,
            "stdError": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "zeroHits": self.zero_hits,
        }

    def to_json(self, op: str, params: dict) -> str:
        return json.dumps(self.record(op, params), sort_keys=True)


def _batch_sizes(cfg: McConfig) -> list[int]:
    batch = cfg.effective_batch
    sizes = [batch] * (cfg.samples // batch)
    if cfg.samples % batch:
        sizes.append(cfg.samples % batch)
    return sizes


def _batch_moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Per-column (n, mean, M2) of a (b, k) batch, M2 the sum of squared deviations.

    Each column is reduced as its own contiguous row, so column i of a
    k-column batch gives the same bits as a one-column batch holding it.
    """
    cols = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    n = cols.shape[1]
    mean = cols.sum(axis=1) / n
    dev = cols - mean[:, None]
    return n, mean, np.square(dev, out=dev).sum(axis=1)


def _summarize(n: int, mean: np.ndarray, m2: np.ndarray) -> list[tuple[float, float, int]]:
    """(mean, std error, n) per column."""
    var = m2 / (n - 1) if n > 1 else np.zeros_like(m2)
    return [(float(m), float(np.sqrt(v / n)), n) for m, v in zip(mean, var)]


def _batched_moments(
    sampler: Callable[[int, np.random.Generator], np.ndarray], cfg: McConfig
) -> list[tuple[float, float, int]]:
    """(mean, std error, n) for each column of sampler output over cfg.samples rows.

    ``sampler(b, gen)`` returns a (b, k) array.  Batch j draws from
    RngStream(cfg.seed, cfg.stream_base + j) and batches run on cfg.workers
    threads; their moments merge in batch order by the Chan-Golub-LeVeque
    update, so the schedule cannot change the result.
    """

    def one(job):
        j, b = job
        return _batch_moments(sampler(b, RngStream(cfg.seed, cfg.stream_base + j).generator()))

    jobs = list(enumerate(_batch_sizes(cfg)))
    if cfg.workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as ex:
            parts = list(ex.map(one, jobs))
    else:
        parts = [one(job) for job in jobs]
    n, mean, m2 = parts[0]
    for nb, mean_b, m2_b in parts[1:]:
        total = n + nb
        delta = mean_b - mean
        mean = mean + delta * (nb / total)
        m2 = m2 + m2_b + delta * delta * (n * nb / total)
        n = total
    return _summarize(n, mean, m2)


def _indicator_result(mean: float, se: float, n: int, cfg: McConfig) -> EstimateResult:
    if mean == 0.0:
        upper = 1.0 - (1.0 - _ZERO_HIT_CONFIDENCE) ** (1.0 / n)
        return EstimateResult(0.0, upper, n, cfg.seed, cfg.stream_base, zero_hits=True)
    return EstimateResult(mean, se, n, cfg.seed, cfg.stream_base)


# ---------------------------------------------------------------------------
# Small-ball estimators
# ---------------------------------------------------------------------------

def estimate_smallball_raw(process: ProcessSpec, part: Partition, eps: float, cfg: McConfig) -> EstimateResult:
    """Indicator-mean estimate of P( for all i: a_i eps <= M(t_i) <= b_i eps ).

    M is the running sup of |Z| over the simulation grid, so the estimate is
    unbiased for the discretized process; compare against matched-resolution
    oracles only.  Zero hits fall back to a flagged Clopper-Pearson bound.
    This is the one-probe case of :func:`probe_smallball_raw`.
    """
    return probe_smallball_raw(process, part, (eps,), cfg)[0]


def probe_smallball_raw(
    process: ProcessSpec, part: Partition, eps_grid: Sequence[float], cfg: McConfig
) -> list[EstimateResult]:
    """Raw window probabilities at several eps from one set of sup samples.

    The running sups are simulated once per batch and every eps reads its
    indicator column off them, so each estimate equals the one-eps
    :func:`estimate_smallball_raw` bit for bit.  The windows [a_i eps, b_i eps]
    are not nested across eps, so the grid may come in any order.  Zero hits
    are flagged per eps.
    """
    eps_grid = tuple(float(e) for e in eps_grid)
    if not eps_grid:
        raise ValueError("need at least one eps")
    if any(e <= 0 for e in eps_grid):
        raise ValueError("eps must be positive")
    if part.windows is None:
        raise ValueError("partition must carry windows")
    a = np.asarray([w[0] for w in part.windows])
    b = np.asarray([w[1] for w in part.windows])
    bounds = [(eps * a, eps * b) for eps in eps_grid]

    def sampler(n, gen):
        sups = sup_samples(process, part.times, cfg.n_steps, n, gen)
        return np.column_stack([np.all((sups >= lo) & (sups <= hi), axis=1) for lo, hi in bounds])

    return [_indicator_result(m, se, n, cfg) for m, se, n in _batched_moments(sampler, cfg)]


ClockLike = Union[ClockSpec, np.ndarray, Callable[[int, np.random.Generator], np.ndarray]]


def estimate_smallball_conditional(clock: ClockLike, t: float, eps: float, cfg: McConfig) -> EstimateResult:
    """Rao-Blackwellized estimate of P(sup_{[0,t]} |B(C)| <= eps), one interval.

    Conditionally on the clock, the sup law is exactly that of sqrt(C(t))
    times the Brownian sup over [0, 1], so the indicator is replaced by the
    exact theta series F(eps / sqrt(C(t))).  ``clock`` may be a ClockSpec
    (terminal values are simulated), an array of precomputed C(t) samples, or
    a callable (n, rng) -> samples; a constant-returning callable models a
    deterministic clock and gives a zero-variance estimate.  This is the
    one-probe case of :func:`probe_smallball_conditional`.
    """
    return probe_smallball_conditional(clock, t, (eps,), cfg).results[0]


def _conditional_values(c_samples: np.ndarray, eps: float) -> np.ndarray:
    """Exact conditional probabilities F_sup(eps / sqrt(C)) per clock sample."""
    vals = np.zeros_like(c_samples)
    pos = c_samples > 0
    vals[pos] = sup_bm_cdf(eps / np.sqrt(c_samples[pos]))
    vals[~pos] = 1.0  # a frozen clock keeps Z at 0
    return vals


def estimate_laplace(spec: ClockSpec, part: Partition, lam: float, cfg: McConfig) -> EstimateResult:
    """Sample mean of exp(-lambda sum_i d_i Delta_i C); always in (0, 1].

    Without partition weights the functional is unweighted (d_i = 1).
    """
    return estimate_laplace_multi(spec, part, (lam,), cfg)[0]


def estimate_laplace_multi(spec: ClockSpec, part: Partition, lams: Sequence[float], cfg: McConfig) -> list[EstimateResult]:
    """Laplace functional estimates at several lambda from one clock sample set.

    The clock increments are simulated once per batch and the exponential
    functional is averaged for every lambda; each estimate is individually
    unbiased, and the coupling makes the lambda profile monotone pathwise.
    """
    lams = np.asarray([float(l) for l in lams])
    if np.any(lams < 0):
        raise ValueError("lambda must be nonnegative")
    d = np.asarray(part.weights) if part.weights is not None else np.ones(part.m)

    def sampler(b, gen):
        weighted = clock_interval_increment_samples(spec, part, cfg.n_steps, b, gen) @ d
        return np.exp(-np.outer(weighted, lams))

    return [EstimateResult(m, se, n, cfg.seed, cfg.stream_base) for m, se, n in _batched_moments(sampler, cfg)]


# ---------------------------------------------------------------------------
# Exact Laplace oracles
# ---------------------------------------------------------------------------

def logcosh(x):
    """log cosh x, overflow-safe for large |x|."""
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)


def log_oracle_laplace_intbm2(lam: float, t: float) -> float:
    """log E exp(-lambda int_0^t B^2 ds) = -1/2 log cosh(t sqrt(2 lambda))."""
    if lam < 0 or t <= 0:
        raise ValueError("need lambda >= 0 and t > 0")
    return -0.5 * float(logcosh(t * np.sqrt(2.0 * lam)))


def oracle_laplace_intbm2(lam: float, t: float) -> float:
    """E exp(-lambda int_0^t B^2 ds) = cosh(t sqrt(2 lambda))^(-1/2).

    Underflows to 0.0 for t sqrt(2 lambda) beyond ~1420; use the log variant
    for slope extraction at large lambda.
    """
    return float(np.exp(log_oracle_laplace_intbm2(lam, t)))


def log_oracle_laplace_chaos(lam: float, t: float, q) -> float:
    """log E exp(-lambda C(t)) for the chaos clock with singular values q.

    Each q_j contributes two independent squared Brownian factors, i.e. one
    factor cosh(t q_j sqrt(2 lambda))^(-1) in the product.
    """
    if lam < 0 or t <= 0:
        raise ValueError("need lambda >= 0 and t > 0")
    q = np.asarray(q, dtype=float)
    return -float(np.sum(logcosh(t * q * np.sqrt(2.0 * lam))))


def oracle_laplace_chaos(lam: float, t: float, q) -> float:
    """E exp(-lambda C(t)) = prod_j cosh(t q_j sqrt(2 lambda))^(-1)."""
    return float(np.exp(log_oracle_laplace_chaos(lam, t, q)))


def oracle_smallball_chaos(eps: float, t: float, q) -> float:
    """Exact P(sup_{[0,t]} |B(C)| <= eps) for a chaos clock with values q.

    Combines the theta series for the conditional sup law with the closed-form
    clock Laplace transform:

        P = (4/pi) sum_k (-1)^k/(2k+1) E exp(-(2k+1)^2 pi^2/(8 eps^2) C(t)).

    This is the continuous-time limit the conditional estimator converges to;
    it serves as the independent oracle in the test suite.
    """
    if eps <= 0 or t <= 0:
        raise ValueError("eps and t must be positive")
    q = np.asarray(q, dtype=float)
    lam0 = np.pi**2 / (8.0 * eps * eps)
    # Alternating series with terms |.| ~ exp(-(2k+1) t q_1 sqrt(2 lam0))/(2k+1):
    # for large eps the exponential decay is slow, so extend in chunks until
    # the first omitted term bounds the error below 1e-15 of the total.
    total = 0.0
    k0 = 0
    chunk = 256
    while k0 < 200_000:
        k = np.arange(k0, k0 + chunk)
        odd = 2 * k + 1
        logs = -np.sum(logcosh(t * np.outer(odd, q) * np.sqrt(2.0 * lam0)), axis=1)
        terms = np.where(k % 2 == 0, 1.0, -1.0) / odd * np.exp(logs)
        total += float(terms.sum())
        if abs(terms[-1]) <= 1e-15 * abs(total):
            return min(1.0, 4.0 / np.pi * total)
        k0 += chunk
    raise NumericError(f"theta series for eps={eps} did not converge in {k0} terms")


# ---------------------------------------------------------------------------
# Exact law of the discrete-grid Brownian sup (matched-discretization oracle)
# ---------------------------------------------------------------------------

def sup_bm_grid_cdf(eps: float, n_steps: int, horizon: float = 1.0, points_per_sigma: float = 16.0) -> float:
    """Exact P(max_{1<=k<=N} |B(k h)| <= eps) for the grid maximum, h = T/N.

    The grid maximum is the running maximum of a Gaussian random walk; its
    survival inside [-eps, eps] is computed by iterating the restricted
    Gaussian transfer operator on a midpoint grid (spatial spacing
    sigma / points_per_sigma, quadrature error O(delta^2) per step).  This is
    the matched-discretization counterpart of ``sup_bm_cdf``: estimators that
    take sups over a grid must be compared against this law, not the
    continuous one.
    """
    if eps <= 0 or horizon <= 0:
        raise ValueError("eps and horizon must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    sig = np.sqrt(horizon / n_steps)
    m = max(8, int(np.ceil(2.0 * eps * points_per_sigma / sig)))
    delta = 2.0 * eps / m
    x = -eps + (np.arange(m) + 0.5) * delta
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * sig)
    f = norm * np.exp(-x * x / (2.0 * sig * sig))  # density of B(h) on [-eps, eps]
    offsets = np.arange(-(m - 1), m) * delta
    kernel = norm * np.exp(-offsets * offsets / (2.0 * sig * sig))
    # Each step is the 'valid' part of a linear convolution with the fixed
    # kernel; its transform is taken once, at a length free of wrap-around.
    size = fft.next_fast_len(3 * m - 2, real=True)
    kernel_hat = fft.rfft(kernel, size)
    for _ in range(n_steps - 1):
        f = fft.irfft(fft.rfft(f, size) * kernel_hat, size)[m - 1 : 2 * m - 1] * delta
    return float(min(1.0, f.sum() * delta))


# ---------------------------------------------------------------------------
# Constant extraction from a probe grid
# ---------------------------------------------------------------------------

def _decreasing_eps(epsilons) -> tuple[float, ...]:
    eps = tuple(float(e) for e in epsilons)
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    return eps


@dataclass(frozen=True)
class ProbeGrid:
    """Small-ball estimates at a strictly decreasing grid of eps values."""

    epsilons: tuple[float, ...]
    results: tuple[EstimateResult, ...]

    def __post_init__(self):
        eps = _decreasing_eps(self.epsilons)
        if len(self.results) != len(eps):
            raise ValueError("need one result per epsilon")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "results", tuple(self.results))


@dataclass(frozen=True)
class ConstantExtraction:
    """Empirical K-hat sequence with a linear-in-eps extrapolation to eps = 0.

    ``gaps`` holds |K_hat(eps_k) - K_extrapolated| along the grid;
    ``gaps_non_increasing`` reports whether the sequence contracts towards the
    extrapolated limit as eps decreases.  Probe points with non-positive
    estimates are dropped and recorded in ``dropped``.
    """

    epsilons: tuple[float, ...]
    k_hat: tuple[float, ...]
    extrapolated: float
    gaps: tuple[float, ...]
    gaps_non_increasing: bool
    dropped: tuple[int, ...] = field(default=())


def extract_constant(pg: ProbeGrid, order: tuple[float, float]) -> ConstantExtraction:
    """Turn probe estimates into K_hat(eps) = -eps^a |log eps|^b log p(eps).

    The limit is estimated by a least-squares line in eps through the last
    three valid probe points, evaluated at eps = 0.  Needs at least three
    valid (positive-estimate) points.
    """
    a, b = order
    eps_all = np.asarray(pg.epsilons)
    p_all = np.asarray([r.estimate for r in pg.results])
    valid = p_all > 0
    dropped = tuple(int(i) for i in np.nonzero(~valid)[0])
    eps = eps_all[valid]
    p = p_all[valid]
    if eps.size < 3:
        raise ValueError("need at least three positive probe estimates to extrapolate")
    k_hat = -(eps**a) * np.abs(np.log(eps)) ** b * np.log(p)
    slope, intercept = np.polyfit(eps[-3:], k_hat[-3:], 1)
    extrap = float(intercept)
    gaps = np.abs(k_hat - extrap)
    non_increasing = bool(np.all(np.diff(gaps) <= 0))
    return ConstantExtraction(
        tuple(map(float, eps)), tuple(map(float, k_hat)), extrap, tuple(map(float, gaps)), non_increasing, dropped
    )


def probe_smallball_conditional(clock: ClockLike, t: float, eps_grid: Sequence[float], cfg: McConfig) -> ProbeGrid:
    """Conditional small-ball probes at several eps sharing one clock sample set.

    The clock terminal values are simulated once (per batch) and the exact
    conditional series is averaged for every eps, coupling the probes; this
    preserves unbiasedness per eps and makes the K-hat trend smooth in eps.
    ``clock`` takes the forms :func:`estimate_smallball_conditional` accepts;
    an array of clock samples is treated as one pre-drawn batch.  A negative
    or NaN clock sample, from any form, raises ValueError.
    """
    eps_grid = _decreasing_eps(eps_grid)
    if t <= 0:
        raise ValueError("t must be positive")

    def values(c):
        c = np.asarray(c, dtype=float)
        if not np.all(c >= 0):
            raise ValueError("clock samples must be nonnegative")
        return np.column_stack([_conditional_values(c, e) for e in eps_grid])

    if isinstance(clock, np.ndarray):
        moments = _summarize(*_batch_moments(values(clock)))
    else:
        if callable(clock):
            draw = clock
        else:
            def draw(b, gen):
                return clock_terminal_samples(clock, t, cfg.n_steps, b, gen)

        moments = _batched_moments(lambda b, gen: values(draw(b, gen)), cfg)
    results = tuple(EstimateResult(m, se, n, cfg.seed, cfg.stream_base) for m, se, n in moments)
    return ProbeGrid(eps_grid, results)


# ---------------------------------------------------------------------------
# Two-sample testing
# ---------------------------------------------------------------------------

def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    from scipy.stats import ks_2samp  # scipy.stats takes most of a second to import

    x = np.asarray(x)
    y = np.asarray(y)
    if x.size == 0 or y.size == 0:
        raise ValueError("samples must be nonempty")
    res = ks_2samp(x, y, method="asymp")
    return float(res.statistic), float(res.pvalue)


def ks_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))
