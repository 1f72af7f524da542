"""Monte Carlo estimators, exact oracles, constant extraction, two-sample tests.

Every estimator runs on one batching engine.  A sampler returns one column per
probe (an eps or a lambda) for each sampled clock or path, so coupled probes
share their samples.  The three coupled estimators (``probe_smallball_raw``,
``probe_smallball_conditional``, ``estimate_laplace_multi``) share one
contract: a process or clock spec, the probes in any order (duplicates
allowed) and a ``McConfig`` in, one ``EstimateResult`` per probe out, in input
order.  The sample budget is split into batches; batch k draws from
``RngStream(seed, stream_base + k)`` and yields a per-column (count,
replicates, mean, weighted sum of squared deviations of the replicate means)
tuple.  The tuples are merged in batch order with the pairwise update of
Chan, Golub & LeVeque ("Algorithms for computing the sample variance",
Am. Stat. 1983), which avoids the cancellation of sum-of-squares formulas.
Up to ``McConfig.workers`` batches run at once: the calling thread and the
threads of one process-wide ``ThreadPoolExecutor``, which starts a thread only
when no thread of it is idle.  The fixed merge order keeps every output bit
independent of the worker count.

A replicate is a group of rows whose mean is unbiased and independent of
every other replicate's.  It is the unit every sampler draws and the engine
merges, and the standard error is the spread of the replicate means.  Path
simulations are plain Monte Carlo, one-row replicates, so their standard
error is the sample standard deviation over sqrt(n).  The spectral draw of
C_N(t) is randomized quasi-Monte Carlo: each batch holds ceil(16 / batches)
replicates, each a scrambled Sobol net over the 32 largest atoms
(``paths._Nets``), so a run has R >= 16 replicates and (est - mean) / SE
follows Student's t with R - 1 degrees of freedom where the replicate means
are near normal.  The rows of a net are not independent, so their pooled
spread would report the error of plain Monte Carlo instead.  On the
``chaos-probe`` benchmark shape (512 samples at N = 512, sixteen 32-point
nets) the eps = 0.4 probe's variance falls about 75x, on the
``power-laplace`` shape (1024 samples at N = 2^14, sixteen 64-point nets)
the lambda = 1 estimate's about 140x.

The rare-event strategy is conditional Monte Carlo: for a single-interval sup
event of a time-changed Brownian motion, the conditional probability given the
clock is the exact theta series, so only the law of the clock terminal value
C_N(t) matters.  For chaos clocks and p = 2 power clocks with a scalar weight,
C_N(t) is drawn from the exact spectrum of the N-step trapezoid clock
(``paths._terminal_law_sampler``, one net per replicate): the few hundred
chi-squared atoms above one unit roundoff of its third cumulant, plus one
gamma variate with the mean and variance of the rest.  That is equal in law
to path simulation up to a 2^-53 share of kappa_3 (a relative error of about
(lambda E C)^3 2^-53 / 6 in a Laplace value, about 1e-12 in the chaos
small-ball law at eps = 0.1), and not pathwise coupled to it.  One-interval
Laplace estimates use the same draw; multi-interval Laplace, raw estimators
and clocks without a spectrum simulate paths.  The conditional estimator is
unbiased for the discretized clock and has strictly smaller variance than
the raw indicator estimator (Rao-Blackwell).

The exact laws have one contract too: a clock spec, a time t, the probes in
any order (duplicates allowed) and an optional grid in, one log value per
probe out, in input order.  ``log_laplace`` gives log E exp(-lambda C(t)) and
``log_smallball`` the theta series for log P(sup_{[0,t]} |B(C)| <= eps) over
it, both over ``paths.quadratic_clock_spectrum``: continuous (``n_steps``
None, the cosh products) or on the N-step grid the estimators sample.  Any
clock with a spectrum, chaos or p = 2 power, has both laws.
``sup_bm_grid_cdf`` is the exact law of the discrete-grid Brownian
maximum, the matched counterpart of ``sup_bm_cdf``: the (N-1)-th power of the
killed Gaussian kernel on a midpoint grid, applied by Lanczos quadrature that
stops once two successive estimates agree to max(1e-14, 4 (N - 1) eps)
relative (8 to 31 FFT matvecs at eps = 0.5, N = 64 to 4096).

Importing this module loads numpy only.  Each scipy module is imported by the
one function that needs it, on its first call: ``sup_bm_grid_cdf`` loads
``scipy.fft`` and ``scipy.linalg``, and ``ks_two_sample`` loads
``scipy.stats``.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .asymptotics import Partition, sup_bm_cdf
from .errors import NumericError
from .paths import (
    ChaosClockSpec,
    ClockSpec,
    PowerClockSpec,
    ProcessSpec,
    RngStream,
    _terminal_law_sampler,
    clock_interval_increment_samples,
    clock_terminal_samples,
    quadratic_clock_spectrum,
    sup_samples,
)

__all__ = [
    "McConfig",
    "EstimateResult",
    "ConstantExtraction",
    "estimate_laplace_multi",
    "probe_smallball_conditional",
    "probe_smallball_raw",
    "extract_constant",
    "log_laplace",
    "log_smallball",
    "sup_bm_grid_cdf",
    "ks_two_sample",
    "ks_critical_value",
]

# One-sided confidence level for the zero-hit Clopper-Pearson upper bound.
_ZERO_HIT_CONFIDENCE = 0.95

# Fewest independent replicates behind a randomized quasi-Monte Carlo
# standard error: ceil(16 / batches) nets per batch, so t(15) or better.
_MIN_REPLICATES = 16

# Stop rule of the Lanczos evaluation in ``sup_bm_grid_cdf``: successive log
# estimates within max(_LANCZOS_RTOL, _LANCZOS_ULPS (N - 1) eps), or an error
# after _LANCZOS_MAX_STEPS steps.  One ulp of the largest Ritz value moves the
# (N - 1) log(theta_max) term by up to (N - 1) eps, so a finer rule would hold
# only while the eigensolver repeats theta_max bit for bit.
_LANCZOS_RTOL = 1e-14
_LANCZOS_ULPS = 4
_LANCZOS_MAX_STEPS = 1000


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration: budget, grid, parallelism and RNG provenance.

    A batch holds min(max(256, 2**21 // n_steps), ceil(samples / 2)) samples
    (``effective_batch``), so a run with fewer than two full batches splits
    into two near-equal batches and two workers both have one.  This is the
    stream layout and a worker's unit of work, not a memory cap: the samplers
    in ``paths`` simulate each batch in 1 MB row blocks.  A spectral-draw
    estimator splits each batch further into ceil(16 / batches) replicates
    (at most one per row) of near-equal size.  The layout depends only on
    (samples, n_steps) and is part of the reproducibility contract (a config
    determines output exactly).  ``workers`` bounds how many batches run at
    once: the calling thread runs one and the process's batch pool the rest,
    on at most min(32, cpus + 4) threads (the executor's default size), so a
    call runs at most that many batches plus its own.  It never affects results.
    ``samples`` must be at least 2, the fewest that give a standard error.
    """

    samples: int = 100_000
    n_steps: int = 2**14
    seed: int = 0
    stream_base: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be at least 2: a standard error needs two")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    @property
    def effective_batch(self) -> int:
        return min(max(256, 2**21 // self.n_steps), -(-self.samples // 2))


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with standard error and RNG provenance.

    ``std_error`` is the spread of R independent replicate means:
    sqrt(sum_r n_r (mean_r - mean)^2 / (samples (R - 1))).  For plain Monte
    Carlo (raw probes, multi-interval Laplace, clocks without a spectrum)
    every sample is a replicate and this is the sample standard deviation
    divided by sqrt(samples).  The spectral-draw estimators (conditional
    probes, one-interval Laplace) average R >= 16 scrambled nets, so their
    z = (estimate - truth) / std_error follows Student's t with R - 1 degrees
    of freedom, not the normal law: a |z| <= 3 gate fails 0.90% of the time
    at R = 16 and 0.62% at R = 25, against 0.27%.
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


def _batch_sizes(cfg: McConfig) -> list[int]:
    batch = cfg.effective_batch
    sizes = [batch] * (cfg.samples // batch)
    if cfg.samples % batch:
        sizes.append(cfg.samples % batch)
    return sizes


@functools.lru_cache(maxsize=64)
def _replicate_sizes(b: int, batches: int) -> np.ndarray:
    """Sizes of a b-row batch's replicates: ceil(_MIN_REPLICATES / batches) of them, at most b, as equal as can be."""
    r = min(b, -(-_MIN_REPLICATES // batches))
    sizes = b // r + (np.arange(r) < b % r)
    sizes.setflags(write=False)
    return sizes


def _batch_moments(values: np.ndarray, sizes: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Per-column (n, R, mean, M2) of a (b, k) batch of R replicates of the given sizes.

    M2 = sum_r n_r (mean_r - mean)^2 is the weighted sum of squared
    deviations of the replicate means.  With one-row replicates the sums,
    divisions and products by 1 are exact, so M2 is the plain sum of squared
    deviations.  Each column is reduced as its own contiguous row, so column
    i of a k-column batch gives the same bits as a one-column batch holding it.
    """
    cols = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    n = cols.shape[1]
    mean = cols.sum(axis=1) / n
    dev = np.add.reduceat(cols, np.cumsum(sizes) - sizes, axis=1) / sizes
    dev -= mean[:, None]
    np.square(dev, out=dev)
    dev *= sizes
    return n, dev.shape[1], mean, dev.sum(axis=1)


# The process's batch pool: no thread at import, then a new thread only for a
# lane that finds none idle, up to the executor's default min(32, cpus + 4).
# No job on it may wait on it: its jobs are the batches of
# ``_batched_moments`` and the two sides of each C6 rep
# (``acceptance.criterion_6``), which call the ``paths`` samplers only.
_POOL = ThreadPoolExecutor(thread_name_prefix="smallball-batch")


def _parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """[fn(x) for x in items], with at most ``workers`` calls running at once.

    The calling thread runs one lane and the batch pool up to workers - 1
    more.  Each lane takes the next item no lane has taken; a lane still
    queued behind other callers' work when the items run out is cancelled.
    """
    lanes = min(workers, len(items))
    if lanes < 2:
        return [fn(x) for x in items]
    out = [None] * len(items)
    todo = iter(range(len(items)))  # a range iterator's next() holds the GIL: no item is taken twice

    def lane():
        for i in todo:
            out[i] = fn(items[i])

    futures = [_POOL.submit(lane) for _ in range(lanes - 1)]
    try:
        lane()
    finally:  # even after an error, no lane outlives the call
        for f in futures:
            if not f.cancel():  # a lane that has not started would find no item left
                f.result()
    return out


def _batched_moments(sampler: Callable, cfg: McConfig, nets: bool = False) -> list[EstimateResult]:
    """One ``EstimateResult`` per column of sampler output over cfg.samples rows.

    ``sampler(sizes, gen)`` returns the (sum(sizes), k) rows of a batch's
    replicates, in order: b one-row replicates (plain Monte Carlo), or with
    ``nets`` the ``_replicate_sizes`` of the batch, one randomized
    quasi-Monte Carlo net each.  Batch j draws from RngStream(cfg.seed,
    cfg.stream_base + j) and at most cfg.workers batches run at once; their
    moments merge in batch order by the Chan-Golub-LeVeque update, so the
    schedule cannot change the result.  SE^2 = sum_r n_r (mean_r - mean)^2 /
    (n (R - 1)) over the run's R replicates, for R equal replicates the
    sample variance of their means over R.
    """
    batch_sizes = _batch_sizes(cfg)

    def one(job):
        j, b = job
        gen = RngStream(cfg.seed, cfg.stream_base + j).generator()
        sizes = _replicate_sizes(b, len(batch_sizes)) if nets else np.ones(b, dtype=int)
        return _batch_moments(sampler(sizes, gen), sizes)

    parts = _parallel_map(one, list(enumerate(batch_sizes)), cfg.workers)
    n, reps, mean, m2 = parts[0]
    for nb, rb, mean_b, m2_b in parts[1:]:
        total = n + nb
        delta = mean_b - mean
        mean = mean + delta * (nb / total)
        m2 = m2 + m2_b + delta * delta * (n * nb / total)
        n = total
        reps += rb
    var = m2 / (reps - 1) if reps > 1 else np.zeros_like(m2)
    return [EstimateResult(float(m), float(np.sqrt(v / n)), n, cfg.seed, cfg.stream_base) for m, v in zip(mean, var)]


def _zero_hit_bound(result: EstimateResult) -> EstimateResult:
    """An indicator estimate with zero hits carries the Clopper-Pearson upper bound as its flagged error."""
    if result.estimate != 0.0:
        return result
    upper = 1.0 - (1.0 - _ZERO_HIT_CONFIDENCE) ** (1.0 / result.samples)
    return replace(result, std_error=upper, zero_hits=True)


# ---------------------------------------------------------------------------
# Small-ball estimators
# ---------------------------------------------------------------------------

def _eps_grid(eps_grid: Sequence[float]) -> tuple[float, ...]:
    """The probes' eps as floats: at least one, each positive and finite, in any order."""
    eps = tuple(float(e) for e in eps_grid)
    if not eps:
        raise ValueError("need at least one eps")
    if not all(0 < e < np.inf for e in eps):
        raise ValueError("eps must be positive and finite")
    return eps


def probe_smallball_raw(
    process: ProcessSpec, part: Partition, eps_grid: Sequence[float], cfg: McConfig
) -> list[EstimateResult]:
    """Indicator-mean estimates of P( for all i: a_i eps <= M(t_i) <= b_i eps ) per eps.

    M is the running sup of |Z| over the simulation grid, so each estimate is
    unbiased for the discretized process; compare against matched-resolution
    oracles only.  The running sups are simulated once per batch and every
    eps reads its indicator column off them, so each estimate equals its
    one-eps call bit for bit.  The windows [a_i eps, b_i eps] are not nested
    across eps, so the grid may come in any order.  Zero hits fall back to a
    flagged Clopper-Pearson bound, per eps.
    """
    eps_grid = _eps_grid(eps_grid)
    if part.windows is None:
        raise ValueError("partition must carry windows")
    a = np.asarray([w[0] for w in part.windows])
    b = np.asarray([w[1] for w in part.windows])
    bounds = [(eps * a, eps * b) for eps in eps_grid]

    def sampler(sizes, gen):
        sups = sup_samples(process, part.times, cfg.n_steps, len(sizes), gen)
        return np.column_stack([np.all((sups >= lo) & (sups <= hi), axis=1) for lo, hi in bounds])

    return [_zero_hit_bound(r) for r in _batched_moments(sampler, cfg)]


def probe_smallball_conditional(
    clock: ClockSpec, t: float, eps_grid: Sequence[float], cfg: McConfig
) -> list[EstimateResult]:
    """Rao-Blackwellized estimates of P(sup_{[0,t]} |B(C)| <= eps) per eps, one interval.

    Conditionally on the clock, the sup law is exactly that of sqrt(C(t))
    times the Brownian sup over [0, 1], so the indicator is replaced by the
    exact theta series F(eps / sqrt(C(t))).  The terminal values C_N(t) are
    drawn once per batch from their exact spectrum as randomized quasi-Monte
    Carlo, one scrambled net per replicate (``paths._terminal_law_sampler``,
    its spectrum and atom split made once per call), or for a clock without
    one from simulated paths, and the series is averaged for every eps,
    coupling the probes; this preserves unbiasedness per eps and makes the
    K-hat trend smooth in eps.  A clock frozen at 0 (a zero weight) gives 1
    with zero variance.  Each eps is its own column, so the grid may come in
    any order and each estimate equals its one-eps call bit for bit.
    """
    eps_grid = _eps_grid(eps_grid)
    draw = _terminal_law_sampler(clock, t, cfg.n_steps)

    def sampler(sizes, gen):
        c = clock_terminal_samples(clock, t, cfg.n_steps, len(sizes), gen) if draw is None else draw(sizes, gen)
        return np.column_stack([_conditional_values(c, eps) for eps in eps_grid])

    return _batched_moments(sampler, cfg, draw is not None)


def _conditional_values(c_samples: np.ndarray, eps: float) -> np.ndarray:
    """Exact conditional probabilities F_sup(eps / sqrt(C)) per clock sample."""
    vals = np.zeros_like(c_samples)
    pos = c_samples > 0
    vals[pos] = sup_bm_cdf(eps / np.sqrt(c_samples[pos]))
    vals[~pos] = 1.0  # a frozen clock keeps Z at 0
    return vals


def estimate_laplace_multi(spec: ClockSpec, part: Partition, lams: Sequence[float], cfg: McConfig) -> list[EstimateResult]:
    """Sample means of exp(-lambda sum_i d_i Delta_i C) per lambda; each in (0, 1].

    Without partition weights the functional is unweighted (d_i = 1).  The
    clock increments are sampled once per batch and the exponential
    functional is averaged for every lambda; each estimate is individually
    unbiased, and the coupling makes the lambda profile monotone pathwise.
    One interval of a clock with a spectrum needs only C_N(t), drawn with a
    scrambled net per replicate as the conditional probes draw it; any other
    case reads the increments of simulated clock paths (plain Monte Carlo).
    """
    lams = np.asarray([float(l) for l in lams])
    if lams.size == 0 or not np.all((lams >= 0) & (lams < np.inf)):
        raise ValueError("need at least one lambda, each nonnegative and finite")
    d = np.asarray(part.weights) if part.weights is not None else np.ones(part.m)
    draw = _terminal_law_sampler(spec, part.times[0], cfg.n_steps) if part.m == 1 else None

    def sampler(sizes, gen):
        if draw is None:
            weighted = clock_interval_increment_samples(spec, part, cfg.n_steps, len(sizes), gen) @ d
        else:
            weighted = draw(sizes, gen) * d[0]
        return np.exp(-np.outer(weighted, lams))

    return _batched_moments(sampler, cfg, draw is not None)


# ---------------------------------------------------------------------------
# Exact laws of quadratic clocks
# ---------------------------------------------------------------------------

def _logcosh(x):
    """log cosh x, overflow-safe for large |x|: inf only where |x| is."""
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)


def _log1p_twice_outer(lams, w, mu, c):
    """log1p(2 lambda_i c_m), c = outer(w, mu).ravel(); an overflowed term reads logaddexp(0, log 2 lambda_i + log w_j + log mu_k)."""
    x = np.log1p(np.multiply.outer(2.0 * lams, c))
    if np.isfinite(2.0 * lams.max() * c.max()):  # the largest term, so all are finite
        return x
    i, m = np.nonzero(~np.isfinite(x))
    j, k = np.divmod(m, mu.size)
    x[i, m] = np.logaddexp(0.0, np.log(2.0) + np.log(lams[i]) + np.log(w[j]) + np.log(mu[k]))
    return x


def log_laplace(clock: ClockSpec, t: float, lams, n_steps: int | None = None) -> np.ndarray:
    """log E exp(-lambda C(t)) for each lambda in ``lams``, in input order.

    (w, mu, nu) come from ``paths.quadratic_clock_spectrum``, the one judge of
    which clocks have an exact law.  The continuous clock (``n_steps`` None)
    gives -(nu/2) sum_j logcosh(t sqrt(2 lambda w_j)), e.g. -1/2 log cosh(t
    sqrt(2 lambda)) for ``PowerClockSpec(2)``; the N-step trapezoid clock the
    estimators sample gives -(nu/2) sum_{j,k} log1p(2 lambda w_j mu_k), which
    tends to the continuous law as N grows.  Each lambda is its own row, so
    the lambdas may come in any order and each value equals its one-lambda
    call bit for bit.  Nothing warns.  A trapezoid term whose w_j mu_k or
    2 lambda w_j mu_k overflows reads log 2 + log lambda + log w_j + log mu_k,
    so that law is finite wherever w and mu are; the continuous law is -inf
    only where t sqrt(2 lambda w_j) overflows.  Every other term keeps the
    bits of the direct form, in the continuous law while every t sqrt(w_j) is
    finite.  Clocks without a spectrum raise ValueError.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not (lams.size and np.all((lams >= 0) & (lams < np.inf)) and 0 < t < np.inf):
        raise ValueError("need at least one lambda, each finite and >= 0, and t > 0 finite")
    # the continuous law reads only (w, nu), which do not depend on t
    form = quadratic_clock_spectrum(clock, 1.0 if n_steps is None else t, 1 if n_steps is None else n_steps)
    if form is None:
        raise ValueError("no exact law for this clock: need a chaos clock or a p = 2 power clock with scalar rho")
    w, mu, nu = form
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # every overflow is mended or is the true -inf
        if n_steps is None:
            # sqrt(2 lambda) is 2 sqrt(lambda / 2) bit for bit above 1, where 2 lambda may overflow
            scale = np.where(lams > 1.0, 2.0 * np.sqrt(0.5 * lams), np.sqrt(2.0 * np.minimum(lams, 1.0)))
            coef = t * np.sqrt(w)
            if np.isinf(coef).any():  # t and some sqrt(w_j) exceed 1: the scale multiplies t first
                scale, coef = t * scale, np.sqrt(w)
            f = lambda a: _logcosh(np.multiply.outer(a, coef))
        else:
            scale, coef, f = lams, np.outer(w, mu).ravel(), lambda a: _log1p_twice_outer(a, w, mu, coef)
        rows = max(1, 2**18 // coef.size)  # bounds each (rows, terms) buffer
        sums = [f(scale[i : i + rows]).sum(axis=-1) for i in range(0, scale.size, rows)]
    return -0.5 * nu * np.concatenate(sums)


def log_smallball(clock: ClockSpec, t: float, eps_grid: Sequence[float], n_steps: int | None = None) -> np.ndarray:
    """log P(sup_{[0,t]} |B(C)| <= eps) for each eps in ``eps_grid``, in input order.

    The theta series over the clock's Laplace transform L = :func:`log_laplace`
    (continuous, or the trapezoid clock on ``n_steps`` steps), with
    lam_k = (2k+1)^2 pi^2/(8 eps^2):

        log P = log(4/pi) + L(lam_0) + log sum_k (-1)^k/(2k+1) exp(L(lam_k) - L(lam_0)).

    Relative to its leading term the sum never underflows.  Its terms fall in
    k, and it stops at the first one below 1e-17, which bounds the error.
    Each eps is summed on its own, so the grid may come in any order.
    """
    eps_grid = _eps_grid(eps_grid)
    # 2 lam_k of the first chunk (2k+1 <= 15) must not overflow; the 1e-12
    # margin covers the rounding of lam_k.  log P, about -(pi/2)/eps, stays
    # finite far below this bound.
    eps_min = 15.0 * np.pi / (2.0 * np.sqrt(np.finfo(float).max)) * (1.0 + 1e-12)
    if min(eps_grid) < eps_min:
        raise ValueError(f"eps must be at least {eps_min:.4g}, got eps = {min(eps_grid):g}: below it lam_k overflows")
    return np.array([_log_theta_sum(clock, t, eps, n_steps) for eps in eps_grid])


def _log_theta_sum(clock: ClockSpec, t: float, eps: float, n_steps: int | None) -> float:
    """One eps of :func:`log_smallball`, summed in chunks of 8, 16, 32, ... terms."""
    lam0 = np.pi**2 / (8.0 * eps * eps)
    log0, total = log_laplace(clock, t, lam0, n_steps)[0], 0.0
    for k0 in 8 * (2 ** np.arange(15) - 1):
        odd = 2.0 * np.arange(k0, 2 * k0 + 8) + 1.0
        terms = np.exp(log_laplace(clock, t, odd * odd * lam0, n_steps) - log0) / odd
        keep = terms >= 1e-17  # a prefix, as the terms fall
        total += float(np.sum(np.where(odd % 4 == 1, terms, -terms)[keep]))
        if not keep[-1]:
            return min(0.0, float(np.log(4.0 / np.pi) + log0 + np.log(total)))
    raise NumericError(f"theta series for eps={eps} did not converge in {2 * k0 + 8} terms")


# The benchmark's tracer and workloads look these names up in this module, so
# they stay, unexported, until the next change to the benchmark.

def estimate_smallball_raw(process, part, eps, cfg):
    return probe_smallball_raw(process, part, (eps,), cfg)[0]


def estimate_smallball_conditional(clock, t, eps, cfg):
    return probe_smallball_conditional(clock, t, (eps,), cfg)[0]


def estimate_laplace(spec, part, lam, cfg):
    return estimate_laplace_multi(spec, part, (lam,), cfg)[0]


def log_oracle_laplace_intbm2(lam, t):
    return float(log_laplace(PowerClockSpec(2.0), t, lam)[0])


def oracle_laplace_intbm2(lam, t):
    return float(np.exp(log_laplace(PowerClockSpec(2.0), t, lam)[0]))


def log_oracle_laplace_chaos(lam, t, q):
    return float(log_laplace(ChaosClockSpec(q), t, lam)[0])


def oracle_laplace_chaos(lam, t, q):
    return float(np.exp(log_laplace(ChaosClockSpec(q), t, lam)[0]))


def oracle_smallball_chaos(eps, t, q, n_steps=None):
    return float(np.exp(log_smallball(ChaosClockSpec(q), t, (eps,), n_steps)[0]))


# ---------------------------------------------------------------------------
# Exact law of the discrete-grid Brownian sup (matched-discretization oracle)
# ---------------------------------------------------------------------------

def sup_bm_grid_cdf(eps: float, n_steps: int, horizon: float = 1.0, points_per_sigma: float = 16.0) -> float:
    """Exact P(max_{1<=k<=N} |B(k h)| <= eps) for the grid maximum, h = T/N.

    The grid maximum is the running maximum of a Gaussian random walk.  On a
    midpoint grid of m points in [-eps, eps], spacing delta = sigma /
    points_per_sigma with sigma = sqrt(h), the killed Gaussian kernel A =
    delta K, K_ij = phi_sigma(x_i - x_j), is symmetric positive semidefinite,
    and the law is delta 1^T A^(N-1) f, where f_i = phi_sigma(x_i) is the
    density of B(h).  The power is applied by Lanczos (Gauss) quadrature
    (Golub & Meurant, "Matrices, Moments and Quadrature"): k steps from f,
    with full reorthogonalization, give A V = V T + residual, T = S Theta S^T,
    and the estimate delta |f| (V^T 1)^T S Theta^(N-1) S^T e_1.  It stops when
    two successive estimates agree to max(1e-14, 4 (N - 1) eps) relative
    (compared in logs, so an estimate that underflows never passes; one ulp of
    the largest Ritz value moves the estimate by up to (N - 1) eps, so the
    rule does not need the eigensolver to repeat it bit for bit), and when it
    is exact: k = N (the polynomial degree is reached), k = m, or a zero
    residual (the Krylov space is invariant).  Not converging in 1000 steps
    raises ``NumericError``.

    Each step costs one FFT matvec with A, O(k m) of reorthogonalization and
    the Ritz pairs of the k x k tridiagonal T (``eigh_tridiagonal``, LAPACK's
    divide and conquer), not a dense eigensolve.  At eps = 0.5 it takes 8 to
    31 steps for N = 64 to 4096, and the step count grows like
    eps sqrt(N / T) (about 150 at eps = 3, N = 4096).  The O(delta^2)
    midpoint-quadrature error remains: at (0.5, 512) points_per_sigma 8, 16 and 32 differ from 64 by 9.8e-4, 2.3e-4
    and 4.7e-5 relative.  This is the matched-discretization counterpart of
    ``sup_bm_cdf``: estimators that take sups over a grid must be compared
    against this law, not the continuous one.
    """
    from scipy import fft  # scipy.fft costs ~0.3 s to import; only this oracle uses it
    from scipy.linalg import eigh_tridiagonal

    for name, value in (("eps", eps), ("horizon", horizon), ("points_per_sigma", points_per_sigma)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    sig = np.sqrt(horizon / n_steps)
    m = max(8, int(np.ceil(2.0 * eps * points_per_sigma / sig)))
    delta = 2.0 * eps / m
    x = -eps + (np.arange(m) + 0.5) * delta
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * sig)
    f = norm * np.exp(-x * x / (2.0 * sig * sig))  # density of B(h) on [-eps, eps]
    offsets = np.arange(-(m - 1), m) * delta
    # A v is the 'valid' part of a linear convolution with the fixed kernel;
    # its transform is taken once, at a length free of wrap-around.
    size = fft.next_fast_len(3 * m - 2, real=True)
    kernel_hat = fft.rfft(delta * norm * np.exp(-offsets * offsets / (2.0 * sig * sig)), size)

    f_norm = float(np.linalg.norm(f))
    basis = np.empty((min(m, _LANCZOS_MAX_STEPS), m))
    basis[0] = f / f_norm
    alpha, beta, ones = [], [], []
    log_prev = -np.inf
    tol = max(_LANCZOS_RTOL, _LANCZOS_ULPS * (n_steps - 1) * np.finfo(float).eps)
    for k in range(basis.shape[0]):
        v = basis[: k + 1]
        w = fft.irfft(fft.rfft(v[k], size) * kernel_hat, size)[m - 1 : 2 * m - 1]
        alpha.append(v[k] @ w)
        ones.append(v[k].sum())
        for _ in range(2):  # classical Gram-Schmidt, twice, against the whole basis
            w -= v.T @ (v @ w)
        theta, s = eigh_tridiagonal(alpha, beta)
        # the Ritz values are scaled by the largest one, which is positive
        weight = (np.asarray(ones) @ s) * s[0] @ (theta / theta[-1]) ** (n_steps - 1)
        log_p = np.log(delta * f_norm) + (n_steps - 1) * np.log(theta[-1]) + np.log(weight) if weight > 0 else -np.inf
        b = float(np.linalg.norm(w))
        if abs(log_p - log_prev) <= tol or k + 1 in (n_steps, m) or b <= np.finfo(float).eps * theta[-1]:
            return float(min(1.0, np.exp(log_p)))
        log_prev = log_p
        beta.append(b)
        if k + 1 < basis.shape[0]:
            basis[k + 1] = w / b
    raise NumericError(
        f"grid-sup law for eps={eps}, n_steps={n_steps} did not converge in {_LANCZOS_MAX_STEPS} Lanczos steps"
    )


# ---------------------------------------------------------------------------
# Constant extraction from probe estimates
# ---------------------------------------------------------------------------

def _decreasing_eps(epsilons: Sequence[float]) -> tuple[float, ...]:
    eps = _eps_grid(epsilons)
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    return eps


@dataclass(frozen=True)
class ConstantExtraction:
    """Empirical K-hat sequence with a linear-in-eps extrapolation to eps = 0.

    ``k_hat_se`` holds the delta-method standard error of each K-hat,
    eps^a |log eps|^b SE(p)/p.  ``gaps`` holds |K_hat(eps_k) - K_extrapolated|
    along the grid; ``gaps_non_increasing`` reports whether the sequence
    contracts towards the extrapolated limit as eps decreases.  Probe points
    with non-positive estimates are dropped and recorded in ``dropped``.
    """

    epsilons: tuple[float, ...]
    k_hat: tuple[float, ...]
    k_hat_se: tuple[float, ...]
    extrapolated: float
    gaps: tuple[float, ...]
    gaps_non_increasing: bool
    dropped: tuple[int, ...] = field(default=())


def extract_constant(
    epsilons: Sequence[float], results: Sequence[EstimateResult], order: tuple[float, float]
) -> ConstantExtraction:
    """Turn probe estimates into K_hat(eps) = -eps^a |log eps|^b log p(eps).

    ``epsilons`` must be strictly decreasing, with one result per epsilon.
    The limit is estimated by a least-squares line in eps through the last
    three valid probe points, evaluated at eps = 0.  Needs at least three
    valid (positive-estimate) points.  The line is biased where K_hat has an
    eps log eps term: on the exact K_hat(eps) = pi/2 - eps log(4/eps) + ... of
    the geometric chaos clock at eps = 0.2, 0.15, 0.1 it returns 1.4293.
    """
    eps_all = np.asarray(_decreasing_eps(epsilons))
    if len(results) != eps_all.size:
        raise ValueError("need one result per epsilon")
    a, b = order
    p_all = np.asarray([r.estimate for r in results])
    se_all = np.asarray([r.std_error for r in results])
    valid = p_all > 0
    dropped = tuple(int(i) for i in np.nonzero(~valid)[0])
    eps = eps_all[valid]
    p = p_all[valid]
    if eps.size < 3:
        raise ValueError("need at least three positive probe estimates to extrapolate")
    scale = eps**a * np.abs(np.log(eps)) ** b
    k_hat = -scale * np.log(p)
    k_hat_se = scale * se_all[valid] / p
    slope, intercept = np.polyfit(eps[-3:], k_hat[-3:], 1)
    extrap = float(intercept)
    gaps = np.abs(k_hat - extrap)
    non_increasing = bool(np.all(np.diff(gaps) <= 0))
    return ConstantExtraction(
        tuple(map(float, eps)),
        tuple(map(float, k_hat)),
        tuple(map(float, k_hat_se)),
        extrap,
        tuple(map(float, gaps)),
        non_increasing,
        dropped,
    )


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
