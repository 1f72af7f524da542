"""Closed-form small-deviation constants and Laplace/small-ball conversions.

Everything in this module is a pure function of its arguments.  The central
object is the asymptotic order of a positive random variable X: a triple
(alpha, beta, K) with

    lim_{eps -> 0}  eps^alpha |log eps|^beta log P(X <= eps) = -K,

together with its Laplace-transform counterpart at lambda -> infinity.  The
remaining operations evaluate the explicit constants for sup-norm small
deviations of time-changed Brownian motion, weighted L^p clocks, iterated
processes, weighted sums of i.i.d. clocks, and second-order chaos integrals.

Conventions fixed here and used by the whole package:

* ``K_i`` for an L^p clock carries the kappa_p factor inside, i.e.
  K_i = kappa_p * (Delta_i t)^((2+p)/p) for a unit intrinsic weight.  This is
  the only placement under which the clock constant, the time-change constant
  and the chaos sup constant agree exactly (see ``tsb_constant`` and
  ``chaos_sup_constant``).
* ``omega_one_norm`` is the trace norm of the antisymmetric operator behind a
  chaos integral: 2 * sum_j q_j, each singular value counted with its natural
  multiplicity 2 (see :mod:`smallball.spectral`).
* Geometric weight sequences are indexed from j = 0, so the first weight is 1
  and the closed form K / (1 - sigma^(alpha/(1+alpha)))^(1+alpha) applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AsymptoticOrder",
    "LaplaceOrder",
    "Partition",
    "IteratedSpec",
    "WeightSequenceSpec",
    "ClockOrder",
    "tauberian_forward",
    "tauberian_inverse",
    "sup_bm_cdf",
    "sup_bm_log_cdf",
    "kappa_p",
    "weighted_lp_clock_order",
    "tsb_constant",
    "iterated_first_order_constant",
    "iterated_rate_exponent",
    "weighted_sum_constant",
    "chaos_sup_constant",
    "chaos_clock_constant",
]

# Truncation threshold for the alternating theta series; the first omitted
# term is below this, so the series remainder is under 1e-14 everywhere.
_THETA_TOL = 1e-17

# Values per block of ``sup_bm_log_cdf``: 128 KB of doubles, so a block's
# temporaries stay in cache and a call's memory does not grow with its size.
_THETA_BLOCK = 2**14

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class AsymptoticOrder:
    """Small-ball order (alpha, beta, K) of a positive random variable.

    Encodes  lim eps^alpha |log eps|^beta log P(X <= eps) = -K  with
    alpha > 0 and K > 0.
    """

    alpha: float
    beta: float
    big_k: float

    def __post_init__(self):
        _require(math.isfinite(self.alpha) and self.alpha > 0, "alpha must be positive and finite")
        _require(math.isfinite(self.beta), "beta must be finite")
        _require(math.isfinite(self.big_k) and self.big_k > 0, "K must be positive and finite")


@dataclass(frozen=True)
class LaplaceOrder:
    """Laplace-transform order of a positive random variable.

    Encodes  lim lambda^(-p) (log lambda)^q log E[exp(-lambda X)] = -L  with
    p = pow_exponent in (0,1), q = log_exponent, L = big_l > 0.
    """

    pow_exponent: float
    log_exponent: float
    big_l: float

    def __post_init__(self):
        _require(0.0 < self.pow_exponent < 1.0, "pow_exponent must lie in (0, 1)")
        _require(math.isfinite(self.log_exponent), "log_exponent must be finite")
        _require(math.isfinite(self.big_l) and self.big_l > 0, "L must be positive and finite")


@dataclass(frozen=True)
class Partition:
    """Time partition 0 = t_0 < t_1 < ... < t_m with optional windows/weights.

    ``windows`` are interlaced pairs (a_i, b_i) with
    0 <= a_1 < b_1 <= a_2 < b_2 <= ... <= a_m < b_m, used for joint sup-norm
    window events.  ``weights`` are strictly decreasing positive d_i, used for
    weighted clock functionals sum_i d_i * Delta_i C.
    """

    times: tuple[float, ...]
    windows: tuple[tuple[float, float], ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        _require(len(times) >= 1, "partition needs at least one time")
        _require(times[0] > 0, "t_1 must be positive (t_0 = 0 is implicit)")
        _require(all(a < b for a, b in zip(times, times[1:])), "times must be strictly increasing")
        if self.windows is not None:
            w = tuple((float(a), float(b)) for a, b in self.windows)
            object.__setattr__(self, "windows", w)
            _require(len(w) == len(times), "need one (a_i, b_i) window per time")
            _require(w[0][0] >= 0, "a_1 must be nonnegative")
            flat = [v for ab in w for v in ab]
            # interlacing: a_1 < b_1 <= a_2 < b_2 <= ...
            for i in range(len(flat) - 1):
                if i % 2 == 0:
                    _require(flat[i] < flat[i + 1], "windows require a_i < b_i")
                else:
                    _require(flat[i] <= flat[i + 1], "windows require b_i <= a_{i+1}")
        if self.weights is not None:
            d = tuple(float(x) for x in self.weights)
            object.__setattr__(self, "weights", d)
            _require(len(d) == len(times), "need one weight per time")
            _require(d[-1] > 0, "weights must be positive")
            _require(all(x > y for x, y in zip(d, d[1:])), "weights must be strictly decreasing")

    @property
    def m(self) -> int:
        return len(self.times)

    @property
    def delta_t(self) -> np.ndarray:
        """Interval lengths Delta_i t = t_i - t_{i-1} (with t_0 = 0)."""
        t = np.asarray(self.times)
        return np.diff(np.concatenate(([0.0], t)))

    @property
    def horizon(self) -> float:
        return self.times[-1]


@dataclass(frozen=True)
class IteratedSpec:
    """Data for the first-order constant of an iterated process X(C(t)).

    The outer process X has sup-norm order
    lim eps^theta log P(sup_{[0,t]}|X| <= eps) = -kappa * t^rho, and the inner
    clock C has order ``clock_order`` (with beta = 0) at the fixed horizon.
    """

    theta: float
    kappa: float
    rho: float
    clock_order: AsymptoticOrder

    def __post_init__(self):
        _require(self.theta > 0 and self.kappa > 0 and self.rho > 0, "theta, kappa, rho must be positive")
        _require(self.clock_order.beta == 0.0, "iterated composition requires a beta = 0 clock order")


@dataclass(frozen=True)
class WeightSequenceSpec:
    """Summable positive weight sequence: explicit list, polynomial or geometric.

    * ``explicit``: the given finite list (positive).
    * ``polynomial``: a_j = j^(-r) for j >= 1, requires r > 1.
    * ``geometric``: a_j = sigma^j for j >= 0, requires sigma in (0, 1).
    """

    kind: str
    values: tuple[float, ...] | None = None
    exponent: float | None = None
    ratio: float | None = None

    def __post_init__(self):
        if self.kind == "explicit":
            _require(self.values is not None and len(self.values) > 0, "explicit kind needs values")
            vals = tuple(float(v) for v in self.values)
            _require(all(v > 0 for v in vals), "explicit weights must be positive")
            object.__setattr__(self, "values", vals)
        elif self.kind == "polynomial":
            _require(self.exponent is not None and self.exponent > 1, "polynomial decay requires exponent r > 1")
        elif self.kind == "geometric":
            _require(self.ratio is not None and 0 < self.ratio < 1, "geometric decay requires ratio in (0, 1)")
        else:
            raise ValueError(f"unknown weight sequence kind: {self.kind!r}")

    @classmethod
    def explicit(cls, values) -> "WeightSequenceSpec":
        return cls("explicit", values=tuple(values))

    @classmethod
    def polynomial(cls, r: float) -> "WeightSequenceSpec":
        return cls("polynomial", exponent=float(r))

    @classmethod
    def geometric(cls, sigma: float) -> "WeightSequenceSpec":
        return cls("geometric", ratio=float(sigma))


@dataclass(frozen=True)
class ClockOrder:
    """Per-interval constants K_i and the combined order of a weighted clock."""

    per_interval_k: tuple[float, ...]
    combined: float
    order: AsymptoticOrder = field(repr=False)


# ---------------------------------------------------------------------------
# Tauberian conversion
# ---------------------------------------------------------------------------

def tauberian_forward(o: AsymptoticOrder) -> LaplaceOrder:
    """Convert a small-ball order into its Laplace-transform order.

    With (alpha, beta, K) on the probability side, the transform side decays as
    lambda^(alpha/(1+alpha)) (log lambda)^(-beta/(1+alpha)) with limit constant

        L = (1 + alpha)^(1 + beta/(1+alpha)) * (alpha^(-alpha) * K)^(1/(1+alpha)).
    """
    a, b, k = o.alpha, o.beta, o.big_k
    one_a = 1.0 + a
    big_l = one_a ** (1.0 + b / one_a) * (a ** (-a) * k) ** (1.0 / one_a)
    return LaplaceOrder(a / one_a, b / one_a, big_l)


def tauberian_inverse(l: LaplaceOrder) -> AsymptoticOrder:
    """Recover the small-ball order from a Laplace-transform order.

    Exact algebraic inverse of :func:`tauberian_forward`:
    alpha = p/(1-p), beta = q*(1+alpha), and
    K = alpha^alpha * (L / (1+alpha)^(1+beta/(1+alpha)))^(1+alpha).
    """
    p = l.pow_exponent
    if not 0.0 < p < 1.0:
        raise ValueError("pow_exponent outside (0, 1): not a valid Laplace order")
    a = p / (1.0 - p)
    one_a = 1.0 + a
    b = l.log_exponent * one_a
    k = a ** a * (l.big_l / one_a ** (1.0 + b / one_a)) ** one_a
    return AsymptoticOrder(a, b, k)


# ---------------------------------------------------------------------------
# Exact law of sup |B| on [0, 1]
# ---------------------------------------------------------------------------

def sup_bm_log_cdf(x):
    """log P(sup_{[0,1]} |B(s)| <= x) for standard Brownian motion.

    For x < 2 evaluates the alternating theta series

        P = (4/pi) sum_{k>=0} (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 / (8 x^2))

    in log form, factoring out the leading exponent so the result stays
    meaningful far below double-precision underflow of the probability itself.
    For x >= 2 it switches to the complement via the Gaussian reflection
    series, P(sup > x) = 4 sum_{k>=0} (-1)^k Qbar((2k+1) x), so the log cdf
    resolves tail values down to ~1e-300 and stays strictly increasing.
    Accepts scalars or arrays of any shape and memory layout; series
    remainders are kept below 1e-14 relative.

    The flattened argument is evaluated in blocks of ``_THETA_BLOCK`` values
    (128 KB), each written straight into the one output array.  Every value is
    computed elementwise, so it does not depend on the block it falls in, and
    the temporaries of a call stay below 1 MB beside the output whatever the
    argument's size (0.6 MB at 10^6 values, where the output is 7.6 MB).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat = out.reshape(-1)  # a view: out is C-ordered
    for lo in range(0, flat.size, _THETA_BLOCK):
        _theta_block(x.flat[lo : lo + _THETA_BLOCK], flat[lo : lo + _THETA_BLOCK])
    return float(out) if out.ndim == 0 else out


def _theta_series(x: np.ndarray) -> np.ndarray:
    """log P from the theta series for the 1-D array x.

    The series in the reduced variable: S = sum (-1)^k/(2k+1) e^{-4k(k+1)c},
    c = pi^2/(8 x^2), so log P = log(4/pi) - c + log S.  Term k joins only
    the rows where it is above _THETA_TOL, so no value depends on the rest of
    the array.
    """
    c = np.pi**2 / (8.0 * x**2)
    s = np.ones_like(c)
    rows, k = np.arange(c.size), 1
    while rows.size:
        exponent = 4 * k * (k + 1) * c[rows]
        keep = exponent < np.log(1.0 / _THETA_TOL)
        rows = rows[keep]
        s[rows] += (-1) ** k / (2 * k + 1) * np.exp(-exponent[keep])
        k += 1
    return np.log(4.0 / np.pi) - c + np.log(s)


def _theta_block(x: np.ndarray, out: np.ndarray) -> None:
    """``sup_bm_log_cdf`` of the 1-D block x into out."""
    if not np.all(x > 0):  # also rejects nan, which x <= 0 lets through
        raise ValueError("x must be positive")
    small = x < 2.0
    if small.any():
        out[small] = _theta_series(x[small])  # c >= pi^2/32 on x < 2 caps the count at six terms
    if not small.all():
        from scipy.special import erfc  # loaded on the first x >= 2; sup_bm_cdf, and so every probe, never asks

        z = x[~small] / np.sqrt(2.0)
        # 4 Qbar(y) = 2 erfc(y / sqrt 2); the next term, Qbar(5x) <= 3.4e-22 Qbar(x)
        # on x >= 2, is below half an ulp of the two-term sum, so two terms give
        # the same double as any longer series
        out[~small] = np.log1p(-2.0 * (erfc(z) - erfc(3.0 * z)))


def sup_bm_cdf(x):
    """P(sup_{[0,1]} |B(s)| <= x); exact alternating theta series.

    Values increase strictly from 0 to 1; the probability underflows to 0.0 in
    double precision for x below about 0.04 (use :func:`sup_bm_log_cdf` there).
    Below x = 2 this is exp(:func:`sup_bm_log_cdf`).  From x = 2 on, where the
    log form turns to the Gaussian complement and loads scipy, P itself needs
    no complement: the theta series, at most 22 terms, gives it to a few ulps
    (5.6e-16 absolute at most on [2, 8.5] against 40-digit mpmath), and from
    x = 8.5 on P = 1 - 4 Qbar(x) + ... rounds to 1 (4 Qbar(8.5) = 3.8e-17 is
    below half an ulp of 1).  So it loads no scipy module.
    """
    x = np.asarray(x, dtype=float)
    big = x >= 2.0
    if not big.any():
        return np.exp(sup_bm_log_cdf(x))
    p = np.ones(x.shape)
    p[~big] = np.exp(sup_bm_log_cdf(x[~big]))
    mid = big & (x < 8.5)
    p[mid] = np.exp(_theta_series(x[mid]))
    return p if p.ndim else p[()]


# ---------------------------------------------------------------------------
# L^p clock constants
# ---------------------------------------------------------------------------

def kappa_p(p: float, lambda1: float) -> float:
    """First-order constant for L^p-norm small deviations of Brownian motion.

        kappa_p = 2^(2/p) * p * (lambda1(p) / (2+p))^((2+p)/2)

    where ``lambda1`` is the ground-state value of the Schroedinger problem
    -1/2 u'' + |x|^p u (see :func:`smallball.schrodinger.lambda1`).
    For p = 2, lambda1 = 1/sqrt(2) and kappa_2 = 1/8.
    """
    if p < 1:
        raise ValueError("p must satisfy p >= 1")
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    return 2.0 ** (2.0 / p) * p * (lambda1 / (2.0 + p)) ** ((2.0 + p) / 2.0)


def weighted_lp_clock_order(p: float, kappa: float, part: Partition) -> ClockOrder:
    """Order data for the weighted L^p clock functional sum_i d_i Delta_i C.

    With C(t) = int_0^t |B|^p ds (unit intrinsic weight), each interval
    contributes K_i = kappa * (Delta_i t)^((2+p)/p), and the weighted sum has
    order alpha = 2/p, beta = 0 with combined constant

        ( sum_i (d_i^alpha K_i)^(1/(1+alpha)) )^(1+alpha).

    ``kappa`` is kappa_p for the chosen p (pass 1/8 for p = 2, or the value
    from :func:`kappa_p`); it sits inside K_i by convention.
    """
    if p < 1:
        raise ValueError("p must satisfy p >= 1")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if part.weights is None:
        raise ValueError("partition must carry weights d_i")
    alpha = 2.0 / p
    dt = part.delta_t
    per_k = kappa * dt ** ((2.0 + p) / p)
    d = np.asarray(part.weights)
    combined = float(np.sum((d**alpha * per_k) ** (1.0 / (1.0 + alpha))) ** (1.0 + alpha))
    return ClockOrder(tuple(per_k), combined, AsymptoticOrder(alpha, 0.0, combined))


# ---------------------------------------------------------------------------
# Time-changed sup-norm constant
# ---------------------------------------------------------------------------

def tsb_constant(alpha: float, beta: float, per_interval_k, b) -> float:
    """Joint window constant for the sup of a time-changed Brownian motion.

    For Z = B(C) with clock order (alpha, beta, K_i) per interval, the joint
    event {a_i eps <= sup_{[0,t_i]}|Z| <= b_i eps} has

        lim eps^(2a/(1+a)) |log eps|^(b/(1+a)) log P
            = -2^(-beta/(1+alpha)) (1+alpha)^(1+beta/(1+alpha))
              (pi^2/(8 alpha))^(alpha/(1+alpha))
              sum_i (K_i / b_i^(2 alpha))^(1/(1+alpha)),

    and this function returns the (positive) constant on the right.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    ks = np.asarray(per_interval_k, dtype=float)
    bs = np.asarray(b, dtype=float)
    if ks.shape != bs.shape:
        raise ValueError("per-interval constants and window bounds must have equal length")
    if np.any(ks <= 0) or np.any(bs <= 0):
        raise ValueError("per-interval constants and window bounds must be positive")
    one_a = 1.0 + alpha
    front = 2.0 ** (-beta / one_a) * one_a ** (1.0 + beta / one_a) * (np.pi**2 / (8.0 * alpha)) ** (alpha / one_a)
    return float(front * np.sum((ks / bs ** (2.0 * alpha)) ** (1.0 / one_a)))


def iterated_first_order_constant(s: IteratedSpec) -> float:
    """First-order sup constant of an iterated process X(C(t)) at fixed t.

    With outer order (theta, kappa, rho) and clock order (alpha, K):

        lim eps^(alpha theta/(rho+alpha)) log P(sup |X(C)| <= eps)
            = -(rho+alpha) (kappa^alpha rho^(-rho) alpha^(-alpha) K^rho)^(1/(rho+alpha)).

    Returns the positive constant.  With Brownian outer data theta = 2,
    kappa = pi^2/8, rho = 1 this reduces to ``tsb_constant`` on one interval.
    """
    a = s.clock_order.alpha
    k = s.clock_order.big_k
    rho, kap = s.rho, s.kappa
    return float((rho + a) * (kap**a * rho ** (-rho) * a ** (-a) * k**rho) ** (1.0 / (rho + a)))


def iterated_rate_exponent(s: IteratedSpec) -> float:
    """The eps-exponent alpha*theta/(rho+alpha) matching the constant above."""
    a = s.clock_order.alpha
    return a * s.theta / (s.rho + a)


# ---------------------------------------------------------------------------
# Weighted sums of i.i.d. clocks
# ---------------------------------------------------------------------------

def _weight_powers_sum(w: WeightSequenceSpec, exponent: float) -> float:
    """sum_j a_j^exponent for the weight sequence.

    Polynomial weights a_j = j^(-r) sum to the Riemann zeta function
    zeta(r exponent), which ``scipy.special.zeta`` gives to a few units of
    roundoff (within 3.4e-16 relative of 40-digit mpmath for s from 1.0001
    to 60).
    """
    if w.kind == "explicit":
        return float(np.sum(np.asarray(w.values) ** exponent))
    if w.kind == "geometric":
        r = w.ratio**exponent
        return 1.0 / (1.0 - r)  # sum over j >= 0
    # polynomial: a_j = j^(-r); converges iff r * exponent > 1
    s = w.exponent * exponent
    if s <= 1:
        raise ValueError("polynomial weights not summable at this order (need r > (1+alpha)/alpha)")
    from scipy.special import zeta  # loaded by the first polynomial weight sum only

    return float(zeta(s))


def weighted_sum_constant(base: AsymptoticOrder, w: WeightSequenceSpec) -> float:
    """Small-ball constant of S = sum_j a_j zeta_j for i.i.d. clocks zeta_j.

    If each zeta_j has order (alpha, 0, K), the sum keeps the same exponents
    and the constant becomes K * (sum_j a_j^(alpha/(1+alpha)))^(1+alpha).
    Geometric weights sigma^j (j >= 0) give the closed form
    K / (1 - sigma^(alpha/(1+alpha)))^(1+alpha), explicit weights their finite
    sum, and polynomial weights j^(-r) the closed form
    K zeta(r alpha/(1+alpha))^(1+alpha).
    """
    if base.beta != 0.0:
        raise ValueError("weighted sums are supported for beta = 0 orders only")
    a = base.alpha
    expo = a / (1.0 + a)
    ssum = _weight_powers_sum(w, expo)
    return float(base.big_k * ssum ** (1.0 + a))


# ---------------------------------------------------------------------------
# Second-order chaos constants
# ---------------------------------------------------------------------------

def chaos_sup_constant(omega_one_norm: float, part: Partition) -> float:
    """Joint window sup constant of a chaos integral: (pi/4) ||w||_1 sum_i Delta_i t / b_i.

    ``part`` must carry windows; only the upper bounds b_i enter.  The norm is
    in the trace convention ||w||_1 = 2 sum_j q_j.
    """
    if omega_one_norm <= 0:
        raise ValueError("omega_one_norm must be positive")
    if part.windows is None:
        raise ValueError("partition must carry windows (a_i, b_i)")
    b = np.asarray([w[1] for w in part.windows])
    return float(np.pi / 4.0 * omega_one_norm * np.sum(part.delta_t / b))


def chaos_clock_constant(omega_one_norm: float, part: Partition) -> float:
    """Clock constant of a chaos quadratic variation under decreasing weights d_i.

        lim eps log P( sum_i d_i Delta_i <Z> <= eps )
            = -(1/8) ||w||_1^2 ( sum_i d_i^(1/2) Delta_i t )^2.

    Returns the positive constant.  This convention (1/8 inside) is the one
    consistent with ``tsb_constant`` and ``chaos_sup_constant``.
    """
    if omega_one_norm <= 0:
        raise ValueError("omega_one_norm must be positive")
    if part.weights is None:
        raise ValueError("partition must carry weights d_i")
    d = np.asarray(part.weights)
    return float(omega_one_norm**2 / 8.0 * np.sum(np.sqrt(d) * part.delta_t) ** 2)
