"""Reference values computed apart from the smallball package.

Nothing here imports smallball.  Each function uses a different method from
the program it checks:

* ``trapezoid_clock_eigenvalues``: the spectrum of the N-step trapezoid clock
  of one Brownian path, from a dense matrix and ``scipy.linalg.eigvalsh``
  (the program simulates paths instead).
* ``matched_chaos_smallball``: P(sup|B(C_N)| <= eps) for the discretized chaos
  clock, through the theta series and the exact Laplace transform of that
  spectrum.  This is the mean of the conditional estimator at N steps.
* ``cosh_laplace``: E exp(-lam int_0^1 B^2) = cosh(sqrt(2 lam))^(-1/2) in mpmath.
* ``grid_max_cdf``: the law of max_k |B(k/N)| by a Gauss-Legendre Nystrom
  discretization of the transfer operator, applied as a dense matrix (the
  program uses a midpoint grid and FFT convolution).
* ``airy_lambda1``: lambda_1(1) = |a'_1| 2^(-1/3) from ``scipy.special.ai_zeros``.
* ``theta_log_cdf`` and ``sech_product_smallball``: the theta series of the
  Brownian sup and the sech-product small-ball series in mpmath.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.linalg import eigvalsh
from scipy.optimize import brentq, minimize_scalar
from scipy.special import ai_zeros


def trapezoid_clock_eigenvalues(n_steps: int, horizon: float = 1.0) -> np.ndarray:
    """Eigenvalues mu_k of h^2 L^T diag(1, ..., 1, 1/2) L for one Brownian path.

    With X_i = sqrt(h) (xi_1 + ... + xi_i), the trapezoid integral
    h (X_0^2/2 + X_1^2 + ... + X_{N-1}^2 + X_N^2/2) equals sum_k mu_k chi2_1.
    Entry (l, m) of the matrix is h^2 (N - max(l, m) + 1/2), 1-indexed.
    """
    h = horizon / n_steps
    idx = np.arange(1, n_steps + 1)
    mat = h * h * (n_steps - np.maximum.outer(idx, idx) + 0.5)
    return eigvalsh(mat)


def _log_laplace_chaos(lams: np.ndarray, q: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """log E exp(-lam C_N) = -sum_{j,k} log(1 + 2 lam q_j^2 mu_k), one per lam."""
    qm = np.outer(q * q, mu).ravel()
    return -np.array([np.log1p(2.0 * lam * qm).sum() for lam in lams])


def _theta_coefficients(m: np.ndarray) -> np.ndarray:
    """(4/pi) (-1)^m / (2m+1), the theta-series weights."""
    return 4.0 / math.pi * np.where(m % 2 == 0, 1.0, -1.0) / (2 * m + 1)


def matched_chaos_smallball(eps: float, q, mu: np.ndarray) -> tuple[float, float]:
    """Mean and variance of F(eps / sqrt(C_N)) for the chaos clock with spectrum mu.

    F is the Brownian sup law, so the mean is P(sup_[0,1] |B(C_N)| <= eps):

        P = sum_m c_m E exp(-(2m+1)^2 lam0 C_N),  lam0 = pi^2 / (8 eps^2),

    and E F^2 = sum_{m,l} c_m c_l E exp(-((2m+1)^2 + (2l+1)^2) lam0 C_N).  The
    variance is the exact per-sample variance of the conditional estimator at
    N steps.  Terms are kept until the omitted ones are below 1e-17 of P.
    """
    q = np.asarray(q, dtype=float)
    lam0 = math.pi**2 / (8.0 * eps * eps)
    for terms in (8, 16, 32, 64, 128, 256, 512):
        m = np.arange(terms)
        odd2 = (2 * m + 1) ** 2
        single = _theta_coefficients(m) * np.exp(_log_laplace_chaos(odd2 * lam0, q, mu))
        if abs(single[-1]) <= 1e-17 * abs(single.sum()):
            break
    else:
        raise ArithmeticError(f"matched series for eps={eps} did not converge")
    mean = float(single.sum())
    pairs = np.add.outer(odd2, odd2)
    laplace = np.exp(_log_laplace_chaos(pairs.ravel() * lam0, q, mu)).reshape(pairs.shape)
    coef = _theta_coefficients(m)
    second = float(coef @ laplace @ coef)
    return mean, second - mean * mean


def _theta_cdf(x: float) -> float:
    """P(sup_[0,1] |B| <= x) by the theta series, for 0 < x <= 3."""
    k = np.arange(60)
    odd = 2 * k + 1
    return float(_theta_coefficients(k) @ np.exp(-(odd**2) * math.pi**2 / (8.0 * x * x)))


def conditional_z_bound(eps: float, q, mu: np.ndarray, n: int, alpha: float = 1e-7) -> float:
    """A z bound for the n-sample conditional estimator that false alarms rarely.

    The per-sample values F(eps / sqrt(C_N)) lie in [0, 1] but are heavy-tailed
    at small eps: one sample with a small clock value can lift the mean by many
    standard errors.  The bound is the first Z in 6 * 1.25^k for which either
    no single sample can lift the mean by Z standard errors, or n times the
    Chernoff bound min_lam e^(lam c) E e^(-lam C_N) on the clock value c that
    would do it is below ``alpha``.  This is a single-big-jump estimate of the
    upper tail, not a proof; below the threshold a normal tail applies.
    """
    q = np.asarray(q, dtype=float)
    mean, var = matched_chaos_smallball(eps, q, mu)
    se = math.sqrt(var / n)
    z = 6.0
    while True:
        threshold = mean + n * z * se
        if threshold >= 1.0:
            return z
        x = brentq(lambda v: _theta_cdf(v) - threshold, 1e-2, 3.0)
        c = (eps / x) ** 2
        res = minimize_scalar(
            lambda lam: lam * c + _log_laplace_chaos(np.array([lam]), q, mu)[0],
            bounds=(0.0, 1e6),
            method="bounded",
        )
        if n * math.exp(res.fun) <= alpha:
            return z
        z *= 1.25


def cosh_laplace(lam: float) -> float:
    """cosh(sqrt(2 lam))^(-1/2), the Laplace transform of int_0^1 B^2."""
    with mpmath.workdps(40):
        return float(mpmath.cosh(mpmath.sqrt(2 * mpmath.mpf(lam))) ** mpmath.mpf(-0.5))


def grid_max_cdf(eps: float, n_steps: int, nodes: int = 600) -> float:
    """P(max_{1<=k<=N} |B(k/N)| <= eps) by a dense Gauss-Legendre transfer matrix.

    The killed density is analytic on [-eps, eps], so Nystrom quadrature with
    Gauss-Legendre nodes converges spectrally; ``nodes`` is far beyond the
    Gaussian kernel width sigma = N^(-1/2) at the sizes used here.
    """
    sig = math.sqrt(1.0 / n_steps)
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = x * eps
    w = w * eps
    gauss = np.exp(-np.subtract.outer(x, x) ** 2 / (2.0 * sig * sig)) / (math.sqrt(2.0 * math.pi) * sig)
    kernel = gauss * w[None, :]
    f = np.exp(-x * x / (2.0 * sig * sig)) / (math.sqrt(2.0 * math.pi) * sig)
    for _ in range(n_steps - 1):
        f = kernel @ f
    return float(w @ f)


def airy_lambda1() -> float:
    """lambda_1(1) = |a'_1| / 2^(1/3), with a'_1 the first zero of Ai'."""
    _, a_prime, _, _ = ai_zeros(1)
    return float(abs(a_prime[0]) * 2.0 ** (-1.0 / 3.0))


def theta_log_cdf(x: float) -> float:
    """log P(sup_[0,1] |B| <= x) from the alternating theta series in mpmath."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        c = mpmath.pi**2 / (8 * xm * xm)
        total = mpmath.mpf(0)
        k = 0
        while True:
            odd = 2 * k + 1
            term = (-1) ** k / mpmath.mpf(odd) * mpmath.exp(-odd * odd * c)
            total += term
            if abs(term) < mpmath.mpf(10) ** -45 * abs(total):
                break
            k += 1
        return float(mpmath.log(4 / mpmath.pi * total))


def sech_product_smallball(eps: float, q) -> float:
    """P(sup_[0,1] |B(C)| <= eps) for the continuous chaos clock, in mpmath.

    P = (4/pi) sum_k (-1)^k / (2k+1) prod_j sech((2k+1) q_j pi / (2 eps)).
    """
    with mpmath.workdps(40):
        a = mpmath.pi / (2 * mpmath.mpf(eps))
        qs = [mpmath.mpf(v) for v in q]
        total = mpmath.mpf(0)
        k = 0
        while True:
            odd = 2 * k + 1
            prod = mpmath.mpf(1)
            for qj in qs:
                prod *= mpmath.sech(odd * qj * a)
            term = (-1) ** k / mpmath.mpf(odd) * prod
            total += term
            if abs(term) < mpmath.mpf(10) ** -30 * abs(total):
                break
            k += 1
        return float(4 / mpmath.pi * total)
