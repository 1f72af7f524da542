"""Ground state of the operator -1/2 d^2/dx^2 + |x|^p on the real line.

The smallest eigenvalue lambda_1(p) of this operator is the variational
quantity behind the L^p small-deviation constant kappa_p.  It is computed by
second-order central differences on [-L, L] with Dirichlet walls, the smallest
eigenvalue of the resulting symmetric tridiagonal matrix located by
Sturm-sequence bisection, and Richardson extrapolation over grid doublings.

Closed-form anchors used by the tests: lambda_1(2) = 1/sqrt(2) (harmonic
oscillator with omega = sqrt(2)), lambda_1(1) = -a'_1 / 2^(1/3) with a'_1 the
first zero of Ai', and lambda_1(p) -> pi^2/8 as p -> infinity (square well on
(-1, 1)).

Importing this module loads numpy only; ``scipy.linalg`` (for LAPACK's
``dstebz`` and ``dstein``) is imported by the Sturm helper on the first call
of ``lambda1`` or ``ground_state``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = ["EigenConfig", "Lambda1Result", "lambda1", "ground_state"]

# Potentials above this behave as hard walls; keeping entries finite protects
# the bisection bracket for very large p.
_POTENTIAL_CAP = 1e300


@dataclass(frozen=True)
class EigenConfig:
    """Discretization parameters: domain [-L, L], grid size, extrapolation depth.

    ``grid_points`` is the number of subintervals of [-L, L] (interior Dirichlet
    unknowns: n - 1).  ``richardson_levels`` counts grid doublings; level k uses
    2^k * grid_points subintervals.
    """

    half_width: float = 12.0
    grid_points: int = 4096
    richardson_levels: int = 2

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.grid_points < 64:
            raise ValueError("grid_points must be at least 64")
        if self.richardson_levels < 1:
            raise ValueError("richardson_levels must be at least 1")


@dataclass(frozen=True)
class Lambda1Result:
    """Extrapolated ground-state value with an error estimate.

    ``error_estimate`` is the magnitude of the last Richardson correction; the
    raw per-grid eigenvalues are kept for convergence diagnostics.
    """

    value: float
    error_estimate: float
    grid_values: tuple[float, ...]

    def __float__(self) -> float:
        return self.value


def _grid(p: float, half_width: float, n: int):
    """Interior grid and tridiagonal entries for -1/2 u'' + |x|^p u."""
    dx = 2.0 * half_width / n
    x = -half_width + dx * np.arange(1, n)
    with np.errstate(over="ignore"):
        v = np.minimum(np.abs(x) ** p, _POTENTIAL_CAP)
    diag = 1.0 / dx**2 + v
    off = np.full(n - 2, -0.5 / dx**2)
    return x, diag, off


def _sturm_ground(diag: np.ndarray, off: np.ndarray, vector: bool = False):
    """Smallest eigenvalue of a symmetric tridiagonal matrix by Sturm bisection.

    Uses LAPACK's bisection routine (dstebz) with an explicit absolute
    tolerance; the default norm-relative tolerance is useless when wall
    potentials dominate the matrix norm.  A value that is not finite, not
    positive or above max(diag) + 1 raises ``NumericError``.  With ``vector``
    it returns (value, eigenvector), the vector from inverse iteration (dstein).
    """
    from scipy.linalg import lapack  # ~60 ms to import; only the Sturm calls use it

    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 1, 2.0 * np.finfo(float).eps, b"B")
    if info != 0 or m < 1:
        raise NumericError(f"Sturm bisection failed: info={info}, found {m} eigenvalues")
    lam = float(w[0])
    if not np.isfinite(lam) or lam <= 0.0 or lam > float(np.max(diag)) + 1.0:
        raise NumericError(f"Sturm bisection returned an implausible ground value {lam!r}")
    if not vector:
        return lam
    z, info = lapack.dstein(diag, off, w[:1], iblock, isplit)
    if info != 0:
        raise NumericError(f"inverse iteration for the ground eigenvector failed: info={info}")
    return lam, z[:, 0]


def lambda1(p: float, cfg: EigenConfig = EigenConfig()) -> Lambda1Result:
    """Ground-state value lambda_1(p) of -1/2 u'' + |x|^p u.

    Richardson-extrapolates the Dirichlet finite-difference eigenvalue over
    ``cfg.richardson_levels`` grid doublings (second-order scheme, so each
    extrapolation stage removes the leading h^2 term).
    """
    if p < 1:
        raise ValueError("p must satisfy p >= 1")
    raw = []
    for k in range(cfg.richardson_levels + 1):
        _, diag, off = _grid(p, cfg.half_width, cfg.grid_points * 2**k)
        raw.append(_sturm_ground(diag, off))
    # Richardson triangle for an h^2-expansion: stage m cancels the h^(2m) term.
    table = [raw]
    for m in range(1, cfg.richardson_levels + 1):
        fac = 4.0**m
        prev = table[-1]
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
    value = table[-1][0]
    err = abs(value - table[-2][-1])
    return Lambda1Result(value, err, tuple(raw))


def ground_state(p: float, cfg: EigenConfig = EigenConfig()):
    """Ground-state eigenpair (x, psi) on the finest grid, for diagnostics.

    psi is the Dirichlet eigenvector (interior nodes), normalized so that
    trapezoidal ||psi||_2 = 1.  The potential is even, so psi should be even
    up to grid symmetry.
    """
    if p < 1:
        raise ValueError("p must satisfy p >= 1")
    n = cfg.grid_points * 2**cfg.richardson_levels
    x, diag, off = _grid(p, cfg.half_width, n)
    _, psi = _sturm_ground(diag, off, vector=True)
    dx = 2.0 * cfg.half_width / n
    sq = psi**2
    norm_sq = dx * (sq.sum() - 0.5 * (sq[0] + sq[-1]))  # trapezoid; walls are 0
    psi = psi / np.sqrt(norm_sq)
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    return x, psi
