"""Ground state of the operator -1/2 d^2/dx^2 + |x|^p on the real line.

The smallest eigenvalue lambda_1(p) of this operator is the variational
quantity behind the L^p small-deviation constant kappa_p.  It is computed by
second-order central differences on [-L, L] with Dirichlet walls, the smallest
eigenvalue of the resulting symmetric tridiagonal matrix located by
Sturm-sequence bisection, and Richardson extrapolation over grid doublings.

The potential is even, so the ground state is even: the matrix is reduced to
the even sector, a symmetric tridiagonal matrix on the nodes with x >= 0 (half
the unknowns).  The coarsest grid is bisected on (0, vu], vu the Rayleigh
quotient of the fixed trial vector cos(pi x / 2) on x < 1: 52 Sturm sweeps
over n/2 nodes.  Each refined grid is bisected in a bracket around the value
its coarser grids predict, each end certified by one LDL^T factorization
(Sylvester's law of inertia, Demmel, Applied Numerical Linear Algebra,
5.3.4): about 1e-3 wide and 42 sweeps at the first doubling, about 3e-7 wide
and 29-31 sweeps at the second.  Over the 16 values of p of the benchmark's
sweep (default grid) that is 124 sweeps per call instead of 156, and the
sweep takes 93-101 ms instead of 119-130 ms on a 2-core Xeon sandbox; no
bracket had to widen.  ``lambda1`` and ``ground_state`` share the Sturm
helper; ``ground_state`` bisects its one grid on (0, vu].

A double-precision Sturm count sees lambda only through fl(diag - lambda), so
grid values are resolved to half an ulp of 1/dx^2: 7.3e-12 at n = 8192 and
2.9e-11 at n = 16384 on the default L = 12.  At p = 200 that is about 1e-11
relative against a 40-digit count, well inside ``error_estimate`` (6.5e-9).

Closed-form anchors used by the tests: lambda_1(2) = 1/sqrt(2) (harmonic
oscillator with omega = sqrt(2)), lambda_1(1) = -a'_1 / 2^(1/3) with a'_1 the
first zero of Ai', and lambda_1(p) -> pi^2/8 as p -> infinity (square well on
(-1, 1)).

Importing this module loads numpy only; ``scipy.linalg`` (for LAPACK's
``dstebz``, ``dpttrf`` and ``dstein``) is imported by the Sturm helper on the
first call of ``lambda1`` or ``ground_state``.
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
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half_width must be positive and finite")
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


def _even_sector(p: float, half_width: float, n: int):
    """``_grid``'s matrix restricted to even vectors, on the nodes with x >= 0.

    The potential is even, so the ground state is even and an even vector is
    fixed by its values on x >= 0.  Returns (x, diag, off, trial): ``x`` is
    ``_grid``'s full node array, ``diag``/``off`` the symmetric tridiagonal
    matrix on its last len(diag) nodes, and ``trial`` the test vector whose
    Rayleigh quotient brackets the ground value (see ``_sturm_ground``).

    * n even: x = 0 is a node, coupled to both neighbours, which are equal on
      even vectors, so its row reads diag u0 + 2 off u1.  Scaling u0 by
      1/sqrt(2) symmetrizes the coupling to sqrt(2) off; eigenvectors carry
      that scaling in their first entry.
    * n odd: x = 0 lies between two nodes, and the mirror image of the first
      node x = dx/2 is its left neighbour, which adds off to the first diagonal
      entry.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ValueError("p must satisfy p >= 1 and be finite")
    x, diag, off_full = _grid(p, half_width, n)
    h = (n - 1) // 2  # index of the first node with x >= 0
    diag, off = diag[h:].copy(), off_full[h:].copy()
    xh = x[h:]
    trial = np.where(xh < 1.0, np.cos(0.5 * np.pi * xh), 0.0)
    if n % 2 == 0:
        off[0] *= np.sqrt(2.0)
        trial[0] /= np.sqrt(2.0)
    else:
        diag[0] += off_full[h - 1]
    if not trial.any():  # no node below x = 1: any vector bounds the ground value
        trial[0] = 1.0
    return x, diag, off, trial


def _sturm_ground(
    diag: np.ndarray, off: np.ndarray, trial: np.ndarray, centre: float = 0.0, half: float = np.inf, vector: bool = False
):
    """Smallest eigenvalue of a symmetric tridiagonal matrix by Sturm bisection.

    Uses LAPACK's bisection routine (dstebz) on a bracket (lo, hi] around the
    prediction ``centre`` +- ``half``, inside (0, vu], where vu is the
    Rayleigh quotient of ``trial``: every nonzero vector bounds the smallest
    eigenvalue from above, and the matrix is positive definite.  Each end
    inside (0, vu) is certified by one LDL^T factorization (dpttrf), which
    succeeds iff the shift lies below every eigenvalue (Sylvester's law of
    inertia); an end that fails moves 4 times as far from ``centre``, until
    it is certified or reaches 0 or vu.  The default bracket is (0, vu].
    A count in double precision sees the shift only to about an ulp of
    1/dx^2 (the Sturm resolution), so ``half`` is at least 64 such ulps and
    each certified end moves out by 64 more: dstebz's own counts at the ends
    then agree with the certificates.

    Without vu dstebz brackets by Gershgorin, whose upper end is about
    max(diag) (2/dx^2 + 12^p at the default L = 12, up to the 1e300 potential
    cap), and takes 71-87 bisection sweeps to reach its tolerance; from
    (0, vu] of about 1.5 it takes about 52, and about 1 fewer per halving of
    the bracket.  Each sweep is one Sturm count over the matrix, n/2 nodes on
    the even sector of an n-interval grid.  The tolerance is an explicit
    absolute one, because the default norm-relative tolerance is useless when
    wall potentials dominate the matrix norm.  A value that is not finite,
    not positive or above vu raises ``NumericError``.  With ``vector`` it
    returns (value, eigenvector), the vector from inverse iteration (dstein).
    """
    from scipy.linalg import lapack  # ~60 ms to import; only the Sturm calls use it

    rq = (diag @ trial**2 + 2.0 * off @ (trial[:-1] * trial[1:])) / (trial @ trial)
    vu = rq * (1.0 + 1e-12)  # headroom for the rounding in rq

    def below_spectrum(shift):
        return lapack.dpttrf(diag - shift, off)[2] == 0

    pad = 128.0 * np.finfo(float).eps * abs(off[-1])  # 64 ulps of 1/dx^2 = 2 |off|
    half = max(half, pad)
    lo, hi = centre - half, centre + half
    while lo > 0.0 and not below_spectrum(lo):
        lo = centre - 4.0 * (centre - lo)
    while hi < vu and below_spectrum(hi):
        hi = centre + 4.0 * (hi - centre)
    lo, hi = max(lo - pad, 0.0), min(hi + pad, vu)
    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 1, lo, hi, 0, 0, 2.0 * np.finfo(float).eps, b"E")
    if info != 0 or m < 1:
        raise NumericError(f"Sturm bisection failed: info={info}, found {m} eigenvalues")
    lam = float(w[0])
    if not np.isfinite(lam) or lam <= 0.0 or lam > vu:
        raise NumericError(f"Sturm bisection returned an implausible ground value {lam!r}")
    if not vector:
        return lam
    z, info = lapack.dstein(diag, off, w[:1], iblock, isplit)
    if info != 0:
        raise NumericError(f"inverse iteration for the ground eigenvector failed: info={info}")
    return lam, z[:, 0]


def _prediction(raw: list[float]) -> tuple[float, float]:
    """(centre, half-width) of the bracket for the next grid value after ``raw``.

    The scheme is second order, so the difference between successive grid
    values shrinks about 4 times per doubling: the next value is predicted at
    raw[-1] + delta/4, delta = raw[-1] - raw[-2], to within |delta|/16.  One
    grid value places the next within 1e-3 relative of itself (the first
    difference is below 0.1% on the default grids); none gives the full
    bracket.  A wrong prediction costs only time: ``_sturm_ground`` widens
    every end it cannot certify.
    """
    if not raw:
        return 0.0, np.inf
    if len(raw) == 1:
        return raw[0], 1e-3 * raw[0]
    delta = raw[-1] - raw[-2]
    return raw[-1] + delta / 4.0, abs(delta) / 16.0


def lambda1(p: float, cfg: EigenConfig = EigenConfig()) -> Lambda1Result:
    """Ground-state value lambda_1(p) of -1/2 u'' + |x|^p u.

    Richardson-extrapolates the Dirichlet finite-difference eigenvalue over
    ``cfg.richardson_levels`` grid doublings (second-order scheme, so each
    extrapolation stage removes the leading h^2 term).  Each refined grid is
    bisected in a certified bracket around the value its coarser grids
    predict (``_prediction``).  p must be finite: at p = inf the wall at
    x = +-1 falls on nodes at some levels and not at others, so the h^2
    expansion behind the extrapolation does not hold.
    """
    raw = []
    for k in range(cfg.richardson_levels + 1):
        _, diag, off, trial = _even_sector(p, cfg.half_width, cfg.grid_points * 2**k)
        centre, half = _prediction(raw)
        raw.append(_sturm_ground(diag, off, trial, centre, half))
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

    ``x`` is the interior node array of the full grid on [-L, L] and psi the
    Dirichlet eigenvector there, normalized so that trapezoidal
    ||psi||_2 = 1.  It is solved on the even sector and mirrored, so psi is
    even entry by entry.
    """
    n = cfg.grid_points * 2**cfg.richardson_levels  # even: x = 0 is a node
    x, diag, off, trial = _even_sector(p, cfg.half_width, n)
    _, half = _sturm_ground(diag, off, trial, vector=True)
    half[0] *= np.sqrt(2.0)  # undo the even sector's scaling of the x = 0 entry
    psi = np.concatenate((half[:0:-1], half))
    dx = 2.0 * cfg.half_width / n
    sq = psi**2
    norm_sq = dx * (sq.sum() - 0.5 * (sq[0] + sq[-1]))  # trapezoid; walls are 0
    psi = psi / np.sqrt(norm_sq)
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    return x, psi
