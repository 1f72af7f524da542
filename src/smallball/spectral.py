"""Spectral data of antisymmetric bilinear forms given as finite real matrices.

A real antisymmetric matrix A has purely imaginary eigenvalues occurring in
conjugate pairs {+-i q_j} (plus zeros), so its singular values come in equal
pairs q_j, q_j.  The collapsed sequence q_1 >= q_2 >= ... defines the chaos
clock weights, with the trace norm counted over both members of each pair:
||w||_1 = 2 sum_j q_j and ||w||_HS^2 = 2 sum_j q_j^2.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError

__all__ = [
    "AntisymmetricMatrix",
    "SpectralData",
    "singular_pairs",
    "project",
    "interlace_check",
    "load_matrix",
]

_ANTISYM_ATOL = 1e-12          # tolerance for A^T = -A on construction
_PAIR_RTOL = 1e-9              # relative tolerance for collapsing eigenvalue pairs of A^T A


@dataclass(frozen=True)
class AntisymmetricMatrix:
    """Dense real antisymmetric matrix, validated on construction."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
        if not np.allclose(a.T, -a, atol=_ANTISYM_ATOL * scale, rtol=0.0):
            raise ValueError("matrix is not antisymmetric (A^T != -A within 1e-12)")
        object.__setattr__(self, "a", a)

    @property
    def dimension(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class SpectralData:
    """Collapsed singular values q_1 >= ... >= q_r of an antisymmetric operator."""

    q: tuple[float, ...]

    def __post_init__(self):
        q = tuple(float(v) for v in self.q)
        if any(v <= 0 for v in q):
            raise ValueError("singular values must be positive")
        if any(a < b for a, b in zip(q, q[1:])):
            raise ValueError("singular values must be non-increasing")
        object.__setattr__(self, "q", q)

    @property
    def one_norm(self) -> float:
        """Trace norm 2 sum_j q_j (each pair member counted)."""
        return 2.0 * float(np.sum(self.q))

    @property
    def hs_norm_sq(self) -> float:
        """Squared Hilbert-Schmidt norm 2 sum_j q_j^2."""
        return 2.0 * float(np.sum(np.square(self.q)))


def singular_pairs(mat: AntisymmetricMatrix) -> SpectralData:
    """Collapse the paired singular values of an antisymmetric matrix.

    Computed as square roots of the eigenvalues of A^T A, which occur with
    even multiplicity; each adjacent pair collapses to a single q_j.  Zero
    detection and pair clustering happen in eigenvalue space, where symmetric
    backward error gives a clean absolute floor n * eps * ||A||^2 (squaring A
    leaves near-zero singular values with only half the digits, so a
    singular-value-space threshold would be far too optimistic).  A leftover
    unpaired value raises :class:`NumericError`.
    """
    a = mat.a
    if a.shape[0] == 0:
        return SpectralData(())
    evals = np.linalg.eigvalsh(a.T @ a)[::-1]  # non-increasing
    evals = np.maximum(evals, 0.0)
    floor = a.shape[0] * np.finfo(float).eps * (evals[0] if evals.size else 0.0)
    evals = evals[evals > floor]
    q = []
    i = 0
    while i < len(evals):
        if i + 1 < len(evals) and (evals[i] - evals[i + 1]) <= _PAIR_RTOL * evals[i] + floor:
            q.append(np.sqrt(0.5 * (evals[i] + evals[i + 1])))
            i += 2
        else:
            raise NumericError(
                f"singular value {np.sqrt(evals[i]):.6g} at position {i} has no partner "
                f"within relative tolerance {_PAIR_RTOL:g}; eigen pairing failed"
            )
    return SpectralData(tuple(q))


def project(mat: AntisymmetricMatrix, k: int) -> AntisymmetricMatrix:
    """Leading principal k x k truncation, re-embedded at full dimension.

    Models compression by a rank-k coordinate projection: entries outside the
    leading block are zeroed.  k = n returns the matrix unchanged.
    """
    n = mat.dimension
    if not 1 <= k <= n:
        raise ValueError(f"projection rank k={k} out of range [1, {n}]")
    out = np.zeros_like(mat.a)
    out[:k, :k] = mat.a[:k, :k]
    return AntisymmetricMatrix(out)


def interlace_check(mat: AntisymmetricMatrix, k: int, tol: float = 1e-10) -> bool:
    """True iff the truncation's singular values interlace the full ones.

    Each q_{k,j} of ``project(mat, k)`` must satisfy q_{k,j} <= q_j + tol;
    guaranteed by the min-max theorem, so a False return indicates a numerical
    problem rather than genuine spectral data.
    """
    full = singular_pairs(mat).q
    trunc = singular_pairs(project(mat, k)).q
    if len(trunc) > len(full):
        return False
    return all(qt <= qf + tol for qt, qf in zip(trunc, full))


def load_matrix(path) -> AntisymmetricMatrix:
    """Load and validate an antisymmetric matrix from CSV or JSON.

    CSV: one row per line, numeric fields.  JSON: an array of row arrays.
    The format is chosen by file extension (.json vs anything else).
    """
    p = Path(path)
    if p.suffix.lower() == ".json":
        with open(p) as fh:
            rows = json.load(fh)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("JSON matrix must be an array of row arrays")
        arr = np.asarray(rows, dtype=float)
    else:
        with open(p, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
        arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValueError("matrix file must contain a 2-D array")
    return AntisymmetricMatrix(arr)
