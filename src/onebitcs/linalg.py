"""Dense linear-algebra kernels: numerical rank and null-space bases.

Everything here works on plain float64 numpy arrays and uses explicit,
relative pivot thresholds so that rank decisions are reproducible and easy
to audit.  No scipy, no LAPACK-specific behavior to depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TolerancePolicy:
    """Shared numerical thresholds, all strictly between 0 and 1.

    rank_tol    relative pivot threshold for rank decisions
    active_tol  |row residual| below this counts a constraint as active
    margin_tol  minimum margin for a strict inequality to count as satisfied
    sign_tol    |value| below this reads as zero when taking signs
    """

    rank_tol: float = 1e-9
    active_tol: float = 1e-7
    margin_tol: float = 1e-8
    sign_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_tol", "active_tol", "margin_tol", "sign_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {v}")


DEFAULT_TOLERANCES = TolerancePolicy()


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D float64 copy of `a`.

    Raises ValueError on wrong dimensionality or non-finite entries.
    """
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(a, length: int | None = None) -> np.ndarray:
    """Validate and return a 1-D float64 copy of `a`."""
    v = np.array(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D array, got ndim={v.ndim}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"expected length {length}, got {v.shape[0]}")
    if v.size and not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _pivot_threshold(m: np.ndarray, rank_tol: float) -> float:
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale == 0.0:
        scale = 1.0
    return rank_tol * scale


def _row_reduce(m: np.ndarray, thr: float) -> tuple[int, list[int], list[float], np.ndarray]:
    """Gaussian elimination with partial pivoting.

    Returns (rank, pivot_columns, pivot_magnitudes, echelon_form).  A pivot
    is rejected when its absolute value is <= thr.
    """
    a = np.array(m, dtype=float)
    rows, cols = a.shape
    pivot_cols: list[int] = []
    pivot_mags: list[float] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sub = np.abs(a[r:, c])
        p = int(np.argmax(sub)) + r
        if abs(a[p, c]) <= thr:
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
        pivot_cols.append(c)
        pivot_mags.append(abs(a[r, c]))
        below = a[r + 1:, c] / a[r, c]
        a[r + 1:, :] -= np.outer(below, a[r, :])
        a[r + 1:, c] = 0.0
        r += 1
    return r, pivot_cols, pivot_mags, a


def column_rank(m, tol: TolerancePolicy | None = None) -> int:
    """Numerical rank of `m` by row reduction with partial pivoting.

    The pivot threshold is rank_tol times the largest absolute entry of the
    ORIGINAL matrix (1 if the matrix is all zero), so rank decisions do not
    drift with intermediate fill-in.
    """
    a = as_matrix(m)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    pol = tol or DEFAULT_TOLERANCES
    thr = _pivot_threshold(a, pol.rank_tol)
    rank, _, _, _ = _row_reduce(a, thr)
    return rank


def rank_profile(m, tol: TolerancePolicy | None = None) -> tuple[int, np.ndarray]:
    """Rank together with the magnitudes of the accepted pivots.

    Useful for auditing near-threshold rank decisions: a pivot magnitude
    close to rank_tol * max|m| marks a fragile verdict.
    """
    a = as_matrix(m)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0, np.zeros(0)
    pol = tol or DEFAULT_TOLERANCES
    thr = _pivot_threshold(a, pol.rank_tol)
    rank, _, mags, _ = _row_reduce(a, thr)
    return rank, np.array(mags, dtype=float)


def null_space_basis(m, tol: TolerancePolicy | None = None) -> np.ndarray:
    """Orthonormal basis of the null space of `m`, shape (cols, cols - rank).

    Free columns of the reduced echelon form seed the basis vectors, which
    are then orthonormalized by modified Gram-Schmidt.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    pol = tol or DEFAULT_TOLERANCES
    if rows == 0 or cols == 0:
        return np.eye(cols)
    thr = _pivot_threshold(a, pol.rank_tol)
    rank, pivot_cols, _, ech = _row_reduce(a, thr)
    if rank == cols:
        return np.zeros((cols, 0))

    # Back-substitute to reduced echelon form on the pivot rows.
    red = ech[:rank].copy()
    for i in range(rank - 1, -1, -1):
        c = pivot_cols[i]
        red[i] /= red[i, c]
        for j in range(i):
            red[j] -= red[j, c] * red[i]

    free_cols = [c for c in range(cols) if c not in set(pivot_cols)]
    basis = np.zeros((cols, len(free_cols)))
    for k, fc in enumerate(free_cols):
        basis[fc, k] = 1.0
        for i, pc in enumerate(pivot_cols):
            basis[pc, k] = -red[i, fc]

    # Modified Gram-Schmidt.  The columns are linearly independent by
    # construction, so no degenerate renormalization can occur.
    q = basis.copy()
    for k in range(q.shape[1]):
        for j in range(k):
            q[:, k] -= (q[:, j] @ q[:, k]) * q[:, j]
        nrm = float(np.linalg.norm(q[:, k]))
        q[:, k] /= nrm
    return q

