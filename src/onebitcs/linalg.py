"""Dense linear-algebra kernels: numerical rank, null-space bases and the
faces of a central hyperplane arrangement.

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


def _shaped(v: np.ndarray, ndim: int, length: int | None = None) -> np.ndarray:
    """v itself when it has ndim axes and, given length, that many entries
    along the first; ValueError otherwise.  Entries are not checked."""
    if v.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array, got ndim={v.ndim}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"expected length {length}, got {v.shape[0]}")
    return v


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D float64 copy of `a`.

    Raises ValueError on wrong dimensionality or non-finite entries.
    """
    m = _shaped(np.array(a, dtype=float), 2)
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(a, length: int | None = None) -> np.ndarray:
    """Validate and return a 1-D float64 copy of `a`."""
    v = _shaped(np.array(a, dtype=float), 1, length)
    if v.size and not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _pivot_threshold(m: np.ndarray, rank_tol: float) -> float:
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        scale = 1.0
    return rank_tol * scale


def _row_reduce(a: np.ndarray, thr: float) -> tuple[int, list[int], list[float], np.ndarray]:
    """Gaussian elimination with partial pivoting, in place on the float
    array a (a copy the caller owns, as as_matrix returns).

    Returns (rank, pivot_columns, pivot_magnitudes, echelon_form), the form
    being a itself.  A pivot is rejected when its absolute value is <= thr.
    """
    rows, cols = a.shape
    pivot_cols: list[int] = []
    pivot_mags: list[float] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        p = int(np.abs(a[r:, c]).argmax()) + r
        if abs(a[p, c]) <= thr:
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
        pivot_cols.append(c)
        pivot_mags.append(abs(a[r, c]))
        below = a[r + 1:, c] / a[r, c]
        a[r + 1:] -= below[:, None] * a[r]
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


# a_i z reads as zero when |a_i z| <= _FACE_ZERO |a_i| |z|.
_FACE_ZERO = 1e-9


def _face_signs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One point z per face of the central arrangement {z : a_i z = 0},
    as the rows of the first array, and its sign vector sign(a z), as the
    same row of the second.

    The walk keeps one point per face: the origin, then for each distinct
    hyperplane h of the current subspace the points of the walk of h (an
    orthonormal basis by QR), each also moved by +-eps along h's unit
    normal, eps half the step to the nearest other hyperplane.  Every face
    lies in a hyperplane or borders one, so the walk misses none.  A flat
    reached along several hyperplane paths is walked once per call: it is
    keyed by the rows of a that vanish on it, whose hyperplanes intersect
    in exactly that flat.  The key of h's flat is known before its basis:
    the rows that vanish on the current flat and those parallel to h
    there, so only a flat reached for the first time forms a basis.  A
    line is the base case: its faces are the origin and two rays, so its
    points are 0, v and -v, with v its basis column oriented by the first
    row that cuts it.  These are the points the general step reaches there
    (from the origin no hyperplane is crossed, so eps is 1), without
    forming its basis or step.
    """
    d = a.shape[1]
    norms = np.linalg.norm(a, axis=1)
    walked: dict[bytes, np.ndarray] = {}

    def signs(z: np.ndarray) -> np.ndarray:
        v = z @ a.T
        thr = _FACE_ZERO * np.linalg.norm(z, axis=1, keepdims=True) * norms
        return np.where(v > thr, 1, np.where(v < -thr, -1, 0))

    def walk(q: np.ndarray, b: np.ndarray) -> np.ndarray:
        origin = np.zeros((1, d))
        if not q.shape[1]:
            return origin
        cut = np.linalg.norm(b, axis=1) > _FACE_ZERO * norms
        u = b[cut]
        if q.shape[1] == 1:
            if not u.size:
                return origin
            v = q[:, 0] if u[0, 0] > 0 else -q[:, 0]
            return np.concatenate([origin, origin + v, origin - v])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        # A row repeats an earlier hyperplane when it is parallel to it.
        resid = np.linalg.norm(u[:, None] - (u @ u.T)[..., None] * u[None], axis=2)
        parallel = resid <= _FACE_ZERO
        points = [origin]
        for h in np.flatnonzero(~np.tril(parallel, -1).any(axis=1)):
            vanish = ~cut
            vanish[cut] = parallel[h]
            key = vanish.tobytes()
            if key not in walked:
                sub = q @ np.linalg.qr(u[h, :, None], mode="complete")[0][:, 1:]
                walked[key] = walk(sub, a @ sub)
            p = walked[key]
            normal = q @ u[h]
            step = np.abs(a @ normal)
            cross = (signs(p) != 0) & (step > _FACE_ZERO * norms)
            ratio = np.abs(p @ a.T) / np.where(cross, step, 1.0)
            eps = 0.5 * np.min(ratio, axis=1, where=cross, initial=2.0, keepdims=True)
            points += [p, p + eps * normal, p - eps * normal]
        pts = np.concatenate(points)
        first: dict[bytes, int] = {}
        for i, row in enumerate(signs(pts)):
            first.setdefault(row.tobytes(), i)
        return pts[list(first.values())]

    points = walk(np.eye(d), a)
    return points, signs(points)
