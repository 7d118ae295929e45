"""Sign measurements of linear observations and their index bookkeeping.

Two sign conventions appear throughout: the standard one maps values near
zero to 0, the nonstandard one maps them to +1 so the measurement vector
never contains zeros.  Consistency of a signal with a measurement always
means exact elementwise equality of the recomputed sign vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOLERANCES, TolerancePolicy, as_matrix, as_vector

STANDARD = "standard"
NONSTANDARD = "nonstandard"


def sign_standard(v, tol: TolerancePolicy | None = None) -> np.ndarray:
    """Componentwise sign with a dead zone: |value| <= sign_tol reads as 0."""
    pol = tol or DEFAULT_TOLERANCES
    v = as_vector(v)
    return np.where(v > pol.sign_tol, 1, np.where(v < -pol.sign_tol, -1, 0)).astype(int)


def sign_nonstandard(v, tol: TolerancePolicy | None = None) -> np.ndarray:
    """Componentwise sign that never emits zero: values above -sign_tol map to +1."""
    pol = tol or DEFAULT_TOLERANCES
    v = as_vector(v)
    return np.where(v > -pol.sign_tol, 1, -1).astype(int)


@dataclass(frozen=True, eq=False)
class SignMeasurement:
    """A vector y over {-1, 0, +1} with its index partition.

    j_plus/j_minus/j_zero are the ascending row indices where y is +1, -1
    and 0.
    """

    y: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray
    j_zero: np.ndarray

    @classmethod
    def from_y(cls, y) -> "SignMeasurement":
        arr = np.asarray(y)
        if arr.ndim != 1:
            raise ValueError("measurement must be a 1-D vector")
        # Checked before the integer cast, which would truncate 0.6 to 0.
        # Entries compare by value, so 1.0 and True pass and nan or '1' fail.
        if not all(v in (-1, 0, 1) for v in arr.tolist()):
            raise ValueError("measurement entries must lie in {-1, 0, 1}")
        arr = arr.astype(int)
        return cls(y=arr, j_plus=(arr == 1).nonzero()[0],
                   j_minus=(arr == -1).nonzero()[0], j_zero=(arr == 0).nonzero()[0])

    @property
    def m(self) -> int:
        return self.y.shape[0]

    def is_zero(self) -> bool:
        return bool(np.all(self.y == 0))


def as_measurement(y, m: int) -> SignMeasurement:
    """y as a SignMeasurement, checked to have one row per matrix row."""
    meas = y if isinstance(y, SignMeasurement) else SignMeasurement.from_y(y)
    if meas.m != m:
        raise ValueError(f"measurement has {meas.m} rows, matrix has {m}")
    return meas


@dataclass(frozen=True, eq=False)
class ActiveSets:
    """Rows of a measurement at (within active_tol of) their sign boundary.

    active holds the binding rows; inactive_plus and inactive_minus the
    strictly slack rows of j_plus and j_minus respectively.
    """

    active: np.ndarray
    inactive_plus: np.ndarray
    inactive_minus: np.ndarray


def signed_support(x, tol: TolerancePolicy | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(positive support, negative support) of x under sign_tol."""
    pol = tol or DEFAULT_TOLERANCES
    arr = as_vector(x)
    return np.flatnonzero(arr > pol.sign_tol), np.flatnonzero(arr < -pol.sign_tol)


def measure(phi, x, mode: str = STANDARD, tol: TolerancePolicy | None = None) -> SignMeasurement:
    """Take one-bit measurements of phi @ x under the chosen sign convention."""
    phi = as_matrix(phi)
    x = as_vector(x, phi.shape[1])
    v = phi @ x
    if mode == STANDARD:
        return SignMeasurement.from_y(sign_standard(v, tol))
    if mode == NONSTANDARD:
        return SignMeasurement.from_y(sign_nonstandard(v, tol))
    raise ValueError(f"unknown sign mode {mode!r}")


def is_consistent(phi, x, meas: SignMeasurement, mode: str = STANDARD,
                  tol: TolerancePolicy | None = None) -> bool:
    """Exact equality of the recomputed sign vector with meas.y.

    Raises ValueError when meas does not have one row per row of phi."""
    phi = as_matrix(phi)
    meas = as_measurement(meas, phi.shape[0])
    return bool(np.array_equal(measure(phi, x, mode, tol).y, meas.y))


def active_sets(phi, x, meas: SignMeasurement, tol: TolerancePolicy | None = None) -> ActiveSets:
    """Binding rows of the sign-consistency constraints at x.

    Requires x to satisfy the decoding constraints (rows of j_plus at
    least 1, rows of j_minus at most -1, rows of j_zero equal to 0) within
    active_tol and meas to have one row per row of phi; the error message
    names the first violated row of j_plus, else of j_minus, else of j_zero.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    x = as_vector(x, phi.shape[1])
    meas = as_measurement(meas, phi.shape[0])
    v = phi @ x
    jp, jm, jz = meas.j_plus, meas.j_minus, meas.j_zero
    t = pol.active_tol
    for rows, bad, need in ((jp, v[jp] < 1.0 - t, ">= 1"),
                            (jm, v[jm] > -1.0 + t, "<= -1"),
                            (jz, np.abs(v[jz]) > t, "== 0")):
        if bad.any():
            i = rows[np.argmax(bad)]
            raise ValueError(f"row {i} requires phi@x {need} but has value {v[i]:.6g}")
    act_plus = np.abs(v[jp] - 1.0) <= t
    act_minus = np.abs(v[jm] + 1.0) <= t
    return ActiveSets(active=np.sort(np.concatenate([jp[act_plus], jm[act_minus]])),
                      inactive_plus=jp[~act_plus], inactive_minus=jm[~act_minus])


def minimal_scaling(phi, x, meas: SignMeasurement, tol: TolerancePolicy | None = None) -> float:
    """Smallest positive factor that makes a consistent signal decoding-feasible.

    Scaling x by the returned factor pushes the least-margin row of
    j_plus/j_minus onto its boundary, so the scaled signal satisfies the
    decoding constraints with at least one row active.  Requires standard-
    sign consistency and a nonzero measurement.
    """
    phi = as_matrix(phi)
    x = as_vector(x, phi.shape[1])
    meas = as_measurement(meas, phi.shape[0])
    if meas.is_zero():
        raise ValueError("minimal scaling is undefined for the zero measurement")
    if not is_consistent(phi, x, meas, STANDARD, tol):
        raise ValueError("signal is not sign-consistent with the measurement")
    v = phi @ x
    rows = np.concatenate([meas.j_plus, meas.j_minus])
    return float(np.max(1.0 / np.abs(v[rows])))
