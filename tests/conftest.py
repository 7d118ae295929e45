"""Helpers shared by the test modules."""

import numpy as np
import pytest

from onebitcs.linalg import DEFAULT_TOLERANCES, _pivot_threshold, _row_reduce, as_matrix
from onebitcs.signmodel import as_measurement


def _rank_profile(m) -> tuple[int, np.ndarray]:
    """Rank of m under the default rank_tol, with the magnitudes of its
    accepted pivots: a pivot near rank_tol * max|m| marks a fragile verdict."""
    a = as_matrix(m)
    if not a.size:
        return 0, np.zeros(0)
    rank, _, mags, _ = _row_reduce(a, _pivot_threshold(a, DEFAULT_TOLERANCES.rank_tol))
    return rank, np.array(mags, dtype=float)


@pytest.fixture
def rank_profile():
    return _rank_profile


def _boundary_h(phi, y, report) -> np.ndarray:
    """The boundary submatrix H whose rank a CertReport holds: phi on the
    rows witness_rows[0], then witness_rows[1], then the measurement's
    j_zero, and on the columns s_plus, then s_minus."""
    phi = as_matrix(phi)
    pos, neg, _ = report.witness_rows
    rows = list(pos + neg) + as_measurement(y, phi.shape[0]).j_zero.tolist()
    return phi[np.ix_(rows, list(report.s_plus + report.s_minus))]


@pytest.fixture
def boundary_h():
    return _boundary_h
