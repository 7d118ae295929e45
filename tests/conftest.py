"""Helpers shared by the test modules."""

import numpy as np
import pytest

from onebitcs.linalg import DEFAULT_TOLERANCES, _pivot_threshold, _row_reduce, as_matrix


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
