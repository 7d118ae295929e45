"""Rank and null-space kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onebitcs.linalg import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    column_rank,
    null_space_basis,
    rank_profile,
)

int_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


def test_rank_basic_values():
    assert column_rank(np.eye(3)) == 3
    assert column_rank(np.zeros((2, 4))) == 0
    assert column_rank(np.array([[2., -1., 0., 2.], [-1., 1., 1., 0.]])) == 2
    assert column_rank(np.array([[1., 2.], [2., 4.]])) == 1


def test_rank_near_dependent_rows():
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    assert column_rank(m) == 1
    m2 = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-4]])
    assert column_rank(m2) == 2


@given(int_matrix)
@settings(max_examples=150, deadline=None)
def test_rank_matches_transpose(rows):
    m = np.array(rows, dtype=float)
    assert column_rank(m) == column_rank(m.T)


@given(int_matrix, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_rank_invariant_under_row_permutation(rows, rnd):
    m = np.array(rows, dtype=float)
    perm = list(range(m.shape[0]))
    rnd.shuffle(perm)
    assert column_rank(m[perm]) == column_rank(m)


@given(int_matrix)
@settings(max_examples=100, deadline=None)
def test_null_space_residual_bound(rows):
    m = np.array(rows, dtype=float)
    ns = null_space_basis(m)
    assert ns.shape == (m.shape[1], m.shape[1] - column_rank(m))
    if ns.shape[1]:
        residual = np.max(np.abs(m @ ns))
        assert residual <= 1e-9 * max(1.0, np.max(np.abs(m)))
        gram = ns.T @ ns
        np.testing.assert_allclose(gram, np.eye(ns.shape[1]), atol=1e-9)


def test_null_space_of_zero_matrix_is_identity():
    ns = null_space_basis(np.zeros((2, 3)))
    np.testing.assert_array_equal(ns, np.eye(3))


def test_stack_rank_dominates_blocks():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = rng.integers(-3, 4, size=(rng.integers(1, 4), 4)).astype(float)
        b = rng.integers(-3, 4, size=(rng.integers(1, 4), 4)).astype(float)
        stacked = np.vstack([a, b])
        assert column_rank(stacked) >= max(column_rank(a), column_rank(b))


def test_rank_profile_reports_pivots():
    rank, pivots = rank_profile(np.array([[2., 0.], [0., 1e-12]]))
    assert rank == 1
    assert len(pivots) == 1
    assert pivots[0] > 0


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_TOLERANCES.rank_tol == 1e-9
        assert DEFAULT_TOLERANCES.active_tol == 1e-7
        assert DEFAULT_TOLERANCES.margin_tol == 1e-8
        assert DEFAULT_TOLERANCES.sign_tol == 1e-8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_tol=0.0)
        with pytest.raises(ValueError):
            TolerancePolicy(margin_tol=1.5)
        with pytest.raises(ValueError):
            TolerancePolicy(sign_tol=-1e-9)
