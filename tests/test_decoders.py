"""Consistent decoding via the l1 reformulation, and the legacy relaxation."""

import math

import numpy as np
import pytest

from onebitcs import lp
from onebitcs.decoders import (
    bp_output_consistent,
    encode_bp_lp,
    one_bit_bp,
    relaxation_gd,
)
from onebitcs.oracle import lp_vertex_oracle
from onebitcs.signmodel import SignMeasurement, is_consistent, sign_standard

PHI = np.array([[2., -1., 0., 2.], [-1., 1., 1., 0.]])
Y = np.array([1, -1])


def random_instance(rng, m_max=5, n_max=6):
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    phi = rng.normal(size=(m, n))
    x = rng.normal(size=n)
    y = sign_standard(phi @ x)
    return phi, y


class TestEncoding:
    def test_flagship_dimensions(self):
        problem, enc = encode_bp_lp(PHI, SignMeasurement.from_y(Y))
        assert problem.n_vars == 18
        assert problem.n_rows == 10
        assert int(problem.free.sum()) == 4
        assert int((~problem.free).sum()) == 14
        assert all(r == "=" for r in problem.rels)
        assert enc.n_plus == 1 and enc.n_minus == 1 and enc.n_zero == 0

    def test_identity_dimensions(self):
        problem, enc = encode_bp_lp(np.eye(2), SignMeasurement.from_y(np.array([1, -1])))
        assert problem.n_vars == 10
        assert problem.n_rows == 6
        assert int(problem.free.sum()) == 2

    def test_zero_measurement_rejected(self):
        with pytest.raises(ValueError):
            encode_bp_lp(PHI, SignMeasurement.from_y(np.array([0, 0])))


class TestOneBitBP:
    def test_flagship_objective(self):
        sol = one_bit_bp(PHI, Y)
        assert sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-8)
        assert np.abs(sol.x).sum() == pytest.approx(1.0, abs=1e-8)

    def test_identity_objective(self):
        sol = one_bit_bp(np.eye(2), np.array([1, -1]))
        assert sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(sol.x, [1.0, -1.0], atol=1e-8)

    def test_infeasible_instance(self):
        sol = one_bit_bp(np.array([[1., 0.], [1., 0.]]), np.array([1, -1]))
        assert sol.status == lp.INFEASIBLE
        assert sol.x is None

    def test_headline_consistency(self):
        """Optimal outputs reproduce the measurement exactly, always."""
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(60):
            phi, y = random_instance(rng)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            sol = one_bit_bp(phi, meas)
            if sol.status != lp.OPTIMAL:
                continue
            hits += 1
            assert is_consistent(phi, sol.x, meas)
            assert bp_output_consistent(phi, meas, sol)
        assert hits >= 40

    def test_slack_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            phi, y = random_instance(rng)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            sol = one_bit_bp(phi, meas)
            if sol.status != lp.OPTIMAL:
                continue
            v = phi @ sol.x
            for pos, i in enumerate(meas.j_plus):
                assert sol.alpha[pos] == pytest.approx(v[i] - 1.0, abs=1e-8)
            for pos, i in enumerate(meas.j_minus):
                assert sol.beta[pos] == pytest.approx(-1.0 - v[i], abs=1e-8)

    def test_objective_invariant_under_joint_row_permutation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            phi, y = random_instance(rng, m_max=4, n_max=5)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            base = one_bit_bp(phi, meas)
            perm = rng.permutation(phi.shape[0])
            permuted = one_bit_bp(phi[perm], y[perm])
            assert base.status == permuted.status
            if base.status == lp.OPTIMAL:
                assert base.objective == pytest.approx(permuted.objective, abs=1e-8)

    def test_active_set_nonempty_at_optimum(self):
        rng = np.random.default_rng(42)
        from onebitcs.signmodel import active_sets
        for _ in range(30):
            phi, y = random_instance(rng)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero() or meas.j_plus.size + meas.j_minus.size == 0:
                continue
            sol = one_bit_bp(phi, meas)
            if sol.status != lp.OPTIMAL:
                continue
            assert active_sets(phi, sol.x, meas).active.size > 0

    def test_matches_vertex_oracle_on_small_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            phi, y = random_instance(rng, m_max=4, n_max=5)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            problem, _ = encode_bp_lp(phi, meas)
            sol = one_bit_bp(phi, meas)
            oracle = lp_vertex_oracle(problem)
            assert sol.status == oracle.status
            if sol.status == lp.OPTIMAL:
                assert sol.objective == pytest.approx(oracle.objective_value, abs=1e-7)


class TestRelaxation:
    def test_identity_optimum(self):
        """The identity instance has a whole optimal edge; the deterministic
        pivot order lands on the vertex (2, 0), whose sign image (1, 0)
        differs from the measurement.  The relaxation being optimal yet
        inconsistent is exactly its documented failure mode."""
        x, obj, consistent = relaxation_gd(np.eye(2), np.array([1, -1]))
        assert obj == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-8)
        assert not consistent

    def test_flagship_optimum_oracle_confirmed(self):
        x, obj, consistent = relaxation_gd(PHI, Y)
        assert obj == pytest.approx(2.0 / 3.0, abs=1e-8)
        np.testing.assert_allclose(x, [2.0 / 3.0, 0.0, 0.0, 0.0], atol=1e-8)
        assert consistent

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            relaxation_gd(PHI, np.array([1, 0]))

    def test_rejects_non_integer_entries(self):
        """1.7 and -1.2 are not signs; they must not be read as 1 and -1."""
        with pytest.raises(ValueError, match="must lie in"):
            relaxation_gd(PHI, np.array([1.7, -1.2]))
        x, obj, _ = relaxation_gd(PHI, np.array([1.0, -1.0]))
        assert obj == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_infeasible_relaxation(self):
        # y = (1, -1) on identical rows: cone forces phi @ x = 0, so the
        # normalization row cannot be met
        x, obj, consistent = relaxation_gd(np.array([[1., 0.], [1., 0.]]),
                                           np.array([1, -1]))
        assert x is None
        assert math.isinf(obj)
        assert not consistent

    def test_contains_scaled_bp_points(self):
        """Any decoder-feasible point lands in the relaxation's feasible set
        after scaling so the normalization row holds."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            phi, y = random_instance(rng, m_max=4, n_max=5)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero() or meas.j_zero.size:
                continue
            sol = one_bit_bp(phi, meas)
            if sol.status != lp.OPTIMAL:
                continue
            m = phi.shape[0]
            v = y * (phi @ sol.x)
            scale = m / float(v.sum())
            scaled = scale * sol.x
            u = y * (phi @ scaled)
            assert (u >= -1e-8).all()
            assert u.sum() == pytest.approx(m, abs=1e-8)


def test_stalled_relaxation_raises(monkeypatch):
    """A simplex breakdown is reported, not mislabelled as infeasibility."""
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LPSolution(status=lp.STALLED))
    with pytest.raises(RuntimeError, match="status stalled"):
        relaxation_gd(PHI, Y)


def test_relaxation_lp_has_m_plus_one_rows(monkeypatch):
    """One cone row per measurement and the normalization row, over x = p - q."""
    seen = []
    real_solve = lp.solve

    def spy(problem):
        seen.append(problem)
        return real_solve(problem)

    monkeypatch.setattr(lp, "solve", spy)
    relaxation_gd(PHI, Y)
    (problem,) = seen
    m, n = PHI.shape
    assert problem.a.shape == (m + 1, 2 * n)
    assert problem.rels == (">=",) * m + ("=",)
    assert not problem.free.any()
    np.testing.assert_array_equal(problem.a[:, n:], -problem.a[:, :n])
    _, a, _, _ = lp.to_standard_form(problem)
    assert a.shape == (m + 1, 2 * n + m)
