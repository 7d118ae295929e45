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


def loop_encoding(phi, meas):
    """Reference (c, a, b, free) of the decoder LP, filled entry by entry."""
    m, n = phi.shape
    p, q = meas.j_plus.size, meas.j_minus.size
    a = np.zeros((2 * n + m, 4 * n + p + q))
    b = np.zeros(2 * n + m)
    for j in range(n):
        a[j, j], a[j, n + j], a[j, 2 * n + j] = 1.0, -1.0, 1.0
        a[n + j, j], a[n + j, n + j], a[n + j, 3 * n + j] = -1.0, -1.0, 1.0
    for k, i in enumerate(meas.j_plus):
        a[2 * n + k, :n], a[2 * n + k, 4 * n + k], b[2 * n + k] = phi[i], -1.0, 1.0
    for k, i in enumerate(meas.j_minus):
        r = 2 * n + p + k
        a[r, :n], a[r, 4 * n + p + k], b[r] = phi[i], 1.0, -1.0
    for k, i in enumerate(meas.j_zero):
        a[2 * n + p + q + k, :n] = phi[i]
    c = np.zeros(4 * n + p + q)
    c[n:2 * n] = 1.0
    free = np.zeros(4 * n + p + q, dtype=bool)
    free[:n] = True
    return c, a, b, free


class TestEncoding:
    def test_flagship_dimensions(self):
        problem, _ = encode_bp_lp(PHI, SignMeasurement.from_y(Y))
        assert problem.n_vars == 18
        assert problem.n_rows == 10
        assert int(problem.free.sum()) == 4
        assert int((~problem.free).sum()) == 14
        assert all(r == "=" for r in problem.rels)
        # One row measured +1, one measured -1, the 2n gap rows at zero.
        np.testing.assert_array_equal(np.sort(problem.b), [-1.0] + [0.0] * 8 + [1.0])

    def test_identity_dimensions(self):
        problem, _ = encode_bp_lp(np.eye(2), SignMeasurement.from_y(np.array([1, -1])))
        assert problem.n_vars == 10
        assert problem.n_rows == 6
        assert int(problem.free.sum()) == 2

    def test_zero_measurement_rejected(self):
        with pytest.raises(ValueError):
            encode_bp_lp(PHI, SignMeasurement.from_y(np.array([0, 0])))

    def test_array_build_equals_loop_reference(self):
        """Zero rows, all +1 and all -1 measurements, bit for bit."""
        rng = np.random.default_rng(11)
        for t in range(24):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 9))
            phi = rng.normal(size=(m, n))
            y = [rng.integers(-1, 2, size=m), np.ones(m, int), -np.ones(m, int)][t % 3]
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            problem, _ = encode_bp_lp(phi, meas)
            for got, want in zip((problem.c, problem.a, problem.b, problem.free),
                                 loop_encoding(phi, meas)):
                assert got.tobytes() == want.tobytes()
            assert problem.rels == ("=",) * problem.n_rows and problem.sense == "min"

    def test_x_of_reads_the_decoder_output(self):
        """x_of on the LP optimum is one_bit_bp's x, bit for bit."""
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(25):
            phi, y = random_instance(rng, m_max=4, n_max=5)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            problem, x_of = encode_bp_lp(phi, meas)
            sol = lp.solve(problem)
            bps = one_bit_bp(phi, meas)
            assert sol.status == bps.status
            if sol.status == lp.OPTIMAL:
                hits += 1
                x = x_of(sol.primal)
                assert x.dtype == bps.x.dtype
                assert x.tobytes() == bps.x.tobytes()
        assert hits >= 15


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

    def test_dual_is_a_nonstrict_certificate(self):
        """dual has m entries: |phi'w| <= 1, phi'w = sign(x) on the support,
        w >= 0 on j_plus, w <= 0 on j_minus and w = 0 on the inactive rows,
        each up to 1e-9 (1 + |phi|'|w|)."""
        from onebitcs.signmodel import active_sets, signed_support
        rng = np.random.default_rng(1412)
        hits = zeros = 0
        for m, n, k in ((5, 8, 2), (10, 20, 3), (20, 40, 3), (40, 80, 5)):
            for _ in range(3):
                phi = rng.normal(size=(m, n))
                supp = rng.choice(n, size=k, replace=False)
                x = np.zeros(n)
                x[supp] = rng.normal(size=k)
                # Rows that vanish on the support are measured 0.
                phi[rng.choice(m, size=m // 5, replace=False)[:, None], supp] = 0.0
                meas = SignMeasurement.from_y(sign_standard(phi @ x))
                sol = one_bit_bp(phi, meas)
                if sol.status != lp.OPTIMAL:
                    continue
                hits += 1
                zeros += meas.j_zero.size > 0
                w = sol.dual
                assert w.shape == (m,)
                g = phi.T @ w
                tol = 1e-9 * (1.0 + np.abs(phi).T @ np.abs(w))
                row_tol = tol.max()
                sp, sm = signed_support(sol.x)
                act = active_sets(phi, sol.x, meas)
                assert (np.abs(g) <= 1.0 + tol).all()
                assert (np.abs(g[sp] - 1.0) <= tol[sp]).all()
                assert (np.abs(g[sm] + 1.0) <= tol[sm]).all()
                assert (w[meas.j_plus] >= -row_tol).all()
                assert (w[meas.j_minus] <= row_tol).all()
                inactive = np.concatenate([act.inactive_plus, act.inactive_minus])
                assert (np.abs(w[inactive]) <= row_tol).all()
        assert hits == 12 and zeros >= 10

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
    assert lp._simplex_standard(problem)["z"].shape == (2 * n + m,)
