"""Brute-force ground truth: l0 sweep, enumerations, augmentation walk."""

import math

import numpy as np
import pytest

from onebitcs import lp, oracle
from onebitcs.certify import membership_P, uniqueness_certificate
from onebitcs.decoders import encode_bp_lp, one_bit_bp
from onebitcs.linalg import _face_signs, column_rank
from onebitcs.oracle import (
    active_set_augmentation,
    enumerate_P,
    enumerate_Yk,
    l0_min,
    lp_vertex_oracle,
)
from onebitcs.signmodel import SignMeasurement, sign_standard

PHI = np.array([[2., -1., 0., 2.], [-1., 1., 1., 0.]])
Y = np.array([1, -1])


class TestVertexOracle:
    def test_scalar_bound(self):
        p = lp.LPProblem.from_rows(np.array([1.0]), [(np.array([1.0]), ">=", 1.0)],
                                   free=np.array([True]))
        s = lp_vertex_oracle(p)
        assert s.status == lp.OPTIMAL
        assert s.objective_value == pytest.approx(1.0)

    def test_identity_bp(self):
        problem, _ = encode_bp_lp(np.eye(2), SignMeasurement.from_y(np.array([1, -1])))
        s = lp_vertex_oracle(problem)
        assert s.status == lp.OPTIMAL
        assert s.objective_value == pytest.approx(2.0, abs=1e-9)

    def test_flagship_bp(self):
        problem, _ = encode_bp_lp(PHI, SignMeasurement.from_y(Y))
        s = lp_vertex_oracle(problem)
        assert s.status == lp.OPTIMAL
        assert s.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_unbounded_detection(self):
        p = lp.LPProblem.from_rows(np.array([-1.0, 0.0]),
                                   [(np.array([1.0, 1.0]), ">=", 0.0)],
                                   free=np.array([True, True]))
        s = lp_vertex_oracle(p)
        assert s.status == lp.UNBOUNDED

    def test_infeasible_detection(self):
        rows = [(np.array([1.0]), "<=", -1.0)]
        p = lp.LPProblem.from_rows(np.array([0.0]), rows)
        s = lp_vertex_oracle(p)
        assert s.status == lp.INFEASIBLE

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setattr(oracle, "VERTEX_BUDGET", 10)
        rng = np.random.default_rng(0)
        rows = [(rng.normal(size=30), "<=", 1.0) for _ in range(40)]
        p = lp.LPProblem.from_rows(rng.normal(size=30), rows)
        with pytest.raises(ValueError):
            lp_vertex_oracle(p)


class TestSparsestOracle:
    def test_flagship_value_and_witnesses(self):
        res = l0_min(PHI, Y)
        assert res.value == 1
        patterns = sorted(pat for pat, _ in res.witnesses)
        assert patterns == [((), (1,)), ((0,), ())]
        for pat, x in res.witnesses:
            assert np.count_nonzero(np.abs(x) > 1e-9) == 1
            np.testing.assert_array_equal(sign_standard(PHI @ x), Y)

    def test_identity_needs_both_coordinates(self):
        res = l0_min(np.eye(2), np.array([1, -1]))
        assert res.value == 2

    def test_partial_measurement(self):
        res = l0_min(np.eye(2), np.array([1, 0]))
        assert res.value == 1

    def test_unreachable_measurement(self):
        res = l0_min(np.array([[1., 0.], [1., 0.]]), np.array([1, -1]))
        assert math.isinf(res.value)
        assert res.witnesses == []

    def test_lower_bounds_decoder_support(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            phi = rng.normal(size=(m, n))
            y = sign_standard(phi @ rng.normal(size=n))
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            sol = one_bit_bp(phi, meas)
            if sol.status != lp.OPTIMAL:
                continue
            res = l0_min(phi, meas)
            assert res.value <= np.count_nonzero(np.abs(sol.x) > 1e-8)

    def test_budget_refusal(self):
        with pytest.raises(ValueError):
            l0_min(np.ones((2, 20)), np.array([1, 1]))


class TestPatternEnumeration:
    def test_flagship_singletons(self):
        assert enumerate_P(PHI, Y, 1) == [((0,), ()), ((), (1,))]

    def test_identity_empty_then_pair(self):
        assert enumerate_P(np.eye(2), np.array([1, -1]), 1) == []
        assert enumerate_P(np.eye(2), np.array([1, -1]), 2) == [((0,), (1,))]

    def test_members_really_belong(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(3, 4))
        y = sign_standard(phi @ rng.normal(size=4))
        meas = SignMeasurement.from_y(y)
        if not meas.is_zero():
            for sp, sm in enumerate_P(phi, meas, 2):
                assert membership_P(phi, meas, sp, sm)


def _generic_face_count(m: int, k: int) -> int:
    """Faces of a generic central arrangement of m hyperplanes in R^k
    (Zaslavsky): the origin plus, for each j = 1..k, the C(m, k - j) flats
    of dimension j, each cut by the other m - k + j hyperplanes into
    2 sum_{i<j} C(m - k + j - 1, i) regions."""
    return 1 + sum(math.comb(m, k - j) * 2 * sum(math.comb(m - k + j - 1, i) for i in range(j))
                   for j in range(1, k + 1))


class TestYkEnumeration:
    def test_identity_one_sparse(self):
        res = enumerate_Yk(np.eye(2), 1)
        got = sorted(tuple(int(v) for v in m.y) for m in res)
        assert got == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_single_row_matrix(self):
        res = enumerate_Yk(np.array([[1., 1.]]), 1)
        got = sorted(tuple(int(v) for v in m.y) for m in res)
        assert got == [(-1,), (0,), (1,)]

    def test_flagship_contains_target_signs(self):
        res = enumerate_Yk(PHI, 1)
        got = {tuple(int(v) for v in m.y) for m in res}
        assert (1, -1) in got
        assert (-1, 1) in got
        assert got == {(0, 0), (1, -1), (-1, 1), (0, 1), (0, -1), (1, 0), (-1, 0)}

    def test_exact_mode_complete_against_probes(self):
        """10^4 random sign images must already be enumerated."""
        rng = np.random.default_rng(42)
        phi = rng.normal(size=(3, 4))
        for k in (1, 2):
            res = enumerate_Yk(phi, k)
            got = {tuple(int(v) for v in m.y) for m in res}
            for _ in range(10_000 // 2):
                x = np.zeros(4)
                support = rng.choice(4, size=k, replace=False)
                x[support] = rng.normal(size=k)
                probe = tuple(int(v) for v in sign_standard(phi @ x))
                assert probe in got

    @pytest.mark.parametrize("m,k", [(5, 2), (6, 3), (7, 4)])
    def test_square_support_gives_every_face(self, m, k):
        """With n = k every sign vector of a generic arrangement is one
        measurement: the face count of the rows of phi."""
        phi = np.random.default_rng(m).normal(size=(m, k))
        res = enumerate_Yk(phi, k)
        assert len(res) == _generic_face_count(m, k)
        assert len({tuple(int(v) for v in meas.y) for meas in res}) == len(res)

    def test_walk_reaches_each_flat_once(self, monkeypatch):
        """9 generic planes in R^3 meet in 36 lines and the origin.  The walk
        forms one basis per flat it reaches, 9 planes and 36 lines, not one
        per path: a flat's key is read before its basis.  A line is the base
        case and forms none for its origin."""
        a = np.vstack([np.random.default_rng(7).normal(size=(6, 3)), np.eye(3)])
        qr, bases = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: bases.append(1) or qr(*args, **kw))
        _, signs = _face_signs(a)
        assert len(bases) == 9 + 36
        assert len({row.tobytes() for row in signs}) == len(signs) == _generic_face_count(9, 3)

    def test_dense_k3_contains_zero_entries_and_every_sample(self):
        rng = np.random.default_rng(20261018)
        phi = rng.normal(size=(6, 6))
        got = {tuple(int(v) for v in meas.y) for meas in enumerate_Yk(phi, 3)}
        assert any(0 in y and any(y) for y in got)
        x = np.zeros((40_000, 6))
        supports = np.argsort(rng.random((40_000, 6)), axis=1)[:, :3]
        np.put_along_axis(x, supports, rng.normal(size=(40_000, 3)), axis=1)
        v = x @ phi.T
        sampled = np.where(v > 1e-8, 1, np.where(v < -1e-8, -1, 0))
        assert {tuple(int(t) for t in row) for row in sampled} <= got

    def test_rejects_sparsity_outside_range(self):
        for k in (-1, 4):
            with pytest.raises(ValueError, match="sparsity"):
                enumerate_Yk(np.eye(3), k)

    def test_budget_refusal(self):
        """The walk's size is checked before any work: 120 supports of ten
        columns, each walking 40 rows in R^3."""
        with pytest.raises(ValueError, match="budget"):
            enumerate_Yk(np.ones((40, 10)), 3)


class TestAugmentationWalk:
    def test_flagship_scaling_step(self):
        trace = active_set_augmentation(PHI, Y, np.array([2., 0., 0., 0.]))
        assert len(trace.steps) == 1
        np.testing.assert_allclose(trace.final_x, [1., 0., 0., 0.], atol=1e-12)
        assert trace.stack_full_rank
        assert not trace.support_shrunk

    def test_flagship_fixed_point(self):
        trace = active_set_augmentation(PHI, Y, np.array([1., 0., 0., 0.]))
        assert trace.steps == []
        assert trace.stack_full_rank

    def test_identity_two_steps(self):
        trace = active_set_augmentation(np.eye(2), np.array([1, -1]),
                                        np.array([2., -3.]))
        assert len(trace.steps) == 2
        np.testing.assert_allclose(trace.final_x, [1., -1.], atol=1e-12)
        assert trace.final_active.active.tolist() == [0, 1]

    def test_rejects_inconsistent_start(self):
        with pytest.raises(ValueError):
            active_set_augmentation(PHI, Y, np.array([0., 0., 1., 0.]))

    def test_monotone_growth_and_termination(self):
        """Active rows never decrease between non-shrink steps, and the walk
        stops within the row budget."""
        rng = np.random.default_rng(42)
        walks = 0
        for _ in range(40):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            phi = rng.normal(size=(m, n))
            x = rng.normal(size=n)
            y = sign_standard(phi @ x)
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            walks += 1
            trace = active_set_augmentation(phi, y, x)
            assert trace.stack_full_rank or trace.support_shrunk
            signed = meas.j_plus.size + meas.j_minus.size
            non_shrink = [s for s in trace.steps if s.shrunk_index is None]
            assert len(non_shrink) <= signed + 1
        assert walks >= 20

    def test_sparsest_witness_reaches_full_rank_without_shrink(self, boundary_h):
        """Starting from an l0-oracle witness the walk cannot find a sparser
        point, and its fixed point has a full-column-rank boundary matrix."""
        rng = np.random.default_rng(7)
        verified = 0
        for _ in range(25):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 5))
            phi = rng.normal(size=(m, n))
            y = sign_standard(phi @ rng.normal(size=n))
            meas = SignMeasurement.from_y(y)
            if meas.is_zero():
                continue
            res = l0_min(phi, meas)
            if math.isinf(res.value) or res.value == 0:
                continue
            for _, x in res.witnesses:
                trace = active_set_augmentation(phi, y, x)
                assert not trace.support_shrunk
                assert trace.stack_full_rank
                h = boundary_h(phi, meas, uniqueness_certificate(phi, meas, trace.final_x))
                assert column_rank(h) == h.shape[1]
                verified += 1
        assert verified >= 10


class TestVertexOracleContract:
    """What the vertex oracle keeps whatever its implementation."""

    @pytest.fixture
    def no_simplex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the vertex oracle called the simplex")
        monkeypatch.setattr(lp, "solve", refuse)
        monkeypatch.setattr(lp, "_simplex_standard", refuse)

    def test_never_calls_the_simplex(self, no_simplex):
        problem, _ = encode_bp_lp(PHI, SignMeasurement.from_y(Y))
        assert lp_vertex_oracle(problem).objective_value == pytest.approx(1.0, abs=1e-9)
        unbounded = lp.LPProblem.from_rows(np.array([-1.0, 0.0]),
                                           [(np.array([1.0, 1.0]), ">=", 0.0)],
                                           free=np.array([True, True]))
        assert lp_vertex_oracle(unbounded).status == lp.UNBOUNDED
        top = lp.LPProblem.from_rows(np.array([1.0, 2.0]),
                                     [(np.array([1.0, 1.0]), "<=", 3.0)], sense="max")
        s = lp_vertex_oracle(top)
        assert s.status == lp.OPTIMAL
        np.testing.assert_array_equal(s.primal, [0.0, 3.0])
        assert s.objective_value == 6.0

    @pytest.mark.parametrize("eps, expected", [(5e-13, [0.0, 1.0]), (2e-12, [1.0, 0.0])])
    def test_near_tie_keeps_first_candidate(self, eps, expected):
        """Candidates run in combinations order, (x1 + x2 = 1, x1 = 0) before
        (x1 + x2 = 1, x2 = 0); a later vertex replaces the best only when it
        is lower by more than 1e-12, so a closer tie keeps the first."""
        p = lp.LPProblem.from_rows(np.array([1.0 - eps, 1.0]),
                                   [(np.array([1.0, 1.0]), ">=", 1.0)])
        s = lp_vertex_oracle(p)
        assert s.status == lp.OPTIMAL
        np.testing.assert_array_equal(s.primal, expected)
