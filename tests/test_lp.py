"""Two-phase simplex, standard-form conversion, margins, dual checks."""

import numpy as np
import pytest

from onebitcs import lp
from onebitcs.certify import membership_P, uniqueness_certificate
from onebitcs.decoders import encode_bp_lp, one_bit_bp, relaxation_gd
from onebitcs.oracle import lp_vertex_oracle
from onebitcs.signmodel import SignMeasurement, signed_support

PHI = np.array([[2., -1., 0., 2.], [-1., 1., 1., 0.]])
Y = np.array([1, -1])


def random_problem(rng):
    """Small integer LP in mixed relational form."""
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 7))
    a = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = rng.integers(-3, 4, size=m).astype(float)
    c = rng.integers(-3, 4, size=n).astype(float)
    rels = [("<=", ">=", "=")[int(t)] for t in rng.integers(0, 3, size=m)]
    free = rng.random(n) < 0.3
    sense = "min" if rng.random() < 0.5 else "max"
    return lp.LPProblem.from_rows(c, list(zip(a, rels, b)), sense=sense, free=free)


def test_min_x_subject_to_x_ge_one():
    p = lp.LPProblem.from_rows(np.array([1.0]), [(np.array([1.0]), ">=", 1.0)],
                               free=np.array([True]))
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective_value == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(s.primal, [1.0], atol=1e-9)


def test_infeasible_system():
    rows = [(np.array([1.0]), "=", 0.0), (np.array([1.0]), ">=", 1.0)]
    s = lp.solve(lp.LPProblem.from_rows(np.array([0.0]), rows, free=np.array([True])))
    assert s.status == lp.INFEASIBLE


def test_unbounded_below():
    p = lp.LPProblem.from_rows(np.array([-1.0]), [(np.array([1.0]), ">=", 0.0)],
                               free=np.array([True]))
    s = lp.solve(p)
    assert s.status == lp.UNBOUNDED
    assert s.ray is not None
    # the ray really descends and stays feasible
    assert (p.c @ s.ray) < 0
    assert (p.a @ s.ray >= -1e-12).all()


def test_max_sense():
    p = lp.LPProblem.from_rows(np.array([1.0]), [(np.array([1.0]), "<=", 3.0)],
                               sense="max")
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective_value == pytest.approx(3.0)


def test_degenerate_instance_terminates():
    """Heavily tied vertices must not cycle once Bland's rule engages."""
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    rows = [
        (np.array([0.25, -60.0, -0.04, 9.0]), "<=", 0.0),
        (np.array([0.5, -90.0, -0.02, 3.0]), "<=", 0.0),
        (np.array([0.0, 0.0, 1.0, 0.0]), "<=", 1.0),
    ]
    p = lp.LPProblem.from_rows(c, rows)
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    oracle = lp_vertex_oracle(p)
    assert s.objective_value == pytest.approx(oracle.objective_value, abs=1e-9)


def test_unknown_relation_named_in_row_order():
    with pytest.raises(ValueError, match="unknown relation '<'"):
        lp.LPProblem(c=np.ones(1), a=np.ones((3, 1)), rels=("<=", "<", "=>"), b=np.ones(3))


class TestStandardForm:
    def test_free_variable_split_example(self):
        p = lp.LPProblem.from_rows(np.array([1.0]), [(np.array([1.0]), ">=", 1.0)],
                                   free=np.array([True]))
        c, a, b, fmap = lp.to_standard_form(p)
        np.testing.assert_array_equal(c, [1.0, -1.0, 0.0])
        np.testing.assert_array_equal(a, [[1.0, -1.0, -1.0]])
        np.testing.assert_array_equal(b, [1.0])

    def test_bp_encoding_column_count(self):
        problem, _ = encode_bp_lp(PHI, SignMeasurement.from_y(Y))
        c, a, b, fmap = lp.to_standard_form(problem)
        assert a.shape == (10, 22)

    def test_round_trip_recovers_original_variables(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            p = random_problem(rng)
            s = lp.solve(p)
            if s.status != lp.OPTIMAL:
                continue
            c, a, b, fmap = lp.to_standard_form(p)
            z = np.zeros(len(c))
            z[fmap.pos] = np.maximum(s.primal, 0.0)
            for j in np.flatnonzero(p.free):
                z[fmap.neg[j]] = max(-s.primal[j], 0.0)
            np.testing.assert_allclose(fmap.to_original(z), s.primal, atol=1e-12)


class TestDualCertificates:
    def test_duality_gap_and_slackness(self):
        rng = np.random.default_rng(42)
        optimal = 0
        for _ in range(120):
            p = random_problem(rng)
            s = lp.solve(p)
            if s.status != lp.OPTIMAL:
                continue
            optimal += 1
            gap = abs(p.b @ s.dual - p.c @ s.primal)
            assert gap <= 1e-7 * (1.0 + abs(p.c @ s.primal))
            slack = p.a @ s.primal - p.b
            assert np.sum(np.abs(s.dual * slack)) <= 1e-6
            # multiplier signs follow the row relations
            for i, rel in enumerate(p.rels):
                sgn = s.dual[i] if p.sense == "min" else -s.dual[i]
                if rel == "<=":
                    assert sgn <= 1e-9
                elif rel == ">=":
                    assert sgn >= -1e-9
        assert optimal >= 20


def test_solver_determinism():
    rng = np.random.default_rng(7)
    p = random_problem(rng)
    s1 = lp.solve(p)
    s2 = lp.solve(p)
    assert s1.status == s2.status
    if s1.primal is not None:
        np.testing.assert_array_equal(s1.primal, s2.primal)
        np.testing.assert_array_equal(s1.dual, s2.dual)


def test_solver_agrees_with_vertex_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(80):
        p = random_problem(rng)
        s = lp.solve(p)
        o = lp_vertex_oracle(p)
        assert s.status == o.status, (p.c, p.a, p.rels, p.b, p.sense)
        if s.status == lp.OPTIMAL:
            assert s.objective_value == pytest.approx(o.objective_value, abs=1e-7)
            checked += 1
    assert checked >= 12


class TestMarginFeasibility:
    def test_strict_interval_midpoint(self):
        cert = lp.max_margin_feasibility([[1.0], [1.0]], (">=", "<="), [0.0, 1.0],
                                         strict=[0, 1])
        assert cert.t_star == pytest.approx(0.5)
        np.testing.assert_allclose(cert.witness, [0.5], atol=1e-9)

    def test_one_sided_strictness_hits_cap(self):
        cert = lp.max_margin_feasibility([[1.0], [1.0]], (">=", "<="), [0.0, 1.0],
                                         strict=[0])
        assert cert.t_star == pytest.approx(1.0)

    def test_strictness_clashes_with_equality(self):
        """w = 0 with w > 0 required: the margin collapses to zero, below
        every positive threshold, so the strict system is judged infeasible
        while the relaxed LP itself stays feasible."""
        cert = lp.max_margin_feasibility([[1.0], [1.0]], ("=", ">="), [0.0, 0.0],
                                         strict=[1])
        assert cert.t_star == pytest.approx(0.0, abs=1e-12)
        assert cert.t_star < 1e-8
        np.testing.assert_allclose(cert.witness, [0.0], atol=1e-12)

    def test_infeasible_marker(self):
        cert = lp.max_margin_feasibility([[1.0], [1.0]], ("=", ">="), [0.0, 1.0],
                                         strict=[1])
        assert cert.t_star == -1.0
        assert cert.witness is None

    def test_margin_caps_at_one(self):
        # eta = w on the identity: support row pinned, off-support strict
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        cert = lp.max_margin_feasibility(a, ("=", "<=", ">="), [1.0, 1.0, -1.0],
                                         strict=[1, 2])
        assert cert.t_star == pytest.approx(1.0)

    def test_rejects_strict_equality_rows(self):
        with pytest.raises(ValueError):
            lp.max_margin_feasibility([[1.0]], ("=",), [0.0], strict=[0])

    def test_nonnegative_mask(self):
        """With x >= 0 declared, x <= -t cannot hold for any t >= 0 beyond 0."""
        cert = lp.max_margin_feasibility([[1.0]], ("<=",), [0.0], strict=[0],
                                         free=[False])
        assert cert.t_star == pytest.approx(0.0, abs=1e-12)
        free = lp.max_margin_feasibility([[1.0]], ("<=",), [0.0], strict=[0])
        assert free.t_star == pytest.approx(1.0)

    @pytest.mark.parametrize("mask", [[True], [True, False, True]])
    def test_free_mask_length_must_match(self, mask):
        """A length-1 mask once broadcast over every variable."""
        with pytest.raises(ValueError, match=rf"shape \({len(mask)},\), expected \(2,\)"):
            lp.max_margin_feasibility([[1.0, 2.0]], ("<=",), [0.0], strict=[0], free=mask)


class TestAlternativeOptimum:
    def test_unique_instance_finds_nothing(self):
        problem, _ = encode_bp_lp(np.eye(2), SignMeasurement.from_y(np.array([1, -1])))
        sol = lp.solve(problem)
        assert lp.alternative_optimum(problem, sol) is None

    def test_degenerate_face_yields_second_point(self):
        problem, enc = encode_bp_lp(PHI, SignMeasurement.from_y(Y))
        sol = lp.solve(problem)
        alt = lp.alternative_optimum(problem, sol)
        assert alt is not None
        assert problem.c @ alt == pytest.approx(sol.objective_value, abs=1e-7)
        assert np.linalg.norm(alt - sol.primal) > 1e-6
        # frozen regression values for the default seed: which vertex of the
        # face the solver returns depends on its starting basis, so the two
        # points are pinned as a set
        found = {tuple(np.round(v[enc.x_cols], 8) + 0.0) for v in (sol.primal, alt)}
        assert found == {(1.0, 0.0, 0.0, 0.0), (0.5, 0.0, -0.5, 0.0)}


class TestUnitColumnStart:
    def test_unit_columns_need_no_phase_one_pivot(self, monkeypatch):
        """Slacks of <= rows with b >= 0 and the surplus of a b = 0 >= row
        (flipped) start basic, so phase 1 has nothing to do."""
        pivots = []
        run_phase = lp._run_phase

        def counting(*args):
            state = args[-1]
            before = state.iterations
            status = run_phase(*args)
            pivots.append(state.iterations - before)
            return status

        monkeypatch.setattr(lp, "_run_phase", counting)
        a = np.array([[1.0, 1.0], [1.0, 3.0], [1.0, -1.0]])
        p = lp.LPProblem(c=np.array([1.0, 2.0]), a=a, rels=("<=", "<=", ">="),
                         b=np.array([4.0, 6.0, 0.0]), sense="max")
        s = lp.solve(p)
        assert s.status == lp.OPTIMAL
        np.testing.assert_allclose(s.primal, [3.0, 1.0], atol=1e-12)
        assert pivots[0] == 0
        assert len(pivots) == 2

    def test_row_orientation_and_start_columns(self):
        # row 0: b < 0, its -1 unit column turns +1; row 1: b = 0 with a -1
        # unit column only, flipped; row 2: b > 0 with a -1 unit column,
        # needs an artificial; row 3: two +1 unit columns, the first starts
        a = np.array([[2.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, -1.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                      [3.0, 0.0, 0.0, 0.0, 1.0, 1.0]])
        flip, start = lp._unit_start(a, np.array([-1.0, 0.0, 2.0, 5.0]))
        np.testing.assert_array_equal(flip, [True, True, False, False])
        np.testing.assert_array_equal(start, [1, 2, -1, 4])


def _captured_solves(monkeypatch, fn, *args):
    """Run fn(*args) and return every (problem, solution) lp.solve saw."""
    seen = []
    solve = lp.solve

    def recording(p):
        sol = solve(p)
        seen.append((p, sol))
        return sol

    monkeypatch.setattr(lp, "solve", recording)
    fn(*args)
    monkeypatch.setattr(lp, "solve", solve)
    return seen


def _assert_dual_certificate(p, s):
    assert s.status == lp.OPTIMAL
    gap = abs(p.b @ s.dual - p.c @ s.primal)
    assert gap <= 1e-7 * (1.0 + abs(p.c @ s.primal))
    for i, rel in enumerate(p.rels):
        sgn = s.dual[i] if p.sense == "min" else -s.dual[i]
        if rel == "<=":
            assert sgn <= 1e-9
        elif rel == ">=":
            assert sgn >= -1e-9
    # some rows take their dual from a unit column, not an artificial
    c, a, b, _ = lp.to_standard_form(p)
    assert (lp._unit_start(a, b)[1] >= 0).any()


class TestDualsOfLibraryLps:
    """Strong duality and multiplier signs on the LP families of the library."""

    @staticmethod
    def instances():
        for i in range(4):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=5514, spawn_key=(i,)))
            phi = rng.standard_normal((10, 20))
            x = np.zeros(20)
            x[rng.choice(20, size=2, replace=False)] = rng.standard_normal(2)
            yield phi, x, np.sign(phi @ x).astype(int)

    def test_decoder_and_witness(self, monkeypatch):
        for phi, _, y in self.instances():
            problem, _ = encode_bp_lp(phi, SignMeasurement.from_y(y))
            _assert_dual_certificate(problem, lp.solve(problem))
            xb = one_bit_bp(phi, y).x
            seen = _captured_solves(monkeypatch, uniqueness_certificate, phi, y, xb)
            assert len(seen) == 1
            _assert_dual_certificate(*seen[0])

    def test_relaxation_and_membership(self, monkeypatch):
        for phi, x, y in self.instances():
            seen = _captured_solves(monkeypatch, relaxation_gd, phi, y)
            sp, sm = signed_support(x)
            seen += _captured_solves(monkeypatch, membership_P, phi, y, sp, sm)
            assert len(seen) == 2
            for p, s in seen:
                _assert_dual_certificate(p, s)


class TestPrimalVerification:
    @staticmethod
    def scaled_instance(i):
        """Index i of a 20x40 Gaussian family with a 3-sparse signal."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=804, spawn_key=(2, i)))
        phi = rng.standard_normal((20, 40))
        x = np.zeros(40)
        x[rng.choice(40, size=3, replace=False)] = rng.standard_normal(3)
        v = phi @ x
        return phi, np.where(v > 1e-8, 1, np.where(v < -1e-8, -1, 0))

    @pytest.mark.parametrize("i", [0, 2])
    def test_no_optimal_status_for_an_infeasible_point(self, i):
        """At phi * 1e-6 roundoff once left a decoder point far off its
        constraints; optimal must mean the point meets them."""
        phi, y = self.scaled_instance(i)
        problem, _ = encode_bp_lp(1e-6 * phi, SignMeasurement.from_y(y))
        sol = lp.solve(problem)
        if sol.status == lp.OPTIMAL:
            x = sol.primal
            miss = np.abs(problem.a @ x - problem.b)
            assert np.all(miss <= lp.FEAS_TOL * (1.0 + np.abs(problem.b)
                                                 + np.abs(problem.a) @ np.abs(x)))
        else:
            assert sol.status == lp.INACCURATE
            assert sol.primal is None and sol.dual is None
        assert one_bit_bp(1e-6 * phi, y).status == sol.status

    def test_unverified_simplex_point_is_inaccurate(self, monkeypatch):
        p = lp.LPProblem(c=np.array([1.0]), a=np.array([[1.0]]), rels=(">=",),
                         b=np.array([1.0]))
        monkeypatch.setattr(lp, "_simplex_standard", lambda c, a, b: {
            "status": lp.OPTIMAL, "z": np.array([1.0 - 1e-6]), "y": np.array([1.0])})
        assert lp.solve(p).status == lp.INACCURATE
        monkeypatch.setattr(lp, "_simplex_standard", lambda c, a, b: {
            "status": lp.OPTIMAL, "z": np.array([1.0 - 1e-9]), "y": np.array([1.0])})
        assert lp.solve(p).status == lp.OPTIMAL


class TestDualVerification:
    # Each case pairs a feasible point with multipliers that fail exactly
    # one dual check: (c, a, rels, b, free, z in standard columns, y).
    DUAL_FAILURES = {
        # y_1 < 0 on a >= row of a minimization; reduced cost and gap hold
        "sign": ([1.0], [[1.0], [1.0]], (">=", ">="), [1.0, 1.0], None, [1.0], [2.0, -1.0]),
        # x = (1, 0) is not optimal: x_2 has reduced cost 0 - 1 < 0
        "reduced_cost": ([1.0, 0.0], [[1.0, 1.0]], (">=",), [1.0], None, [1.0, 0.0], [1.0]),
        # a free variable needs a zero reduced cost, here 1 - 0.5
        "free_reduced_cost": ([1.0], [[1.0]], (">=",), [0.0], [True], [0.0, 0.0], [0.5]),
        # x = 2 is feasible, y = 1 dual feasible, but b.y = 1 < c.x = 2
        "gap": ([1.0], [[1.0]], (">=",), [1.0], None, [2.0], [1.0]),
    }

    @pytest.mark.parametrize("case", sorted(DUAL_FAILURES))
    def test_unverified_dual_is_inaccurate(self, monkeypatch, case):
        c, a, rels, b, free, z, y = self.DUAL_FAILURES[case]
        p = lp.LPProblem(c=np.array(c), a=np.array(a), rels=rels, b=np.array(b), free=free)
        monkeypatch.setattr(lp, "_simplex_standard", lambda *args: {
            "status": lp.OPTIMAL, "z": np.array(z), "y": np.array(y)})
        assert lp.solve(p).status == lp.INACCURATE


class TestPivotRules:
    """Hand-built tableaux for _run_phase: t[-1] holds the reduced costs,
    t[:, -1] the right-hand side, basis the basic column of each row."""

    class Pivoted(Exception):
        pass

    def first_pivot(self, monkeypatch, t, basis, bland=False):
        """(row, col) of the first pivot _run_phase chooses on t."""
        def stop(t, basis, row, col):
            raise self.Pivoted(row, col)

        monkeypatch.setattr(lp, "_pivot", stop)
        state = lp._PivotState(threshold=100, max_iter=100)
        state.bland = bland
        with pytest.raises(self.Pivoted) as info:
            lp._run_phase(np.array(t), np.array(basis), len(t[0]) - 1, state)
        return info.value.args

    # columns 3 and 4 are basic in rows 0 and 1; 1 and 2 tie on -5
    TABLEAU = [[1.0, 1.0, 1.0, 1.0, 0.0, 4.0],
               [1.0, 2.0, 2.0, 0.0, 1.0, 6.0],
               [-2.0, -5.0, -5.0, 0.0, 0.0, 0.0]]

    def test_dantzig_tie_enters_lowest_index(self, monkeypatch):
        assert self.first_pivot(monkeypatch, self.TABLEAU, [3, 4]) == (1, 1)

    def test_bland_enters_first_negative(self, monkeypatch):
        assert self.first_pivot(monkeypatch, self.TABLEAU, [3, 4], bland=True) == (0, 0)

    def test_ratio_tie_leaves_smallest_basis_index(self, monkeypatch):
        # rows 0 and 1 both allow a step of 2; row 1 holds column 1
        t = [[2.0, 0.0, 1.0, 4.0],
             [1.0, 1.0, 0.0, 2.0],
             [-1.0, 0.0, 0.0, 0.0]]
        assert self.first_pivot(monkeypatch, t, [2, 1]) == (1, 0)

    def test_pivot_column_is_exact_unit_vector(self):
        t = np.array([[0.1, 3.0, 7.0],
                      [1.0 / 3.0, 0.7, 2.0],
                      [-0.3, -1e-17, 0.0]])
        basis = np.array([5, 6])
        lp._pivot(t, basis, 0, 1)
        assert t[:, 1].tolist() == [1.0, 0.0, 0.0]
        assert not np.signbit(t[:, 1]).any()
        assert basis.tolist() == [1, 6]

    @pytest.mark.parametrize("bland", [False, True])
    def test_nan_reduced_cost_stalls(self, bland):
        t = np.array([[1.0, 1.0, 1.0],
                      [np.nan, 0.5, 0.0]])
        state = lp._PivotState(threshold=100, max_iter=100)
        state.bland = bland
        assert lp._run_phase(t, np.array([1]), 2, state) == lp.STALLED

    def test_nan_ratio_stalls(self):
        t = np.array([[1.0, np.nan],
                      [-1.0, 0.0]])
        state = lp._PivotState(threshold=100, max_iter=100)
        assert lp._run_phase(t, np.array([1]), 1, state) == lp.STALLED
