"""Two-phase simplex, standard-form conversion, margins, dual checks."""

import numpy as np
import pytest

from onebitcs import lp
from onebitcs.decoders import encode_bp_lp
from onebitcs.oracle import lp_vertex_oracle
from onebitcs.signmodel import SignMeasurement

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
                                         strict=[0, 1], cap=1.0)
        assert cert.t_star == pytest.approx(0.5)
        np.testing.assert_allclose(cert.witness, [0.5], atol=1e-9)

    def test_one_sided_strictness_hits_cap(self):
        cert = lp.max_margin_feasibility([[1.0], [1.0]], (">=", "<="), [0.0, 1.0],
                                         strict=[0], cap=1.0)
        assert cert.t_star == pytest.approx(1.0)

    def test_strictness_clashes_with_equality(self):
        """w = 0 with w > 0 required: the margin collapses to zero, below
        every positive threshold, so the strict system is judged infeasible
        while the relaxed LP itself stays feasible."""
        cert = lp.max_margin_feasibility([[1.0], [1.0]], ("=", ">="), [0.0, 0.0],
                                         strict=[1], cap=1.0)
        assert cert.t_star == pytest.approx(0.0, abs=1e-12)
        assert cert.t_star < 1e-8
        np.testing.assert_allclose(cert.witness, [0.0], atol=1e-12)

    def test_infeasible_marker(self):
        cert = lp.max_margin_feasibility([[1.0], [1.0]], ("=", ">="), [0.0, 1.0],
                                         strict=[1], cap=1.0)
        assert cert.t_star == -1.0
        assert cert.witness is None

    def test_margin_caps_at_one(self):
        # eta = w on the identity: support row pinned, off-support strict
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        cert = lp.max_margin_feasibility(a, ("=", "<=", ">="), [1.0, 1.0, -1.0],
                                         strict=[1, 2], cap=1.0)
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
        # frozen regression value for the default seed
        np.testing.assert_allclose(alt[enc.x_cols], [0.5, 0.0, -0.5, 0.0], atol=1e-8)
