"""Two-phase simplex, its standard form and start, margins, dual checks."""

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


def test_problem_without_rows():
    """No rows: no unit columns, no artificials, an empty tableau body."""
    bounded = lp.solve(lp.LPProblem.from_rows(np.array([1.0, 2.0]), []))
    assert bounded.status == lp.OPTIMAL and bounded.objective_value == 0.0
    assert bounded.primal.tolist() == [0.0, 0.0] and bounded.dual.shape == (0,)
    free = lp.solve(lp.LPProblem.from_rows(np.array([1.0, -1.0]), [],
                                           free=np.array([False, True])))
    assert free.status == lp.UNBOUNDED and free.ray.tolist() == [0.0, 1.0]


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


class TestSenses:
    def test_senses_follow_rels(self):
        p = lp.LPProblem(c=np.ones(1), a=np.ones((4, 1)), rels=(">=", "=", "<=", ">="),
                         b=np.ones(4))
        assert p.senses.tolist() == [1.0, 0.0, -1.0, 1.0]
        assert not p.senses.flags.writeable
        assert lp.LPProblem(c=np.ones(1), a=np.zeros((0, 1)), rels=(), b=[]).senses.shape == (0,)

    def test_senses_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="senses"):
            lp.LPProblem(c=np.ones(1), a=np.ones((1, 1)), rels=("=",), b=np.ones(1),
                         senses=np.zeros(1))


class TestFreeMask:
    @pytest.mark.parametrize("mask", [[2], [0.5], [-1]])
    def test_problem_rejects_non_boolean_mask(self, mask):
        with pytest.raises(ValueError, match="booleans or 0/1"):
            lp.LPProblem(c=np.ones(1), a=np.ones((1, 1)), rels=(">=",), b=np.ones(1),
                         free=mask)

    @pytest.mark.parametrize("mask", [[2], [0.5]])
    def test_margin_rejects_non_boolean_mask(self, mask):
        with pytest.raises(ValueError, match="booleans or 0/1"):
            lp.max_margin_feasibility([[1.0]], ("<=",), [0.0], strict=[0], free=mask)

    @pytest.mark.parametrize("mask", [[1], [True], np.array([1.0])])
    def test_one_and_true_mean_free(self, mask):
        p = lp.LPProblem(c=np.ones(1), a=np.ones((1, 1)), rels=(">=",), b=np.ones(1),
                         free=mask)
        assert p.free.tolist() == [True]


def _standard_form(p):
    """The documented standard form of p, built in pure Python: min c.z,
    A z = b, z >= 0, its columns the variables, the negative parts of the
    free ones in variable order, then one slack (+1 on a <= row) or surplus
    (-1 on a >= row) per inequality row in row order; a max objective is
    negated."""
    free = [j for j in range(p.n_vars) if p.free[j]]
    ineq = [i for i, rel in enumerate(p.rels) if rel != "="]
    rows = []
    for i, row in enumerate(p.a.tolist()):
        slack = [0.0] * len(ineq)
        if p.rels[i] != "=":
            slack[ineq.index(i)] = 1.0 if p.rels[i] == "<=" else -1.0
        rows.append(row + [-row[j] for j in free] + slack)
    c = [-v if p.sense == "max" else v for v in p.c.tolist()]
    c += [-c[j] for j in free] + [0.0] * len(ineq)
    return np.array(c), np.array(rows).reshape(p.n_rows, len(c)), p.b.copy()


def _reference_start(a, b):
    """The documented unit-column start, in pure Python: orient each row so
    that b >= 0, flipping a b = 0 row only when it has a -1 unit column and
    no +1 one, and start each row on its lowest-index usable unit column
    (+1 once oriented), or else on an artificial (-1)."""
    a, b = a.tolist(), b.tolist()
    units = {}
    for j in range(len(a[0]) if a else 0):
        rows = [i for i in range(len(a)) if a[i][j] != 0.0]
        if len(rows) == 1 and a[rows[0]][j] in (1.0, -1.0):
            units.setdefault(rows[0], []).append((j, a[rows[0]][j]))
    flip, start = [], []
    for i in range(len(a)):
        values = [v for _, v in units.get(i, [])]
        f = b[i] < 0 or (b[i] == 0 and -1.0 in values and 1.0 not in values)
        usable = [j for j, v in units.get(i, []) if v == (-1.0 if f else 1.0)]
        flip.append(f)
        start.append(min(usable) if usable else -1)
    return flip, start


def _phase_one_tableau(monkeypatch, p):
    """(tableau, basis) as the first phase-1 pivot of lp.solve(p) finds them."""
    seen = []
    run_phase = lp._run_phase

    def recording(t, basis, n, state):
        if not seen:
            seen.append((t.copy(), basis.copy()))
        return run_phase(t, basis, n, state)

    monkeypatch.setattr(lp, "_run_phase", recording)
    lp.solve(p)
    monkeypatch.setattr(lp, "_run_phase", run_phase)
    return seen[0]


class TestStandardForm:
    def test_free_variable_split_example(self):
        p = lp.LPProblem.from_rows(np.array([1.0]), [(np.array([1.0]), ">=", 1.0)],
                                   free=np.array([True]))
        c, a, b = _standard_form(p)
        np.testing.assert_array_equal(c, [1.0, -1.0, 0.0])
        np.testing.assert_array_equal(a, [[1.0, -1.0, -1.0]])
        np.testing.assert_array_equal(b, [1.0])

    def test_tableau_is_the_oriented_standard_form(self, monkeypatch):
        """The phase-1 tableau holds the documented standard form, each
        flipped row negated, then one unit column per artificial, then b;
        its cost row is minus the sum of the artificial rows."""
        rng = np.random.default_rng(7)
        for _ in range(60):
            p = random_problem(rng)
            _, a, b = _standard_form(p)
            flip, start = map(np.array, lp._unit_start(p))
            sign = np.where(flip, -1.0, 1.0)
            t, basis = _phase_one_tableau(monkeypatch, p)
            m, ns = a.shape
            art = np.flatnonzero(start < 0)
            assert t.shape == (m + 1, ns + art.size + 1)
            np.testing.assert_array_equal(t[:m, :ns], sign[:, None] * a)
            np.testing.assert_array_equal(t[:m, -1], sign * b)
            np.testing.assert_array_equal(t[:m, ns:-1], np.eye(m)[:, art])
            np.testing.assert_array_equal(basis, np.where(start < 0, ns + np.cumsum(start < 0) - 1,
                                                          start))
            np.testing.assert_array_equal(t[-1], -t[art].sum(axis=0) + np.r_[
                np.zeros(ns), np.ones(art.size), 0.0])

    def test_bp_encoding_column_count(self):
        problem, _ = encode_bp_lp(PHI, SignMeasurement.from_y(Y))
        out = lp._simplex_standard(problem)
        assert out["z"].shape == (22,) and out["y"].shape == (10,)

    def test_round_trip_recovers_original_variables(self):
        """The simplex's own point z, read in the documented column layout,
        meets the standard form and gives back the returned x: z[:n] less
        the negative parts on the free variables."""
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(60):
            p = random_problem(rng)
            s = lp.solve(p)
            if s.status != lp.OPTIMAL:
                continue
            checked += 1
            c, a, b = _standard_form(p)
            z = lp._simplex_standard(p)["z"]
            x, n = s.primal, p.n_vars
            free = np.flatnonzero(p.free)
            assert z.shape == c.shape
            back = z[:n].copy()
            back[free] -= z[n:n + free.size]
            np.testing.assert_array_equal(back, x)
            np.testing.assert_allclose(a @ z, b, atol=1e-9)
            assert (z >= 0.0).all()
            sign = -1.0 if p.sense == "max" else 1.0
            assert c @ z == pytest.approx(sign * s.objective_value, abs=1e-9)
        assert checked >= 10


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

    def test_leaves_the_callers_arrays_alone(self, monkeypatch):
        """The problem is built complete: its t-column holds -s_i on the
        strict rows from the start, and a and b stay as the caller gave them."""
        a = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        b = np.array([1.0, -1.0, 0.0])
        a0, b0 = a.copy(), b.copy()
        seen = _captured_solves(monkeypatch, lp.max_margin_feasibility,
                                a, (">=", "<=", "="), b, [0, 1])
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
        (problem, _), = seen
        np.testing.assert_array_equal(problem.a[:, :2], np.vstack([a0, [0.0, 0.0]]))
        np.testing.assert_array_equal(problem.a[:, 2], [-1.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(problem.b, [1.0, -1.0, 0.0, 1.0])

    @pytest.mark.parametrize("rels, strict, message", [
        # each error is raised before the ones below it in this list
        (("<=", ">="), [0.5], "strict indices must be integers"),
        (("=", "=="), [0.5], "strict indices must be integers"),
        (("<=", ">="), [2], "strict index 2 out of range"),
        (("=", "=="), [-1], "strict index -1 out of range"),
        (("=", "=="), [0], "unknown relation '=='"),
        (("=", ">="), [1, 0], "row 0 is an equality and cannot be strict"),
    ])
    def test_errors_keep_their_messages_and_order(self, rels, strict, message):
        with pytest.raises(ValueError, match=message):
            lp.max_margin_feasibility([[1.0], [1.0]], rels, [0.0, 1.0], strict=strict)

    @pytest.mark.parametrize("a, rels, b, strict, message", [
        ([1.0, 1.0], (">=",), [0.0], [0], "expected a 2-D array, got ndim=1"),
        ([[1.0], [np.nan]], (">=", "<="), [0.0, 1.0], [0], "matrix entries must be finite"),
        ([[1.0], [1.0]], (">=", "<="), [0.0, np.inf], [0], "vector entries must be finite"),
        ([[1.0], [1.0]], (">=", "<="), [0.0, 1.0, 2.0], [0], "expected length 2, got 3"),
        ([[1.0], [1.0]], (">=", "<="), [[0.0, 1.0]], [0], "expected a 1-D array, got ndim=2"),
        ([[1.0], [1.0]], ("=", ">="), [0.0, 1.0], [0], "row 0 is an equality"),
        ([[1.0], [1.0]], (">=", "<="), [0.0, 1.0], [3], "strict index 3 out of range"),
        (np.zeros((0, 1)), (), [], [], "margin system needs at least one row"),
        ([[1.0], [1.0]], (">=",), [0.0, 1.0], [0], "1 relations for 2 rows"),
    ])
    def test_input_errors_keep_their_messages(self, a, rels, b, strict, message):
        with pytest.raises(ValueError, match=message):
            lp.max_margin_feasibility(a, rels, b, strict)

    def test_validates_its_matrix_once(self, monkeypatch):
        """The constraint block is converted and checked once, by the
        LPProblem the margin LP builds."""
        calls = []
        real = lp.as_matrix
        monkeypatch.setattr(lp, "as_matrix", lambda a: calls.append(1) or real(a))
        cert = lp.max_margin_feasibility([[1.0], [1.0]], (">=", "<="), [0.0, 1.0], [0, 1])
        assert cert.t_star == pytest.approx(0.5)
        assert len(calls) == 1

    @pytest.mark.parametrize("strict", [[0.7], [1.0], ["0"], [0, 0.5]])
    def test_rejects_non_integer_strict_indices(self, strict):
        """0.7 was once read as row 0."""
        with pytest.raises(ValueError, match="strict indices must be integers"):
            lp.max_margin_feasibility([[1.0], [1.0]], (">=", "<="), [0.0, 1.0], strict=strict)

    def test_numpy_integer_strict_indices(self):
        cert = lp.max_margin_feasibility([[1.0], [1.0]], (">=", "<="), [0.0, 1.0],
                                         strict=np.array([0, 1]))
        assert cert.t_star == pytest.approx(0.5)

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
        problem, x_of = encode_bp_lp(PHI, SignMeasurement.from_y(Y))
        sol = lp.solve(problem)
        alt = lp.alternative_optimum(problem, sol)
        assert alt is not None
        assert problem.c @ alt == pytest.approx(sol.objective_value, abs=1e-7)
        assert np.linalg.norm(alt - sol.primal) > 1e-6
        # frozen regression values for the default seed: which vertex of the
        # face the solver returns depends on its starting basis, so the two
        # points are pinned as a set
        found = {tuple(np.round(x_of(v), 8) + 0.0) for v in (sol.primal, alt)}
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
        # With equality rows and no free variable the standard form is a.
        p = lp.LPProblem(c=np.zeros(6), a=a, rels=("=",) * 4, b=np.array([-1.0, 0.0, 2.0, 5.0]))
        flip, start = lp._unit_start(p)
        np.testing.assert_array_equal(flip, [True, True, False, False])
        np.testing.assert_array_equal(start, [1, 2, -1, 4])

    @staticmethod
    def assert_reference_start(p):
        _, a, b = _standard_form(p)
        flip, start = lp._unit_start(p)
        assert lp._unit_start(p) == _reference_start(a, b)

    def test_start_follows_the_documented_rule_on_seeded_problems(self):
        """Small integer entries make many +-1 unit columns, structural
        ones and the negative parts of free ones among them, and b = 0
        rows of every relation."""
        rng = np.random.default_rng(19)
        for _ in range(200):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            a[:, rng.random(n) < 0.4] *= rng.random((m, 1)) < 0.3
            p = lp.LPProblem(c=rng.integers(-2, 3, size=n).astype(float), a=a,
                             rels=[("<=", ">=", "=")[int(r)] for r in rng.integers(0, 3, size=m)],
                             b=rng.integers(-1, 2, size=m).astype(float),
                             free=rng.random(n) < 0.4)
            self.assert_reference_start(p)

    def test_start_follows_the_documented_rule_on_library_lps(self, monkeypatch):
        """The decoder, relaxation, witness-margin and membership LPs."""
        problems = []
        for phi, x, y in TestDualsOfLibraryLps.instances():
            problems.append(encode_bp_lp(phi, SignMeasurement.from_y(y))[0])
            problems += [p for p, _ in _captured_solves(monkeypatch, relaxation_gd, phi, y)]
            problems += [p for p, _ in _captured_solves(
                monkeypatch, uniqueness_certificate, phi, y, one_bit_bp(phi, y).x)]
            problems += [p for p, _ in _captured_solves(
                monkeypatch, membership_P, phi, y, *signed_support(x))]
        assert len(problems) == 16
        for p in problems:
            self.assert_reference_start(p)


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
    assert max(lp._unit_start(p)[1]) >= 0


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
    def scaled_instance(i, entropy=804):
        """Index i of a 20x40 Gaussian family with a 3-sparse signal."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(2, i)))
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

    @pytest.mark.parametrize("i", [0, 1])
    def test_no_unbounded_status_for_a_false_ray(self, i):
        """At phi * 1e-6 the decoder LP, which minimizes a nonnegative
        objective, once read unbounded along rays with c.d = +1.2e6 and +7.4."""
        phi, y = self.scaled_instance(i, entropy=20261018)
        assert one_bit_bp(1e-6 * phi, y).status == lp.INACCURATE

    @pytest.mark.parametrize("entropy, i", [(802, 1), (804, 4)])
    def test_unverified_witness_lp_raises(self, entropy, i):
        """At phi * 1e-6 roundoff ends phase 1 of the witness LP wrongly:
        seed 804 once read infeasible, so not unique with margin -1."""
        phi, y = self.scaled_instance(i, entropy)
        sol = one_bit_bp(1e-6 * phi, y)
        assert sol.status == lp.OPTIMAL
        with pytest.raises(RuntimeError, match="margin LP did not solve cleanly"):
            uniqueness_certificate(1e-6 * phi, y, sol.x)

    def test_unverified_simplex_point_is_inaccurate(self, monkeypatch):
        p = lp.LPProblem(c=np.array([1.0]), a=np.array([[1.0]]), rels=(">=",),
                         b=np.array([1.0]))
        monkeypatch.setattr(lp, "_simplex_standard", lambda problem: {
            "status": lp.OPTIMAL, "z": np.array([1.0 - 1e-6]), "y": np.array([1.0])})
        assert lp.solve(p).status == lp.INACCURATE
        monkeypatch.setattr(lp, "_simplex_standard", lambda problem: {
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


class TestUnboundedVerification:
    # Each case pairs a problem with a simplex answer that fails exactly one
    # check of unbounded: (c, a, rels, b, sense, z and ray in standard columns).
    RAY_FAILURES = {
        # a.d = 1 breaks the <= row
        "row": ([-1.0], [[1.0]], ("<=",), [1.0], "min", [0.0, 1.0], [1.0, 0.0]),
        # a.d = 1 breaks the equality row
        "equality_row": ([-1.0], [[1.0]], ("=",), [0.0], "min", [0.0], [1.0]),
        # d = -1 leaves x >= 0
        "sign_bound": ([1.0], [[0.0]], (">=",), [-1.0], "min", [0.0, 1.0], [-1.0, 0.0]),
        # c.d = +1 does not descend
        "cost": ([1.0], [[1.0]], (">=",), [0.0], "min", [0.0, 0.0], [1.0, 1.0]),
        # c.d = -1 does not ascend
        "cost_of_max": ([-1.0], [[1.0]], (">=",), [0.0], "max", [0.0, 0.0], [1.0, 1.0]),
        # the ray is fine, but x = 0 misses x >= 1
        "point": ([-1.0], [[1.0]], (">=",), [1.0], "min", [0.0, 0.0], [1.0, 1.0]),
    }

    @pytest.mark.parametrize("case", sorted(RAY_FAILURES))
    def test_unverified_ray_is_inaccurate(self, monkeypatch, case):
        c, a, rels, b, sense, z, ray = self.RAY_FAILURES[case]
        p = lp.LPProblem(c=np.array(c), a=np.array(a), rels=rels, b=np.array(b), sense=sense)
        monkeypatch.setattr(lp, "_simplex_standard", lambda *args: {
            "status": lp.UNBOUNDED, "z": np.array(z), "ray": np.array(ray)})
        assert lp.solve(p).status == lp.INACCURATE

    def test_verified_ray_is_returned(self, monkeypatch):
        p = lp.LPProblem(c=np.array([-1.0]), a=np.array([[1.0]]), rels=(">=",),
                         b=np.array([1.0]))
        monkeypatch.setattr(lp, "_simplex_standard", lambda *args: {
            "status": lp.UNBOUNDED, "z": np.array([2.0, 1.0]), "ray": np.array([1.0, 1.0])})
        s = lp.solve(p)
        assert s.status == lp.UNBOUNDED
        assert s.primal.tolist() == [2.0] and s.ray.tolist() == [1.0]


class TestInfeasibleVerification:
    # Each case pairs a feasible problem with a vector u, claimed as its
    # Farkas vector, that fails exactly one check: (c, a, rels, b, free, u).
    FARKAS_FAILURES = {
        # u.a = 1 > 0 on x >= 0
        "column": ([0.0], [[1.0]], (">=",), [1.0], None, [1.0]),
        # u.a = -1 != 0 on a free x
        "free_column": ([0.0], [[1.0]], ("<=",), [-1.0], [True], [-1.0]),
        # u = 1 on a <= row needs u <= 0
        "row_sign": ([0.0], [[-1.0]], ("<=",), [1.0], None, [1.0]),
        # u.b = 0 proves nothing
        "rhs": ([0.0], [[1.0]], ("=",), [0.0], None, [-1.0]),
    }

    @pytest.mark.parametrize("case", sorted(FARKAS_FAILURES))
    def test_unverified_farkas_vector_is_inaccurate(self, monkeypatch, case):
        c, a, rels, b, free, u = self.FARKAS_FAILURES[case]
        p = lp.LPProblem(c=np.array(c), a=np.array(a), rels=rels, b=np.array(b), free=free)
        monkeypatch.setattr(lp, "_simplex_standard", lambda *args: {
            "status": lp.INFEASIBLE, "farkas": np.array(u)})
        assert lp.solve(p).status == lp.INACCURATE

    def test_verified_farkas_vector_is_accepted(self, monkeypatch):
        p = lp.LPProblem(c=np.array([0.0]), a=np.array([[1.0]]), rels=("<=",),
                         b=np.array([-1.0]))
        monkeypatch.setattr(lp, "_simplex_standard", lambda *args: {
            "status": lp.INFEASIBLE, "farkas": np.array([-1.0])})
        assert lp.solve(p).status == lp.INFEASIBLE

    def test_simplex_reads_farkas_vector_off_phase_one(self):
        """x = 0 and -x <= -1 over a free x: both rows need an artificial,
        and the second is flipped.  The phase-1 duals, negated back on the
        flipped row, prove infeasibility in the problem's own units."""
        p = lp.LPProblem(c=np.zeros(1), a=np.array([[1.0], [-1.0]]), rels=("=", "<="),
                         b=np.array([0.0, -1.0]), free=[True])
        out = lp._simplex_standard(p)
        assert out["status"] == lp.INFEASIBLE
        u = out["farkas"]
        assert u @ p.b > 0 and u @ p.a[:, 0] == 0.0 and u[1] <= 0.0
        assert lp.solve(p).status == lp.INFEASIBLE


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


class TestPivotUpdate:
    """_pivot's column-restricted update against the full rank-1 update."""

    @staticmethod
    def full_update(t, row, col):
        """The full rank-1 update of every column, on a copy of t."""
        t = t.copy()
        prow = t[row]
        prow /= prow[col]
        colvals = t[:, col, None].copy()
        colvals[row, 0] = 0.0
        t -= colvals * prow
        return t

    @staticmethod
    def tableau(width, nonzeros):
        """Row 1 is the pivot row, nonzero on `nonzeros` columns with a
        positive pivot in column 0; row 2 has a negative multiplier and a
        -0.0 in the last column, where the pivot row is zero."""
        rng = np.random.default_rng(24)
        t = rng.standard_normal((4, width))
        t[1] = 0.0
        t[1, np.linspace(0, width - 2, nonzeros).astype(int)] = rng.uniform(0.5, 2.0, nonzeros)
        t[2, 0] = -1.5
        t[2, -1] = -0.0
        return t

    def pivoted(self, t):
        t = t.copy()
        basis = np.array([10, 11, 12])
        lp._pivot(t, basis, 1, 0)
        assert basis.tolist() == [10, 0, 12]
        return t

    def test_sparse_row_on_a_wide_tableau_skips_its_zero_columns(self):
        width = lp._SPARSE_MIN_COLS + 16
        t = self.tableau(width, int(lp._SPARSE_MAX_SHARE * width))
        got, full = self.pivoted(t), self.full_update(t, 1, 0)
        zero = t[1] == 0.0
        # Every entry of a zero column keeps its bits, the -0.0 under a
        # negative multiplier too, which the full update turns into +0.0.
        assert got[:, zero].tobytes() == t[:, zero].tobytes()
        assert np.signbit(got[2, -1]) and not np.signbit(full[2, -1])
        assert got[:, ~zero].tobytes() == full[:, ~zero].tobytes()

    @pytest.mark.parametrize("width, extra", [(lp._SPARSE_MIN_COLS, 0),
                                              (lp._SPARSE_MIN_COLS + 16, 1)],
                             ids=["64_columns", "row_over_a_quarter"])
    def test_other_pivots_run_the_full_update(self, width, extra):
        t = self.tableau(width, int(lp._SPARSE_MAX_SHARE * width) + extra)
        assert self.pivoted(t).tobytes() == self.full_update(t, 1, 0).tobytes()
