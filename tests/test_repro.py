"""The built-in audit, whichever vertex of the optimal face the solver returns."""

import numpy as np
import pytest

from onebitcs import lp
from onebitcs.decoders import encode_bp_lp
from onebitcs.repro import COUNTEREXAMPLE_MATRIX, COUNTEREXAMPLE_Y, repro_example
from onebitcs.signmodel import SignMeasurement

PHI = np.array(COUNTEREXAMPLE_MATRIX, dtype=float)
MEAS = SignMeasurement.from_y(np.array(COUNTEREXAMPLE_Y))
# x = (a, -b, -c, 0) with a + b + c = 1 and a >= c: the decoder's optimal
# face (l1 norm 1) is a triangle with these vertices.
VERTICES = ((1.0, 0.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0), (0.5, 0.0, -0.5, 0.0))


def _decoder_point(x):
    """The full decoder LP point (x, t, u, v, alpha, beta) at signal x."""
    x = np.array(x)
    t = np.abs(x)
    alpha = PHI[MEAS.j_plus] @ x - 1.0
    beta = -1.0 - PHI[MEAS.j_minus] @ x
    return np.concatenate([x, t, t - x, t + x, alpha, beta])


@pytest.mark.parametrize("vertex", VERTICES)
def test_non_uniqueness_holds_at_every_vertex(monkeypatch, vertex):
    problem, _ = encode_bp_lp(PHI, MEAS)
    point = _decoder_point(vertex)
    np.testing.assert_allclose(problem.a @ point, problem.b, atol=1e-12)
    assert problem.c @ point == pytest.approx(1.0)
    solve = lp.solve
    served = []

    def at_vertex(p):
        if p.a.shape == problem.a.shape and np.array_equal(p.a, problem.a) \
                and np.array_equal(p.b, problem.b):
            served.append(vertex)
            return lp.LPSolution(status=lp.OPTIMAL, primal=point.copy(),
                                 dual=np.zeros(problem.n_rows), objective_value=1.0)
        return solve(p)

    monkeypatch.setattr(lp, "solve", at_vertex)
    report = repro_example()
    assert served
    check = {c.name: c for c in report.checks}["non-uniqueness"]
    assert check.passed, check.detail
    assert float(np.sum(np.abs(report.alternative))) == pytest.approx(1.0)
    assert np.linalg.norm(report.alternative - np.array(vertex)) > 1e-6
    assert report.passed


def test_decoder_lp_is_solved_once(monkeypatch):
    """One decoder solve serves the consistency check and the face search."""
    problem, _ = encode_bp_lp(PHI, MEAS)
    solve = lp.solve
    decoder_solves = []

    def counting(p):
        if p.a.shape == problem.a.shape and np.array_equal(p.a, problem.a) \
                and np.array_equal(p.b, problem.b) and np.array_equal(p.c, problem.c):
            decoder_solves.append(p)
        return solve(p)

    monkeypatch.setattr(lp, "solve", counting)
    assert repro_example().passed
    assert len(decoder_solves) == 1
