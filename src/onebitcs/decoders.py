"""Decoders: the sign-consistent l1 program and the legacy relaxation.

The consistent decoder minimizes the l1 norm subject to the measurement
partition read as hard constraints (rows measured +1 are pushed to at
least 1, rows measured -1 to at most -1, zero rows to equality), so any
optimum reproduces the measurement exactly.  The legacy relaxation only
constrains signs weakly through a cone and one normalizing equality; its
minimizers can fail to reproduce the measurement, which is what the
bundled counterexample audit demonstrates.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import lp
from .linalg import TolerancePolicy, as_matrix
from .signmodel import STANDARD, SignMeasurement, as_measurement, is_consistent


@dataclass
class BPSolution:
    """Decoder outcome.

    On an optimal solve, alpha and beta hold the slacks of the positive and
    negative measurement rows (alpha[k] = (phi@x)_i - 1 for the k-th
    positive row i, beta[k] = -1 - (phi@x)_i for the k-th negative row),
    and dual holds the m multipliers w of the measurement rows in
    measurement order.  w is a non-strict dual certificate at x, within
    the solver's tolerances: |phi'w| <= 1, phi'w = sign(x) on the support,
    w >= 0 on j_plus, w <= 0 on j_minus and w = 0 on the inactive rows.
    uniqueness_certificate adds the strict margin and the rank test.
    """

    status: str
    x: np.ndarray | None = None
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None


def encode_bp_lp(phi, meas: SignMeasurement
                 ) -> tuple[lp.LPProblem, Callable[[np.ndarray], np.ndarray]]:
    """Build the sign-consistent l1 decoder as an explicit LP.

    Returns (problem, x_of), where x_of(point) reads the signal x off any
    point of problem (its optimum, or a second optimum from
    lp.alternative_optimum), so callers never index the LP's columns.
    meas may be a SignMeasurement or a raw vector over {-1, 0, 1}.  Raises
    ValueError when it does not have one row per row of phi, or is
    identically zero (the decoder would just return 0 and certification
    is vacuous there).
    """
    phi = as_matrix(phi)
    m, n = phi.shape
    meas = as_measurement(meas, m)
    if meas.is_zero():
        raise ValueError("decoder is undefined for the zero measurement")
    p, q = meas.j_plus.size, meas.j_minus.size
    # Columns: x (free), the bounds t, the gaps u = t - x and v = t + x,
    # then the slacks alpha of the positive rows and beta of the negative
    # rows.  Rows, all equalities: x_j + u_j - t_j = 0, -x_j + v_j - t_j = 0,
    # then phi_i x - alpha = 1 on j_plus, phi_i x + beta = -1 on j_minus
    # and phi_i x = 0 on j_zero.
    a = np.zeros((2 * n + m, 4 * n + p + q))
    j = np.arange(n)
    a[j, j] = a[j, 2 * n + j] = a[n + j, 3 * n + j] = 1.0
    a[j, n + j] = a[n + j, j] = a[n + j, n + j] = -1.0
    a[2 * n:, :n] = phi[np.concatenate([meas.j_plus, meas.j_minus, meas.j_zero])]
    b = np.zeros(2 * n + m)
    b[2 * n:2 * n + p] = 1.0
    b[2 * n + p:2 * n + p + q] = -1.0
    # Slack k of the signed rows enters with the sign opposite to its rhs.
    k = 2 * n + np.arange(p + q)
    a[k, 2 * n + k] = -b[k]

    c = np.zeros(4 * n + p + q)
    c[n:2 * n] = 1.0
    free = np.zeros(4 * n + p + q, dtype=bool)
    free[:n] = True
    problem = lp.LPProblem(c=c, a=a, rels=("=",) * (2 * n + m), b=b, sense="min", free=free)
    return problem, lambda point: point[:n].copy()


def one_bit_bp(phi, y) -> BPSolution:
    """Minimum-l1 signal reproducing the sign measurement exactly.

    y may be a SignMeasurement or a raw vector over {-1, 0, 1}.  An
    infeasible status means no signal at all is consistent with y.
    """
    phi = as_matrix(phi)
    m, n = phi.shape
    meas = as_measurement(y, m)
    problem, _ = encode_bp_lp(phi, meas)
    sol = lp.solve(problem)
    if sol.status != lp.OPTIMAL:
        return BPSolution(status=sol.status)
    # Offsets of the layout in encode_bp_lp: the measurement rows follow
    # the 2n gap rows in the order j_plus, j_minus, j_zero.
    p = meas.j_plus.size
    x = sol.primal[:n].copy()
    dual = np.empty(m)
    dual[np.concatenate([meas.j_plus, meas.j_minus, meas.j_zero])] = sol.dual[2 * n:]
    return BPSolution(
        status=lp.OPTIMAL,
        x=x,
        alpha=sol.primal[4 * n:4 * n + p].copy(),
        beta=sol.primal[4 * n + p:].copy(),
        objective=float(np.sum(np.abs(x))),
        dual=dual,
    )


def relaxation_gd(phi, y, tol: TolerancePolicy | None = None
                  ) -> tuple[np.ndarray | None, float, bool]:
    """Legacy sign-cone relaxation: min l1 over Y phi x >= 0, sum(Y phi x) = m.

    Solved as one LP over x = p - q with p, q >= 0: minimize 1'(p + q)
    subject to the m rows Y phi (p - q) >= 0 and the one row
    sum_i (Y phi (p - q))_i = m.  For an m x n phi that is m + 1 rows over
    2n variables (2n + m standard columns with the surpluses).

    Requires y over {-1, +1} (the relaxation has no zero-row notion); a
    raw vector is read by SignMeasurement.from_y, so 1.7 is rejected, not
    truncated to 1.
    Returns (minimizer, l1 objective, consistency flag); an infeasible
    relaxation returns (None, inf, False).  Raises RuntimeError when the
    LP ends in any other non-optimal status (a simplex stall), so a
    breakdown is never reported as infeasibility.
    """
    phi = as_matrix(phi)
    m, n = phi.shape
    meas = as_measurement(y, m)
    if not np.all(np.isin(meas.y, (-1, 1))):
        raise ValueError("relaxation needs entries in {-1, +1} only")

    a = np.empty((m + 1, 2 * n))
    a[:m, :n] = meas.y[:, None] * phi
    a[m, :n] = a[:m, :n].sum(axis=0)
    a[:, n:] = -a[:, :n]
    b = np.zeros(m + 1)
    b[m] = float(m)
    problem = lp.LPProblem(c=np.ones(2 * n), a=a, rels=(">=",) * m + ("=",), b=b)
    sol = lp.solve(problem)
    if sol.status == lp.INFEASIBLE:
        return None, math.inf, False
    if sol.status != lp.OPTIMAL:
        raise RuntimeError(f"relaxation LP did not solve cleanly: status {sol.status}")
    x = sol.primal[:n] - sol.primal[n:]
    return x, float(np.sum(np.abs(x))), is_consistent(phi, x, meas, STANDARD, tol)


def bp_output_consistent(phi, meas: SignMeasurement, bps: BPSolution,
                         tol: TolerancePolicy | None = None) -> bool:
    """Whether an optimal decoder output reproduces the measurement exactly."""
    if bps.status != lp.OPTIMAL or bps.x is None:
        return False
    return is_consistent(phi, bps.x, meas, STANDARD, tol)
