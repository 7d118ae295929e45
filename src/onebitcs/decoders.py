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
from dataclasses import dataclass

import numpy as np

from . import lp
from .linalg import TolerancePolicy, as_matrix
from .signmodel import STANDARD, SignMeasurement, as_measurement, is_consistent, sign_standard


@dataclass(frozen=True)
class BPEncoding:
    """Column/row layout of the decoder LP.

    Variables are ordered x (free), then the bound variables t, the gap
    variables u = t - x and v = t + x, then the slacks of the positive rows
    (alpha) and of the negative rows (beta).  Rows are the 2n gap
    identities followed by the positive, negative, and zero measurement
    rows, all equalities.
    """

    n: int
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def x_cols(self) -> slice:
        return slice(0, self.n)

    @property
    def t_cols(self) -> slice:
        return slice(self.n, 2 * self.n)

    @property
    def u_cols(self) -> slice:
        return slice(2 * self.n, 3 * self.n)

    @property
    def v_cols(self) -> slice:
        return slice(3 * self.n, 4 * self.n)

    @property
    def alpha_cols(self) -> slice:
        return slice(4 * self.n, 4 * self.n + self.n_plus)

    @property
    def beta_cols(self) -> slice:
        return slice(4 * self.n + self.n_plus, 4 * self.n + self.n_plus + self.n_minus)

    @property
    def plus_rows(self) -> slice:
        return slice(2 * self.n, 2 * self.n + self.n_plus)

    @property
    def minus_rows(self) -> slice:
        return slice(2 * self.n + self.n_plus, 2 * self.n + self.n_plus + self.n_minus)

    @property
    def zero_rows(self) -> slice:
        return slice(2 * self.n + self.n_plus + self.n_minus,
                     2 * self.n + self.n_plus + self.n_minus + self.n_zero)


@dataclass
class BPSolution:
    """Decoder outcome.

    On an optimal solve, alpha and beta hold the slacks of the positive and
    negative measurement rows (alpha[k] = (phi@x)_i - 1 for the k-th
    positive row i, beta[k] = -1 - (phi@x)_i for the k-th negative row),
    and dual concatenates the LP multipliers in the row order of the
    encoding.
    """

    status: str
    x: np.ndarray | None = None
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None


def encode_bp_lp(phi, meas: SignMeasurement) -> tuple[lp.LPProblem, BPEncoding]:
    """Build the sign-consistent l1 decoder as an explicit LP.

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
    p, q, z = meas.j_plus.size, meas.j_minus.size, meas.j_zero.size
    enc = BPEncoding(n=n, n_plus=p, n_minus=q, n_zero=z)
    n_cols = 4 * n + p + q
    n_rows = 2 * n + m

    a = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    # x_j + u_j - t_j = 0 and -x_j + v_j - t_j = 0.
    for j in range(n):
        a[j, j] = 1.0
        a[j, 2 * n + j] = 1.0
        a[j, n + j] = -1.0
        a[n + j, j] = -1.0
        a[n + j, 3 * n + j] = 1.0
        a[n + j, n + j] = -1.0
    for k, i in enumerate(meas.j_plus):
        r = 2 * n + k
        a[r, :n] = phi[i]
        a[r, 4 * n + k] = -1.0
        b[r] = 1.0
    for k, i in enumerate(meas.j_minus):
        r = 2 * n + p + k
        a[r, :n] = phi[i]
        a[r, 4 * n + p + k] = 1.0
        b[r] = -1.0
    for k, i in enumerate(meas.j_zero):
        r = 2 * n + p + q + k
        a[r, :n] = phi[i]
        b[r] = 0.0

    c = np.zeros(n_cols)
    c[n:2 * n] = 1.0
    free = np.zeros(n_cols, dtype=bool)
    free[:n] = True
    rels = ("=",) * n_rows
    problem = lp.LPProblem(c=c, a=a, rels=rels, b=b, sense="min", free=free)
    return problem, enc


def one_bit_bp(phi, y, tol: TolerancePolicy | None = None) -> BPSolution:
    """Minimum-l1 signal reproducing the sign measurement exactly.

    y may be a SignMeasurement or a raw vector over {-1, 0, 1}.  An
    infeasible status means no signal at all is consistent with y.
    """
    problem, enc = encode_bp_lp(phi, y)
    sol = lp.solve(problem)
    if sol.status == lp.INFEASIBLE:
        return BPSolution(status=lp.INFEASIBLE)
    if sol.status != lp.OPTIMAL:
        return BPSolution(status=sol.status)
    x = sol.primal[enc.x_cols].copy()
    alpha = sol.primal[enc.alpha_cols].copy()
    beta = sol.primal[enc.beta_cols].copy()
    return BPSolution(
        status=lp.OPTIMAL,
        x=x,
        alpha=alpha,
        beta=beta,
        objective=float(np.sum(np.abs(x))),
        dual=sol.dual.copy(),
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
    yv = as_measurement(y, m).y
    if not np.all(np.isin(yv, (-1, 1))):
        raise ValueError("relaxation needs entries in {-1, +1} only")

    a = np.empty((m + 1, 2 * n))
    a[:m, :n] = yv[:, None] * phi
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
    consistent = bool(np.array_equal(sign_standard(phi @ x, tol), yv))
    return x, float(np.sum(np.abs(x))), consistent


def bp_output_consistent(phi, meas: SignMeasurement, bps: BPSolution,
                         tol: TolerancePolicy | None = None) -> bool:
    """Whether an optimal decoder output reproduces the measurement exactly."""
    if bps.status != lp.OPTIMAL or bps.x is None:
        return False
    return is_consistent(phi, bps.x, meas, STANDARD, tol)
