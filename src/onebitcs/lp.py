"""Deterministic dense linear programming.

A small two-phase simplex over an explicit tableau, written for exact
reproducibility rather than speed on large instances: fixed pivoting rules
(Dantzig, switching to Bland's rule after a budget of degenerate pivots),
duals read off the final basis, and strict inequalities handled everywhere
by margin maximization instead of epsilon perturbations.

Phase 1 starts on the unit columns the standard form already has: each
row is oriented so that b_i >= 0, and a column whose only nonzero is +1
in that row (a slack, a flipped surplus, a gap variable of the decoder)
starts basic there.  Only rows without such a column get an artificial
variable.  The dual of a row is read from the reduced cost of the column
that started basic in it.  An optimal status is returned only after both
halves of the answer have been checked in the problem's own units: the
point against every row and sign bound, the multipliers for their signs,
every variable's reduced cost and the duality gap.

Every pivot is one rank-1 update of the dense tableau; the pivot rules
are pinned (see _run_phase), so the same problem always takes the same
pivots and returns the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
STALLED = "stalled"
# The simplex ended optimal, but the point misses a row or sign bound of
# the original problem by more than the primal tolerance, or the
# multipliers fail a dual check.
INACCURATE = "inaccurate"

# The relations a row may carry, each with the coefficient of its slack
# column: +1 for <=, -1 for >=.
_SLACK_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}

# Pivot entries below this are treated as zero in ratio tests and drive-out.
PIVOT_TOL = 1e-10
# Reduced costs above -OPT_TOL count as nonnegative (phase optimality);
# the dual checks of an optimal answer scale it as FEAS_TOL is scaled below.
OPT_TOL = 1e-9
# Phase-1 objective below FEAS_TOL * scale counts as feasible; an optimal
# point must meet each original row within FEAS_TOL * (1 + |b_i| + |a_i|.|x|).
FEAS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LPProblem:
    """min/max c.x subject to rows a_i.x (<=|=|>=) b_i, x_j >= 0 or free."""

    c: np.ndarray
    a: np.ndarray
    rels: tuple[str, ...]
    b: np.ndarray
    sense: str = "min"
    free: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = as_vector(self.c)
        a = as_matrix(self.a)
        b = as_vector(self.b)
        if a.shape != (b.shape[0], c.shape[0]):
            raise ValueError(
                f"shape mismatch: a is {a.shape}, expected ({b.shape[0]}, {c.shape[0]})"
            )
        rels = tuple(self.rels)
        if len(rels) != b.shape[0]:
            raise ValueError(f"{len(rels)} relations for {b.shape[0]} rows")
        if not _SLACK_SIGN.keys() >= set(rels):
            bad = next(r for r in rels if r not in _SLACK_SIGN)
            raise ValueError(f"unknown relation {bad!r}")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.free is None:
            fr = np.zeros(c.shape[0], dtype=bool)
        else:
            fr = np.array(self.free, dtype=bool)
            if fr.shape != c.shape:
                raise ValueError(f"free mask has shape {fr.shape}, expected {c.shape}: "
                                 "one entry per variable")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rels", rels)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "free", fr)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]

    @classmethod
    def from_rows(cls, c, rows, sense: str = "min", free=None) -> "LPProblem":
        """Build from a list of (coefficients, relation, rhs) triples."""
        c = as_vector(c)
        if rows:
            a = np.vstack([as_vector(r[0], c.shape[0]) for r in rows])
            rels = tuple(r[1] for r in rows)
            b = np.array([float(r[2]) for r in rows])
        else:
            a = np.zeros((0, c.shape[0]))
            rels = ()
            b = np.zeros(0)
        return cls(c=c, a=a, rels=rels, b=b, sense=sense, free=free)


@dataclass
class LPSolution:
    """Outcome of a solve: status plus primal/dual data when optimal.

    dual has one multiplier per original row (None unless optimal).  For a
    minimization, multipliers on <= rows are <= 0 and on >= rows are >= 0;
    signs flip for maximization.  ray is a recession direction in the
    original variables certifying unboundedness.  phase1_gap is the
    residual infeasibility measure when status is infeasible.  An optimal
    status is returned only for a point that meets every row and sign bound
    of the original problem within the primal tolerance (see FEAS_TOL) and
    multipliers that pass the dual checks (sign, reduced cost, gap; see
    _verified); otherwise the status is inaccurate and neither is returned.
    """

    status: str
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    objective_value: float | None = None
    ray: np.ndarray | None = None
    phase1_gap: float | None = None


@dataclass(frozen=True)
class StandardFormMap:
    """Column bookkeeping for to_standard_form.

    pos[j]   standard column holding the positive part of variable j
    neg[j]   standard column holding the negative part (-1 if j is nonneg)
    slack[i] standard column of row i's slack/surplus (-1 for equality rows)
    negated_objective  True when a max problem was converted to min
    """

    n_vars: int
    n_std: int
    pos: np.ndarray
    neg: np.ndarray
    slack: np.ndarray
    negated_objective: bool

    def to_original(self, z: np.ndarray) -> np.ndarray:
        x = z[self.pos].astype(float).copy()
        has_neg = self.neg >= 0
        x[has_neg] -= z[self.neg[has_neg]]
        return x


def _slack_signs(rels: tuple[str, ...]) -> np.ndarray:
    """Per row, +1.0 for <=, 0.0 for = and -1.0 for >=."""
    return np.array([_SLACK_SIGN[r] for r in rels])


def to_standard_form(p: LPProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray, StandardFormMap]:
    """Rewrite as min c.z, A z = b, z >= 0.

    Free variables split into positive and negative parts; each inequality
    row gains one slack (<=) or surplus (>=) column; a max objective is
    negated.  Column order: original variables, then the negative parts of
    the free variables in variable order, then slack/surplus in row order.
    """
    n, r = p.n_vars, p.n_rows
    free = np.flatnonzero(p.free)
    signs = _slack_signs(p.rels)
    ineq = np.flatnonzero(signs)
    n_free = free.size
    n_std = n + n_free + ineq.size

    pos = np.arange(n)
    neg = np.full(n, -1)
    neg[free] = n + np.arange(n_free)
    slack = np.full(r, -1)
    slack[ineq] = n + n_free + np.arange(ineq.size)

    a = np.zeros((r, n_std))
    a[:, :n] = p.a
    a[:, n:n + n_free] = -p.a[:, free]
    a[ineq, slack[ineq]] = signs[ineq]

    c = np.zeros(n_std)
    sign = -1.0 if p.sense == "max" else 1.0
    c[:n] = sign * p.c
    c[n:n + n_free] = -sign * p.c[free]

    fmap = StandardFormMap(
        n_vars=n, n_std=n_std, pos=pos, neg=neg, slack=slack,
        negated_objective=(p.sense == "max"),
    )
    return c, a, p.b.copy(), fmap


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make column col basic in row row by one rank-1 update of t.

    x / x is exactly 1 in IEEE arithmetic, so after the row division the
    pivot entry is 1.0 and the update leaves exact zeros elsewhere in the
    column (c - c * 1.0 = 0.0) and 1.0 at the pivot (colvals[row] is 0).
    """
    t[row] /= t[row, col]
    colvals = t[:, col].copy()
    colvals[row] = 0.0
    t -= colvals[:, None] * t[row]
    basis[row] = col


class _PivotState:
    """Degenerate-pivot counter shared across both simplex phases."""

    def __init__(self, threshold: int, max_iter: int) -> None:
        self.threshold = threshold
        self.max_iter = max_iter
        self.degenerate = 0
        self.iterations = 0
        self.bland = False

    def note(self, step: float) -> None:
        self.iterations += 1
        if step < PIVOT_TOL:
            self.degenerate += 1
            if self.degenerate > self.threshold:
                self.bland = True


def _run_phase(t: np.ndarray, basis: np.ndarray, n: int, state: _PivotState) -> str:
    """Pivot until optimal/unbounded/stalled.  Cost row is t[-1]; only the
    first n (structural) columns may enter.

    Dantzig's rule enters the most negative reduced cost, the lowest index
    among ties; Bland's rule the lowest index below -OPT_TOL.  A NaN in the
    reduced costs or the ratios is a numerical breakdown and stalls.
    """
    m = t.shape[0] - 1
    red = t[-1, :n]
    rhs = t[:m, -1]
    while True:
        if state.iterations > state.max_iter:
            return STALLED
        if state.bland:
            negative = red < -OPT_TOL
            col = int(negative.argmax())
            if not negative[col]:
                return STALLED if np.isnan(red).any() else OPTIMAL
        else:
            # argmin returns the first minimum, and the first NaN if any.
            col = int(red.argmin())
            lowest = red[col]
            if not lowest < -OPT_TOL:
                return STALLED if math.isnan(lowest) else OPTIMAL
        colvals = t[:m, col]
        rows = (colvals > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return UNBOUNDED
        ratios = rhs[rows] / colvals[rows]
        best = float(ratios.min())
        if math.isnan(best):
            return STALLED
        tied = rows[ratios <= best + PIVOT_TOL]
        # Among tied rows leave the one with the smallest basis index;
        # combined with lowest-index entering this is Bland-safe.
        row = int(tied[0] if tied.size == 1 else tied[basis[tied].argmin()])
        state.note(best)
        _pivot(t, basis, row, col)


def _unit_start(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row orientation and starting column of each row of A z = b.

    A column whose only nonzero is +-1 in row i is basic in row i from the
    start once row i is oriented to give it +1 with b_i >= 0.  Rows with
    b_i < 0 are flipped; a row with b_i = 0 is flipped when it has a -1
    unit column and no +1 one.  Returns the flip mask and, per row, the
    lowest-index such column (-1 for rows that need an artificial).
    """
    m, n = a.shape
    flip = b < 0
    if m == 0:
        return flip, np.full(0, -1)
    nz = a != 0.0
    cols = (nz.sum(axis=0) == 1).nonzero()[0]
    rows = nz[:, cols].argmax(axis=0)
    vals = a[rows, cols]
    plus = vals == 1.0
    minus = vals == -1.0
    has_plus = np.zeros(m, dtype=bool)
    has_plus[rows[plus]] = True
    has_minus = np.zeros(m, dtype=bool)
    has_minus[rows[minus]] = True
    flip |= (b == 0) & has_minus & ~has_plus
    usable = np.where(flip[rows], minus, plus)
    # The lowest usable column of each row; n marks a row without one.
    start = np.full(m, n)
    np.minimum.at(start, rows[usable], cols[usable])
    start[start == n] = -1
    return flip, start


def _simplex_standard(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict:
    """Two-phase simplex on min c.z, A z = b, z >= 0.

    Returns a dict with status, z, y (row duals), ray, phase1_gap.

    Phase 1 starts on the unit columns the standard form already has (see
    _unit_start): a slack, a surplus of a flipped row, or any column whose
    single nonzero is +-1.  Only rows without one get an artificial
    variable, and the phase-1 objective sums those artificials alone, so
    the tableau has one column per artificial, not one per row.
    Artificials never enter; rows whose artificial cannot be driven out
    after phase 1 are redundant and stay inert.  The dual of row i is read
    from the column that started basic there: y_i = c_j - red_j, with
    c_j = 0 for an artificial, negated back for a flipped row.  Rows are
    negated in place, so a and b are overwritten; pass arrays the caller
    no longer needs.
    """
    m, n = a.shape
    flip, start = _unit_start(a, b)
    np.negative(a, out=a, where=flip[:, None])
    np.negative(b, out=b, where=flip)
    art = np.flatnonzero(start < 0)
    k = art.size
    art_cols = n + np.arange(k)
    basis = start
    basis[art] = art_cols
    first = basis.copy()

    t = np.zeros((m + 1, n + k + 1))
    t[:m, :n] = a
    t[art, art_cols] = 1.0
    t[:m, -1] = b

    # Phase-1 reduced costs for cost vector (0,...,0,1,...,1) over the
    # artificials; the starting unit columns have no entry in their rows.
    t[-1, :n] = -a[art].sum(axis=0)
    t[-1, -1] = -b[art].sum()

    state = _PivotState(threshold=2 * (m + n), max_iter=1000 + 100 * (m + n))
    status = _run_phase(t, basis, n, state)
    if status == STALLED:
        return {"status": STALLED}
    if status == UNBOUNDED:
        # Phase-1 objective is bounded below by zero; a failed ratio test
        # here means numerical breakdown.
        return {"status": STALLED}
    scale = 1.0 + float(b.max()) if m else 1.0
    phase1_obj = -t[-1, -1]
    if phase1_obj > FEAS_TOL * scale:
        return {"status": INFEASIBLE, "phase1_gap": float(phase1_obj)}

    # Drive basic artificials out wherever the row has substance.
    for i in np.flatnonzero(basis >= n):
        nz = (np.abs(t[i, :n]) > PIVOT_TOL).nonzero()[0]
        if nz.size:
            _pivot(t, basis, i, int(nz[0]))

    # Install phase-2 costs.
    c_ext = np.concatenate([c, np.zeros(k)])
    cb = c_ext[basis]
    t[-1, :-1] = c_ext - cb @ t[:m, :-1]
    t[-1, -1] = -float(cb @ t[:m, -1])
    t[-1, basis] = 0.0

    status = _run_phase(t, basis, n, state)
    if status == STALLED:
        return {"status": STALLED}

    if status == UNBOUNDED:
        red = t[-1, :n]
        candidates = np.flatnonzero(red < -OPT_TOL)
        col = None
        for j in candidates:
            if not np.any(t[:m, j] > PIVOT_TOL):
                col = int(j)
                break
        ray = np.zeros(n + k)
        if col is not None:
            ray[col] = 1.0
            ray[basis] = np.maximum(-t[:m, col], 0.0)
        z = np.zeros(n + k)
        z[basis] = np.maximum(t[:m, -1], 0.0)
        return {"status": UNBOUNDED, "z": z[:n], "ray": ray[:n]}

    z = np.zeros(n + k)
    z[basis] = np.maximum(t[:m, -1], 0.0)
    y = c_ext[first] - t[-1, first]
    np.negative(y, out=y, where=flip)
    return {"status": OPTIMAL, "z": z[:n], "y": y}


def _verified(p: LPProblem, x: np.ndarray, y: np.ndarray) -> bool:
    """Whether x and the multipliers y are optimal for p in original units.

    Primal: row i may miss its relation by FEAS_TOL * (1 + |b_i| + |a_i|.|x|),
    a nonnegative variable may dip below zero by FEAS_TOL.  Dual, with
    s = 1 for min and -1 for max: s * y_i may take the wrong sign for its
    relation (<= 0 on <= rows, >= 0 on >= rows) by OPT_TOL; the reduced
    cost s * (c_j - a_j.y) may fall below zero, or for a free variable
    away from zero, by OPT_TOL * (1 + |c_j| + |a_j|.|y|); and the gap
    |b.y - c.x| may be FEAS_TOL * (1 + |b|.|y| + |c|.|x|).
    """
    signs = _slack_signs(p.rels)
    s = -1.0 if p.sense == "max" else 1.0
    abs_a, abs_b, abs_c = np.abs(p.a), np.abs(p.b), np.abs(p.c)
    abs_x, abs_y = np.abs(x), np.abs(y)
    resid = p.a @ x - p.b
    # How far each row is past its relation (<= 0 when it holds).
    miss = np.where(signs, signs * resid, np.abs(resid))
    reduced = s * (p.c - y @ p.a)
    gap = abs(float(p.b @ y) - float(p.c @ x))
    return bool(
        (miss <= FEAS_TOL * (1.0 + abs_b + abs_a @ abs_x)).all()
        and ((x >= -FEAS_TOL) | p.free).all()
        and (signs * (s * y) <= OPT_TOL).all()
        and (np.where(p.free, np.abs(reduced), -reduced)
             <= OPT_TOL * (1.0 + abs_c + abs_y @ abs_a)).all()
        and gap <= FEAS_TOL * (1.0 + float(abs_b @ abs_y) + float(abs_c @ abs_x)))


def solve(p: LPProblem) -> LPSolution:
    """Solve an LPProblem; see LPSolution for the field conventions."""
    c, a, b, fmap = to_standard_form(p)
    out = _simplex_standard(c, a, b)
    status = out["status"]
    if status == STALLED:
        return LPSolution(status=STALLED)
    if status == INFEASIBLE:
        return LPSolution(status=INFEASIBLE, phase1_gap=out.get("phase1_gap"))
    if status == UNBOUNDED:
        return LPSolution(
            status=UNBOUNDED,
            primal=fmap.to_original(out["z"]),
            ray=fmap.to_original(out["ray"]),
        )
    x = fmap.to_original(out["z"])
    y = -out["y"] if fmap.negated_objective else out["y"]
    if not _verified(p, x, y):
        return LPSolution(status=INACCURATE)
    return LPSolution(
        status=OPTIMAL,
        primal=x,
        dual=y,
        objective_value=float(p.c @ x),
    )


@dataclass
class MarginCertificate:
    """Result of margin maximization over a constraint system.

    t_star is the best common slack of the strict rows (at most 1), -1.0
    when the relaxed system is already infeasible.  witness attains t_star.
    """

    t_star: float
    witness: np.ndarray | None


def max_margin_feasibility(a, rels, b, strict, free=None) -> MarginCertificate:
    """Maximize the common margin t of the designated strict rows.

    The system is a x (rels) b, one relation per row of the (r, n) array a;
    strict indexes the rows whose inequalities are meant strictly.  Each
    strict >= row becomes a_i.x >= b_i + t and each strict <= row
    a_i.x <= b_i - t, with 0 <= t <= 1.  Variables are free unless a
    boolean mask says otherwise.  The strict system is solvable exactly
    when t_star is positive beyond the caller's margin tolerance.
    """
    a = as_matrix(a)
    r, n = a.shape
    rels = tuple(rels)
    if r == 0:
        raise ValueError("margin system needs at least one row")
    if len(rels) != r:
        raise ValueError(f"{len(rels)} relations for {r} rows")
    strict = tuple(sorted(int(i) for i in strict))
    for i in strict:
        if i < 0 or i >= r:
            raise ValueError(f"strict index {i} out of range")
        if rels[i] == "=":
            raise ValueError(f"row {i} is an equality and cannot be strict")

    # Columns: the n variables, then t; the last row is t <= 1.
    ext = np.zeros((r + 1, n + 1))
    ext[:r, :n] = a
    idx = np.array(strict, dtype=int)
    ext[idx, n] = [-1.0 if rels[i] == ">=" else 1.0 for i in strict]
    ext[r, n] = 1.0
    fmask = np.zeros(n + 1, dtype=bool)
    if free is None:
        fmask[:n] = True
    else:
        fr = np.asarray(free, dtype=bool)
        if fr.shape != (n,):
            raise ValueError(f"free mask has shape {fr.shape}, expected ({n},): "
                             "one entry per variable")
        fmask[:n] = fr

    c = np.zeros(n + 1)
    c[-1] = 1.0
    p = LPProblem(c=c, a=ext, rels=rels + ("<=",),
                  b=np.append(as_vector(b, r), 1.0), sense="max", free=fmask)
    sol = solve(p)
    if sol.status == INFEASIBLE:
        return MarginCertificate(t_star=-1.0, witness=None)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"margin LP did not solve cleanly: status {sol.status}")
    return MarginCertificate(
        t_star=float(sol.primal[-1]),
        witness=sol.primal[:-1].copy(),
    )


def alternative_optimum(p: LPProblem, sol: LPSolution) -> np.ndarray | None:
    """Search the optimal face for a second optimum.

    Pins the objective to its optimal value with an equality row, then
    minimizes 20 seeded random linear functionals over the face.  Returns
    the first point found at Euclidean distance > 1e-6 from sol.primal, or
    None when every restart lands back on (numerically) the same point.
    """
    if sol.status != OPTIMAL or sol.primal is None:
        raise ValueError("alternative_optimum needs an optimal solution")
    target = float(p.c @ sol.primal)
    a2 = np.vstack([p.a, p.c[None, :]])
    rels2 = p.rels + ("=",)
    b2 = np.concatenate([p.b, [target]])
    for r in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(r,)))
        g = rng.standard_normal(p.n_vars)
        q = LPProblem(c=g, a=a2, rels=rels2, b=b2, sense="min", free=p.free)
        s2 = solve(q)
        if s2.status != OPTIMAL:
            continue
        if float(np.linalg.norm(s2.primal - sol.primal)) > 1e-6:
            return s2.primal
    return None
