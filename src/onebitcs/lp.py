"""Deterministic dense linear programming.

A small two-phase simplex over an explicit tableau, written for exact
reproducibility rather than speed on large instances: fixed pivoting rules
(Dantzig, switching to Bland's rule after a budget of degenerate pivots),
duals read off the final basis, and strict inequalities handled everywhere
by margin maximization instead of epsilon perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TolerancePolicy, as_matrix, as_vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
STALLED = "stalled"

RELATIONS = ("<=", "=", ">=")

# Pivot entries below this are treated as zero in ratio tests and drive-out.
PIVOT_TOL = 1e-10
# Reduced costs above -OPT_TOL count as nonnegative (phase optimality).
OPT_TOL = 1e-9
# Phase-1 objective below FEAS_TOL * scale counts as feasible.
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
        for r in rels:
            if r not in RELATIONS:
                raise ValueError(f"unknown relation {r!r}")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.free is None:
            fr = np.zeros(c.shape[0], dtype=bool)
        else:
            fr = np.array(self.free, dtype=bool)
            if fr.shape != c.shape:
                raise ValueError("free mask must have one entry per variable")
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
    residual infeasibility measure when status is infeasible.
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


def to_standard_form(p: LPProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray, StandardFormMap]:
    """Rewrite as min c.z, A z = b, z >= 0.

    Free variables split into positive and negative parts; each inequality
    row gains one slack (<=) or surplus (>=) column; a max objective is
    negated.  Column order: original variables, then the negative parts of
    the free variables in variable order, then slack/surplus in row order.
    """
    n, r = p.n_vars, p.n_rows
    free = np.flatnonzero(p.free)
    rels = np.array(p.rels, dtype=object)
    ineq = np.flatnonzero(rels != "=")
    n_free = free.size
    n_std = n + n_free + ineq.size

    pos = np.arange(n)
    neg = np.full(n, -1)
    neg[free] = n + np.arange(n_free)
    slack = np.full(r, -1)
    slack[ineq] = n + n_free + np.arange(ineq.size)

    a = np.zeros((r, n_std))
    a[:, :n] = p.a
    a[:, neg[free]] = -p.a[:, free]
    a[ineq, slack[ineq]] = np.where(rels[ineq] == "<=", 1.0, -1.0)

    c = np.zeros(n_std)
    sign = -1.0 if p.sense == "max" else 1.0
    c[:n] = sign * p.c
    c[neg[free]] = -sign * p.c[free]

    fmap = StandardFormMap(
        n_vars=n, n_std=n_std, pos=pos, neg=neg, slack=slack,
        negated_objective=(p.sense == "max"),
    )
    return c, a, p.b.copy(), fmap


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    t[row] /= t[row, col]
    colvals = t[:, col].copy()
    colvals[row] = 0.0
    t -= np.outer(colvals, t[row])
    t[:, col] = 0.0
    t[row, col] = 1.0
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


def _run_phase(t: np.ndarray, basis: np.ndarray, enterable: np.ndarray,
               state: _PivotState) -> str:
    """Pivot until optimal/unbounded/stalled.  Cost row is t[-1]."""
    m = t.shape[0] - 1
    while True:
        if state.iterations > state.max_iter:
            return STALLED
        red = t[-1, :-1]
        candidates = np.where(enterable & (red < -OPT_TOL))[0]
        if candidates.size == 0:
            return OPTIMAL
        if state.bland:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(red[candidates])])
        colvals = t[:m, col]
        rows = np.where(colvals > PIVOT_TOL)[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = t[rows, -1] / colvals[rows]
        best = float(np.min(ratios))
        tied = rows[ratios <= best + PIVOT_TOL]
        # Among tied rows leave the one with the smallest basis index;
        # combined with lowest-index entering this is Bland-safe.
        row = int(tied[np.argmin(basis[tied])])
        state.note(best)
        _pivot(t, basis, row, col)


def _simplex_standard(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict:
    """Two-phase simplex on min c.z, A z = b, z >= 0.

    Returns a dict with status, z, y (row duals), ray, phase1_gap.
    Artificial variables are barred from entering in both phases; rows
    whose artificial cannot be driven out after phase 1 are redundant and
    stay inert.  Rows with b_i < 0 are negated in place, so a and b are
    overwritten; pass arrays the caller no longer needs.
    """
    m, n = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    basis = np.arange(n, n + m)

    # Phase-1 reduced costs for cost vector (0,...,0,1,...,1).
    t[-1, :n] = -a.sum(axis=0)
    t[-1, -1] = -b.sum()

    enterable = np.zeros(n + m, dtype=bool)
    enterable[:n] = True

    state = _PivotState(threshold=2 * (m + n), max_iter=1000 + 100 * (m + n))
    status = _run_phase(t, basis, enterable, state)
    if status == STALLED:
        return {"status": STALLED}
    if status == UNBOUNDED:
        # Phase-1 objective is bounded below by zero; a failed ratio test
        # here means numerical breakdown.
        return {"status": STALLED}
    scale = 1.0 + float(np.max(b)) if m else 1.0
    phase1_obj = -t[-1, -1]
    if phase1_obj > FEAS_TOL * scale:
        return {"status": INFEASIBLE, "phase1_gap": float(phase1_obj)}

    # Drive basic artificials out wherever the row has substance.
    for i in range(m):
        if basis[i] >= n:
            row = t[i, :n]
            nz = np.where(np.abs(row) > PIVOT_TOL)[0]
            if nz.size:
                _pivot(t, basis, i, int(nz[0]))

    # Install phase-2 costs.
    c_ext = np.concatenate([c, np.zeros(m)])
    cb = c_ext[basis]
    t[-1, :-1] = c_ext - cb @ t[:m, :-1]
    t[-1, -1] = -float(cb @ t[:m, -1])
    t[-1, basis] = 0.0

    status = _run_phase(t, basis, enterable, state)
    if status == STALLED:
        return {"status": STALLED}

    if status == UNBOUNDED:
        red = t[-1, :-1]
        candidates = np.where(enterable & (red < -OPT_TOL))[0]
        col = None
        for j in candidates:
            if not np.any(t[:m, j] > PIVOT_TOL):
                col = int(j)
                break
        ray = np.zeros(n + m)
        if col is not None:
            ray[col] = 1.0
            ray[basis] = np.maximum(-t[:m, col], 0.0)
        z = np.zeros(n + m)
        z[basis] = np.maximum(t[:m, -1], 0.0)
        return {"status": UNBOUNDED, "z": z[:n], "ray": ray[:n]}

    z = np.zeros(n + m)
    z[basis] = np.maximum(t[:m, -1], 0.0)
    y = -t[-1, n:n + m].copy()
    y[flip] *= -1.0
    return {
        "status": OPTIMAL,
        "z": z[:n],
        "y": y,
        "objective": float(c @ z[:n]),
    }


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
    y = out["y"]
    if fmap.negated_objective:
        y = -y
    return LPSolution(
        status=OPTIMAL,
        primal=x,
        dual=y,
        objective_value=float(p.c @ x),
    )


@dataclass
class MarginCertificate:
    """Result of margin maximization over a constraint system.

    t_star is the best common slack of the strict rows (capped), -1.0 when
    the relaxed system is already infeasible.  witness attains t_star.
    """

    t_star: float
    witness: np.ndarray | None


def max_margin_feasibility(a, rels, b, strict, cap: float = 1.0,
                           free=None) -> MarginCertificate:
    """Maximize the common margin t of the designated strict rows.

    The system is a x (rels) b, one relation per row of the (r, n) array a;
    strict indexes the rows whose inequalities are meant strictly.  Each
    strict >= row becomes a_i.x >= b_i + t and each strict <= row
    a_i.x <= b_i - t, with 0 <= t <= cap.  Variables are free unless a
    boolean mask says otherwise.  The strict system is solvable exactly
    when t_star is positive beyond the caller's margin tolerance.
    """
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
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

    # Columns: the n variables, then t; the last row is t <= cap.
    ext = np.zeros((r + 1, n + 1))
    ext[:r, :n] = a
    idx = np.array(strict, dtype=int)
    ext[idx, n] = [-1.0 if rels[i] == ">=" else 1.0 for i in strict]
    ext[r, n] = 1.0
    fmask = np.zeros(n + 1, dtype=bool)
    fmask[:n] = True if free is None else np.asarray(free, dtype=bool)

    c = np.zeros(n + 1)
    c[-1] = 1.0
    p = LPProblem(c=c, a=ext, rels=rels + ("<=",),
                  b=np.append(as_vector(b, r), float(cap)), sense="max", free=fmask)
    sol = solve(p)
    if sol.status == INFEASIBLE:
        return MarginCertificate(t_star=-1.0, witness=None)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"margin LP did not solve cleanly: status {sol.status}")
    return MarginCertificate(
        t_star=float(sol.primal[-1]),
        witness=sol.primal[:-1].copy(),
    )


def alternative_optimum(p: LPProblem, sol: LPSolution, restarts: int = 20,
                        seed: int = 0) -> np.ndarray | None:
    """Search the optimal face for a second optimum.

    Pins the objective to its optimal value with an equality row, then
    minimizes seeded random linear functionals over the face.  Returns the
    first point found at Euclidean distance > 1e-6 from sol.primal, or
    None when every restart lands back on (numerically) the same point.
    """
    if sol.status != OPTIMAL or sol.primal is None:
        raise ValueError("alternative_optimum needs an optimal solution")
    target = float(p.c @ sol.primal)
    a2 = np.vstack([p.a, p.c[None, :]])
    rels2 = p.rels + ("=",)
    b2 = np.concatenate([p.b, [target]])
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        g = rng.standard_normal(p.n_vars)
        q = LPProblem(c=g, a=a2, rels=rels2, b=b2, sense="min", free=p.free)
        s2 = solve(q)
        if s2.status != OPTIMAL:
            continue
        if float(np.linalg.norm(s2.primal - sol.primal)) > 1e-6:
            return s2.primal
    return None
