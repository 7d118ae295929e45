"""Deterministic dense linear programming.

A small two-phase simplex over an explicit tableau, written for exact
reproducibility rather than speed on large instances: fixed pivoting rules
(Dantzig, switching to Bland's rule after a budget of degenerate pivots),
duals read off the final basis, and strict inequalities handled everywhere
by margin maximization instead of epsilon perturbations.

The phase-1 tableau is built once, straight from the LPProblem's arrays:
its standard form (column layout in _unit_start) with each row oriented so
that b_i >= 0, one column per artificial, then the right-hand side; no
other copy of the constraint block is made.  Phase 1 starts on the unit
columns the standard form already has: a column whose only nonzero is +1
in an oriented row (a slack, a flipped surplus, a gap variable of the
decoder) starts basic there, and only rows without one get an artificial.
The dual of a row is read from the reduced cost of the column that
started basic in it.  Every status but stalled is checked in the
problem's own units, reading each row's relation from LPProblem.senses,
before it is returned: optimal in one pass over |a|, |x| and |y| (the
point against every row and sign bound, the multipliers for their signs,
every variable's reduced cost and the duality gap); unbounded by its
point and an improving ray; infeasible by a Farkas vector read off the
phase-1 duals.  An answer that fails its checks is returned as
inaccurate.

Every pivot is one rank-1 update of the dense tableau.  On a tableau
wider than _SPARSE_MIN_COLS columns whose pivot row is at most
_SPARSE_MAX_SHARE nonzero, the update runs over the row's nonzero columns
only: a skipped entry would have lost c * 0, which leaves a finite entry
as it is (only a zero entry's sign could differ; see _pivot).  The pivot
rules are pinned (see _run_phase), so the same problem always takes the
same pivots and returns the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _shaped, as_matrix, as_vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
STALLED = "stalled"
# The simplex ended optimal, but the point misses a row or sign bound of
# the original problem by more than the primal tolerance, or the
# multipliers fail a dual check.
INACCURATE = "inaccurate"

# The relations a row may carry, each with its sense s_i: the row reads
# s_i (a_i.x - b_i) >= 0, or a_i.x = b_i where s_i is 0.
_SENSES = {">=": 1.0, "=": 0.0, "<=": -1.0}

# Pivot entries below this are treated as zero in ratio tests and drive-out.
PIVOT_TOL = 1e-10
# Reduced costs above -OPT_TOL count as nonnegative (phase optimality);
# the dual checks of an optimal answer scale it as FEAS_TOL is scaled below.
OPT_TOL = 1e-9
# Phase-1 objective below FEAS_TOL * scale counts as feasible; an optimal
# point must meet each original row within FEAS_TOL * (1 + |b_i| + |a_i|.|x|).
FEAS_TOL = 1e-8

# _pivot updates only the nonzero columns of the pivot row on a tableau
# wider than _SPARSE_MIN_COLS whose pivot row is at most _SPARSE_MAX_SHARE
# nonzero.  The sweeps' tableaux are at most 32 columns wide (65,498 pivots
# of 1,500 sweep-small ops), so the floor keeps them on the full update.
# The decoder's |x| <= t gap rows leave its pivot rows mostly zero: 17%
# nonzero on average at 20x40, 20% at 40x80, and 34% in the median at
# 80x160 (seeded Gaussian decodes with 3, 5 and 8 nonzeros).  Rows denser
# than a quarter keep the contiguous full update, because gathering every
# row made 80x160 decodes 8-23% and sweep-small ops 6% slower.
_SPARSE_MIN_COLS = 64
_SPARSE_MAX_SHARE = 0.25


def _free_mask(free, n: int, default: bool) -> np.ndarray:
    """free as a boolean mask over n variables (all default when None); entries 0/1 only."""
    if free is None:
        return np.full(n, default)
    fr = np.asarray(free)
    if fr.shape != (n,):
        raise ValueError(f"free mask has shape {fr.shape}, expected ({n},): "
                         "one entry per variable")
    if fr.dtype != bool and not ((fr == 0) | (fr == 1)).all():
        raise ValueError(f"free mask entries must be booleans or 0/1, got {fr.tolist()}")
    return fr.astype(bool)


def _row_senses(rels: tuple[str, ...]) -> np.ndarray:
    """The sense s_i of each relation (see _SENSES)."""
    try:
        return np.array([_SENSES[r] for r in rels])
    except KeyError as err:
        raise ValueError(f"unknown relation {err.args[0]!r}") from None


@dataclass(frozen=True, eq=False)
class LPProblem:
    """min/max c.x subject to rows a_i.x (<=|=|>=) b_i, x_j >= 0 or free.

    senses is derived from rels, read-only and not a constructor argument:
    +1.0 for >=, 0.0 for = and -1.0 for <= (see _SENSES).
    """

    c: np.ndarray
    a: np.ndarray
    rels: tuple[str, ...]
    b: np.ndarray
    sense: str = "min"
    free: np.ndarray | None = None
    senses: np.ndarray = field(init=False, repr=False)

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
        senses = _row_senses(rels)
        senses.flags.writeable = False
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        fr = _free_mask(self.free, c.shape[0], False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rels", rels)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "free", fr)
        object.__setattr__(self, "senses", senses)

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
    original variables certifying unboundedness.  optimal, unbounded and
    infeasible are all verified in the original units: an optimal point and
    its multipliers pass the primal and dual checks of _verified, an
    unbounded point is feasible and its ray passes _is_ray, and an
    infeasible answer has a Farkas vector that passes _is_farkas.  An answer
    that fails is returned as inaccurate with no data.  stalled (the simplex
    broke down) is not verified.
    """

    status: str
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    objective_value: float | None = None
    ray: np.ndarray | None = None


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make column col basic in row row by one rank-1 update of t.

    x / x is exactly 1 in IEEE arithmetic, so after the row division the
    pivot entry is 1.0 and the update leaves exact zeros elsewhere in the
    column (c - c * 1.0 = 0.0) and 1.0 at the pivot (colvals[row] is 0).

    When t has more than _SPARSE_MIN_COLS columns and at most
    _SPARSE_MAX_SHARE of the pivot row is nonzero, only the row's nonzero
    columns are updated.  Each updated entry takes the same two operations
    as in the full update, so it gets the same bits.  A skipped entry
    keeps its bits, where the full update would subtract c * 0 = +-0 from
    it (for a finite multiplier c): that leaves a nonzero entry as it is
    and can only flip the sign of a zero one.  The returned point and ray pass through
    np.maximum(., 0.0), which gives +0.0 for either zero, so only a dual
    whose start column has cost -0.0 could read such a sign;
    tests/data/lp_digests.json pins the returned bits of every LP family.
    """
    prow = t[row]
    prow /= prow[col]
    colvals = t[:, col, None].copy()
    colvals[row, 0] = 0.0
    if (prow.size > _SPARSE_MIN_COLS
            and (cols := prow.nonzero()[0]).size <= _SPARSE_MAX_SHARE * prow.size):
        t[:, cols] -= colvals * prow[cols]
    else:
        t -= colvals * prow
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
        # argmin finds the least ratio, or the first NaN if any.
        best = float(ratios[ratios.argmin()])
        if math.isnan(best):
            return STALLED
        tied = rows[ratios <= best + PIVOT_TOL]
        # Among tied rows leave the one with the smallest basis index;
        # combined with lowest-index entering this is Bland-safe.
        row = int(tied[0] if tied.size == 1 else tied[basis[tied].argmin()])
        state.note(best)
        _pivot(t, basis, row, col)


def _unit_start(p: LPProblem) -> tuple[list[bool], list[int]]:
    """Row orientation and starting column of each row of p's standard form.

    The standard form is min c.z, A z = b, z >= 0.  Its columns come in a
    fixed order: the n variables, then the negative part of each free
    variable (its column negated) in variable order, then one slack (+1,
    <= row) or surplus (-1, >= row) per inequality row in row order.  So
    x = z[:n] less the negative parts on the free variables (_original).

    A column whose only nonzero is +-1 in row i is basic in row i from the
    start once row i is oriented to give it +1 with b_i >= 0.  Rows with
    b_i < 0 are flipped; a row with b_i = 0 is flipped when it has a -1
    unit column and no +1 one.  Returns the flip mask and, per row, the
    lowest-index such column (-1 for rows that need an artificial).  The
    slacks and surpluses are read off the row senses, so only the n
    structural columns are scanned; a free one's negative part is a unit
    column exactly when it is, of the other sign.
    """
    m, n = p.a.shape
    nz = p.a != 0.0
    cols = (nz.sum(axis=0) == 1).nonzero()[0]
    # The lowest structural unit column of each row with +1, and with -1.
    plus: dict[int, int] = {}
    minus: dict[int, int] = {}
    if cols.size:
        rows = nz[:, cols].argmax(axis=0)
        negative_part = {j: n + r for r, j in enumerate(p.free.nonzero()[0].tolist())}
        for i, j, v in zip(rows.tolist(), cols.tolist(), p.a[rows, cols].tolist()):
            if v == 1.0 or v == -1.0:
                units = [(j, v), (negative_part[j], -v)] if j in negative_part else [(j, v)]
                for col, val in units:
                    side = plus if val > 0 else minus
                    side[i] = min(side.get(i, col), col)
    flip, start = [], []
    slack = n + int(np.count_nonzero(p.free))
    for i, (s, b) in enumerate(zip(p.senses.tolist(), p.b.tolist())):
        up, down = plus.get(i), minus.get(i)
        has_plus, has_minus = up is not None or s < 0, down is not None or s > 0
        f = b < 0 or (b == 0 and has_minus and not has_plus)
        col = down if f else up
        if s:
            # The row's own slack (+1) or surplus (-1), after the structural columns.
            if col is None and (s > 0) == f:
                col = slack
            slack += 1
        flip.append(f)
        start.append(-1 if col is None else col)
    return flip, start


def _simplex_standard(p: LPProblem) -> dict:
    """Two-phase simplex on the standard form of p (see _unit_start).

    Returns a dict with status, z (standard-form columns), y (row duals),
    ray, farkas.  The phase-1 objective sums the artificials alone.
    Artificials never enter; rows whose artificial cannot be driven out
    after phase 1 are redundant and stay inert.  The dual of row i is
    y_i = c_j - red_j for the column j that started basic there, with
    c_j = 0 for an artificial, negated back for a flipped row.
    """
    m, n = p.a.shape
    free = p.free.nonzero()[0]
    nf = free.size
    flip, start = _unit_start(p)
    ineq = [(i, -s) for i, s in enumerate(p.senses.tolist()) if s]
    ns = n + nf + len(ineq)
    art = np.array([i for i, j in enumerate(start) if j < 0], dtype=int)
    k = art.size
    # Each row without a unit column starts on the next artificial.
    for col, i in enumerate(art.tolist(), ns):
        start[i] = col
    first = np.array(start, dtype=int)
    basis = first.copy()
    sign = np.array([-1.0 if f else 1.0 for f in flip])
    row_sign = sign[:, None]

    # Each row of the standard form times its sign (so a flipped row's
    # zeros read -0.0, as a negated row's do), then one unit column per
    # artificial, then b, oriented.
    t = np.zeros((m + 1, ns + k + 1))
    np.multiply(p.a, row_sign, out=t[:m, :n])
    if nf:
        np.multiply(p.a[:, free], -row_sign, out=t[:m, n:n + nf])
    for col, (i, slack) in enumerate(ineq, n + nf):
        t[i, col] = slack
    t[:m, n + nf:ns] *= row_sign
    t[art, first[art]] = 1.0
    b = p.b * sign
    t[:m, -1] = b
    # Phase-1 reduced costs for cost vector (0,...,0,1,...,1) over the
    # artificials; the starting unit columns have no entry in their rows.
    t[-1, :ns] = -t[art, :ns].sum(axis=0)
    t[-1, -1] = -b[art].sum()

    state = _PivotState(threshold=2 * (m + ns), max_iter=1000 + 100 * (m + ns))
    if _run_phase(t, basis, ns, state) != OPTIMAL:
        # A failed ratio test counts as a breakdown too: the phase-1
        # objective is bounded below by zero.
        return {"status": STALLED}
    if -t[-1, -1] > FEAS_TOL * (1.0 + float(b.max()) if m else 1.0):
        # The phase-1 duals, read as the phase-2 duals are below with cost
        # 1 on the artificials and 0 elsewhere, form a Farkas vector.
        return {"status": INFEASIBLE, "farkas": ((first >= ns) - t[-1, first]) * sign}

    # Drive basic artificials out wherever the row has substance.  An
    # artificial never enters, so one still basic sits in its own row.
    for i in art.tolist():
        if basis[i] >= ns:
            nz = (np.abs(t[i, :ns]) > PIVOT_TOL).nonzero()[0]
            if nz.size:
                _pivot(t, basis, i, int(nz[0]))

    # Install phase-2 costs.
    cost = np.zeros(ns + k)
    cost[:n] = -p.c if p.sense == "max" else p.c
    cost[n:n + nf] = -cost[free]
    cb = cost[basis]
    np.subtract(cost, cb @ t[:m, :-1], out=t[-1, :-1])
    t[-1, -1] = -float(cb @ t[:m, -1])
    t[-1, basis] = 0.0

    status = _run_phase(t, basis, ns, state)
    if status == STALLED:
        return {"status": STALLED}

    z = np.zeros(ns + k)
    z[basis] = np.maximum(t[:m, -1], 0.0)
    if status == UNBOUNDED:
        ray = np.zeros(ns + k)
        for j in np.flatnonzero(t[-1, :ns] < -OPT_TOL):
            if not np.any(t[:m, j] > PIVOT_TOL):
                ray[j] = 1.0
                ray[basis] = np.maximum(-t[:m, j], 0.0)
                break
        return {"status": UNBOUNDED, "z": z[:ns], "ray": ray[:ns]}

    return {"status": OPTIMAL, "z": z[:ns], "y": (cost[first] - t[-1, first]) * sign}


def _feasible(p: LPProblem, x: np.ndarray, abs_a: np.ndarray, abs_x: np.ndarray) -> bool:
    """Whether x meets p in original units: row i may miss its relation by
    FEAS_TOL * (1 + |b_i| + |a_i|.|x|), a nonnegative variable may dip
    below zero by FEAS_TOL.  abs_a and abs_x are |p.a| and |x|."""
    resid = p.a @ x - p.b
    # How far each row is past its relation (<= 0 when it holds).
    miss = np.where(p.senses, -p.senses * resid, np.abs(resid))
    return bool(
        (miss <= FEAS_TOL * (1.0 + np.abs(p.b) + abs_a @ abs_x)).all()
        and ((x >= -FEAS_TOL) | p.free).all())


def _verified(p: LPProblem, x: np.ndarray, y: np.ndarray) -> bool:
    """Whether x and the multipliers y are optimal for p in original units,
    in one pass over |p.a|, |x| and |y|.

    x must be _feasible.  Dual, with s = 1 for min and -1 for max: s * y_i
    may take the wrong sign for its relation (<= 0 on <= rows, >= 0 on >=
    rows) by OPT_TOL; the reduced cost s * (c_j - a_j.y) may fall below
    zero, or for a free variable away from zero, by
    OPT_TOL * (1 + |c_j| + |a_j|.|y|); and the gap |b.y - c.x| may be
    FEAS_TOL * (1 + |b|.|y| + |c|.|x|).
    """
    s = -1.0 if p.sense == "max" else 1.0
    abs_a, abs_c, abs_x, abs_y = np.abs(p.a), np.abs(p.c), np.abs(x), np.abs(y)
    if not _feasible(p, x, abs_a, abs_x):
        return False
    reduced = s * (p.c - y @ p.a)
    gap = abs(float(p.b @ y) - float(p.c @ x))
    return bool(
        (p.senses * (s * y) >= -OPT_TOL).all()
        and (np.where(p.free, np.abs(reduced), -reduced)
             <= OPT_TOL * (1.0 + abs_c + abs_y @ abs_a)).all()
        and gap <= FEAS_TOL * (1.0 + float(np.abs(p.b) @ abs_y) + float(abs_c @ abs_x)))


def _original(p: LPProblem, z: np.ndarray) -> np.ndarray:
    """The variables of p at a standard-form vector z: z[:n] less the
    negative parts of the free variables (see _unit_start)."""
    n = p.n_vars
    x = z[:n].copy()
    x[p.free] -= z[n:n + np.count_nonzero(p.free)]
    return x


def _is_ray(p: LPProblem, d: np.ndarray) -> bool:
    """Whether d is an improving recession direction of p in original units.

    With tol_i = FEAS_TOL * (|a_i|.|d| + max|a_i| max|d|), a_i.d may miss
    its relation's sign (0 on equality rows) by tol_i; d_j >= 0 on every
    sign-constrained variable; and s * c.d < -OPT_TOL * |c|.|d| with s = 1
    for min and -1 for max.  The max|a_i| max|d| term admits the roundoff
    a ray picks up on rows where its other entries are exactly zero.
    """
    s = -1.0 if p.sense == "max" else 1.0
    abs_a, abs_d = np.abs(p.a), np.abs(d)
    ad = p.a @ d
    tol = FEAS_TOL * (abs_a @ abs_d + abs_a.max(axis=1, initial=0.0) * abs_d.max(initial=0.0))
    return bool(
        (np.where(p.senses, -p.senses * ad, np.abs(ad)) <= tol).all()
        and ((d >= 0.0) | p.free).all()
        and s * float(p.c @ d) < -OPT_TOL * float(np.abs(p.c) @ abs_d))


def _is_farkas(p: LPProblem, u: np.ndarray) -> bool:
    """Whether the row multipliers u prove p infeasible in original units.

    With tol_j = FEAS_TOL * (|u|.|a_j| + max|u| max|a_j|), u.a_j <= tol_j
    for a sign-constrained variable and |u.a_j| <= tol_j for a free one;
    s_i u_i >= -FEAS_TOL max|u| for each row's sense s_i; and
    u.b > FEAS_TOL |u|.|b|.  Then no x satisfies p: u.(a x) >= u.b > 0
    on the rows, while u.(a x) <= 0 on the variables' sign bounds.
    """
    abs_a, abs_u = np.abs(p.a), np.abs(u)
    u_max = abs_u.max(initial=0.0)
    ua = u @ p.a
    tol = FEAS_TOL * (abs_u @ abs_a + u_max * abs_a.max(axis=0, initial=0.0))
    return bool(
        (np.where(p.free, np.abs(ua), ua) <= tol).all()
        and (p.senses * u >= -FEAS_TOL * u_max).all()
        and float(u @ p.b) > FEAS_TOL * float(abs_u @ np.abs(p.b)))


def solve(p: LPProblem) -> LPSolution:
    """Solve an LPProblem; see LPSolution for the field conventions."""
    out = _simplex_standard(p)
    status = out["status"]
    if status == STALLED:
        return LPSolution(status=STALLED)
    if status == INFEASIBLE:
        return LPSolution(status=INFEASIBLE if _is_farkas(p, out["farkas"]) else INACCURATE)
    if status == UNBOUNDED:
        x, d = _original(p, out["z"]), _original(p, out["ray"])
        if not (_feasible(p, x, np.abs(p.a), np.abs(x)) and _is_ray(p, d)):
            return LPSolution(status=INACCURATE)
        return LPSolution(status=UNBOUNDED, primal=x, ray=d)
    x = _original(p, out["z"])
    y = -out["y"] if p.sense == "max" else out["y"]
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

    a and b are checked for shape here and copied straight into the
    extended problem; the LPProblem built from it converts and validates
    them (finite entries) once, with as_matrix's and as_vector's messages.
    """
    a = _shaped(np.asarray(a, dtype=float), 2)
    r, n = a.shape
    rels = tuple(rels)
    if r == 0:
        raise ValueError("margin system needs at least one row")
    if len(rels) != r:
        raise ValueError(f"{len(rels)} relations for {r} rows")
    idx = np.asarray(tuple(strict))
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"strict indices must be integers, got {idx.tolist()}")
    idx = idx.astype(int)
    rows = idx.tolist()
    outside = [i for i in rows if not 0 <= i < r]
    if outside:
        raise ValueError(f"strict index {outside[0]} out of range")

    fmask = np.zeros(n + 1, dtype=bool)
    fmask[:n] = _free_mask(free, n, True)
    rhs = np.ones(r + 1)
    rhs[:r] = _shaped(np.asarray(b, dtype=float), 1, r)
    senses = _row_senses(rels)
    eq = [i for i in rows if rels[i] == "="]
    if eq:
        raise ValueError(f"row {eq[0]} is an equality and cannot be strict")

    # Columns: the n variables, then t.  Each strict row gains -s_i t
    # (a_i.x - t >= b_i or a_i.x + t <= b_i); the last row is t <= 1.
    ext = np.zeros((r + 1, n + 1))
    ext[:r, :n] = a
    ext[idx, n] = -senses[idx]
    ext[r, n] = 1.0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    p = LPProblem(c=c, a=ext, rels=rels + ("<=",), b=rhs, sense="max", free=fmask)
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
