"""Certificates for sign recovery from one-bit measurements.

Three layers:

* pointwise: does a dual witness prove a given decoder output is the
  unique l1 minimizer (range-space property of the transposed matrix at
  that point, plus full column rank of the boundary submatrix)?
* per measurement: do such witnesses exist for every/some sign pattern a
  consistent signal can have, restricted to sparsity k?  Witness and rank
  test run under a restriction pair (t1, t2); the pointwise layer is the
  same test at the point's own pair, the inactive signed rows.
* per matrix: quantified additionally over every k-sparse measurement the
  matrix can produce.

Every "strictly positive / strictly less than 1" requirement is decided by
maximizing a common margin and comparing against margin_tol; nothing is
perturbed by hand-picked epsilons, except that the elimination below
reads an entry within 1e-12 of the size of its terms as the 0 it is up to
rounding.  The margin comes from an LP, except
where the constraints leave little to optimize: the membership of a
one-column support is read off in closed form (the margin grows with the
one coordinate, up to its cap), and a restriction pair whose full-rank
kept stack H leaves the witness |K| - |S| <= 2 free directions (H.T w = s
fixes the rest) gets the witness LP's optimum by eliminating them.
Membership skips its LP in two more cases: the signs refute a support
(margin 0), or the sign point x_S = s already clears margin_tol, a lower
bound on the optimum that settles the verdict.  The rank test of a
one-column kept stack is a nonzero test.

The measurements that carry each pattern come from one walk over the
faces of each support's arrangement; each face is confirmed by its own
point, or by the membership margin where that point misses margin_tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, product
from typing import NamedTuple

import numpy as np

from . import lp
from .linalg import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    _face_signs,
    as_matrix,
    as_vector,
    column_rank,
    null_space_basis,
)
from .signmodel import (
    ActiveSets,
    SignMeasurement,
    active_sets,
    as_measurement,
    signed_support,
)

SUFFICIENT = "sufficient"
NECESSARY = "necessary"

# Budgets for the exhaustive classifiers; beyond these the sweeps refuse
# rather than silently sample.
WRT_Y_MAX_SIGNED_ROWS = 12
WRT_Y_MAX_COLS = 10
# (max rows, max columns) of rrsp_order_k per sparsity.  Dense necessary
# sweeps are the slowest: on default_rng(0, 1, 7) normals, 8x8 at k = 2 took
# 1.1-2.5 s, 6x6 at k = 3 0.4-1.8 s and 7x6 at k = 3 0.6-5.7 s (CPU time,
# two runs, one core of a shared 2-core machine).
ORDER_K_MAX_SHAPE = {0: (8, 8), 1: (8, 8), 2: (8, 8), 3: (6, 6)}


@dataclass(frozen=True, eq=False)
class RrspWitness:
    """A dual certificate: w in measurement space, eta = phi.T @ w.

    margin is the common slack with which the strict requirements hold
    (|eta| <= 1 - margin off the support, signed w entries at least margin
    away from zero on the required rows).
    """

    eta: np.ndarray
    w: np.ndarray
    margin: float


@dataclass(frozen=True)
class TPair:
    """A restriction pair: rows of j_plus/j_minus whose witness entry is pinned to zero.

    Valid pairs never cover all signed rows, so at least one row keeps a
    strictly signed witness entry.
    """

    t1: tuple[int, ...]
    t2: tuple[int, ...]


@dataclass(eq=False)
class CertReport:
    """Uniqueness certificate at a specific feasible signal.

    witness_rows holds the (pos, neg, pinned) row lists the witness was
    built for, in the argument order of witness_is_valid.  h_rank is the
    rank of the boundary submatrix H, which the report does not keep: H is
    phi on the rows witness_rows[0], then witness_rows[1], then the
    measurement's j_zero, and on the columns s_plus, then s_minus.
    """

    unique: bool
    h_full_rank: bool
    h_rank: int
    rrsp_holds: bool
    margin: float
    witness: RrspWitness | None
    active: ActiveSets
    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]
    witness_rows: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class RrspEvidence:
    """One tested restriction pair of a quantified sweep, or (tpair None,
    margin -1) a failure no single pair stands for.  y is the carrier in
    rrsp_order_k, None in rrsp_wrt_y; which entries each sweep returns is
    stated in its docstring."""

    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]
    tpair: TPair | None
    y: tuple[int, ...] | None
    margin: float
    holds: bool
    note: str


class _Roles(NamedTuple):
    """Witness row roles under a restriction pair (t1, t2).

    pos: rows of j_plus outside t1, whose witness entry is strictly
    positive; neg: rows of j_minus outside t2, strictly negative; pinned:
    the rows of t1 and t2, whose entry is zero; free: j_zero, unrestricted.
    """

    pos: np.ndarray
    neg: np.ndarray
    pinned: np.ndarray
    free: np.ndarray


def _row_roles(meas: SignMeasurement, t1, t2) -> _Roles:
    pinned = {int(i) for t in (t1, t2) for i in t}
    return _Roles(pos=np.array([i for i in meas.j_plus.tolist() if i not in pinned], dtype=int),
                  neg=np.array([i for i in meas.j_minus.tolist() if i not in pinned], dtype=int),
                  pinned=np.array(sorted(pinned), dtype=int), free=meas.j_zero)


def _columns(s_plus, s_minus) -> np.ndarray:
    return np.array(list(s_plus) + list(s_minus), dtype=int)


def _kept_stack(phi: np.ndarray, roles: _Roles, s_plus, s_minus) -> np.ndarray:
    """Rows that keep a witness role (pos, neg, then free) on the columns
    s_plus then s_minus: the matrix whose full column rank the test needs."""
    rows = np.concatenate([roles.pos, roles.neg, roles.free])
    return phi[rows[:, None], _columns(s_plus, s_minus)]


def _sign_witness_margin(phi: np.ndarray, s_plus, s_minus, roles: _Roles,
                         tol: TolerancePolicy) -> tuple[bool, RrspWitness | None, float]:
    """Best-margin dual witness for a signed support under row roles.

    Searches w with eta = phi.T @ w equal to +1 on s_plus, -1 on s_minus,
    |eta| strictly below 1 elsewhere, w strictly positive on roles.pos,
    strictly negative on roles.neg, zero on roles.pinned, and unrestricted
    on roles.free.  The pinned entries are exact zeros, so the LP runs over
    the other entries of w only and scatters them back.
    """
    m, n = phi.shape
    support = list(s_plus) + list(s_minus)
    if not support:
        raise ValueError("dual-witness test needs a nonzero signal")
    pinned = set(roles.pinned.tolist())
    keep = [i for i in range(m) if i not in pinned]
    slot = {i: k for k, i in enumerate(keep)}
    on = set(support)
    off = [j for j in range(n) if j not in on]
    signed = [slot[i] for i in roles.pos.tolist() + roles.neg.tolist()]
    ns, no = len(support), 2 * len(off)
    r = ns + no + len(signed)

    # Rows over the kept entries of w: eta_S = s, then eta_j <= 1 and
    # eta_j >= -1 for each column j off the support, then the signs of w
    # on roles.pos and roles.neg.
    a = np.zeros((r, len(keep)))
    a[:ns + no] = phi[keep][:, support + [j for j in off for _ in (0, 1)]].T
    a[range(ns + no, r), signed] = 1.0
    rels = (("=",) * ns + ("<=", ">=") * len(off)
            + (">=",) * roles.pos.size + ("<=",) * roles.neg.size)
    b = np.array([1.0] * len(s_plus) + [-1.0] * len(s_minus) + [1.0, -1.0] * len(off)
                 + [0.0] * len(signed))

    cert = lp.max_margin_feasibility(a, rels, b, range(ns, r))
    if cert.witness is None:
        return False, None, cert.t_star
    w = np.zeros(m)
    w[keep] = cert.witness
    witness = RrspWitness(eta=phi.T @ w, w=w, margin=float(cert.t_star))
    return cert.t_star >= tol.margin_tol, witness, float(cert.t_star)


def _eliminated_witness_margin(phi: np.ndarray, h: np.ndarray, s_plus, s_minus,
                               roles: _Roles) -> float:
    """_sign_witness_margin's optimum, by Fourier-Motzkin elimination, for a
    kept stack h (_kept_stack of the same roles) of full column rank.

    The support equalities read h.T @ w_K = s (pinned entries are zero), so
    w_K = w0 + N z over d = |K| - |S| free directions, w0 and N on the |S|
    rows B of h with the largest |det h_B| (so |N| <= 1) and each other row
    its own direction.  Each LP row reads t <= beta + alpha . z: w on pos,
    -w on neg, 1 -/+ eta off the support, and the cap t <= 1.  Eliminating
    a coordinate keeps the rows with alpha = 0 and adds, for each pair
    alpha_p > 0 > alpha_q, the convex combination (alpha_p row_q - alpha_q
    row_p) / (alpha_p - alpha_q).  Rounding leaves about 1e-16 of the size
    of its terms where an entry is 0 exactly, which would drop a row that
    caps t; so an entry of N below 1e-12 reads as 0, as does an alpha
    within 1e-12 of its size (|phi|.T |N| off the support, carried beside
    alpha).  The optimum is the least beta left, or -1.0 (infeasible, as
    the LP reports it) if negative.  Each step can square the row count.
    """
    s = np.array([1.0] * len(s_plus) + [-1.0] * len(s_minus))
    kept = np.concatenate([roles.pos, roles.neg, roles.free])
    d = h.shape[0] - h.shape[1]
    subsets = np.array(list(combinations(range(len(h)), h.shape[1])))
    basic = subsets[np.abs(np.linalg.det(h[subsets])).argmax()]
    other = np.ones(len(h), dtype=bool)
    other[basic] = False
    # Columns of w and of every row: beta, alpha over z, the sizes of alpha.
    w = np.zeros((len(phi), 2 * d + 1))
    w[kept[basic], :d + 1] = np.column_stack([np.linalg.solve(h[basic].T, v)
                                              for v in (s, *-h[other])])
    w[kept[other], 1:d + 1] = np.eye(d)
    w[:, d + 1:] = np.abs(w[:, 1:d + 1])
    w[:, 1:d + 1][w[:, d + 1:] <= 1e-12] = 0.0
    # eta of w0 as a vector product, so that d = 0 keeps its bits.
    eta = np.column_stack([phi.T @ w[:, 0], phi.T @ w[:, 1:d + 1], np.abs(phi).T @ w[:, d + 1:]])
    off, cap = np.ones(phi.shape[1], dtype=bool), np.eye(1, 2 * d + 1)
    off[_columns(s_plus, s_minus)] = False
    rows = np.concatenate([w[roles.pos], -w[roles.neg], cap - eta[off], cap + eta[off], cap])
    np.abs(rows[:, d + 1:], out=rows[:, d + 1:])  # sizes, which the negations flipped
    for c in range(1, d + 1):
        alpha = np.where(np.abs(rows[:, c]) <= 1e-12 * rows[:, d + c], 0.0, rows[:, c])
        p, q = rows[alpha > 0.0], rows[alpha < 0.0]
        ap, aq = p[:, c, None, None], q[None, :, c, None]
        mixed = (ap * q[None] - aq * p[:, None]) / (ap - aq)
        rows = np.concatenate([rows[alpha == 0.0], mixed.reshape(-1, 2 * d + 1)])
    t = float(rows[:, 0].min())
    return -1.0 if t < 0.0 else t


def witness_is_valid(phi, witness: RrspWitness, s_plus, s_minus, pos_rows,
                     neg_rows, zero_rows, tol: TolerancePolicy | None = None) -> bool:
    """Recheck a serialized witness by direct substitution.

    Two fields of the policy govern the checks:

    * sign_tol, the equalities: eta must match phi.T @ w, equal +1 on
      s_plus and -1 on s_minus, and w must vanish on zero_rows, each up to
      sign_tol.
    * margin_tol, the strict requirements: |eta| <= 1 - slack off the
      support, w >= slack on pos_rows and w <= -slack on neg_rows, where
      slack is the witness's margin less margin_tol / 10.  A witness whose
      margin reaches margin_tol thus still clears every strict requirement.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    w = as_vector(witness.w, m)
    eta = phi.T @ w
    sp, sm, pos, neg, zero = (np.asarray(v, dtype=int) for v in
                              (s_plus, s_minus, pos_rows, neg_rows, zero_rows))
    on = np.zeros(n, dtype=bool)
    on[sp] = on[sm] = True
    slack = witness.margin - pol.margin_tol / 10
    return bool(
        np.all(np.abs(eta - witness.eta) <= pol.sign_tol)
        and np.all(np.abs(eta[sp] - 1.0) <= pol.sign_tol)
        and np.all(np.abs(eta[sm] + 1.0) <= pol.sign_tol)
        and np.all(np.abs(eta[~on]) <= 1.0 - slack)
        and np.all(w[pos] >= slack)
        and np.all(w[neg] <= -slack)
        and np.all(np.abs(w[zero]) <= pol.sign_tol))


def uniqueness_certificate(phi, y, x,
                           tol: TolerancePolicy | None = None) -> CertReport:
    """Decide whether x is the unique minimum-l1 signal reproducing y.

    x must satisfy the decoding constraints (the check is at the given
    point; optimality of x is the caller's concern, e.g. by producing x
    with the decoder).  Uniqueness holds exactly when the dual witness
    exists and the boundary submatrix has full column rank: the
    restriction-pair test of the sweeps at the point's own pair.

    h_rank is the rank of that boundary submatrix H, and h_full_rank says
    whether it has full column rank.  The report does not keep H; it is
    phi[np.ix_(pos + neg + j_zero, s_plus + s_minus)] with (pos, neg, _) =
    witness_rows (the active rows of j_plus, then of j_minus), j_zero the
    measurement's zero rows, and s_plus, s_minus the positive, then
    negative support of x.  rrsp_holds, margin and witness
    are the pointwise RRSP test: the best-margin dual witness that is
    strictly signed on the active rows, zero on the inactive signed rows
    and free on j_zero.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = as_measurement(y, phi.shape[0])
    x = as_vector(x, phi.shape[1])
    sp, sm = signed_support(x, pol)
    acts = active_sets(phi, x, meas, pol)
    # The point's own restriction pair pins the inactive signed rows.
    roles = _row_roles(meas, acts.inactive_plus, acts.inactive_minus)
    h = _kept_stack(phi, roles, sp, sm)
    rank = column_rank(h, pol)
    h_full = rank == h.shape[1]
    holds, witness, margin = _sign_witness_margin(phi, sp, sm, roles, pol)
    notes = []
    if not h_full:
        notes.append(
            f"boundary submatrix rank {rank} < {h.shape[1]} columns")
    if not holds:
        notes.append(f"dual witness margin {margin:.3g} below "
                     f"{pol.margin_tol:.3g}")
    return CertReport(
        unique=bool(h_full and holds),
        h_full_rank=bool(h_full),
        h_rank=int(rank),
        rrsp_holds=bool(holds),
        margin=float(margin),
        witness=witness,
        active=acts,
        s_plus=tuple(int(j) for j in sp),
        s_minus=tuple(int(j) for j in sm),
        witness_rows=tuple(tuple(int(i) for i in rows)
                           for rows in (roles.pos, roles.neg, roles.pinned)),
        notes=tuple(notes),
    )


NONSTANDARD_X = "nonstandard_x"
NONSTANDARD_PHIX = "nonstandard_phix"
STANDARD_COND = "standard"

_AUDIT_MODES = (NONSTANDARD_X, NONSTANDARD_PHIX, STANDARD_COND)


def relaxation_consistency(phi, y, mode: str,
                           tol: TolerancePolicy | None = None
                           ) -> tuple[bool, list[tuple[int, np.ndarray]]]:
    """Audit whether the legacy relaxation is forced to reproduce y.

    The relaxation keeps minimizers consistent only when, for each audited
    row i, the null space of that row meets the measurement cone solely in
    degenerate directions.  mode picks the applicable criterion:

    * "nonstandard_x":    rows of j_minus; degenerate means d = 0
    * "nonstandard_phix": rows of j_minus; degenerate means phi @ d = 0
    * "standard":         rows of j_plus and j_minus; degenerate means
                          phi @ d = 0 (zero rows join the cone as equalities)

    One LP per audited row decides it.  Every cone row is sign-constrained
    (y_r phi_r d >= 0) or zero (phi_r d = 0), so phi @ d != 0 on the cone
    exactly when sum_r y_r phi_r d > 0, and by scaling exactly when the LP
    with the extra row (y @ phi) d = 1 is feasible.  In "nonstandard_x" mode
    one rank test on phi comes first: if phi has a null direction d, it lies
    in every cone and every row's null space, so every audited row is
    violated by it; otherwise d != 0 is the same as phi @ d != 0.

    Returns (holds, violations); each violation is (row, d) with d a
    nondegenerate cone direction in that row's null space.  The two
    nonstandard modes require y over {-1, +1} with at least one -1; the
    standard mode requires y != 0.  Raises RuntimeError when an audit LP
    ends neither optimal nor infeasible, so that it cannot pass as holding.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    meas = as_measurement(y, m)
    if mode not in _AUDIT_MODES:
        raise ValueError(f"unknown audit mode {mode!r}; pick one of {_AUDIT_MODES}")
    if mode in (NONSTANDARD_X, NONSTANDARD_PHIX):
        if meas.j_zero.size:
            raise ValueError("nonstandard audits need a measurement over {-1, +1}")
        if meas.j_minus.size == 0:
            raise ValueError("nonstandard audits need at least one -1 row")
        audited = [int(i) for i in meas.j_minus]
    else:
        if meas.is_zero():
            raise ValueError("standard audit is undefined for the zero measurement")
        audited = [int(i) for i in np.flatnonzero(meas.y)]

    if mode == NONSTANDARD_X:
        null = null_space_basis(phi, pol)
        if null.shape[1]:
            return False, [(i, null[:, 0].copy()) for i in audited]

    # Rows: the cone y_r phi_r d >= 0 (phi_r d = 0 on zero rows), then
    # (y @ phi) d = 1.  The audited row's cone row becomes its equality.
    a = np.empty((m + 1, n))
    a[:m] = np.where(meas.y == 0, 1, meas.y)[:, None] * phi
    a[m] = meas.y @ phi
    cone_rels = ["=" if v == 0 else ">=" for v in meas.y] + ["="]
    b = np.zeros(m + 1)
    b[m] = 1.0
    free = np.ones(n, dtype=bool)
    violations: list[tuple[int, np.ndarray]] = []
    for i in audited:
        rels = list(cone_rels)
        rels[i] = "="
        sol = lp.solve(lp.LPProblem(c=np.zeros(n), a=a, rels=rels, b=b, free=free))
        if sol.status == lp.OPTIMAL:
            violations.append((i, sol.primal.copy()))
        elif sol.status != lp.INFEASIBLE:
            raise RuntimeError(f"audit LP did not solve cleanly: status {sol.status}")
    return len(violations) == 0, violations


def _refuted(block: np.ndarray):
    """The sign refutation of _membership_margin, for a block of signed rows
    y_i phi_iS s (shape (..., rows, |S|)): true where some row has no
    positive entry, so that z >= 0 caps it at 0 and the margin is 0."""
    return (block <= 0.0).all(axis=-1).any(axis=-1)


def _membership_margin(phi: np.ndarray, meas: SignMeasurement, s_plus,
                       s_minus, confirm: float | None = None) -> lp.MarginCertificate:
    """Margin LP deciding whether a signed support is realized by some
    consistent signal (strict signs on the support and the signed rows,
    exact zeros elsewhere, sup-norm capped at 1 for scale).

    Only the support columns S enter, with the signs s substituted:
    z = s * x_S, maximize t subject to t <= z <= 1, y_i phi_iS (s * z) >= t
    on the signed rows and phi_iS (s * z) = 0 on the zero rows.  Off the
    support x is an exact zero, and z >= t >= 0 makes the lower box bound
    implied, so the LP has |S| + 1 variables and m + 2|S| + 1 rows.  Its
    optimum is that of the n-column formulation.  The witness is x with
    x_S = s * z and zeros elsewhere.

    The signs refute a support before any LP is built, with t = 0 the
    exact optimum and the zero signal as witness (z = 0, t = 0 is
    feasible): when some signed row of y_i phi_iS s has no positive entry,
    z >= 0 caps that row at 0; and when some zero row of phi_iS s is not
    all zero and has no two entries of opposite sign, z >= 0 and the
    row's equality force z_j = 0 on a nonzero entry j, so t <= z_j = 0.

    The sign point z = 1 (x_S = s) answers the rest when it is exactly
    zero on every zero row: its margin is min(1, min over signed rows of
    y_i phi_iS s).  For a one-column support that point is the one
    optimum (every signed row reads c_i z with c_i > 0, so t is largest at
    z = 1).  For a larger support it is a feasible point, so the optimum
    is at least its margin; with confirm given, a point whose margin
    reaches confirm is returned as it is, which settles membership at that
    threshold, though not the optimum.  Every other support is decided by
    the LP.  Columns must be distinct and lie in [0, n).
    """
    m, n = phi.shape
    sp = sorted(int(j) for j in s_plus)
    sm = sorted(int(j) for j in s_minus)
    if set(sp) & set(sm):
        raise ValueError("pattern has overlapping positive and negative support")
    cols = sp + sm
    if len(set(cols)) < len(cols):
        raise ValueError(f"pattern repeats a column: {cols}")
    if any(j < 0 or j >= n for j in cols):
        raise ValueError(f"pattern column outside [0, {n}): {cols}")
    support = np.array(cols, dtype=int)
    s = np.array([1.0] * len(sp) + [-1.0] * len(sm))
    k = support.size
    rows = np.concatenate([meas.j_plus, meas.j_minus, meas.j_zero])
    signed = meas.j_plus.size + meas.j_minus.size
    block = phi[rows[:, None], support] * s
    block[:signed] *= meas.y[rows[:signed], None]
    zero = block[signed:]
    if _refuted(block[:signed]) or (
            zero.size and ((zero > 0.0).any(axis=1) != (zero < 0.0).any(axis=1)).any()):
        return lp.MarginCertificate(t_star=0.0, witness=np.zeros(n))
    point = block.sum(axis=1)
    if not point[signed:].any():
        t = float(point[:signed].min(initial=1.0))
        if k == 1 or (confirm is not None and t >= confirm):
            x = np.zeros(n)
            x[support] = s
            return lp.MarginCertificate(t_star=t, witness=x)

    a = np.zeros((m + 2 * k, k))
    a[:k] = np.eye(k)
    a[k:k + m] = block
    a[k + m:] = np.eye(k)
    rels = (">=",) * (k + signed) + ("=",) * (m - signed) + ("<=",) * k
    b = np.zeros(m + 2 * k)
    b[k + m:] = 1.0
    cert = lp.max_margin_feasibility(a, rels, b, range(k + signed),
                                     free=np.zeros(k, dtype=bool))
    if cert.witness is None:
        return cert
    x = np.zeros(n)
    x[support] = s * cert.witness
    return lp.MarginCertificate(t_star=cert.t_star, witness=x)


def membership_P(phi, y, s_plus, s_minus,
                 tol: TolerancePolicy | None = None) -> bool:
    """Whether some consistent signal realizes the signed support exactly.

    Decided at margin_tol resolution: the strict sign requirements must be
    satisfiable with a common margin of at least margin_tol after capping
    the signal's sup norm at 1.  Three answers need no LP (see
    _membership_margin): a support the signs refute, on a signed row
    whose entries all push the wrong way or not at all, or on a zero row
    whose nonzero entries all push one way; a one-column support, in
    closed form; and a support whose sign point x_S = s is exactly zero
    on every zero row and clears margin_tol on every signed row, which
    the LP optimum can only exceed.  Raises ValueError when y does not
    have one row per row of phi, or a column repeats, lies outside
    [0, n) or is in both s_plus and s_minus.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = as_measurement(y, phi.shape[0])
    cert = _membership_margin(phi, meas, s_plus, s_minus, confirm=pol.margin_tol)
    return cert.t_star >= pol.margin_tol


def pattern_witness(phi, y, s_plus, s_minus,
                    tol: TolerancePolicy | None = None) -> np.ndarray | None:
    """A consistent signal realizing the signed support, or None.

    The returned point maximizes the common strict margin under a sup-norm
    cap of 1, so it sits well inside the open region whenever one exists.
    Inputs are checked as in membership_P.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = as_measurement(y, phi.shape[0])
    cert = _membership_margin(phi, meas, s_plus, s_minus)
    if cert.t_star < pol.margin_tol or cert.witness is None:
        return None
    return cert.witness.copy()


def _support_signs(n: int, k: int):
    """Every support of size 1..k over n columns, ascending by size then
    lexicographic, with its sign vectors as the rows of one array in
    product((1, -1)) order."""
    for size in range(1, k + 1):
        signs = np.array(list(product((1, -1), repeat=size)))
        for supp in combinations(range(n), size):
            yield supp, signs


def _split(supp, signs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(j for j, s in zip(supp, signs) if s == 1),
            tuple(j for j, s in zip(supp, signs) if s == -1))


def _signed_patterns(n: int, k: int):
    """Every nonempty signed support of size at most k over n columns, as
    (s_plus, s_minus), in (size, support, signs) lexicographic order."""
    for supp, signs in _support_signs(n, k):
        for s in signs:
            yield _split(supp, s)


def patterns_of_measurement(phi, meas: SignMeasurement, k: int,
                            tol: TolerancePolicy | None = None
                            ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All nonempty signed supports of size at most k realized by
    consistent signals, in (size, support, signs) lexicographic order.
    The sign refutation of membership_P runs once per support, on every
    sign vector at once; the vectors it leaves go to membership_P.
    Raises ValueError when meas does not have one row per row of phi, or
    when k is negative (k = 0 and k > n are valid caps)."""
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = as_measurement(meas, phi.shape[0])
    if k < 0:
        raise ValueError(f"sparsity must be nonnegative, got {k}")
    signed = np.concatenate([meas.j_plus, meas.j_minus])
    y_phi = meas.y[signed, None] * phi[signed]
    found = []
    for supp, signs in _support_signs(phi.shape[1], k):
        refuted = _refuted(signs[:, None, :] * y_phi[:, supp])
        found += [p for p in (_split(supp, s) for s in signs[~refuted])
                  if membership_P(phi, meas, *p, pol)]
    return found


def _tpairs(meas: SignMeasurement):
    """All valid restriction pairs, smallest first, lexicographic within size."""
    jp = [int(i) for i in meas.j_plus]
    jm = [int(i) for i in meas.j_minus]
    for k1 in range(len(jp) + 1):
        for t1 in combinations(jp, k1):
            for k2 in range(len(jm) + 1):
                for t2 in combinations(jm, k2):
                    if len(t1) == len(jp) and len(t2) == len(jm):
                        continue
                    yield TPair(t1=t1, t2=t2)


def _mirror_memo(twins: dict, key: tuple, compute):
    """compute() for key = (s_plus, s_minus, y, t1, t2), shared with the
    sign-mirrored twin (s_minus, s_plus, -y, t2, t1).

    A key whose lowest support column is positive stores its answer in
    twins; one whose lowest column is negative reads its twin's answer when
    stored, and computes its own otherwise.
    """
    sp, sm, y, t1, t2 = key
    if sm and (not sp or sm[0] < sp[0]):
        twin = (sm, sp, tuple(-v for v in y), t2, t1)
        return twins[twin] if twin in twins else compute()
    twins[key] = answer = compute()
    return answer


def _pair_test(phi: np.ndarray, meas: SignMeasurement, sp, sm, pair: TPair,
               tol: TolerancePolicy) -> tuple[bool, float] | None:
    """(holds, margin) of the witness LP under one restriction pair, or None
    when the kept rows lose column rank and the LP is skipped; a full-rank
    kept stack of at most |S| + 2 rows takes _eliminated_witness_margin's
    answer instead.  A one-column stack has full rank exactly when it has a
    nonzero entry (column_rank's threshold, rank_tol * max |h|, lies below
    max |h|), so that is its answer without the row reduction."""
    roles = _row_roles(meas, pair.t1, pair.t2)
    h = _kept_stack(phi, roles, sp, sm)
    full_rank = h.any() if h.shape[1] == 1 else column_rank(h, tol) == h.shape[1]
    if not full_rank:
        return None
    if h.shape[0] <= h.shape[1] + 2:
        margin = _eliminated_witness_margin(phi, h, sp, sm, roles)
        return margin >= tol.margin_tol, margin
    holds, _, margin = _sign_witness_margin(phi, sp, sm, roles, tol)
    return holds, margin


def _pair_evidence(phi: np.ndarray, meas: SignMeasurement, sp, sm,
                   tol: TolerancePolicy, twins: dict, y_label=None):
    """The restriction-pair test of one pattern under one measurement: yields
    the RrspEvidence of each full-rank restriction pair, in _tpairs order.
    A pair whose kept rows lose column rank is skipped before its witness
    LP.  twins is the caller's per-call _mirror_memo of each pair's test.
    """
    sp, sm = tuple(sp), tuple(sm)
    y = tuple(int(v) for v in meas.y)
    for pair in _tpairs(meas):
        test = _mirror_memo(twins, (sp, sm, y, pair.t1, pair.t2),
                            lambda: _pair_test(phi, meas, sp, sm, pair, tol))
        if test is None:
            continue
        holds, margin = test
        yield RrspEvidence(s_plus=sp, s_minus=sm, tpair=pair, y=y_label,
                           margin=margin, holds=holds,
                           note="witness" if holds else "no witness")


def _for_all_pairs(phi: np.ndarray, triples, tol: TolerancePolicy, twins: dict
                   ) -> tuple[bool, list[RrspEvidence]]:
    """The for-all shape over (pattern, measurement, label) triples: each
    triple needs a full-rank restriction pair, and every such pair a witness.

    Returns the evidence of every pair tested, in order, up to and including
    the first failing pair; a triple without a full-rank pair ends the list
    with one "no full-rank restriction pair" entry (tpair None, margin -1).
    """
    evidence: list[RrspEvidence] = []
    for (sp, sm), meas, y_label in triples:
        tested = len(evidence)
        for ev in _pair_evidence(phi, meas, sp, sm, tol, twins, y_label):
            evidence.append(ev)
            if not ev.holds:
                return False, evidence
        if len(evidence) == tested:
            evidence.append(RrspEvidence(
                s_plus=tuple(sp), s_minus=tuple(sm), tpair=None, y=y_label,
                margin=-1.0, holds=False, note="no full-rank restriction pair"))
            return False, evidence
    return True, evidence


def rrsp_wrt_y(phi, y, k: int, variant: str,
               tol: TolerancePolicy | None = None
               ) -> tuple[bool, list[RrspEvidence]]:
    """Quantified dual-witness property for one fixed measurement.

    variant "sufficient": every realizable pattern of size <= k must have a
    full-rank restriction pair, and every full-rank pair must admit a
    witness; vacuously true when no pattern qualifies.  Its evidence is
    that of every full-rank pair tested, pattern by pattern: all of them
    when it holds, up to and including the first failing one otherwise, or
    ending in a "no full-rank restriction pair" entry for the first pattern
    without one.  variant "necessary": some realizable pattern has some
    full-rank pair with a witness.  Its evidence is the first such pair
    when it holds, and empty otherwise.  Evidence carries y = None.
    Refuses instances beyond the exhaustive-sweep budget, and raises
    ValueError when y does not have one row per row of phi or k is
    negative.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = as_measurement(y, phi.shape[0])
    if variant not in (SUFFICIENT, NECESSARY):
        raise ValueError(f"variant must be sufficient or necessary, got {variant!r}")
    n = phi.shape[1]
    signed = meas.j_plus.size + meas.j_minus.size
    if signed > WRT_Y_MAX_SIGNED_ROWS or n > WRT_Y_MAX_COLS:
        raise ValueError(
            f"instance beyond exhaustive budget: {signed} signed rows "
            f"(max {WRT_Y_MAX_SIGNED_ROWS}), {n} columns (max {WRT_Y_MAX_COLS})")
    patterns = patterns_of_measurement(phi, meas, k, pol)
    twins: dict = {}
    if variant == SUFFICIENT:
        return _for_all_pairs(phi, ((p, meas, None) for p in patterns), pol, twins)
    found = next((ev for sp, sm in patterns
                  for ev in _pair_evidence(phi, meas, sp, sm, pol, twins) if ev.holds), None)
    return (False, []) if found is None else (True, [found])


def _sign_faces(phi: np.ndarray, k: int, tol: TolerancePolicy, carried: np.ndarray | None = None
                ) -> dict[tuple[tuple[int, ...], tuple[int, ...]], list[tuple[int, ...]]]:
    """Sorted nonzero measurements y that carry each nonempty signed
    pattern of size at most k <= n, as membership_P decides carrying; a
    given nonzero measurement `carried` keeps only the faces whose y it is.

    Each face of phi_S with the k coordinate rows appended, over every
    support S of size k, gives a pair (y, pattern) = (sign(phi_S z),
    sign(z)); its point z, zeroed off the pattern and scaled to
    max |x_S| = 1, confirms the pair when min(1, |x_j| on the pattern,
    y_i phi_i x on the signed rows), a lower bound on the membership LP's
    optimum, reaches margin_tol and each zero row meets |phi_i x| <=
    FEAS_TOL (1 + |phi_i|.|x|), as that LP's verification asks.
    _membership_margin decides every pair that no point confirms.
    """
    m, n = phi.shape
    confirmed, doubtful = set(), set()
    for supp in combinations(range(n), k):
        block = phi[:, list(supp)]
        z, faces = _face_signs(np.vstack([block, np.eye(k)]))
        # y != 0 puts z, and so sign(z), off 0.
        keep = faces[:, :m].any(axis=1) if carried is None else (faces[:, :m] == carried).all(1)
        y, s = faces[keep, :m], faces[keep, m:]
        x = np.where(s != 0, z[keep], 0.0)
        x /= np.abs(x).max(axis=1, keepdims=True, initial=0.0)
        v = x @ block.T
        margin = np.minimum(np.abs(x).min(axis=1, where=s != 0, initial=1.0),
                            (y * v).min(axis=1, where=y != 0, initial=1.0))
        # A zero row's entries on the pattern, times its signs, that all push
        # one way refute the face, however close to zero the point reads it.
        e = s[:, None, :] * block
        zero_ok = ((e > 0.0).any(axis=2) == (e < 0.0).any(axis=2)) & (
            np.abs(v) <= lp.FEAS_TOL * (1.0 + np.abs(x) @ np.abs(block).T))
        sure = (margin >= tol.margin_tol) & (zero_ok | (y != 0)).all(axis=1)
        for yi, si, ok in zip(y.tolist(), s.tolist(), sure.tolist()):
            (confirmed if ok else doubtful).add((_split(supp, si), tuple(yi)))
    confirmed |= {(p, y) for p, y in sorted(doubtful - confirmed) if _membership_margin(
        phi, SignMeasurement.from_y(np.array(y)), *p, confirm=tol.margin_tol
    ).t_star >= tol.margin_tol}
    return {p: [y for _, y in pairs]
            for p, pairs in groupby(sorted(confirmed), key=lambda pair: pair[0])}


def rrsp_order_k(phi, k: int, variant: str,
                 tol: TolerancePolicy | None = None
                 ) -> tuple[bool, list[RrspEvidence]]:
    """Quantified dual-witness property over every k-sparse measurement.

    variant "sufficient": for every nonempty pattern of size <= k and every
    nonzero k-sparse-realizable measurement whose consistent signals can
    carry that pattern, the restriction-pair test must pass in the
    for-all shape.  variant "necessary": every such pattern needs at least
    one measurement and pair with a witness.  The measurements that can
    carry each pattern come from one exact face walk per support of size
    k, so no k-sparse measurement is missed; each is confirmed by its own
    face point, or where that point misses margin_tol by the membership
    margin, which at k = 1 is its closed form (_sign_faces).  The sufficient
    evidence is that of rrsp_wrt_y's sufficient variant, taken over every
    (pattern, carrier) in turn, with y the carrier.  The necessary evidence
    is the first holding pair of each pattern when it holds, and otherwise
    one "no measurement carries this pattern with a witness" entry (tpair
    and y None, margin -1) for the first pattern without one.  Refuses
    shapes and sparsities beyond ORDER_K_MAX_SHAPE, and k outside [0, n].

    A pattern whose lowest column is negative is not tested afresh where
    its sign-mirrored twin (s_minus, s_plus), reached earlier in the same
    support, already was: under the negated carrier and the swapped pair
    (t2, t1) it reuses the twin's rank decision, witness margin and holds.
    The reuse is exact: the kept rows are the twin's, permuted, and w is a
    witness for the pattern exactly when -w is one for the twin, at the
    same margin.  Each evidence entry keeps its own pattern, pair,
    carrier and place in the list; only a reused margin can differ, by
    rounding, from the pattern's own LP.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    if variant not in (SUFFICIENT, NECESSARY):
        raise ValueError(f"variant must be sufficient or necessary, got {variant!r}")
    if k < 0 or k > n:
        raise ValueError(f"sparsity must lie in [0, {n}], got {k}")
    rows, cols = ORDER_K_MAX_SHAPE.get(k, (0, 0))
    if m > rows or n > cols:
        raise ValueError(
            f"instance beyond exhaustive budget: sparsity {k} allows {rows} "
            f"rows and {cols} columns, got {m}x{n}")

    carriers = {p: [(SignMeasurement.from_y(np.array(y)), y) for y in ys]
                for p, ys in _sign_faces(phi, k, pol).items()}
    twins: dict = {}
    if variant == SUFFICIENT:
        return _for_all_pairs(phi, ((p, meas, y) for p in _signed_patterns(n, k)
                                    for meas, y in carriers.get(p, [])), pol, twins)
    evidence: list[RrspEvidence] = []
    for sp, sm in _signed_patterns(n, k):
        found = next((ev for meas, y in carriers.get((sp, sm), [])
                      for ev in _pair_evidence(phi, meas, sp, sm, pol, twins, y)
                      if ev.holds), None)
        if found is None:
            return False, [RrspEvidence(
                s_plus=sp, s_minus=sm, tpair=None, y=None,
                margin=-1.0, holds=False,
                note="no measurement carries this pattern with a witness")]
        evidence.append(found)
    return True, evidence
