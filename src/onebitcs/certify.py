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
maximizing a common margin with an LP and comparing against margin_tol;
nothing is perturbed by hand-picked epsilons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from . import lp
from .linalg import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
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
ORDER_K_MAX_COLS = 8
ORDER_K_MAX_SPARSITY = 2
ORDER_K_MAX_ROWS = 8


@dataclass(frozen=True, eq=False)
class CertMatrix:
    """Boundary submatrix used in the rank half of the uniqueness test.

    Rows: matrix rows active at the signal (positive rows first, then
    negative, then the zero-measurement rows).  Columns: positive support
    then negative support.  Labels carry the original indices.
    """

    h: np.ndarray
    row_labels: tuple[tuple[str, int], ...]
    col_labels: tuple[tuple[str, int], ...]


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


@dataclass
class RrspCheck:
    holds: bool
    margin: float
    witness: RrspWitness | None


@dataclass
class CertReport:
    """Uniqueness certificate at a specific feasible signal.

    witness_rows holds the (pos, neg, pinned) row lists the witness was
    built for, in the argument order of witness_is_valid.
    """

    unique: bool
    h_full_rank: bool
    h_rank: int
    rrsp_holds: bool
    margin: float
    witness: RrspWitness | None
    cert_matrix: CertMatrix
    active: ActiveSets
    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]
    witness_rows: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class RrspEvidence:
    """One certifying or falsifying tuple from a quantified sweep."""

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
    pinned = np.zeros(meas.m, dtype=bool)
    for t in (t1, t2):
        pinned[np.asarray(t, dtype=int)] = True
    return _Roles(pos=meas.j_plus[~pinned[meas.j_plus]],
                  neg=meas.j_minus[~pinned[meas.j_minus]],
                  pinned=np.flatnonzero(pinned), free=meas.j_zero)


def _columns(s_plus, s_minus) -> np.ndarray:
    return np.array(list(s_plus) + list(s_minus), dtype=int)


def _kept_stack(phi: np.ndarray, roles: _Roles, s_plus, s_minus) -> np.ndarray:
    """Rows that keep a witness role (pos, neg, then free) on the columns
    s_plus then s_minus: the matrix whose full column rank the test needs."""
    rows = np.concatenate([roles.pos, roles.neg, roles.free])
    return phi[np.ix_(rows, _columns(s_plus, s_minus))]


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
    support = _columns(s_plus, s_minus)
    if support.size == 0:
        raise ValueError("dual-witness test needs a nonzero signal")
    unpinned = np.ones(m, dtype=bool)
    unpinned[roles.pinned] = False
    keep = np.flatnonzero(unpinned)
    slot = np.full(m, -1)
    slot[keep] = np.arange(keep.size)
    eta_rows = phi[keep].T
    on = np.zeros(n, dtype=bool)
    on[support] = True
    off = np.flatnonzero(~on)
    pos = slot[roles.pos]
    neg = slot[roles.neg]
    ns, no = support.size, 2 * off.size
    r = ns + no + pos.size + neg.size

    a = np.zeros((r, keep.size))
    a[:ns] = eta_rows[support]
    a[ns:ns + no] = np.repeat(eta_rows[off], 2, axis=0)
    a[np.arange(ns + no, r), np.concatenate([pos, neg])] = 1.0
    rels = ("=",) * ns + ("<=", ">=") * off.size + (">=",) * pos.size + ("<=",) * neg.size
    b = np.zeros(r)
    b[:ns] = [1.0] * len(s_plus) + [-1.0] * len(s_minus)
    b[ns:ns + no] = np.tile([1.0, -1.0], off.size)

    cert = lp.max_margin_feasibility(a, rels, b, range(ns, r))
    if cert.witness is None:
        return False, None, cert.t_star
    w = np.zeros(m)
    w[keep] = cert.witness
    witness = RrspWitness(eta=phi.T @ w, w=w, margin=float(cert.t_star))
    return cert.t_star >= tol.margin_tol, witness, float(cert.t_star)


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


def _at_point(phi: np.ndarray, meas: SignMeasurement, x,
              pol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray, ActiveSets, _Roles]:
    """Signed support, active sets and witness row roles at a feasible x.

    The point's own restriction pair pins the inactive signed rows: t1 is
    the inactive rows of j_plus, t2 the inactive rows of j_minus.
    """
    x = as_vector(x, phi.shape[1])
    sp, sm = signed_support(x, pol)
    acts = active_sets(phi, x, meas, pol)
    return sp, sm, acts, _row_roles(meas, acts.inactive_plus, acts.inactive_minus)


def _cert_matrix(phi: np.ndarray, roles: _Roles, sp, sm) -> CertMatrix:
    row_labels = tuple(
        [("plus_active", int(i)) for i in roles.pos]
        + [("minus_active", int(i)) for i in roles.neg]
        + [("zero", int(i)) for i in roles.free]
    )
    col_labels = tuple(
        [("plus", int(j)) for j in sp] + [("minus", int(j)) for j in sm]
    )
    return CertMatrix(h=_kept_stack(phi, roles, sp, sm), row_labels=row_labels,
                      col_labels=col_labels)


def assemble_H(phi, meas: SignMeasurement, x,
               tol: TolerancePolicy | None = None) -> CertMatrix:
    """Boundary submatrix at a feasible signal.

    Rows are the active rows of j_plus, the active rows of j_minus, then
    all of j_zero; columns are the positive then negative support of x.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    sp, sm, _, roles = _at_point(phi, meas, x, pol)
    return _cert_matrix(phi, roles, sp, sm)


def rrsp_at(phi, meas: SignMeasurement, x,
            tol: TolerancePolicy | None = None) -> RrspCheck:
    """Dual-witness test at a specific feasible signal.

    The witness must be strictly signed exactly on the active rows,
    vanish on the inactive signed rows, and is unrestricted on j_zero.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    sp, sm, _, roles = _at_point(phi, meas, x, pol)
    holds, witness, margin = _sign_witness_margin(phi, sp, sm, roles, pol)
    return RrspCheck(holds=holds, margin=margin, witness=witness)


def uniqueness_certificate(phi, y, x,
                           tol: TolerancePolicy | None = None) -> CertReport:
    """Decide whether x is the unique minimum-l1 signal reproducing y.

    x must satisfy the decoding constraints (the check is at the given
    point; optimality of x is the caller's concern, e.g. by producing x
    with the decoder).  Uniqueness holds exactly when the dual witness
    exists and the boundary submatrix has full column rank: the
    restriction-pair test of the sweeps at the point's own pair.
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = as_measurement(y, phi.shape[0])
    sp, sm, acts, roles = _at_point(phi, meas, x, pol)
    cm = _cert_matrix(phi, roles, sp, sm)
    rank = column_rank(cm.h, pol)
    h_full = rank == cm.h.shape[1]
    holds, witness, margin = _sign_witness_margin(phi, sp, sm, roles, pol)
    notes = []
    if not h_full:
        notes.append(
            f"boundary submatrix rank {rank} < {cm.h.shape[1]} columns")
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
        cert_matrix=cm,
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
    standard mode requires y != 0.
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
    return len(violations) == 0, violations


def _membership_margin(phi: np.ndarray, meas: SignMeasurement, s_plus,
                       s_minus) -> lp.MarginCertificate:
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

    The signs refute a support before any LP is built: when some signed
    row of y_i phi_iS s has no positive entry, z >= 0 caps that row at 0,
    and z = 0, t = 0 is feasible, so the optimum is t = 0 exactly and the
    zero signal is returned as the witness.  Every other support is
    decided by the LP.  Columns must be distinct and lie in [0, n).
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
    block = phi[np.ix_(rows, support)] * s
    block[:signed] *= meas.y[rows[:signed], None]
    if (block[:signed] <= 0.0).all(axis=1).any():
        return lp.MarginCertificate(t_star=0.0, witness=np.zeros(n))

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
    the signal's sup norm at 1.  A support whose columns all push some
    signed row the wrong way (or not at all) is refuted from the signs
    alone, without an LP.  Raises ValueError when y does not have one row
    per row of phi, or a column repeats or lies outside [0, n).
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = as_measurement(y, phi.shape[0])
    cert = _membership_margin(phi, meas, s_plus, s_minus)
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


def _signed_patterns(n: int, k: int):
    """Every nonempty signed support of size at most k over n columns, as
    (s_plus, s_minus), in (size, support, signs) lexicographic order."""
    for size in range(1, k + 1):
        for supp in combinations(range(n), size):
            for signs in product((1, -1), repeat=size):
                yield (tuple(j for j, s in zip(supp, signs) if s == 1),
                       tuple(j for j, s in zip(supp, signs) if s == -1))


def patterns_of_measurement(phi, meas: SignMeasurement, k: int,
                            tol: TolerancePolicy | None = None
                            ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All nonempty signed supports of size at most k realized by
    consistent signals, in (size, support, signs) lexicographic order.
    Raises ValueError when meas does not have one row per row of phi."""
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    meas = as_measurement(meas, phi.shape[0])
    return [(sp, sm) for sp, sm in _signed_patterns(phi.shape[1], k)
            if membership_P(phi, meas, sp, sm, pol)]


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


def _pattern_pair_check(phi, meas: SignMeasurement, sp, sm,
                        tol: TolerancePolicy, require_all: bool,
                        y_label=None) -> tuple[bool, list[RrspEvidence]]:
    """Quantify dual witnesses over restriction pairs for one pattern.

    require_all=True demands a full-rank pair exists AND every full-rank
    pair admits a witness (the sufficiency shape); False succeeds on the
    first full-rank pair with a witness (the necessity shape).
    """
    evidence: list[RrspEvidence] = []
    found_full_rank = False
    for pair in _tpairs(meas):
        roles = _row_roles(meas, pair.t1, pair.t2)
        if column_rank(_kept_stack(phi, roles, sp, sm), tol) < len(sp) + len(sm):
            continue
        found_full_rank = True
        holds, _, margin = _sign_witness_margin(phi, sp, sm, roles, tol)
        ev = RrspEvidence(s_plus=tuple(sp), s_minus=tuple(sm), tpair=pair,
                          y=y_label, margin=margin, holds=holds,
                          note="witness" if holds else "no witness")
        if require_all:
            evidence.append(ev)
            if not holds:
                return False, evidence
        elif holds:
            return True, [ev]
    if require_all:
        if not found_full_rank:
            return False, [RrspEvidence(
                s_plus=tuple(sp), s_minus=tuple(sm), tpair=None, y=y_label,
                margin=-1.0, holds=False, note="no full-rank restriction pair")]
        return True, evidence
    return False, [RrspEvidence(
        s_plus=tuple(sp), s_minus=tuple(sm), tpair=None, y=y_label,
        margin=-1.0, holds=False,
        note="no full-rank restriction pair admits a witness")]


def rrsp_wrt_y(phi, y, k: int, variant: str,
               tol: TolerancePolicy | None = None
               ) -> tuple[bool, list[RrspEvidence]]:
    """Quantified dual-witness property for one fixed measurement.

    variant "sufficient": every realizable pattern of size <= k must have a
    full-rank restriction pair, and every full-rank pair must admit a
    witness; vacuously true when no pattern qualifies.  variant
    "necessary": some realizable pattern has some full-rank pair with a
    witness.  Refuses instances beyond the exhaustive-sweep budget, and
    raises ValueError when y does not have one row per row of phi.
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
    if variant == SUFFICIENT:
        all_evidence: list[RrspEvidence] = []
        for sp, sm in patterns:
            ok, ev = _pattern_pair_check(phi, meas, sp, sm, pol, require_all=True)
            all_evidence.extend(ev)
            if not ok:
                return False, all_evidence
        return True, all_evidence
    for sp, sm in patterns:
        ok, ev = _pattern_pair_check(phi, meas, sp, sm, pol, require_all=False)
        if ok:
            return True, ev
    return False, []


def rrsp_order_k(phi, k: int, variant: str,
                 tol: TolerancePolicy | None = None
                 ) -> tuple[bool, list[RrspEvidence]]:
    """Quantified dual-witness property over every k-sparse measurement.

    variant "sufficient": for every nonempty pattern of size <= k and every
    nonzero k-sparse-realizable measurement whose consistent signals can
    carry that pattern, the restriction-pair test must pass in the
    for-all shape.  variant "necessary": every such pattern needs at least
    one measurement and pair with a witness.  Refuses beyond the
    exhaustive budget (the measurement enumeration is exact for k <= 2).
    """
    pol = tol or DEFAULT_TOLERANCES
    phi = as_matrix(phi)
    m, n = phi.shape
    if variant not in (SUFFICIENT, NECESSARY):
        raise ValueError(f"variant must be sufficient or necessary, got {variant!r}")
    if n > ORDER_K_MAX_COLS or k > ORDER_K_MAX_SPARSITY or m > ORDER_K_MAX_ROWS:
        raise ValueError(
            f"instance beyond exhaustive budget: need columns <= {ORDER_K_MAX_COLS}, "
            f"sparsity <= {ORDER_K_MAX_SPARSITY}, rows <= {ORDER_K_MAX_ROWS}")

    from .oracle import enumerate_Yk  # deferred: oracle imports this module

    yk = enumerate_Yk(phi, k, tol=pol)
    nonzero = [meas for meas in yk.measurements if not meas.is_zero()]

    all_evidence: list[RrspEvidence] = []
    for sp, sm in _signed_patterns(n, k):
        carriers = [meas for meas in nonzero
                    if membership_P(phi, meas, sp, sm, pol)]
        if variant == SUFFICIENT:
            for meas in carriers:
                ok, ev = _pattern_pair_check(
                    phi, meas, sp, sm, pol, require_all=True,
                    y_label=tuple(int(v) for v in meas.y))
                all_evidence.extend(ev)
                if not ok:
                    return False, all_evidence
            continue
        for meas in carriers:
            ok, ev = _pattern_pair_check(
                phi, meas, sp, sm, pol, require_all=False,
                y_label=tuple(int(v) for v in meas.y))
            if ok:
                all_evidence.extend(ev)
                break
        else:
            return False, [RrspEvidence(
                s_plus=sp, s_minus=sm, tpair=None, y=None,
                margin=-1.0, holds=False,
                note="no measurement carries this pattern with a witness")]
    return True, all_evidence
