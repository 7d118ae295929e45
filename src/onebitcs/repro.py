"""Built-in counterexample audit.

A fixed 2x4 integer matrix and the measurement (+1, -1) demonstrate, with
exact integer arithmetic where possible, that the legacy sign-cone
relaxation admits feasible points that do not reproduce the measurement
under either sign convention, while the consistent decoder cannot: its
optimum has l1 norm 1, reproduces the measurement, and is provably
non-unique (the optimal face has several vertices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .certify import (
    NONSTANDARD_PHIX,
    NONSTANDARD_X,
    relaxation_consistency,
    uniqueness_certificate,
)
from .decoders import encode_bp_lp, one_bit_bp
from .linalg import DEFAULT_TOLERANCES, TolerancePolicy
from .signmodel import SignMeasurement, sign_standard

COUNTEREXAMPLE_MATRIX = ((2, -1, 0, 2), (-1, 1, 1, 0))
COUNTEREXAMPLE_Y = (1, -1)


def _int_sign_standard(v: int) -> int:
    return 1 if v > 0 else (-1 if v < 0 else 0)


def _int_sign_nonstandard(v: int) -> int:
    return 1 if v >= 0 else -1


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ReproReport:
    checks: list[CheckResult]
    alternative: np.ndarray | None
    margin_notes: list[str]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = []
        for c in self.checks:
            flag = "PASS" if c.passed else "FAIL"
            lines.append(f"{flag}  {c.name.ljust(width)}  {c.detail}")
        for note in self.margin_notes:
            lines.append(f"note  {note}")
        return "\n".join(lines)


def repro_example(tol: TolerancePolicy | None = None,
                  matrix=None, y=None) -> ReproReport:
    """Run the audit; matrix/y default to the built-in counterexample.

    The integer checks use exact arithmetic; the LP-backed checks use the
    supplied tolerance policy.  Overriding the matrix or measurement runs
    the same battery on the replacement instance (the integer checks are
    skipped unless the built-ins are in force).
    """
    pol = tol or DEFAULT_TOLERANCES
    builtin = matrix is None and y is None
    phi_rows = COUNTEREXAMPLE_MATRIX if matrix is None else matrix
    y_row = COUNTEREXAMPLE_Y if y is None else y
    phi = np.array(phi_rows, dtype=float)
    meas = SignMeasurement.from_y(np.array(y_row, dtype=int))
    checks: list[CheckResult] = []
    notes: list[str] = []

    if builtin:
        phi_int = [[int(v) for v in row] for row in COUNTEREXAMPLE_MATRIX]
        y_int = [int(v) for v in COUNTEREXAMPLE_Y]
        m = len(phi_int)

        def mat_vec(xs):
            return [sum(phi_int[i][j] * xs[j] for j in range(len(xs))) for i in range(m)]

        for alpha in (1, 2):
            xt = (alpha, alpha, 0, 0)
            v = mat_vec(xt)
            in_relaxation = all(y_int[i] * v[i] >= 0 for i in range(m))
            std = [_int_sign_standard(t) for t in v]
            nonstd = [_int_sign_nonstandard(t) for t in v]
            ok = in_relaxation and std != y_int and nonstd != y_int
            checks.append(CheckResult(
                name=f"relaxation point alpha={alpha}",
                passed=ok,
                detail=(f"x={xt}: in sign cone, standard sign {std} != {y_int}, "
                        f"nonstandard sign {nonstd} != {y_int}"),
            ))

        d = (1, 1, 0, 0)
        vd = mat_vec(d)
        neg_rows = [i for i in range(m) if y_int[i] == -1]
        violated_x = any(
            vd[i] == 0
            and all(y_int[r] * vd[r] >= 0 for r in range(m))
            and any(t != 0 for t in d)
            for i in neg_rows
        )
        violated_phix = any(
            vd[i] == 0
            and all(y_int[r] * vd[r] >= 0 for r in range(m))
            and any(t != 0 for t in vd)
            for i in neg_rows
        )
        checks.append(CheckResult(
            name="integer witness d",
            passed=violated_x and violated_phix,
            detail=f"d={d}: phi@d={tuple(vd)} breaks both nonstandard criteria",
        ))

        x2 = (2, 2, 0, 0)
        v2 = mat_vec(x2)
        norm1 = sum(abs(t) for t in v2)
        checks.append(CheckResult(
            name="relaxation normalization",
            passed=all(y_int[i] * v2[i] >= 0 for i in range(m)) and norm1 == m,
            detail=f"x={x2} satisfies the cone with |phi@x|_1 = {norm1} = m",
        ))

    hx, viol_x = relaxation_consistency(phi, meas, NONSTANDARD_X, pol)
    detail_x = "no violation found"
    if viol_x:
        i, d_w = viol_x[0]
        detail_x = f"row {i} admits cone direction d={np.round(d_w, 6).tolist()}"
    checks.append(CheckResult(
        name="audit nonstandard_x", passed=not hx, detail=detail_x))

    hp, viol_p = relaxation_consistency(phi, meas, NONSTANDARD_PHIX, pol)
    detail_p = "no violation found"
    if viol_p:
        i, d_w = viol_p[0]
        detail_p = f"row {i} admits cone direction d={np.round(d_w, 6).tolist()}"
    checks.append(CheckResult(
        name="audit nonstandard_phix", passed=not hp, detail=detail_p))

    sol = one_bit_bp(phi, meas, pol)
    bp_ok = (sol.status == lp.OPTIMAL
             and abs(sol.objective - 1.0) <= 1e-8
             and bool(np.array_equal(sign_standard(phi @ sol.x, pol), meas.y)))
    if builtin:
        checks.append(CheckResult(
            name="consistent decoder",
            passed=bp_ok,
            detail=(f"status {sol.status}, objective "
                    f"{sol.objective if sol.objective is not None else 'n/a'}, "
                    "output reproduces the measurement"),
        ))
    else:
        checks.append(CheckResult(
            name="consistent decoder",
            passed=sol.status != lp.OPTIMAL or bool(
                np.array_equal(sign_standard(phi @ sol.x, pol), meas.y)),
            detail=f"status {sol.status}",
        ))

    alternative = None
    if builtin and sol.status == lp.OPTIMAL:
        # The optimal face has several vertices; certify whichever one the
        # solver returns and search the face for another optimum.
        problem, enc = encode_bp_lp(phi, meas)
        lp_sol = lp.solve(problem)
        x_opt = lp_sol.primal[enc.x_cols]
        cert = uniqueness_certificate(phi, meas, x_opt, pol)
        alt_full = lp.alternative_optimum(problem, lp_sol)
        alt_x = alt_full[enc.x_cols] if alt_full is not None else None
        alt_ok = (not cert.unique and alt_x is not None
                  and abs(float(np.sum(np.abs(x_opt))) - 1.0) <= 1e-7
                  and abs(float(np.sum(np.abs(alt_x))) - 1.0) <= 1e-7
                  and float(np.linalg.norm(alt_x - x_opt)) > 1e-6)
        alternative = alt_x
        checks.append(CheckResult(
            name="non-uniqueness",
            passed=alt_ok,
            detail=(f"certificate at {np.round(x_opt, 6).tolist()} reports "
                    f"unique={cert.unique} (witness margin {cert.margin:.3g}); "
                    "second optimum "
                    f"{None if alt_x is None else np.round(alt_x, 6).tolist()}"),
        ))
        if abs(cert.margin - pol.margin_tol) <= 10 * pol.margin_tol:
            notes.append(
                f"witness margin {cert.margin:.3g} sits within 10x of "
                f"margin_tol={pol.margin_tol:.3g}; the verdict is threshold-sensitive")
        else:
            notes.append(
                f"witness margin {cert.margin:.3g} vs margin_tol "
                f"{pol.margin_tol:.3g}: verdict is threshold-stable")

    return ReproReport(checks=checks, alternative=alternative, margin_notes=notes)
