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
from .decoders import encode_bp_lp
from .linalg import DEFAULT_TOLERANCES, TolerancePolicy
from .signmodel import SignMeasurement, is_consistent

COUNTEREXAMPLE_MATRIX = ((2, -1, 0, 2), (-1, 1, 1, 0))
COUNTEREXAMPLE_Y = (1, -1)


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
    phi = np.array(COUNTEREXAMPLE_MATRIX if matrix is None else matrix, dtype=float)
    meas = SignMeasurement.from_y(np.array(COUNTEREXAMPLE_Y if y is None else y, dtype=int))
    checks: list[CheckResult] = []
    notes: list[str] = []

    if builtin:
        phi_int = np.array(COUNTEREXAMPLE_MATRIX)
        y_int = np.array(COUNTEREXAMPLE_Y)
        y_list = y_int.tolist()

        for alpha in (1, 2):
            xt = (alpha, alpha, 0, 0)
            v = phi_int @ xt
            std = np.sign(v).tolist()
            nonstd = np.where(v >= 0, 1, -1).tolist()
            checks.append(CheckResult(
                name=f"relaxation point alpha={alpha}",
                passed=bool(np.all(y_int * v >= 0)) and std != y_list and nonstd != y_list,
                detail=(f"x={xt}: in sign cone, standard sign {std} != {y_list}, "
                        f"nonstandard sign {nonstd} != {y_list}"),
            ))

        # A cone direction that zeroes a row measured -1 breaks the
        # nonstandard criterion on x when d != 0, and the one on phi@x
        # when phi@d != 0.
        d = (1, 1, 0, 0)
        vd = phi_int @ d
        checks.append(CheckResult(
            name="integer witness d",
            passed=bool(np.all(y_int * vd >= 0) and np.any(vd[y_int == -1] == 0)
                        and np.any(d) and np.any(vd)),
            detail=f"d={d}: phi@d={tuple(vd.tolist())} breaks both nonstandard criteria",
        ))

        x2 = (2, 2, 0, 0)
        v2 = phi_int @ x2
        norm1 = int(np.abs(v2).sum())
        checks.append(CheckResult(
            name="relaxation normalization",
            passed=bool(np.all(y_int * v2 >= 0)) and norm1 == y_int.size,
            detail=f"x={x2} satisfies the cone with |phi@x|_1 = {norm1} = m",
        ))

    for mode in (NONSTANDARD_X, NONSTANDARD_PHIX):
        holds, violations = relaxation_consistency(phi, meas, mode, pol)
        detail = "no violation found"
        if violations:
            i, d_w = violations[0]
            detail = f"row {i} admits cone direction d={np.round(d_w, 6).tolist()}"
        checks.append(CheckResult(name=f"audit {mode}", passed=not holds, detail=detail))

    # One decoder solve serves the consistency check and, on the built-in
    # instance, the search of the optimal face for a second optimum.
    problem, enc = encode_bp_lp(phi, meas)
    sol = lp.solve(problem)
    x_opt = sol.primal[enc.x_cols] if sol.status == lp.OPTIMAL else None
    consistent = x_opt is not None and is_consistent(phi, x_opt, meas, tol=pol)
    if not builtin:
        checks.append(CheckResult(
            name="consistent decoder",
            passed=x_opt is None or consistent,
            detail=f"status {sol.status}",
        ))
        return ReproReport(checks=checks, alternative=None, margin_notes=notes)

    objective = None if x_opt is None else float(np.sum(np.abs(x_opt)))
    checks.append(CheckResult(
        name="consistent decoder",
        passed=consistent and abs(objective - 1.0) <= 1e-8,
        detail=(f"status {sol.status}, objective "
                f"{objective if objective is not None else 'n/a'}, "
                "output reproduces the measurement"),
    ))

    alternative = None
    if x_opt is not None:
        # The optimal face has several vertices; certify whichever one the
        # solver returns and search the face for another optimum.
        cert = uniqueness_certificate(phi, meas, x_opt, pol)
        alt_full = lp.alternative_optimum(problem, sol)
        alternative = alt_full[enc.x_cols] if alt_full is not None else None
        alt_ok = (not cert.unique and alternative is not None
                  and abs(objective - 1.0) <= 1e-7
                  and abs(float(np.sum(np.abs(alternative))) - 1.0) <= 1e-7
                  and float(np.linalg.norm(alternative - x_opt)) > 1e-6)
        checks.append(CheckResult(
            name="non-uniqueness",
            passed=alt_ok,
            detail=(f"certificate at {np.round(x_opt, 6).tolist()} reports "
                    f"unique={cert.unique} (witness margin {cert.margin:.3g}); "
                    "second optimum "
                    f"{None if alternative is None else np.round(alternative, 6).tolist()}"),
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
