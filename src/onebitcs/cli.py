"""Command-line interface.

Subcommands: decode, certify, audit-relaxation, oracle, yk, experiment,
repro-example.  Matrix files carry a first line "m n" followed by m rows
of n numbers; measurement files carry one line of entries from {-1,0,1}.
Exit codes: 0 on success, 1 when the repro audit fails an assertion, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import lp, oracle
from .certify import (
    NONSTANDARD_PHIX,
    NONSTANDARD_X,
    STANDARD_COND,
    relaxation_consistency,
    uniqueness_certificate,
    witness_is_valid,
)
from .decoders import encode_bp_lp, one_bit_bp, relaxation_gd
from .experiment import ExperimentConfig, run_experiment, summary_json, write_csv, write_summary
from .linalg import DEFAULT_TOLERANCES, TolerancePolicy
from .repro import repro_example
from .signmodel import is_consistent

INFEASIBLE_NOTE = "no signal consistent with the measurement"


def _read_tokens(path: str, empty: str | None = None) -> list[str]:
    """The whitespace-separated tokens of an input file; with `empty` set,
    a file without tokens raises ValueError(f"{path}: {empty}")."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if empty and not tokens:
        raise ValueError(f"{path}: {empty}")
    return tokens


def _parse(path: str, tokens: list[str], convert, error: str) -> list:
    try:
        return [convert(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"{path}: {error}") from exc


def _read_matrix(path: str) -> np.ndarray:
    tokens = _read_tokens(path)
    if len(tokens) < 2:
        raise ValueError(f"{path}: matrix file needs a leading 'm n' header")
    m, n = _parse(path, tokens[:2], int, "malformed matrix header")
    if m < 1 or n < 1:
        raise ValueError(f"{path}: matrix dimensions must be positive")
    body = tokens[2:]
    if len(body) != m * n:
        raise ValueError(
            f"{path}: expected {m * n} entries for a {m}x{n} matrix, got {len(body)}")
    a = np.array(_parse(path, body, float, "non-numeric matrix entry")).reshape(m, n)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return a


def _read_measurement(path: str) -> np.ndarray:
    vals = _parse(path, _read_tokens(path, "empty measurement file"), int,
                  "measurement entries must be integers")
    if any(v not in (-1, 0, 1) for v in vals):
        raise ValueError(f"{path}: measurement entries must lie in -1, 0, 1")
    return np.array(vals, dtype=int)


def _read_signal(path: str) -> np.ndarray:
    x = np.array(_parse(path, _read_tokens(path, "empty signal file"), float,
                        "non-numeric signal entry"))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: signal entries must be finite")
    return x


def _emit(payload: dict, out: str | None) -> None:
    if out:
        write_summary(payload, out)
    else:
        sys.stdout.write(summary_json(payload))


def _vec(v) -> list | None:
    return None if v is None else [float(t) for t in np.asarray(v).ravel()]


# Every handler takes the parsed arguments, the tolerance policy and the
# --matrix and --y inputs, read once by main (None where not given).

def _cmd_decode(args: argparse.Namespace, pol, phi, y) -> int:
    if args.decoder == "bp":
        sol = one_bit_bp(phi, y)
        payload = {
            "decoder": "bp",
            "status": sol.status,
            "x": _vec(sol.x),
            "objective": sol.objective,
            "alpha": _vec(sol.alpha),
            "beta": _vec(sol.beta),
        }
        if sol.status == lp.INFEASIBLE:
            payload["note"] = INFEASIBLE_NOTE
        elif sol.status == lp.OPTIMAL:
            payload["consistent"] = is_consistent(phi, sol.x, y, tol=pol)
    else:
        x, obj, consistent = relaxation_gd(phi, y, pol)
        payload = {
            "decoder": "gd",
            "status": lp.OPTIMAL if x is not None else lp.INFEASIBLE,
            "x": _vec(x),
            "objective": None if math.isinf(obj) else obj,
            "consistent": consistent,
        }
    _emit(payload, args.out)
    return 0


def _cmd_certify(args: argparse.Namespace, pol, phi, y) -> int:
    if args.x:
        x = _read_signal(args.x)
        source = "supplied"
    else:
        sol = one_bit_bp(phi, y)
        if sol.status != lp.OPTIMAL:
            payload = {"status": sol.status}
            if sol.status == lp.INFEASIBLE:
                payload["note"] = INFEASIBLE_NOTE
            _emit(payload, args.out)
            return 0
        x = sol.x
        source = "decoder"
    report = uniqueness_certificate(phi, y, x, pol)
    witness = None
    recheck = None
    if report.witness is not None:
        witness = {
            "eta": _vec(report.witness.eta),
            "w": _vec(report.witness.w),
            "margin": report.witness.margin,
        }
        recheck = witness_is_valid(
            phi, report.witness, report.s_plus, report.s_minus,
            *report.witness_rows, pol)
    payload = {
        "signal_source": source,
        "x": _vec(x),
        "unique": report.unique,
        "h_full_rank": report.h_full_rank,
        "h_rank": report.h_rank,
        "rrsp_holds": report.rrsp_holds,
        "margin": report.margin,
        "s_plus": list(report.s_plus),
        "s_minus": list(report.s_minus),
        "active_rows": [int(i) for i in report.active.active],
        "witness": witness,
        "witness_recheck": recheck,
        "notes": list(report.notes),
    }
    _emit(payload, args.out)
    return 0


def _cmd_audit(args: argparse.Namespace, pol, phi, y) -> int:
    modes = [STANDARD_COND] if args.mode == "standard" else [NONSTANDARD_X, NONSTANDARD_PHIX]
    payload = {}
    for mode in modes:
        holds, violations = relaxation_consistency(phi, y, mode, pol)
        payload[mode] = {
            "holds": holds,
            "violations": [{"row": int(i), "d": _vec(d)} for i, d in violations],
        }
    _emit(payload, args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace, pol, phi, y) -> int:
    sparsest = oracle.l0_min(phi, y, k_max=args.k, tol=pol)
    problem, _ = encode_bp_lp(phi, y)
    vertex = oracle.lp_vertex_oracle(problem, tol=pol)
    bp = one_bit_bp(phi, y)
    payload = {
        "l0_min": None if math.isinf(sparsest.value) else int(sparsest.value),
        "l0_witnesses": [
            {"s_plus": list(pat[0]), "s_minus": list(pat[1]), "x": _vec(x)}
            for pat, x in sparsest.witnesses
        ],
        "vertex_oracle": {
            "status": vertex.status,
            "objective": vertex.objective_value,
        },
        "decoder": {
            "status": bp.status,
            "objective": bp.objective,
        },
    }
    if vertex.status == lp.OPTIMAL and bp.status == lp.OPTIMAL:
        payload["objectives_match"] = bool(
            abs(vertex.objective_value - bp.objective) <= 1e-7)
    _emit(payload, args.out)
    return 0


def _cmd_yk(args: argparse.Namespace, pol, phi, y) -> int:
    res = oracle.enumerate_Yk(phi, args.k, tol=pol)
    payload = {
        "k": args.k,
        "count": len(res),
        "measurements": [[int(v) for v in meas.y] for meas in res],
    }
    _emit(payload, args.out)
    return 0


def _cmd_experiment(args: argparse.Namespace, pol, phi, y) -> int:
    try:
        k_list = tuple(int(t) for t in args.k.split(","))
    except ValueError as exc:
        raise ValueError(f"--k expects a comma-separated integer list, got {args.k!r}") from exc
    decoders = tuple(args.decoders.split(","))
    cfg = ExperimentConfig(
        m=args.m, n=args.n, k_list=k_list, trials=args.trials,
        ensemble=args.ensemble, seed=args.seed, tolerances=pol,
        decoders=decoders,
    )
    t0 = time.perf_counter()
    records, summary = run_experiment(cfg)
    wall = time.perf_counter() - t0
    csv_path = f"{args.out}.csv"
    json_path = f"{args.out}.json"
    write_csv(records, csv_path)
    write_summary(summary, json_path)
    print(f"wrote {csv_path} ({len(records)} rows) and {json_path}")
    print(f"wall time: {wall:.2f} s", file=sys.stderr)
    return 0


def _cmd_repro(args: argparse.Namespace, pol, phi, y) -> int:
    report = repro_example(pol)
    print(report.table())
    if args.out:
        payload = {
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
            "alternative": _vec(report.alternative),
            "notes": report.margin_notes,
        }
        _emit(payload, args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebitcs",
        description="One-bit compressive sensing: consistent decoding, "
                    "uniqueness certificates, relaxation audits, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers for the flags the subcommands share.
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--matrix", required=True)
    pair.add_argument("--y", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol-rank", type=float, default=DEFAULT_TOLERANCES.rank_tol,
                     help="pivot threshold for rank decisions")
    tol.add_argument("--tol-active", type=float, default=DEFAULT_TOLERANCES.active_tol,
                     help="row residual below which a constraint counts as active")
    tol.add_argument("--tol-margin", type=float, default=DEFAULT_TOLERANCES.margin_tol,
                     help="minimum margin for strict inequalities")
    tol.add_argument("--tol-sign", type=float, default=DEFAULT_TOLERANCES.sign_tol,
                     help="dead zone of the standard sign")

    p = sub.add_parser("decode", parents=[pair, out, tol],
                       help="run a decoder on a matrix/measurement pair")
    p.add_argument("--decoder", choices=("bp", "gd"), default="bp")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("certify", parents=[pair, out, tol],
                       help="uniqueness certificate at a signal")
    p.add_argument("--x", help="signal file; defaults to the decoder output")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("audit-relaxation", parents=[pair, out, tol],
                       help="check whether the legacy relaxation must reproduce y")
    p.add_argument("--mode", choices=("standard", "nonstandard"), default="standard")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("oracle", parents=[pair, out, tol],
                       help="brute-force ground truth for one instance")
    p.add_argument("--k", type=int, help="cap for the sparsest-support sweep")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("yk", parents=[out, tol],
                       help="enumerate the sign images of k-sparse signals")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_yk)

    p = sub.add_parser("experiment", parents=[tol], help="seeded recovery experiment")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True, help="comma-separated sparsity list")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--ensemble", choices=("gaussian", "unit_sphere_rows", "rademacher"),
                   default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--decoders", default="bp", help="comma-separated subset of bp,gd")
    p.add_argument("--out", default="onebitcs-experiment",
                   help="output prefix for .csv and .json")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("repro-example", parents=[out, tol],
                       help="run the built-in counterexample audit")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        pol = TolerancePolicy(
            rank_tol=args.tol_rank,
            active_tol=args.tol_active,
            margin_tol=args.tol_margin,
            sign_tol=args.tol_sign,
        )
        phi = _read_matrix(args.matrix) if getattr(args, "matrix", None) else None
        y = _read_measurement(args.y) if getattr(args, "y", None) else None
        return args.func(args, pol, phi, y)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
