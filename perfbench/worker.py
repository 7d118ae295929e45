"""Run one workload in this fresh process and print one JSON object.

run.py starts this script once per measured process.  It pins the BLAS
thread pools to one thread through the environment before numpy is
imported.  Stdout carries nothing but the final JSON line.

Untraced runs time closed-loop operations until --seconds have passed.
Traced runs time the first half of that untraced, then replay the same
operations with every public layer function wrapped in spans; the ratio of
the two passes' operation times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import BLAS_THREAD_VARS  # noqa: E402

# Single-threaded BLAS, pinned before anything imports numpy; every import
# of a module that imports numpy comes below this.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before the BLAS thread pools were pinned")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from perfbench import ROOT, LibraryMissing, speed  # noqa: E402
from perfbench.tracing import Tracer, layer_metrics  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
# Problems listed per result; the counts cover all of them.
PROBLEMS_SHOWN = 20


@dataclass
class Done:
    op: object
    result: object
    error: str | None
    seconds: float


def run_ops(wl, ops, deadline: float | None = None, tracer=None,
            probes: list[float] | None = None) -> list[Done]:
    """Closed loop, one client: each operation starts when the previous
    one has returned.  Stops when ops run out, or at the deadline once at
    least one operation of a latency kind has completed.  With a probes
    list, times the speed probe between operations every PROBE_INTERVAL_S."""
    done: list[Done] = []
    ops = iter(ops)
    timed = False
    last_probe = -math.inf
    while deadline is None or not timed or time.perf_counter() < deadline:
        if probes is not None and time.perf_counter() - last_probe >= speed.PROBE_INTERVAL_S:
            probes.append(speed.probe())
            last_probe = time.perf_counter()
        op = next(ops, None)
        if op is None:
            break
        if tracer is not None:
            tracer.op = len(done)
        t0 = time.perf_counter()
        try:
            result, error = wl.run(op), None
        except Exception as exc:  # a raising operation is a failed one
            result, error = None, f"{type(exc).__name__}: {exc}"
        done.append(Done(op, result, error, time.perf_counter() - t0))
        timed |= op.kind in wl.latency_kinds
    return done


def units(op) -> int:
    """Records one operation produces: trials x decoders for an experiment call."""
    if op.kind == "experiment":
        cfg = op.inputs[0]
        return cfg.trials * len(cfg.decoders) * len(cfg.k_list)
    return 1


def check(wl, done: list[Done]) -> list[tuple[Done, list[str]]]:
    return [(d, [d.error] if d.error else wl.check(d.op, d.result)) for d in done]


def tally(wl, checked, probes: bool) -> tuple[int, int, list[str]]:
    """(attempted units, failed units, problem lines) over counted or probe ops."""
    attempted = failed = 0
    lines = []
    for d, problems in checked:
        if (d.op.kind in wl.probe_kinds) != probes:
            continue
        n = units(d.op)
        attempted += n
        failed += min(n, len(problems)) if not d.error else n
        lines += [f"{d.op.kind}[{d.op.index}]: {p}" for p in problems]
    return attempted, failed, lines


def environment(args) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def untraced(wl, plan, args, setup_s: float) -> dict:
    probes: list[float] = []
    t0 = time.perf_counter()
    done = run_ops(wl, plan, deadline=t0 + args.seconds, probes=probes)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    body = [d for d in done if d.op.kind in wl.latency_kinds]
    latency = [1000.0 * d.seconds / units(d.op) for d in body]
    rate = sum(units(d.op) for d in body) / sum(d.seconds for d in body)
    probe_ms = 1000.0 * float(np.median(probes))
    # Multiplies a raw time into a time at the probe's reference speed.
    to_ref = speed.PROBE_REFERENCE_MS / probe_ms
    p50, p90 = float(np.percentile(latency, 50)), float(np.percentile(latency, 90))
    checked = check(wl, done)
    attempted, failed, problems = tally(wl, checked, probes=False)
    p_attempted, p_failed, p_problems = tally(wl, checked, probes=True)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rate / to_ref, "1/s"),
        "op_ms.p50": (p50 * to_ref, "ms"),
        "op_ms.p90": (p90 * to_ref, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "raw.ops_per_s": (rate, "1/s"),
        "raw.op_ms.p50": (p50, "ms"),
        "raw.op_ms.p90": (p90, "ms"),
        "speed.probe_ms.p50": (probe_ms, "ms"),
        "speed.probes": (len(probes), "count"),
        "wall_s": (wall, "s"),
        "fail_rate": ((failed + p_failed) / (attempted + p_attempted), "share"),
        "latency_samples": (len(latency), "count"),
    }
    targets = [1000.0 * d.seconds for d in done if d.op.kind == "target"]
    if targets:
        metrics["target_op_ms.p50"] = (float(np.median(targets)) * to_ref, "ms")
        metrics["raw.target_op_ms.p50"] = (float(np.median(targets)), "ms")
    info = {"problems": problems[:PROBLEMS_SHOWN]}
    if p_attempted:
        metrics["scaled_fail_rate"] = (p_failed / p_attempted, "share")
        info["scaled_problems"] = p_problems[:PROBLEMS_SHOWN]
    info.update(wl.info([(d.op, d.result) for d in done if d.result is not None]))
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def traced(wl, plan, args) -> dict:
    untraced_probes: list[float] = []
    first = run_ops(wl, plan, deadline=time.perf_counter() + args.seconds / 2.0,
                    probes=untraced_probes)
    traced_probes: list[float] = []
    with Tracer() as tracer:
        t0 = time.perf_counter_ns()
        second = run_ops(wl, [d.op for d in first], tracer=tracer, probes=traced_probes)
        wall_ns = time.perf_counter_ns() - t0

    metrics = layer_metrics(tracer.names, tracer.spans, wall_ns)
    # Operation time of the same operations with and without spans, each
    # at the reference speed of its own half of the run.
    with_spans = sum(d.seconds for d in second) / np.median(traced_probes)
    without = sum(d.seconds for d in first) / np.median(untraced_probes)
    metrics["trace.overhead_share"] = (float(with_spans / without) - 1.0, "share")
    metrics["trace.ops"] = (len(second), "count")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)

    checked = check(wl, first + second)
    attempted, failed, problems = tally(wl, checked, probes=False)
    _, _, p_problems = tally(wl, checked, probes=True)
    info = {"problems": problems[:PROBLEMS_SHOWN], "spans_file": str(spans_path.relative_to(ROOT))}
    if p_problems:
        info["scaled_problems"] = p_problems[:PROBLEMS_SHOWN]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched-at", type=float, required=True,
                    help="time.monotonic() of the launcher just before it started this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only setup_s")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    try:
        from perfbench import workloads
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    wl.run(wl.warmup())
    plan = wl.plan()
    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        result = {"setup_s": setup_s}
    elif args.trace:
        result = traced(wl, plan, args)
    else:
        result = untraced(wl, plan, args, setup_s)
    result["env"] = environment(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
