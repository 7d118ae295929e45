"""Run the onebitcs benchmark: each workload in fresh, single-threaded processes.

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload decode-large --seed 7 --seconds 40 --trace 0

Prints every metric of the run with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
its metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1
the per_layer ones.  Exits 2 without printing a result when the library
cannot be loaded or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT  # noqa: E402

WORKER = ROOT / "perfbench" / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
# The launcher never imports the library, so it names the workloads itself.
WORKLOADS = ("decode-large", "sweep-small", "experiment-mid")
# setup_s is the median over this many fresh processes per untraced run.
SETUPS = 3
# Every worker of one invocation must have ended by then.
TIME_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    cmd = [sys.executable, str(WORKER), *args, "--launched-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = [] if trace else [spawn(common + ["--setup-only"], deadline)["setup_s"]
                               for _ in range(SETUPS - 1)]
    result = spawn(common, deadline)
    if not trace:
        setups.append(result["metrics"]["setup_s"][0])
        result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
        result["info"]["setup_s_samples"] = setups
    return result


def report(name: str, result: dict, wanted: list[dict]) -> dict:
    """Print the full table and return the object for the last output line."""
    print(f"# {name} env {json.dumps(result['env'], sort_keys=True)}")
    for metric, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name:15s} {metric:48s} {value:>16.6g} {unit}")
    print(f"{name:15s} {'attempted':48s} {result['attempted']:>16d}")
    print(f"{name:15s} {'failed':48s} {result['failed']:>16d}")
    for key, value in sorted(result["info"].items()):
        if value:
            print(f"# {name} {key}: {json.dumps(value)}")
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got[1] != spec["unit"]:
            raise WorkerFailed(f"{name}: metric {spec['name']} [{spec['unit']}] "
                               f"not produced as listed, got {got}")
        metrics[spec["name"]] = {"value": got[0], "unit": got[1]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    started = time.monotonic()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        deadline = started + TIME_LIMIT_S * (names.index(name) + 1)
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            line = report(name, result, wanted)
        except WorkerFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        out = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        sys.stdout.flush()
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
