"""Record the answers the benchmark checks sweep-small and experiment-mid against.

    python3 perfbench/make_reference.py sweep        # reference/sweep_small.csv
    python3 perfbench/make_reference.py experiment   # reference/experiment_mid.csv

The stored files were made with the library as it stood when the benchmark
was added.  Rerun only to re-record after a deliberate change of answers;
a rerun overwrites the recorded verdicts the checks compare against.
"""

from __future__ import annotations

import csv
import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import BLAS_THREAD_VARS  # noqa: E402

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from perfbench import workloads as w  # noqa: E402


def record_sweep(path: Path = w.SWEEP_REFERENCE) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["index", "m", "n", "digest", "rrsp_wrt_y", "l0_min",
                      "relaxation_holds", "rrsp_order_k"])
        for index in range(w.SWEEP_POOL_SIZE):
            phi, y = w.sweep_instance(w.SWEEP_POOL_ENTROPY, index)
            verdicts, _, _ = w.sweep(phi, y)
            out.writerow([index, *phi.shape, w.input_digest(phi, y), *verdicts.row()])


def record_experiment(path: Path = w.EXPERIMENT_REFERENCE) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["seed", "k", "csv_sha256"])
        for j in range(w.EXPERIMENT_POOL_SIZE):
            seed = w.EXPERIMENT_SEED_BASE + j
            for k in w.EXPERIMENT_KS:
                _, text = w.experiment(w.experiment_config(seed, k))
                out.writerow([seed, k, hashlib.sha256(text.encode()).hexdigest()])


if __name__ == "__main__":
    targets = {"sweep": record_sweep, "experiment": record_experiment}
    if len(sys.argv) != 2 or sys.argv[1] not in targets:
        sys.exit(__doc__)
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    targets[sys.argv[1]]()
