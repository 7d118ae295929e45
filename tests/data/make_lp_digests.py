"""Record the bit-identity digests of a seeded corpus of the library's LPs.

    python3 tests/data/make_lp_digests.py            # writes tests/data/lp_digests.json
    python3 tests/data/make_lp_digests.py --per-lp   # prints every LP's digest as JSON
    python3 tests/data/make_lp_digests.py --subsequence-of PARENT.json

The corpus holds seeded LPs of every family the library builds: the
witness-margin (_sign_witness_margin), membership-margin (_membership_margin)
and l0_min LPs of a criterion-5 family of small matrices, the
relaxation_consistency and relaxation_gd LPs, one_bit_bp at 8x16, 20x40 and
40x80, the witness LP of uniqueness_certificate at each 40x80 decode, and
alternative_optimum; and small LPs whose ratio tests see near-ties.
Each LP that lp.solve answers is digested from its status, objective and
the bytes of its primal, dual and ray, in the order the library solves
them; a family's digest is the SHA-256 of its LPs' digests in turn.
tests/test_lp_digests.py recomputes the corpus and requires every
family's digest to equal the recorded one.  --per-lp prints
{family: [hex digest of each LP, in solve order]} instead of writing the
file, so two checkouts can be compared LP by LP.  --subsequence-of reads
such a --per-lp output, saved from another checkout, and reports per
family whether this checkout's digests equal it, form an ordered
subsequence of it (the change only dropped LPs and left the rest
bit-identical), or differ; it exits 1 when some family differs.

The recorded file pins the solver's pivots: a change that is meant to leave
every pivot and every returned bit alone must leave it unchanged.  Rerun
only after a deliberate change of pivots, and say why in CHANGES.md.  The
library is imported from the src tree of the checkout that holds this
file, so running the script from a checkout of another commit records that
commit's digests.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "lp_digests.json"
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))

from onebitcs import certify, lp  # noqa: E402
from onebitcs.certify import (  # noqa: E402
    NECESSARY, STANDARD_COND, SUFFICIENT, relaxation_consistency, rrsp_order_k, rrsp_wrt_y,
    uniqueness_certificate)
from onebitcs.decoders import encode_bp_lp, one_bit_bp, relaxation_gd  # noqa: E402
from onebitcs.oracle import l0_min  # noqa: E402
from onebitcs.signmodel import SignMeasurement, sign_nonstandard, sign_standard  # noqa: E402

SEED = 20261019


def _sparse_signal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    x = np.zeros(n)
    x[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    return x


def _criterion5_family(rng: np.random.Generator, draws: int) -> list[np.ndarray]:
    """Dense, row-sparse and zero-column matrices, m, n in [2, 5], three per draw."""
    family = []
    for _ in range(draws):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        row_sparse = np.zeros((m, n))
        row_sparse[np.arange(m), rng.integers(0, n, size=m)] = rng.choice([-1.0, 1.0], m) * (
            0.3 + rng.random(m))
        zero_column = rng.standard_normal((m, n))
        zero_column[:, rng.integers(0, n)] = 0.0
        family += [rng.standard_normal((m, n)), row_sparse, zero_column]
    return family


def _workload(label) -> None:
    """The library calls whose LPs form the corpus; label(name, fn) runs fn
    with its LPs counted under name unless an outer label claims them."""
    rng = np.random.default_rng(SEED)
    for phi in _criterion5_family(rng, 4):
        y = sign_standard(phi @ _sparse_signal(rng, phi.shape[1], min(2, phi.shape[1])))
        if not y.any():
            continue
        rrsp_wrt_y(phi, y, 2, SUFFICIENT)
        rrsp_wrt_y(phi, y, 2, NECESSARY)
        rrsp_order_k(phi, 1, SUFFICIENT)
        label("l0_min", l0_min)(phi, y, k_max=2)
        label("relaxation_consistency", relaxation_consistency)(phi, y, STANDARD_COND)
    for _ in range(3):
        phi = rng.standard_normal((6, 10))
        label("relaxation_gd", relaxation_gd)(phi, sign_nonstandard(phi @ rng.standard_normal(10)))
    for m, n, k, count in ((8, 16, 2, 3), (20, 40, 3, 2)):
        for _ in range(count):
            phi = rng.standard_normal((m, n))
            y = sign_standard(phi @ _sparse_signal(rng, n, k))
            label(f"one_bit_bp_{m}x{n}", one_bit_bp)(phi, y)
    phi = rng.standard_normal((4, 8))
    problem, _ = encode_bp_lp(phi, SignMeasurement.from_y(sign_standard(
        phi @ _sparse_signal(rng, 8, 2))))
    optimum = label("alternative_optimum", lp.solve)(problem)
    label("alternative_optimum", lp.alternative_optimum)(problem, optimum)
    # Small integer LPs whose right-hand sides differ by about 1e-8: their
    # ratio tests see near-ties, which pin the tie tolerance as well.
    for _ in range(60):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        near_ties = lp.LPProblem(c=rng.integers(-1, 4, size=n).astype(float),
                                 a=rng.integers(-2, 3, size=(m, n)).astype(float),
                                 rels=("<=",) * m, sense="max",
                                 b=rng.integers(0, 3, size=m) + 1e-8 * rng.standard_normal(m))
        label("near_ties", lp.solve)(near_ties)
    # Decoder and certificate tableaux wider than 64 columns, whose pivot
    # rows are sparse enough for lp._pivot's column-restricted update.
    for _ in range(3):
        phi = rng.standard_normal((40, 80))
        y = sign_standard(phi @ _sparse_signal(rng, 80, 5))
        sol = label("one_bit_bp_40x80", one_bit_bp)(phi, y)
        label("uniqueness_certificate_40x80", uniqueness_certificate)(phi, y, sol.x)


def _digest(sol: lp.LPSolution) -> bytes:
    h = hashlib.sha256(repr((sol.status, sol.objective_value)).encode())
    for v in (sol.primal, sol.dual, sol.ray):
        h.update(b"-" if v is None else v.dtype.str.encode() + v.tobytes())
    return h.digest()


def per_lp_digests() -> dict[str, list[bytes]]:
    """{family: [digest of each LP, in solve order]} over the seeded corpus."""
    seen: dict[str, list[bytes]] = {}
    names = ["unlabelled"]
    solve = lp.solve

    def recording(p):
        sol = solve(p)
        seen.setdefault(names[-1], []).append(_digest(sol))
        return sol

    def label(name, fn):
        def run(*args, **kwargs):
            names.append(name if names[-1] == "unlabelled" else names[-1])
            try:
                return fn(*args, **kwargs)
            finally:
                names.pop()
        return run

    patches = [(lp, "solve", recording),
               (certify, "_sign_witness_margin",
                label("witness_margin", certify._sign_witness_margin)),
               (certify, "_membership_margin",
                label("membership_margin", certify._membership_margin))]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        _workload(label)
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    return dict(sorted(seen.items()))


def _is_subsequence(part: list[str], whole: list[str]) -> bool:
    rest = iter(whole)
    return all(d in rest for d in part)


def compare_with(parent: dict[str, list[str]]) -> dict[str, str]:
    """{family: "equal" | "subsequence (kept i of j)" | "differs"} of this
    checkout's per-LP digests against a saved --per-lp output."""
    now = {name: [d.hex() for d in ds] for name, ds in per_lp_digests().items()}
    verdicts = {}
    for name in sorted(set(now) | set(parent)):
        mine, theirs = now.get(name, []), parent.get(name, [])
        if mine == theirs:
            verdicts[name] = "equal"
        elif _is_subsequence(mine, theirs):
            verdicts[name] = f"subsequence (kept {len(mine)} of {len(theirs)})"
        else:
            verdicts[name] = "differs"
    return verdicts


def corpus_digests() -> dict[str, dict[str, object]]:
    """{family: {"lps": count, "sha256": digest}} over the seeded corpus."""
    return {name: {"lps": len(ds), "sha256": hashlib.sha256(b"".join(ds)).hexdigest()}
            for name, ds in per_lp_digests().items()}


if __name__ == "__main__":
    if sys.argv[1:] == ["--per-lp"]:
        print(json.dumps({name: [d.hex() for d in ds]
                          for name, ds in per_lp_digests().items()}, indent=2))
    elif len(sys.argv) == 3 and sys.argv[1] == "--subsequence-of":
        verdicts = compare_with(json.loads(Path(sys.argv[2]).read_text(encoding="utf-8")))
        for name, verdict in verdicts.items():
            print(f"{name}: {verdict}")
        sys.exit(1 if "differs" in verdicts.values() else 0)
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--per-lp | --subsequence-of PARENT.json]")
    else:
        DIGESTS.write_text(json.dumps(corpus_digests(), indent=2) + "\n", encoding="utf-8")
