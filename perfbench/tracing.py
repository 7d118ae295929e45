"""Outside-in tracing of onebitcs: spans around every public layer function.

A Tracer rebinds each public function of the traced modules, in every
onebitcs module that holds a reference to it (callers import by name, so
rebinding only the defining module would miss their calls), and restores
the originals on exit.  Spans are kept in memory as
(name id, start ns, end ns, parent span, operation id, note) and analysed
or written out after the traced pass.  The library source is untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter_ns

import numpy as np

LAYERS = ("lp", "decoders", "certify", "oracle", "linalg", "experiment")
# Input validators called once per LP row; spans around them would cost
# more than the work they time.  Their time stays in the caller's self time.
UNTRACED = frozenset({"linalg.as_vector", "linalg.as_matrix"})


def _solve_note(args, kwargs, out):
    """(status, tableau cells) of one lp.solve call.

    The cells are computed from the problem's shape as (r+1)(n_std+r+1),
    the size of the dense two-phase tableau, not counted by the solver.
    """
    p = args[0] if args else kwargs["p"]
    n_std = p.n_vars + int(np.count_nonzero(p.free)) + sum(1 for r in p.rels if r != "=")
    return out.status, (p.n_rows + 1) * (n_std + p.n_rows + 1)


def _audit_note(args, kwargs, out):
    """Rows audited by one relaxation_consistency call."""
    y = args[1] if len(args) > 1 else kwargs["y"]
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    y = np.asarray(getattr(y, "y", y))
    return int(np.count_nonzero(y)) if mode == "standard" else int(np.count_nonzero(y == -1))


NOTES = {"lp.solve": _solve_note, "certify.relaxation_consistency": _audit_note}


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op = -1
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op, None)
            if note is not None:
                spans[idx] = (nid, t0, t1, parent, self.op, note(args, kwargs, out))
            return out

        return traced

    def __enter__(self) -> "Tracer":
        originals = {}
        for short in LAYERS:
            module = sys.modules[f"onebitcs.{short}"]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    originals[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "onebitcs" and not mod_name.startswith("onebitcs."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        problem = sys.modules["onebitcs.lp"].LPProblem
        from_rows = problem.__dict__["from_rows"]
        self._patches.append((problem, "from_rows", from_rows))
        problem.from_rows = classmethod(self._wrap("lp.from_rows", from_rows.__func__))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "note"],
                       "names": self.names, "spans": self.spans}, fh)


def layer_metrics(names: list[str], spans: list[tuple], wall_ns: int) -> dict:
    """Per-layer numbers of one traced pass, as {metric: (value, unit)}.

    <layer>.calls counts spans, <layer>.ms sums the outermost span of each
    nesting of that layer, <layer>.self_ms subtracts the time covered by
    direct child spans.  bench.self_ms is traced wall time outside every
    span, so the self times plus bench.self_ms account for the wall time;
    trace.accounted_share reports that sum over the wall time.
    """
    n_names = len(names)
    calls = [0] * n_names
    incl = [0] * n_names
    self_ns = [0] * n_names
    child_ns = [0] * len(spans)
    for nid, t0, t1, parent, _op, _note in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    solve_id = names.index("lp.solve") if "lp.solve" in names else -1
    audit_id = (names.index("certify.relaxation_consistency")
                if "certify.relaxation_consistency" in names else -1)
    solve_ms, solve_status, cells, audit_solves, audited = [], [], 0, 0, 0
    root_ns = 0
    for idx, (nid, t0, t1, parent, _op, note) in enumerate(spans):
        dur = t1 - t0
        calls[nid] += 1
        self_ns[nid] += dur - child_ns[idx]
        if parent < 0:
            root_ns += dur
        nested, under_audit, p = False, False, parent
        while p >= 0:
            pnid = spans[p][0]
            nested |= pnid == nid
            under_audit |= pnid == audit_id
            p = spans[p][3]
        if not nested:
            incl[nid] += dur
        if nid == solve_id:
            solve_ms.append(dur / 1e6)
            if note is not None:
                solve_status.append(note[0])
                cells += note[1]
            audit_solves += under_audit
        elif nid == audit_id and note is not None:
            audited += note

    out: dict[str, tuple[float, str]] = {}
    for nid, name in enumerate(names):
        out[f"{name}.calls"] = (calls[nid], "count")
        out[f"{name}.ms"] = (incl[nid] / 1e6, "ms")
        out[f"{name}.self_ms"] = (self_ns[nid] / 1e6, "ms")
    out["lp.solve.ms_per_call.p50"] = (
        float(np.median(solve_ms)) if solve_ms else 0.0, "ms")
    out["lp.solve.optimal_share"] = (
        solve_status.count("optimal") / len(solve_status) if solve_status else 0.0, "share")
    out["lp.solve.stalled"] = (solve_status.count("stalled"), "count")
    out["lp.tableau_cells"] = (cells, "computed_cells")
    out["certify.relaxation_consistency.lps_per_row"] = (
        audit_solves / audited if audited else 0.0, "solves/row")
    bench_ns = wall_ns - root_ns
    out["bench.self_ms"] = (bench_ns / 1e6, "ms")
    out["trace.accounted_share"] = ((sum(self_ns) + bench_ns) / wall_ns, "share")
    return out
