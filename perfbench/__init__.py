"""Benchmark of onebitcs: seeded workloads, answer checks, outside-in tracing.

The library is imported from the `src` tree of the checkout that holds this
directory, never from an installed copy, so a run always measures the code
next to it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Environment variables that cap the thread pools numpy's BLAS may start.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class LibraryMissing(RuntimeError):
    """The checkout has no importable onebitcs source tree."""


def load_library():
    """Import onebitcs from ROOT/src and return the package.

    Raises LibraryMissing when the source tree is absent or when the import
    resolves to a copy outside it.
    """
    if not (SRC / "onebitcs" / "__init__.py").is_file():
        raise LibraryMissing(f"no onebitcs package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import onebitcs

    where = Path(onebitcs.__file__).resolve()
    if SRC not in where.parents:
        raise LibraryMissing(f"onebitcs imported from {where}, not from {SRC}")
    return onebitcs
