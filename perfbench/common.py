"""Paths and process settings shared by the benchmark's entry points.

Importing this module loads no numpy, so callers can pin the BLAS thread
count with `pin_blas()` before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread, which every machine has.  With more, the speed of the
# dense workload's matrix-vector products would depend on how many cores
# other load leaves free.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no groupcs sources to benchmark."""


def pin_blas():
    """Fix the BLAS thread count for this process and its children.

    Must run before numpy is imported, which reads these variables once.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in _BLAS_VARS:
        os.environ[var] = threads


def use_checkout_sources():
    """Import groupcs from this checkout's `src`, never an installed copy."""
    if not (SRC / "groupcs" / "__init__.py").is_file():
        raise MissingProgram(f"no groupcs sources under {SRC}")
    sys.path.insert(0, str(SRC))
