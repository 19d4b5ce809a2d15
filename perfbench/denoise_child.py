#!/usr/bin/env python3
"""Denoise images through `groupcs.cli.main` in a fresh interpreter.

    python3 perfbench/denoise_child.py JOB.json --trace 0

JOB.json holds one `groupcs` argument list per image.  Prints one JSON
line: per call its exit code, wall seconds and captured output, the
traced layer summary (null with --trace 0), and the peak resident memory
of this process in KiB.
"""

from __future__ import annotations

import sys

from common import pin_blas, use_checkout_sources

pin_blas()
use_checkout_sources()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import groupcs  # noqa: E402,F401  (loads every module the tracer wraps)
import groupcs.cli  # noqa: E402

from tracer import Tracer, traced  # noqa: E402


def run_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = groupcs.cli.main(argv)
        except Exception as exc:  # reported as a failed image; the others still run
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return {"exit_code": code, "seconds": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("job")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    calls = json.loads(Path(args.job).read_text())
    tracer = Tracer() if args.trace else None
    with traced(tracer) if tracer else contextlib.nullcontext():
        results = [run_call(call) for call in calls]
    print(json.dumps({
        "calls": results,
        "layers": tracer.summary() if tracer else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
