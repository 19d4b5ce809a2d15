#!/usr/bin/env python3
"""Run a benchmark workload of groupcs and print its metrics.

    python3 perfbench/run.py --workload cs-dense-robust-128 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py                # every workload, each in its own process

Run from anywhere; the program is imported from the `src` directory next
to this one.  Before each timed round the run builds its inputs afresh
(setup_s is the median over all set-ups); the program is checked once on
the first set.  Identical rounds repeat until the next one would end past
--seconds.  With --trace 1, odd
rounds run under the span tracer and even rounds without it, and the
per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Metric names and units
come from BENCHMARK.json, and every value is a number.  Exits 2 without
a result when the checkout has no program to run.
"""

from __future__ import annotations

import os
import sys

from common import ROOT, WORK, MissingProgram, pin_blas, use_checkout_sources

pin_blas()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def measure(wl, seed, seconds, trace, workdir):
    """Set up, check and time rounds; return (setup times, static problems, rounds).

    Set-ups are spread over the run, before each round, so that setup_s
    samples the machine at the same moments as solve_s.  A round starts
    only if the longest set-up-and-round so far would still end within
    `seconds`.
    """
    from tracer import Tracer

    setup_times, rounds, static = [], [], None
    start = perf_counter()
    longest = 0.0
    while True:
        for _ in range(wl.setups_per_round):
            wl.release()  # drop the previous inputs so two sets never coexist
            began = perf_counter()
            wl.setup(seed, workdir)
            setup_times.append(perf_counter() - began)
        if static is None:
            static = wl.static_problems()
        tracer = Tracer() if trace and len(rounds) % 2 else None
        began = perf_counter()
        rnd = wl.run_round(tracer)
        rnd.traced = tracer is not None
        if rounds and rnd.digest and rounds[0].digest and rnd.digest != rounds[0].digest:
            rnd.problems.append(f"round {len(rounds)} output differs from round 0")
            rnd.failed = rnd.attempted
        rounds.append(rnd)
        longest = max(longest, perf_counter() - began + sum(setup_times[-wl.setups_per_round:]))
        if len(rounds) >= 1 + trace and perf_counter() - start + longest > seconds:
            return setup_times, static, rounds


def end_to_end_metrics(setup_times, rounds):
    """End-to-end values; every one is a number, whatever the rounds did.

    A round whose operation raised is timed up to the raise.  When no
    round produced a PSNR, psnr_db is 0.0, the worst value; such a run
    has failed operations and is not correct.
    """
    psnrs = [r.psnr_db for r in rounds if not r.raised and r.psnr_db == r.psnr_db]
    rss_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
                 + [r.child_rss_kb for r in rounds])
    return {
        "setup_s": statistics.median(setup_times),
        "solve_s": statistics.median(r.solve_s for r in rounds),
        "psnr_db": statistics.median(psnrs) if psnrs else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer_metrics(build_times, rounds):
    """Per-layer values per traced round.

    `measure` runs at least one traced and one untraced round when
    tracing, so every value is a number.  A layer the workload never
    calls reads 0, which is what was measured: no time in it.
    """
    traced_rounds = [r for r in rounds if r.traced]
    n = len(traced_rounds)

    def per_round(layer, key):
        return sum(r.layers.get(layer, {}).get(key, 0) for r in traced_rounds) / n

    out = {"measurement.build_s": statistics.median(build_times) if build_times else 0.0}
    for layer in ("measurement.forward", "measurement.adjoint", "solver.z_step",
                  "lowrank.denoise_group", "lowrank.svd"):
        out[layer + "_s"] = per_round(layer, "total_s")
        out[layer + "_calls"] = per_round(layer, "calls")
    for layer in ("solver.robust_weights", "solver.multiplier_update", "patches.build_groups",
                  "patches.aggregate_groups", "penalties.eval", "metrics.psnr", "pgm.read",
                  "pgm.write"):
        out[layer + "_s"] = per_round(layer, "total_s")
    out["penalties.calls"] = per_round("penalties.eval", "calls")
    out["patches.groups"] = per_round("patches.build_groups", "count")
    out["solver.self_s"] = per_round("solver.recover", "self_s")
    out["solver.z_step_self_s"] = per_round("solver.z_step", "self_s")
    out["lowrank.denoise_group_self_s"] = per_round("lowrank.denoise_group", "self_s")
    out["cli.self_s"] = per_round("cli.main", "self_s")
    out["trace.self_sum_s"] = sum(row["self_s"] for r in traced_rounds
                                  for row in r.layers.values()) / n
    out["trace.solve_s"] = sum(r.solve_s for r in traced_rounds) / n
    out["trace.untraced_solve_s"] = statistics.median(r.solve_s for r in rounds if not r.traced)
    out["trace.overhead_s"] = out["trace.solve_s"] - out["trace.untraced_solve_s"]
    return out


def run_one(name, seed, seconds, trace, spec):
    use_checkout_sources()
    from workloads import WORKLOADS

    print("env " + json.dumps(environment()), flush=True)
    wl = WORKLOADS[name]()
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, static, rounds = measure(wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    problems = [f"check: {p}" for p in static]
    problems += [f"round {i}: {p}" for i, r in enumerate(rounds) for p in r.problems]
    attempted = sum(r.attempted for r in rounds)
    failed = attempted if static else sum(r.failed for r in rounds)
    correct = not static and all(not r.problems for r in rounds)
    if trace:
        values = per_layer_metrics(wl.build_times, rounds)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(setup_times, rounds)
        wanted = spec["end_to_end"]
    print(f"workload {name} seed {seed}: {len(rounds)} rounds, "
          f"solve_s {[round(r.solve_s, 4) for r in rounds]}, "
          f"setup_s {[round(t, 4) for t in setup_times]}")
    print(f"output_sha256 {rounds[0].digest or 'none'}")
    for p in problems:
        print("problem: " + p)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }


def run_all(args, spec):
    """Run every workload in its own process; print one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        for metric, value in result["metrics"].items():
            print(f"[{name}] {metric} = {value['value']} {value['unit']}")
            combined["metrics"][f"{name}.{metric}"] = value
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args = parse_args(argv, spec)
        if args.workload == "all":
            return run_all(args, spec)
        result = run_one(args.workload, args.seed, args.seconds, args.trace, spec)
    except (MissingProgram, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
