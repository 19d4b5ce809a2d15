#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code agree.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads denoise-mixed

Runs each workload --runs times, with seeds 1..N and BENCHMARK.json's
run_seconds, then runs the same again as a second set.  For each workload
and end-to-end metric it prints both medians, the signed change from the
first median to the second, and each set's spread (distance between the
first and third quartile as a share of the median).  A metric passes when
the size of that change, and each spread except that of setup_s, stay
within its bound in BENCHMARK.json.  A workload also needs the same
output hash for a seed in both sets, every run correct, and the same
share of failed operations in both sets.  Exits 0 when everything
passes, 1 otherwise.  --workloads limits the check to some workloads,
which is cheaper while tuning one of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import ROOT

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next((ln.split()[1] for ln in lines if ln.startswith("output_sha256 ")), "")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec, workload, sets):
    """Print one workload's verdict lines; return True when all pass."""
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        if any(v is None for run_values in values for v in run_values):
            print(f"{workload:20s} {name:12s} missing in some run  FAIL")
            ok = False
            continue
        m1, m2 = (statistics.median(v) for v in values)
        change = (m2 - m1) / m1
        s1, s2 = (spread(v) for v in values)
        passed = abs(change) <= bound and (name == "setup_s" or max(s1, s2) <= bound)
        ok = ok and passed
        print(f"{workload:20s} {name:12s} median {m1:10.5g} -> {m2:10.5g} "
              f"{metric['unit']:3s} change {change:+7.2%}  spread {s1:6.2%} {s2:6.2%}  "
              f"bound {bound:.0%}  {'ok' if passed else 'FAIL'}")
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
    same_hash = all(a["digest"] == b["digest"] for a, b in zip(*sets))
    correct = all(r["correct"] for runs in sets for r in runs)
    print(f"{workload:20s} failed share {shares[0]:.4f} / {shares[1]:.4f}, "
          f"hashes {'match' if same_hash else 'DIFFER'}, "
          f"checks {'pass' if correct else 'FAIL'}")
    return ok and shares[0] == shares[1] and same_hash and correct


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workloads to check (default: all)")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.runs < 2 or not set(workloads) <= set(names):
        parser.error(f"need --runs >= 2 and workloads among {', '.join(names)}")
    seeds = range(1, args.runs + 1)
    results = {w: ([], []) for w in workloads}
    for set_index in (0, 1):
        for workload in workloads:
            for seed in seeds:
                start = perf_counter()
                result = run_once(workload, seed, spec["run_seconds"])
                results[workload][set_index].append(result)
                shown = " ".join(f"{k}={v['value']}" for k, v in result["metrics"].items())
                print(f"set {set_index + 1} {workload} seed {seed}: {shown} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"({perf_counter() - start:.0f} s)", file=sys.stderr, flush=True)
    ok = all([compare(spec, w, results[w]) for w in workloads])
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
