#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles(values, n=4)) as a share of their
median, the figure a metric's bound in BENCHMARK.json is compared with.

    python3 perfbench/spread.py --workload serve --seeds 1-5 [--same-seed]

Run from the repository root after building once; it calls the built
binary directly, from CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default=None)
    p.add_argument("--same-seed", action="store_true", help="rerun the first seed, to separate machine noise from input variation")
    a = p.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    secs = a.seconds or str(bench["run_seconds"])
    binary = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release", "perfbench")
    values = {}
    run_seeds = seeds(a.seeds)
    if a.same_seed:
        run_seeds = [run_seeds[0]] * len(run_seeds)
    for s in run_seeds:
        proc = subprocess.run(
            [binary, "--workload", a.workload, "--seed", str(s), "--seconds", secs, "--trace", "0"],
            capture_output=True, text=True,
        )
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print("\n".join(out) + proc.stderr, file=sys.stderr)
            sys.exit(f"seed {s}: exit code {proc.returncode}")
        res = json.loads(out[-1])
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {s} done", file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        b = bounds.get(k)
        flag = "" if b is None else ("  OK" if spread < b / 3 else ("  <bound" if spread <= b else "  OVER"))
        print(f"{k:40s} median={med:12.5g} spread={spread:6.3f} bound={b}{flag}")


if __name__ == "__main__":
    main()
