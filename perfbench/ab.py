#!/usr/bin/env python3
"""Interleaved A/B reference runs of the benchmark over EngineOptions.

    python3 perfbench/ab.py --workload tc-skew --a steal=on --b steal=off \
        --workers 4 --pairs 5 --seconds 15

Runs run.py alternately with configuration A and B (A first in odd pairs,
B first in even pairs), each pair on its own seed, and prints each side's
median and quartiles of op_p50_ms plus the per-pair ratio B/A. A
configuration is `steal=on|off` or `mode=dws|global|ssp`. A pair with an
incorrect result on either side is reported and left out of the figures.
The figures in README.md were made with it; they are reference numbers,
not gated.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def measure(args, seed, config):
    """op_p50_ms of one run, or None when its result was incorrect."""
    key, value = config.split("=")
    cmd = [sys.executable, RUN, "--workload", args.workload, "--seed",
           str(seed), "--seconds", str(args.seconds), "--trace", "0",
           f"--{key}", value]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        return None
    return result["metrics"]["op_p50_ms"]["value"]


def summary(values):
    if len(values) < 2:
        return f"{len(values)} correct run(s): {values}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.1f} ms (q1 {q1:.1f}, q3 {q3:.1f})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--a", required=True)
    parser.add_argument("--b", required=True)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    a_ms, b_ms = [], []
    for i in range(args.pairs):
        seed = args.first_seed + i
        pair = {}
        for config in ([args.a, args.b] if i % 2 == 0 else [args.b, args.a]):
            pair[config] = measure(args, seed, config)
        a, b = pair[args.a], pair[args.b]
        if a is None or b is None:
            wrong = [c for c, ms in pair.items() if ms is None]
            print(f"pair {i + 1} seed {seed}: incorrect result under "
                  f"{' and '.join(wrong)}, left out", flush=True)
            continue
        a_ms.append(a)
        b_ms.append(b)
        print(f"pair {i + 1} seed {seed}: {args.a} {a:.1f} ms, "
              f"{args.b} {b:.1f} ms, ratio {b / a:.3f}", flush=True)
    print(f"{args.workload} {args.a}: {summary(a_ms)}")
    print(f"{args.workload} {args.b}: {summary(b_ms)}")
    ratios = [b / a for a, b in zip(a_ms, b_ms)]
    if ratios:
        print(f"{args.b} / {args.a}: median ratio "
              f"{statistics.median(ratios):.3f}; {args.a} faster in "
              f"{sum(r > 1 for r in ratios)} of {len(ratios)} pairs")


if __name__ == "__main__":
    main()
