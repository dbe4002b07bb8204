#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly and set the spread beside the bounds.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--first-seed 1]

Run it from the repository root. Each run is one ``run.py --trace 0`` with
its own seed (first-seed, first-seed + 1, ...) and BENCHMARK.json's
run_seconds. For every end-to-end metric it prints the median and the
quartiles of the runs (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and the bound of BENCHMARK.json; a spread within a third
of its bound is marked ok. It also prints the share of failed operations of
each run, which must not vary. The figures are kept in
.perfbench_out/steadiness/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

RUN_TIMEOUT_S = 200


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    out = Path(".perfbench_out/steadiness")
    out.mkdir(parents=True, exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            r = runs[-1]
            print(f"{workload} seed {seed} ({time.monotonic() - start:.1f} s): correct={r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items()), flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{workload}: {args.runs} runs, failed share {' '.join(map(str, sorted(shares)))}"
              f"{'' if len(shares) == 1 else '  VARIES'}, correct in {sum(r['correct'] for r in runs)}")
        print(f"{'metric':<14}{'unit':<6}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>9}{'bound':>8}")
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread <= m["bound"] / 3 or m["name"] == "setup_s"
            steady = steady and ok
            summary[m["name"]] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"]}
            print(f"{m['name']:<14}{m['unit']:<6}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}{spread:>9.3f}"
                  f"{m['bound']:>8.2f}  {'ok' if ok else 'WIDE'}")
        print()
        (out / f"{workload}.json").write_text(json.dumps(
            {"seeds": list(range(args.first_seed, args.first_seed + args.runs)),
             "failed_shares": [str(s) for s in sorted(shares)], "metrics": summary}, indent=1))
        steady = steady and len(shares) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
