#!/usr/bin/env python3
"""The spinwehrl benchmark: one run of one workload, ending in one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It runs the workload's operations through
``spinwehrl.cli.main`` in a fresh worker process with BLAS and OpenMP pinned
to one thread: a warm-up pass, then timed passes until S seconds are spent.
It checks every output against computations made apart from the program and
prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from passes run with the wrappers of
spans.py installed, alternating with untraced passes that give the tracing
overhead.

Workloads: run_spin_half, run_spin_j and compare_bundled, the ones in
BENCHMARK.json, and sweep_short, which runs by hand (see workloads.py and
README.md). Everything it writes goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")

# Fresh processes that only set up; with the worker's own set-up they give
# three samples of setup_s, whose median is reported.
SETUP_PROBES = 2
# The run must end within 180 s, whatever the worker does.
DEADLINE_S = 170.0

# One BLAS/OpenMP thread: on two shared cores the default threading doubles
# the CPU time of a run and saves no wall time, and an idle OpenBLAS thread
# spinning beside the measurement adds noise.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMBA_NUM_THREADS",
    )
}


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 1


def start_worker(plan: Path, result: Path, deadline: float, extra: list) -> dict:
    """Run worker.py to completion and return its result file, or raise."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan), "--result", str(result), *extra]
    env = dict(os.environ, **PINNED_THREADS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the worker")
    # subprocess.run kills the worker and waits for it if the timeout expires.
    proc = subprocess.run(cmd, env=env, timeout=timeout, stdout=subprocess.PIPE, text=True)
    if proc.stdout:
        print(proc.stdout, end="")
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def check_op(op: dict, rec: dict) -> list:
    if rec["code"] is None:
        return [rec["stderr"].strip().splitlines()[-1]]
    if op["kind"] == "compare":
        return checks.check_compare(op, rec["code"], rec["stdout"])
    if rec["code"] != 0:
        return [f"exit code {rec['code']}: {rec['stderr'].strip()}"]
    if op["kind"] == "sweep":
        return checks.check_sweep(op)
    if "states" in op["check"]:
        return checks.check_run_spin_j(op)
    return checks.check_run_spin_half(op)


def judge(ops: list, passes: list) -> tuple:
    """(attempted, failed, correct) over every pass of the run.

    The files on disk are those of the last pass, and they are what the
    checks read. An operation of any pass fails if the check fails or if its
    exit code, printed output or files differ from the last pass's: identical
    configs must give byte-identical output. correct is false if any failure
    is not the named quadrature fault of the rotating-field compares.
    """
    last = passes[-1]["ops"]
    problems = [check_op(op, rec) for op, rec in zip(ops, last)]
    attempted = failed = 0
    unexpected = []
    for p in passes:
        for op, rec, ref, prob in zip(ops, p["ops"], last, problems):
            attempted += 1
            same = (rec["code"], rec["stdout"], rec["files"]) == (ref["code"], ref["stdout"], ref["files"])
            if same and not prob:
                continue
            failed += 1
            if not (same and checks.is_known_quadrature_fault(op, rec["code"], rec["stdout"])):
                unexpected.append(f"{op['label']}: {'; '.join(prob) or 'output differs between passes'}")
    for op, prob in zip(ops, problems):
        print(f"check {op['label']}: {'ok' if not prob else 'FAILED: ' + '; '.join(prob)}")
    for line in dict.fromkeys(unexpected):
        print(f"unexpected failure: {line}")
    return attempted, failed, not unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not Path("src/spinwehrl/cli.py").is_file():
        return fail("src/spinwehrl/cli.py not found; run from the root of a spinwehrl checkout")
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; choose one of {', '.join(workloads.NAMES)}")
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, out)
    plan = out / "plan.json"
    plan.write_text(json.dumps({"src": "src", "configs": sorted({op["config"] for op in ops}), "ops": ops}))

    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = start_worker(plan, out / f"setup_{i}.json", deadline, ["--setup-only"])
                setup.append(probe["setup_s"])
        result = start_worker(plan, out / "worker.json", deadline,
                              ["--seconds", repr(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    setup.append(result["setup_s"])

    passes = [result["warmup"], *result["untraced"], *result["traced"]]
    attempted, failed, correct = judge(ops, passes)
    untraced = statistics.median(p["wall_s"] for p in result["untraced"])
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print("untraced pass wall_s: " + " ".join(f"{p['wall_s']:.4f}" for p in result["untraced"]))
    for i, op in enumerate(ops):
        print(f"op {op['label']}: median {statistics.median(p['ops'][i]['seconds'] for p in result['untraced']):.4f} s")
    if args.trace:
        traced = [p["layers"] for p in result["traced"]]
        # Counts repeat exactly from pass to pass; median_low keeps them whole.
        values = {name: (statistics.median_low if isinstance(v, int) else statistics.median)(t[name] for t in traced)
                  for name, v in traced[0].items()}
        # Each traced pass runs right after an untraced one; pairing them keeps
        # the machine's slow drift in speed out of the difference.
        pairs = zip(result["untraced"], result["traced"])
        values["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
        print("traced pass wall_s: " + " ".join(f"{p['wall_s']:.4f}" for p in result["traced"]))
    else:
        values = {"wall_s": untraced, "setup_s": statistics.median(setup), "peak_rss_mb": result["peak_rss_mb"]}
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (out / "result.json").write_text(json.dumps({"args": vars(args), "env": result["env"], **line}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
