"""Runs one workload in a fresh process: set-up, a warm-up pass, timed passes.

Started by run.py with the thread counts pinned; it is not meant to be run
by hand. It writes one JSON result file and prints nothing of its own.

    worker.py --plan PLAN --result RESULT [--setup-only] [--seconds S] [--trace 0|1]

With --setup-only the process stops after set-up: importing spinwehrl.cli
and loading and validating every config of the workload, which is what each
CLI invocation pays before its first operation.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_pass(cli, ops, tracer=None):
    """One pass over ops; returns its wall time and what each op left behind."""
    for op in ops:
        for path in op["outputs"]:
            Path(path).unlink(missing_ok=True)
    records = []
    op_seconds = 0.0
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(op["argv"])
            except Exception:  # an escaped exception is a failed operation, not a crash
                code = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t
            op_seconds += seconds
            records.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds})
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    csv_bytes = 0
    for op, rec in zip(ops, records):
        rec["files"] = {}
        for path in op["outputs"]:
            p = Path(path)
            if p.exists():
                data = p.read_bytes()
                csv_bytes += len(data)
                rec["files"][path] = hashlib.sha256(data).hexdigest()
    result = {"wall_s": wall, "ops": records}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(op_seconds)
        result["layers"]["scenarios.csv_bytes"] = csv_bytes
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)

    src = os.path.abspath(plan["src"])
    sys.path.insert(0, src)
    from spinwehrl import _kernels, cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"spinwehrl was imported from {cli.__file__}, not from {src}")
    for path in plan["configs"]:
        with open(path) as fh:
            cli.validate_config(json.load(fh))
    setup_s = time.perf_counter() - T0

    result = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy
        import scipy

        from spans import Tracer

        ops = plan["ops"]
        result["warmup"] = run_pass(cli, ops)
        result["untraced"], result["traced"] = [], []
        spans = []
        start = time.perf_counter()
        while True:
            result["untraced"].append(run_pass(cli, ops))
            if args.trace:
                tracer = Tracer()
                result["traced"].append(run_pass(cli, ops, tracer))
                spans = tracer.spans
            if time.perf_counter() - start >= args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "use_numba": bool(_kernels.USE_NUMBA),
        }
        if args.trace:
            with open(Path(args.result).with_name("spans.json"), "w") as fh:
                json.dump({"columns": ["id", "parent", "layer", "op", "start", "end"],
                           "ops": [op["label"] for op in ops], "spans": spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
