"""One benchmark session in a fresh process; started by run.py.

Set-up is the interpreter start, the numpy and gnlab imports and writing the
workload's INI inputs.  The session then runs the workload's operations as
a closed loop and writes one JSON result (timings, operation outcomes, peak
RSS, environment record, and with --trace the per-layer metrics).

    python3 bench/child.py WORKLOAD --root DIR --workdir DIR --seed N --result FILE
                           [--trace] [--setup-only] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def _blas_build(numpy) -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return "; ".join(f"{key}={info.get('name')} {info.get('version')}"
                         for key, info in deps.items() if key in ("blas", "lapack"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(root: Path) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_build(numpy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit,
    }


def run_op(op) -> dict:
    t0 = time.perf_counter()
    try:
        problems, observed = op.run()
    except Exception as exc:  # a failing operation is counted, not fatal to the session
        problems, observed = [f"{type(exc).__name__}: {exc}"], {}
    return {"op": op.name, "ok": not problems, "problems": problems,
            "seconds": time.perf_counter() - t0, "observed": observed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (set-up cost the user pays)
    import gnlab.cli

    src = (args.root / "src").resolve()
    if src not in Path(gnlab.__file__).resolve().parents:
        print(f"error: gnlab imported from {gnlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(args.workload, args.workdir, args.smoke)
    setup_mark = time.monotonic()
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_mark": setup_mark}))
        return 0

    refs = json.loads((Path(__file__).parent / "references.json").read_text())
    ctx = workloads.Context(workdir=args.workdir, seed=args.seed, smoke=args.smoke,
                            refs=refs["smoke" if args.smoke else "full"][args.workload])
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    load_before = os.getloadavg()
    t0 = time.perf_counter()
    ops = [run_op(op) for op in workloads.SESSIONS[args.workload](ctx)]
    wall_s = time.perf_counter() - t0
    load_after = os.getloadavg()

    result = {
        "setup_mark": setup_mark,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "loadavg": {"before": load_before, "after": load_after},
        "env": environment(args.root),
    }
    if tracer is not None:
        result["unrestored"] = tracer.uninstall()
        metrics, absent = tracing.layer_metrics(tracer)
        result["layers"] = metrics
        result["absent"] = absent
        result["top_level_s"] = tracer.top_level_seconds()
        result["spans"] = len(tracer.spans)
        result["span_records"] = tracer.spans
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
