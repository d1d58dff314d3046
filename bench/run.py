"""gnlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload chain50 --seed 1 --seconds 20 --trace 0

Run from the root of a gnlab checkout; gnlab is imported from ./src.  Each
session runs in a fresh child process with BLAS/OpenMP threads pinned to 1
(the child imports numpy only after the pin).  Sessions repeat, one at a
time, while another one fits into --seconds; at least two always run.

--trace 0 reports the end-to-end metrics:
  wall_s       median session wall time, first call to last checked output
  peak_rss_mb  median peak resident memory of the session's child process
  setup_s      median time from child start to its first workload call,
               over several set-up-only children and every session child
--trace 1 runs one untraced and one traced session and reports the
per-layer metrics of the traced one (see tracer.py), plus the tracing
overhead.  The last line of stdout is the JSON result; lines before it
record the environment and every operation.  Exits 2 without a result when
the checkout holds no gnlab sources.
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

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from child import THREAD_VARS  # noqa: E402
from tracer import METRICS, TRACE_METRICS  # noqa: E402
from workloads import OPS_PER_SESSION, WORKLOADS  # noqa: E402

SETUP_PROBES = 4            # set-up-only children before each session
# The machine's speed swings by up to 1.7x for seconds to tens of seconds at a
# time, so a single session can land in a slow spell; a median needs two.
MIN_SESSIONS = 2
TIME_LIMIT_S = 170.0        # whole run, so that every run ends within 180 s


class SessionFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, root: Path, workdir: Path, *, trace=False, setup_only=False, deadline: float) -> dict:
    """Start one child, wait for it, and return its result with `setup_s` added."""
    shutil.rmtree(workdir, ignore_errors=True)   # every child starts from fresh inputs
    workdir.mkdir(parents=True)
    result_file = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), args.workload, "--root", str(root),
           "--workdir", str(workdir), "--seed", str(args.seed), "--result", str(result_file)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SessionFailed(f"{args.workload} session exceeded the {TIME_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0 or not result_file.is_file():
        raise SessionFailed(f"child exited {proc.returncode}: {(err or out).strip()[-2000:]}")
    result = json.loads(result_file.read_text())
    result["setup_s"] = result["setup_mark"] - started
    return result


def report_ops(session: dict, label: str) -> None:
    print(f"# session {label}: wall_s={session['wall_s']:.4f} setup_s={session['setup_s']:.4f} "
          f"peak_rss_mb={session['peak_rss_mb']:.1f} loadavg_before={session['loadavg']['before']} "
          f"loadavg_after={session['loadavg']['after']}")
    for op in session["ops"]:
        verdict = "ok" if op["ok"] else "FAILED " + "; ".join(op["problems"])
        print(f"#   {op['op']}: {op['seconds']:.4f} s {verdict}")


def report_env(env: dict) -> None:
    print(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas=[{env['blas']}] commit={env['commit']}")
    print(f"# env threads {env['threads']}")
    unpinned = {var: value for var, value in env["threads"].items() if value != "1"}
    if unpinned:
        msg = f"WARNING: BLAS/OpenMP threads NOT pinned to 1 in the child: {unpinned}"
        print("# " + msg)
        print(msg, file=sys.stderr)


def measure(args, root: Path, workdir: Path) -> tuple[dict, list[dict]]:
    """Run the timed (or traced) sessions; return (metrics, sessions)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    sessions: list[dict] = []
    if args.trace:
        plain = run_child(args, root, workdir, deadline=deadline)
        traced = run_child(args, root, workdir, trace=True, deadline=deadline)
        sessions = [plain, traced]
        if traced.get("unrestored"):
            raise SessionFailed(f"trace wrappers not restored: {traced['unrestored']}")
        metrics = dict(traced["layers"])
        for name, reason in traced["absent"].items():
            print(f"# absent {name}: {reason}")
            print(f"warning: per-layer metric {name} absent: {reason}", file=sys.stderr)
        values = {
            "trace.wall_s": traced["wall_s"],
            "trace.untraced_wall_s": plain["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "trace.coverage": traced["top_level_s"] / traced["wall_s"],
            "trace.spans": traced["spans"],
        }
        metrics.update({name: {"value": values[name], "unit": unit} for name, unit in TRACE_METRICS.items()})
        return metrics, sessions

    setups: list[float] = []
    while True:
        setups += [run_child(args, root, workdir, setup_only=True, deadline=deadline)["setup_s"]
                   for _ in range(SETUP_PROBES)]
        sessions.append(run_child(args, root, workdir, deadline=deadline))
        elapsed = time.monotonic() - start
        next_session = elapsed / len(sessions)
        if len(sessions) >= MIN_SESSIONS and elapsed + next_session > min(args.seconds, TIME_LIMIT_S - 10):
            break
    setups += [s["setup_s"] for s in sessions]
    metrics = {
        "wall_s": {"value": statistics.median(s["wall_s"] for s in sessions), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in sessions), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    print(f"# setup_s samples: {', '.join(f'{v:.4f}' for v in setups)}")
    return metrics, sessions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (the benchmark's own tests)")
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, also write the traced spans to this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "gnlab" / "cli.py").is_file():
        print(f"error: no gnlab sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, sessions = measure(args, root, workdir)
        failure = None
    except SessionFailed as exc:
        metrics, sessions, failure = {}, [], str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if sessions:
        report_env(sessions[0]["env"])
    for i, session in enumerate(sessions):
        report_ops(session, f"{i + 1}/{len(sessions)}" + (" traced" if session.get("layers") else ""))
    if args.spans is not None and sessions and "span_records" in sessions[-1]:
        args.spans.write_text(json.dumps(sessions[-1]["span_records"]))

    attempted = sum(len(s["ops"]) for s in sessions)
    failed = sum(not op["ok"] for s in sessions for op in s["ops"])
    if failure is not None:
        print(f"# FAILED: {failure}")
        print(f"error: {failure}", file=sys.stderr)
        attempted, failed = attempted + OPS_PER_SESSION[args.workload], failed + OPS_PER_SESSION[args.workload]
    wanted = list(METRICS) + list(TRACE_METRICS) if args.trace else ["wall_s", "peak_rss_mb", "setup_s"]
    print(json.dumps({
        "correct": failure is None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in wanted if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
