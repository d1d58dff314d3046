"""Pin the correctness references of every workload into references.json.

    python3 bench/pin_references.py [--seed 3]

Run from the root of a checkout whose outputs are trusted.  Each workload
runs once at full and once at smoke size; the pinned values are the
energies (checked at relative 1e-8) and the oracle call totals (checked
exactly).  The file records the commit and seed they came from.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = Path(__file__).resolve().parent / "references.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    pinned: dict = {"smoke": {w: {} for w in WORKLOADS}, "full": {w: {} for w in WORKLOADS}}
    REFERENCES.write_text(json.dumps(pinned))   # the children read it; every check fails open
    commit = "unknown"
    workdir = root / ".bench_work" / f"pin-{os.getpid()}"
    try:
        for size in ("smoke", "full"):
            for workload in WORKLOADS:
                run_args = argparse.Namespace(workload=workload, seed=args.seed, smoke=size == "smoke")
                result = run_child(run_args, root, workdir, deadline=time.monotonic() + 900)
                commit = result["env"]["commit"]
                for op in result["ops"]:
                    for kind, values in op["observed"].items():
                        pinned[size][workload].setdefault(kind, {}).update(values)
                print(f"{size} {workload}: {pinned[size][workload]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pinned["provenance"] = {"commit": commit, "seed": args.seed,
                            "command": f"python3 bench/pin_references.py --seed {args.seed}"}
    REFERENCES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
