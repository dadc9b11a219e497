"""Run one benchmark workload against the program and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload read --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``).  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch
files live under ``.perfbench/`` in the repository root; the traced run
leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment() -> dict:
    import numpy

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        # The serving layer forks its workers wherever the platform can.
        "start_method": "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn",
    }


def stop_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    That is the serving workers, should any still run, and the
    ``multiprocessing`` resource tracker that shared memory starts: left
    alone, the tracker outlives this process while it cleans up.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("read", "churn", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs (1x graph, 2 serve replicas) for the harness self-tests",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    from perfbench.workloads import WORKLOADS, Config, describe, digest

    config = Config(scale=1, replicas=2, setup_repeats=2, recover_repeats=2) if args.smoke \
        else Config()
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    workload = None
    try:
        workload = WORKLOADS[args.workload](config, args.seed, workdir)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("env: " + json.dumps(environment()))
        print("config: " + json.dumps(describe(workload), default=str))
        print(f"stream: sha256={digest(workload.stream)} ops={len(workload.stream)}")
        outcome = workload.run(args.seconds, bool(args.trace))
        for line in outcome.lines:
            print(line)
        for problem in workload.problems[:20]:
            print(f"problem: {problem}")
        result = {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            },
        }
        print(json.dumps(result))
    finally:
        try:
            if workload is not None:
                workload.close()
        finally:
            stop_processes()
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
