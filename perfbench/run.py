"""Benchmark for mvdeg: one workload per call, measured from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: curve-p32, ensemble-f0f3, cli-p64-m6, baselines (see README.md).
Every process that touches mvdeg runs with OpenBLAS pinned to one thread
through its environment and imports mvdeg from ./src. With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("curve-p32", "ensemble-f0f3", "cli-p64-m6", "baselines")
SETUP_REPEATS = 7  # fresh processes whose set-up time is measured, the timed one included
TIME_LIMIT = 170.0  # seconds for the whole run
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run cmd in its own process group and return its stdout; kill it at the deadline."""
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{' '.join(cmd[:3])} ran past the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[:3])} exited with {proc.returncode}")
    return out


def last_json(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (ROOT / "src" / "mvdeg" / "__init__.py").is_file():
        print(f"no mvdeg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    worker = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
    ]
    try:
        # compile the package and the benchmark once, so that no measured
        # import pays for writing bytecode
        warm = f"import sys; sys.path.insert(0, {str(HERE)!r}); import mvdeg.cli, workloads"
        run_child([sys.executable, "-c", warm], env, deadline)
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(last_json(run_child(worker + ["--setup-only"], env, deadline))["setup_s"])
        result = last_json(
            run_child(
                worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                env, deadline,
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    setups.append(result["setup_s"])
    if args.trace:
        metrics = result.get("layers", {})
    else:
        metrics = dict(result.get("metrics", {}))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_runs_s": setups, **result}
    with open(OUT / f"last-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print("environment " + json.dumps(result["environment"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
