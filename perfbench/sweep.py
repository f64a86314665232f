"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/sweep.py --workloads curve-p32,baselines --seeds 1-10 \
        --seconds 15 [--trace 0|1] [--json FILE]

For every workload and metric it prints the median of the per-run values,
the first and third quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and each run's wall time and failed share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            wall = time.monotonic() - start
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
            print(
                f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            # quartiles need two runs; one run has no spread
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            table[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median and len(values) > 1 else None,
                "values": values,
            }
        summary[workload] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": table,
        }
        for name, row in table.items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            print(
                f"  {name:52s} median {row['median']:.6g} {row['unit']}  "
                f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {spread}"
            )
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
