"""One workload in one process: set up, check, time, and report as JSON.

Usage: python worker.py --root DIR --workload NAME --seed N --seconds S
                        --trace 0|1 --workdir DIR [--setup-only]

run.py starts this with OpenBLAS pinned to one thread through the process
environment and mvdeg importable from DIR/src. The last line of standard
output is a JSON object; everything else goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def blas_info() -> dict:
    """Thread count in effect in numpy's bundled OpenBLAS, read back via ctypes."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = lib.scipy_openblas_get_config64_
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        return {"blas_threads": get_threads(), "openblas": get_config().decode().strip()}
    return {"blas_threads": None, "openblas": None}


def environment() -> dict:
    import numpy as np
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **blas_info(),
    }
    env["blas_pinned"] = env["blas_threads"] == 1
    return env


def import_seconds(repeats: int = 3) -> float:
    """Median time for a fresh interpreter to import mvdeg.cli."""
    code = (
        "import time; t = time.perf_counter(); import mvdeg.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def layer_metrics(
    tracer, alloc_tracer, traced_rounds: list[float], untraced_rounds: list[float]
) -> dict:
    """Per-layer numbers from the spans of the traced rounds, per round.

    Peak allocations come from alloc_tracer, which traced one extra round
    with tracemalloc on; every other number comes from tracer.
    """
    from tracer import LAYERS, ORCHESTRATORS, self_times

    rounds = len(traced_rounds)
    own = self_times(tracer.spans)
    by_layer = {layer: [] for layer in LAYERS}
    for span, seconds in zip(tracer.spans, own):
        by_layer[span["name"]].append((span, seconds))

    def total(layer, key):
        return sum(span.get(key, 0) for span, _ in by_layer[layer])

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(s for _, s in by_layer[layer]) / rounds, "s")
    hop = "kron.build_hop_basis"
    metrics[f"{hop}.calls"] = (len(by_layer[hop]) / rounds, "count")
    metrics[f"{hop}.flops"] = (total(hop, "flops") / rounds, "flop-computed")
    metrics[f"{hop}.bytes_out"] = (total(hop, "bytes_out") / rounds, "B-computed")
    peak = max(
        (s.get("peak_alloc_bytes", 0) for s in alloc_tracer.spans if s["name"] == hop), default=0
    )
    metrics[f"{hop}.peak_alloc_mb"] = (peak / 2**20, "MB")
    hist = "entropy.DispersionHistogram.from_class_rows"
    metrics[f"{hist}.patterns"] = (total(hist, "patterns") / rounds, "count")
    metrics[f"{hist}.distinct"] = (total(hist, "distinct") / rounds, "count")
    metrics["io.read_signal_csv.bytes_in"] = (total("io.read_signal_csv", "bytes_in") / rounds, "B")
    metrics["cli.import_s"] = (import_seconds(), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_rounds) - statistics.median(untraced_rounds), "s"
    )
    # the self time of a layer that only calls other layers absorbs every
    # unwrapped piece of work under it, so coverage leaves those layers out
    covered = sum(s for span, s in zip(tracer.spans, own) if span["name"] not in ORCHESTRATORS)
    metrics["trace.coverage"] = (covered / sum(traced_rounds), "share")
    metrics["trace.absent_layers"] = (len(tracer.absent), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # set-up time is the import of mvdeg plus building the inputs; the
    # benchmark's own modules are imported between the two, off the clock
    started = time.perf_counter()
    import mvdeg

    import_s = time.perf_counter() - started
    src = (args.root / "src").resolve()
    if src not in Path(mvdeg.__file__).resolve().parents:
        print(f"mvdeg imported from {mvdeg.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    started = time.perf_counter()
    workload.setup(mvdeg, args.seed, args.workdir)
    setup_s = import_s + time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer

    env = environment()
    if not env["blas_pinned"]:
        print(f"warning: OpenBLAS runs {env['blas_threads']} threads, not 1", file=sys.stderr)
    errors = []
    rounds = []  # (traced, ops)
    tracer = Tracer(args.workload) if args.trace else None
    alloc_tracer, alloc_ops = None, []
    try:
        workloads.check_reference_oracle(mvdeg, args.seed)
        workload.prepare()
        deadline = time.perf_counter() + args.seconds
        while True:
            # a traced run alternates untraced and traced rounds
            use = tracer if (tracer is not None and len(rounds) % 2 == 1) else None
            rounds.append((use is not None, workload.run_round(use)))
            if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
                break
        if tracer is not None:
            # tracemalloc slows the calls it watches, so peak allocations
            # come from one extra round whose times are not used
            alloc_tracer = Tracer(args.workload, measure_alloc=True)
            alloc_ops = workload.run_round(alloc_tracer)
    except (workloads.CheckError, mvdeg.MvdegError) as err:
        errors.append(f"{type(err).__name__}: {err}")
    if args.workload == "cli-p64-m6":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ops = [op for _, round_ops in rounds for op in round_ops] + alloc_ops
    result = {
        "correct": not errors,
        # an error stops the run inside an operation that is not in ops yet
        "attempted": len(ops) + len(errors),
        "failed": sum(op.failed for op in ops),
        "errors": errors,
        "environment": env,
        "setup_s": setup_s,
        "rounds": [[vars(op) for op in round_ops] for _, round_ops in rounds],
    }
    untraced = [r for t, r in rounds if not t]
    if rounds:
        result["metrics"] = {
            "op_median_s": {
                "value": statistics.median(
                    sum(op.seconds for op in r) / len(r) for r in untraced
                ),
                "unit": "s",
            },
            "patterns_per_s": {
                "value": statistics.median(
                    sum(op.patterns for op in r if not op.failed) / sum(op.seconds for op in r)
                    for r in untraced
                ),
                "unit": "patterns/s",
            },
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    if tracer is not None and alloc_ops:
        seconds = lambda r: sum(op.seconds for op in r)
        result["layers"] = layer_metrics(
            tracer,
            alloc_tracer,
            [seconds(r) for t, r in rounds if t],
            [seconds(r) for t, r in rounds if not t],
        )
        tracer.write(str(args.root / ".perfbench-out" / f"spans-{args.workload}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
