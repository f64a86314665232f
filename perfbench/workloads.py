"""The four benchmark workloads: inputs, timed operations and output checks.

Each workload builds its inputs from the seed in ``setup``, checks the program
against the reference computation in ``prepare`` (which also warms caches
before timing), and runs one round of operations per ``run_round`` call. Every
operation's output is checked after its timer stops. A round is always the
same operations, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ENTROPY_TOL = 1e-9  # entropy agreement with the reference


class CheckError(Exception):
    """An output of the program disagrees with the reference or a property."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Op:
    """One timed operation: wall time, patterns histogrammed, outcome."""

    kind: str
    seconds: float
    patterns: int
    failed: bool = False


def scale_patterns(n: int, p: int, m: int, tau: int) -> int:
    """Exact pattern count of one scale: (floor(N / tau) - m + 1) * p."""
    return (n // tau - m + 1) * p


def traced(tracer: Tracer | None):
    """Context in which calls into mvdeg are traced, if a tracer is given."""
    return contextlib.nullcontext() if tracer is None else tracer.installed()


def timed(fn, tracer: Tracer | None):
    """Run fn once, traced when a tracer is given; return (result, seconds)."""
    with traced(tracer):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


def check_scales(mvdeg, signal, graph, ref_weights, m: int, c: int, scales: int) -> dict:
    """Public-API histograms at every scale, checked; returns the expected entropies.

    Every scale's pattern total must equal the exact count. At scale 1 and the
    largest scale the histogram must equal the reference and the entropy agree
    within ENTROPY_TOL; the reference entropy is what later outputs are checked
    against there, and the checked API entropy at every other scale.
    """
    entropies = {}
    for tau in range(1, scales + 1):
        coarse = mvdeg.coarse_grain(signal, tau)
        value, hist = mvdeg.mvdeg_single_scale(coarse, graph, m, c)
        want = scale_patterns(signal.n_samples, signal.p, m, tau)
        check(hist.total == want, f"tau={tau}: {hist.total} patterns, expected {want}")
        if tau in (1, scales):
            ref_value, ref_counts = reference.graph_scale(signal.values, ref_weights, m, c, tau)
            check(hist.counts == ref_counts, f"tau={tau}: histogram differs from the reference")
            check(
                abs(value - ref_value) <= ENTROPY_TOL,
                f"tau={tau}: entropy {value!r} against reference {ref_value!r}",
            )
            value = ref_value
        entropies[tau] = value
    return entropies


def check_graph(mvdeg, signal) -> tuple[object, np.ndarray]:
    """The program's correlation graph, checked against the reference one."""
    graph = mvdeg.estimate_correlation_graph(signal)
    ref_weights = reference.correlation_graph(signal.values)
    check(
        np.allclose(graph.weights, ref_weights, rtol=0.0, atol=1e-12),
        "estimated correlation graph differs from the reference",
    )
    return graph, ref_weights


def check_reference_oracle(mvdeg, seed: int) -> None:
    """The reference hop embedding equals the dense oracles on tiny sizes."""
    rng = np.random.default_rng(seed)
    for n, p, m in ((6, 1, 3), (7, 3, 4), (9, 4, 5)):
        weights = np.triu(rng.uniform(0.0, 2.0, (p, p)), 1)
        weights = weights + weights.T
        graph = mvdeg.WeightedGraph(weights)
        z = reference.zscore(rng.standard_normal((p, n)))
        got = reference.hop_embedding(z, weights, m)
        adjacency = mvdeg.product_adjacency(n, graph)
        stacked = z.T.reshape(-1)
        rows = (n - m + 1) * p
        for k in range(m):
            power = mvdeg.naive_power(adjacency, k)[:rows]
            want = (power @ stacked) / power.sum(axis=1)
            check(
                np.allclose(got[:, k], want, rtol=1e-12, atol=1e-12),
                f"reference hop column {k} differs from the dense oracle (N={n}, p={p})",
            )


def check_curve(means: list[float], entropies: dict, what: str) -> None:
    """An entropy curve's means match the expected entropy at every scale."""
    check(len(means) == len(entropies), f"{what}: {len(means)} scales")
    for tau, mean in enumerate(means, start=1):
        check(
            abs(mean - entropies[tau]) <= ENTROPY_TOL,
            f"{what}: tau={tau} entropy {mean!r}, expected {entropies[tau]!r}",
        )


# ── workloads ────────────────────────────────────────────────────────────────


class CurveP32:
    """One 20-scale mvdeg_curve on a block-correlated p=32, N=100k signal."""

    name = "curve-p32"
    P, N, M, C, SCALES = 32, 100_000, 4, 6, 20
    BLOCK, RHO = 8, 0.6  # four blocks of 8 channels, correlation 0.6 within

    def setup(self, mvdeg, seed: int, workdir: Path) -> None:
        self.mvdeg = mvdeg
        self.seed = seed
        blocks = [range(b, b + self.BLOCK) for b in range(0, self.P, self.BLOCK)]
        corr = mvdeg.block_correlation(self.P, blocks, self.RHO)
        self.signal = mvdeg.gen_correlated(self.P, self.N, corr, seed)
        self.graph = mvdeg.estimate_correlation_graph(self.signal)
        self.config = mvdeg.EmbeddingConfig(self.M, self.C, self.SCALES)

    def prepare(self) -> None:
        _, ref_weights = check_graph(self.mvdeg, self.signal)
        self.entropies = check_scales(
            self.mvdeg, self.signal, self.graph, ref_weights, self.M, self.C, self.SCALES
        )
        self.patterns = sum(
            scale_patterns(self.N, self.P, self.M, tau) for tau in range(1, self.SCALES + 1)
        )

    def run_round(self, tracer: Tracer | None) -> list[Op]:
        curve, seconds = timed(
            lambda: self.mvdeg.mvdeg_curve(self.signal, self.graph, self.config), tracer
        )
        check(all(r.defined for r in curve.records), "mvdeg_curve: undefined scale")
        check_curve([r.mean for r in curve.records], self.entropies, "mvdeg_curve")
        return [Op("curve", seconds, self.patterns)]


class EnsembleF0F3:
    """The criterion-6 ensemble: F(0) and F(3) mixtures, zero graph, 20 scales."""

    name = "ensemble-f0f3"
    N, M, C, SCALES, REALIZATIONS = 15_000, 4, 6, 20, 10
    # |mean F(3) entropy at tau=1 - Miller-Madow expectation|; the mean over
    # 10 realizations has a seed-to-seed sd of about 2.5e-5
    MM_TOL = 2e-4

    def setup(self, mvdeg, seed: int, workdir: Path) -> None:
        self.mvdeg = mvdeg
        self.seed = seed
        self.conditions = [
            (f"F({q})", mvdeg.GeneratorSpec("mixture", 3, self.N, 0, {"q": q})) for q in (0, 3)
        ]
        self.config = mvdeg.EmbeddingConfig(self.M, self.C, self.SCALES)

    def prepare(self) -> None:
        mvdeg = self.mvdeg
        zero = np.zeros((3, 3))
        # reference means at scale 1 and the largest scale over the same
        # realizations run_noise_experiment draws: seed derived from (seed, i, r)
        self.ref_means = []
        for index, (_, spec) in enumerate(self.conditions):
            sums = {1: 0.0, self.SCALES: 0.0}
            for r in range(self.REALIZATIONS):
                spec_r = mvdeg.GeneratorSpec(
                    spec.kind, spec.p, spec.n_samples,
                    mvdeg.realization_seed(self.seed, index, r), spec.params,
                )
                signal = mvdeg.generate(spec_r)
                for tau in sums:
                    sums[tau] += reference.graph_scale(signal.values, zero, self.M, self.C, tau)[0]
            self.ref_means.append({tau: s / self.REALIZATIONS for tau, s in sums.items()})
        # pattern totals of the last realization through the public API
        graph = mvdeg.build_zero_graph(3)
        per_curve = 0
        for tau in range(1, self.SCALES + 1):
            _, hist = mvdeg.mvdeg_single_scale(mvdeg.coarse_grain(signal, tau), graph, self.M, self.C)
            want = scale_patterns(self.N, 3, self.M, tau)
            check(hist.total == want, f"tau={tau}: {hist.total} patterns, expected {want}")
            per_curve += hist.total
        self.patterns = per_curve * len(self.conditions) * self.REALIZATIONS
        self.expected_white = reference.uniform_entropy_expectation(
            scale_patterns(self.N, 3, self.M, 1), self.M, self.C
        )

    def run_round(self, tracer: Tracer | None) -> list[Op]:
        report, seconds = timed(
            lambda: self.mvdeg.run_noise_experiment(
                self.conditions, "zero", self.config, self.REALIZATIONS, self.seed
            ),
            tracer,
        )
        self.verify(report)
        return [Op("ensemble", seconds, self.patterns)]

    def verify(self, report) -> None:
        check(len(report.curves) == 2, f"{len(report.curves)} curves, expected 2")
        means = []
        for curve, ref in zip(report.curves, self.ref_means):
            check(
                all(r.defined and r.n_realizations == self.REALIZATIONS for r in curve.records),
                f"{curve.method}: undefined scale or wrong realization count",
            )
            got = curve.defined_means()
            check(len(got) == self.SCALES, f"{curve.method}: {len(got)} scales")
            for tau, want in ref.items():
                check(
                    abs(got[tau] - want) <= ENTROPY_TOL,
                    f"{curve.method}: tau={tau} mean {got[tau]!r} against reference {want!r}",
                )
            means.append(got)
        pink, white = means
        check(white[1] > pink[1], "white F(3) is not above 1/f F(0) at tau=1")
        upstep = max(white[t + 1] - white[t] for t in range(1, self.SCALES))
        check(upstep <= 0.01, f"white curve rises by {upstep:.5f} between scales")
        spread = max(pink.values()) - min(pink.values())
        check(spread < 0.1, f"1/f curve spans {spread:.4f}, not flat")
        check(
            abs(white[1] - self.expected_white) <= self.MM_TOL,
            f"white tau=1 entropy {white[1]:.6f} against Miller-Madow {self.expected_white:.6f}",
        )


class CliP64M6:
    """`mvdeg entropy --graph correlation --m 6` in a fresh interpreter on a CSV."""

    name = "cli-p64-m6"
    P, N, M, C, SCALES = 64, 20_000, 6, 6, 20

    def setup(self, mvdeg, seed: int, workdir: Path) -> None:
        self.mvdeg = mvdeg
        self.seed = seed
        self.workdir = workdir
        self.signal = mvdeg.gen_wgn(self.P, self.N, seed)
        self.csv = workdir / "signal.csv"
        mvdeg.write_signal_csv(self.signal, self.csv)

    def prepare(self) -> None:
        mvdeg = self.mvdeg
        reread = mvdeg.read_signal_csv(self.csv)
        check(
            np.array_equal(reread.values, self.signal.values),
            "signal re-read from the CSV differs from the generated one",
        )
        graph, ref_weights = check_graph(mvdeg, self.signal)
        self.entropies = check_scales(
            mvdeg, self.signal, graph, ref_weights, self.M, self.C, self.SCALES
        )
        self.patterns = sum(
            scale_patterns(self.N, self.P, self.M, tau) for tau in range(1, self.SCALES + 1)
        )
        self.header = list(mvdeg.CURVE_CSV_HEADER)
        self.out = self.workdir / "curve.csv"

    def command(self, spans: Path | None, alloc: bool = False) -> list[str]:
        args = [
            "entropy", "--input", str(self.csv), "--graph", "correlation",
            "--m", str(self.M), "--out", str(self.out),
        ]
        if spans is None:
            return [sys.executable, "-m", "mvdeg.cli", *args]
        return [
            sys.executable, str(HERE / "cli_traced.py"), str(spans), self.name,
            str(int(alloc)), *args,
        ]

    def run_round(self, tracer: Tracer | None) -> list[Op]:
        spans = None if tracer is None else self.workdir / "cli-spans.json"
        start = time.perf_counter()
        proc = subprocess.run(
            self.command(spans, tracer is not None and tracer.measure_alloc), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        seconds = time.perf_counter() - start
        check(proc.returncode == 0, f"mvdeg entropy exited {proc.returncode}: {proc.stderr.strip()}")
        if tracer is not None:
            merge_spans(tracer, spans)
        self.verify()
        return [Op("cli", seconds, self.patterns)]

    def verify(self) -> None:
        with open(self.out, newline="") as f:
            rows = list(csv.reader(f))
        check(rows[0] == self.header, f"curve CSV header {rows[0]}, expected {self.header}")
        body = rows[1:]
        check(
            [row[:2] for row in body] == [["mvdeg", str(tau)] for tau in range(1, self.SCALES + 1)],
            "curve CSV rows are not mvdeg at tau = 1..20",
        )
        check_curve([float(row[2]) for row in body], self.entropies, "mvdeg entropy CSV")
        with open(f"{self.out}.json") as f:
            sidecar = json.load(f)
        scales = sidecar["curves"][0]["scales"]
        check(
            [s["mean"] for s in scales] == [float(row[2]) for row in body],
            "curve JSON sidecar disagrees with the curve CSV",
        )


class Baselines:
    """classical_mvde, univariate_mde, and one mvdeg call on a huge-weight graph."""

    name = "baselines"
    CLASSICAL_P, CLASSICAL_N = 6, 2000
    MDE_N = 200_000
    M, C, SCALES = 4, 6, 20
    # classical patterns share windows, so the entropy sits ~3e-4 below the
    # i.i.d. expectation on every seed; the univariate mean is within 3e-5
    CLASSICAL_TOL, MDE_TOL = 1e-3, 2e-4
    # the scaled-graph input is fixed, independent of the seed
    SCALED_P, SCALED_N, SCALED_SEED = 3, 200, 0
    HUGE, LARGE = 1e120, 1e50

    def setup(self, mvdeg, seed: int, workdir: Path) -> None:
        self.mvdeg = mvdeg
        self.classical = mvdeg.gen_wgn(
            self.CLASSICAL_P, self.CLASSICAL_N, mvdeg.realization_seed(seed, 0)
        )
        self.channel = mvdeg.gen_wgn(1, self.MDE_N, mvdeg.realization_seed(seed, 1)).values[0]
        self.config = mvdeg.EmbeddingConfig(self.M, self.C, self.SCALES)
        self.scaled_signal = mvdeg.gen_wgn(self.SCALED_P, self.SCALED_N, self.SCALED_SEED)
        self.unit_weights = mvdeg.build_complete_graph(self.SCALED_P).weights
        self.huge_graph = mvdeg.WeightedGraph(self.unit_weights * self.HUGE)

    def prepare(self) -> None:
        mvdeg = self.mvdeg
        # reduction identity: p=1 with the zero graph is univariate MDE
        single = mvdeg.MultivariateSignal(self.channel[None, :])
        self.identity = mvdeg.mvdeg_curve(single, mvdeg.build_zero_graph(1), self.config)
        self.mde_patterns = 0
        for tau in range(1, self.SCALES + 1):
            coarse = mvdeg.coarse_grain(single, tau).values[0]
            _, hist = mvdeg.univariate_single_scale(coarse, self.M, self.C)
            want = scale_patterns(self.MDE_N, 1, self.M, tau)
            check(hist.total == want, f"mde tau={tau}: {hist.total} patterns, expected {want}")
            self.mde_patterns += hist.total
        self.expected_mde = reference.uniform_entropy_expectation(
            scale_patterns(self.MDE_N, 1, self.M, 1), self.M, self.C
        )
        self.classical_total = (self.CLASSICAL_N - self.M + 1) * math.comb(
            self.M * self.CLASSICAL_P, self.M
        )
        self.expected_classical = reference.uniform_entropy_expectation(
            self.classical_total, self.M, self.C
        )
        self.ref_classical = reference.classical_scale(self.classical.values, self.M, self.C)
        self.ref_mde = {
            tau: reference.graph_scale(self.channel[None, :], np.zeros((1, 1)), self.M, self.C, tau)[0]
            for tau in (1, self.SCALES)
        }
        # the scaled-graph operation must reproduce the histogram at 1e50,
        # which itself must equal the reference (rescaled, so it cannot overflow)
        values = self.scaled_signal.values
        large = self.unit_weights * self.LARGE
        _, self.large_hist = mvdeg.mvdeg_single_scale(
            self.scaled_signal, mvdeg.WeightedGraph(large), self.M, self.C
        )
        _, ref_large = reference.graph_scale(values, large, self.M, self.C)
        _, ref_huge = reference.graph_scale(values, self.unit_weights * self.HUGE, self.M, self.C)
        check(self.large_hist.counts == ref_large, "histogram at weight 1e50 differs from the reference")
        check(ref_huge == ref_large, "reference histogram depends on the weight scale")

    def run_round(self, tracer: Tracer | None) -> list[Op]:
        mvdeg = self.mvdeg
        (value, hist), seconds = timed(
            lambda: mvdeg.classical_mvde(self.classical, self.M, self.C), tracer
        )
        check(
            hist.total == self.classical_total,
            f"classical total {hist.total}, expected {self.classical_total}",
        )
        ref_value, ref_counts = self.ref_classical
        check(hist.counts == ref_counts, "classical histogram differs from the reference")
        check(
            abs(value - ref_value) <= ENTROPY_TOL,
            f"classical entropy {value!r} against reference {ref_value!r}",
        )
        check(
            abs(value - self.expected_classical) <= self.CLASSICAL_TOL,
            f"classical entropy {value:.6f} against Miller-Madow {self.expected_classical:.6f}",
        )
        ops = [Op("classical", seconds, hist.total)]

        curve, seconds = timed(lambda: mvdeg.univariate_mde(self.channel, self.config), tracer)
        means = [r.mean for r in curve.records]
        check(
            means == [r.mean for r in self.identity.records],
            "univariate_mde differs from the p=1 zero-graph mvdeg_curve",
        )
        for tau, want in self.ref_mde.items():
            check(
                abs(means[tau - 1] - want) <= ENTROPY_TOL,
                f"mde tau={tau} entropy {means[tau - 1]!r} against reference {want!r}",
            )
        check(
            abs(curve.records[0].mean - self.expected_mde) <= self.MDE_TOL,
            f"mde tau=1 entropy {curve.records[0].mean:.6f} against {self.expected_mde:.6f}",
        )
        ops.append(Op("mde", seconds, self.mde_patterns))
        ops.append(self.scaled_op(tracer))
        return ops

    def scaled_op(self, tracer: Tracer | None) -> Op:
        """Passes when the histogram matches the one at 1e50 or the call refuses.

        Fails while W^(m-1) overflows into NaN classes (ROADMAP item 3).
        """
        mvdeg = self.mvdeg
        with warnings.catch_warnings(), traced(tracer):
            warnings.simplefilter("ignore", RuntimeWarning)
            start = time.perf_counter()
            try:
                _, hist = mvdeg.mvdeg_single_scale(
                    self.scaled_signal, self.huge_graph, self.M, self.C
                )
            except mvdeg.MvdegError:
                hist = None
            seconds = time.perf_counter() - start
        if hist is None:
            return Op("scaled-graph", seconds, 0)
        if hist.counts != self.large_hist.counts:
            return Op("scaled-graph", seconds, 0, failed=True)
        return Op("scaled-graph", seconds, hist.total)


def merge_spans(tracer: Tracer, path: Path) -> None:
    """Append the spans a traced child process wrote, re-indexing parents."""
    with open(path) as f:
        saved = json.load(f)
    offset = len(tracer.spans)
    for span in saved["spans"]:
        if span["parent"] is not None:
            span["parent"] += offset
        tracer.spans.append(span)
    tracer.absent.update(saved["absent"])
    os.remove(path)


WORKLOADS = {w.name: w for w in (CurveP32, EnsembleF0F3, CliP64M6, Baselines)}
