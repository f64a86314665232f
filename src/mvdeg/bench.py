"""Timing sweeps and seeded ensemble experiments.

Wall times are the median of 3 repetitions after 1 warm-up, with OpenBLAS on
one thread; the report's environment records the BLAS thread count they ran
with and the OpenBLAS kernel.
Capacity refusals by the classical method are recorded as outcomes in the
report, never raised out of a sweep; everything except the wall-clock numbers
is a pure function of the seeds.
"""

from __future__ import annotations

import math
import platform
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .blas import _blas_threads, _one_blas_thread, _openblas
from .entropy import (
    EmbeddingConfig,
    EntropyCurve,
    PATTERN_CAP,
    ScaleRecord,
    classical_mvde,
    mvdeg_curve,
    mvdeg_single_scale,
    pattern_counts,
)
from .errors import CapacityError, DimensionError
from .generators import GeneratorSpec, gen_wgn, generate, realization_seed
from .graphs import (
    WeightedGraph,
    build_complete_graph,
    build_zero_graph,
    correlation_graph,
    estimate_correlation_graph,
)
from .signal import MultivariateSignal

GRAPH_POLICIES = ("zero", "complete", "theoretical", "estimated")


def _blas_core() -> str | None:
    """The CPU kernel numpy's bundled OpenBLAS runs, such as "Haswell"; None where
    it is not found. Its products can round differently under another kernel."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_corename64_().decode()


def environment_info() -> dict:
    """Versions, hardware tags, and the BLAS thread count and kernel recorded with
    every timing report."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu": cpu,
        "threads": None if _openblas() is None else _blas_threads(),
        "blas_core": _blas_core(),
    }


@dataclass(frozen=True)
class TimingCell:
    """One (method, N) measurement of a sweep."""

    method: str
    n_samples: int
    p: int
    m: int
    c: int
    wall_time_s: float | None
    classical_patterns: int
    graph_bound_patterns: int
    outcome: str  # "ok" | "refused-capacity"


@dataclass(frozen=True)
class TimingReport:
    cells: tuple[TimingCell, ...]
    environment: dict
    seed: int


@dataclass(frozen=True)
class EnsembleReport:
    """Aggregated entropy curves for a set of experimental conditions."""

    label: str
    curves: tuple[EntropyCurve, ...]
    realizations: int
    seed: int
    config: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def _median_time(fn: Callable[[], object], repetitions: int = 3, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_timing_sweep(
    n_values: Sequence[int],
    p: int,
    m: int,
    c: int,
    methods: Sequence[str] = ("mvdeg", "classical"),
    seed: int = 0,
    pattern_cap: int = PATTERN_CAP,
    repetitions: int = 3,
    warmup: int = 1,
) -> TimingReport:
    """Time each method on fresh white noise per N, at the native scale, with
    OpenBLAS on one thread (restored afterwards); the report's environment
    reads back that one thread.

    mvdeg runs on build_complete_graph(p), so the sweep times the hop recurrence;
    the edgeless graph would take the shortcut that skips it.
    """
    if not n_values:
        raise DimensionError("need at least one N to sweep")
    for method in methods:
        if method not in ("mvdeg", "classical"):
            raise DimensionError(f"unknown method {method!r}")
    with _one_blas_thread():
        cells = []
        graph = build_complete_graph(p)
        for index, n in enumerate(n_values):
            signal = gen_wgn(p, n, realization_seed(seed, index))
            classical_count, graph_bound = pattern_counts(n, p, m)
            timed = {
                "classical": lambda: classical_mvde(signal, m, c, tau=1, pattern_cap=pattern_cap),
                "mvdeg": lambda: mvdeg_single_scale(signal, graph, m, c),
            }
            for method in methods:
                try:
                    wall_time, outcome = _median_time(timed[method], repetitions, warmup), "ok"
                except CapacityError:
                    wall_time, outcome = None, "refused-capacity"
                cells.append(
                    TimingCell(
                        method, n, p, m, c,
                        wall_time_s=wall_time,
                        classical_patterns=classical_count,
                        graph_bound_patterns=graph_bound,
                        outcome=outcome,
                    )
                )
        return TimingReport(cells=tuple(cells), environment=environment_info(), seed=seed)


def aggregate_curves(
    curves: Sequence[EntropyCurve], method: str, seed: int | None = None
) -> EntropyCurve:
    """Merge single-realization curves into per-scale mean and sd."""
    if not curves:
        raise DimensionError("need at least one curve to aggregate")
    first = curves[0]
    for curve in curves[1:]:
        if (curve.m, curve.c, len(curve.records)) != (first.m, first.c, len(first.records)):
            raise DimensionError("curves to aggregate have mismatched configuration")
    records = []
    for i, base in enumerate(first.records):
        per_scale = [c.records[i] for c in curves]
        if not all(r.defined == base.defined for r in per_scale):
            raise DimensionError(f"scale {base.tau} defined in some curves only")
        if not base.defined:
            records.append(ScaleRecord(base.tau, math.nan, math.nan, 0, False))
            continue
        values = [r.mean for r in per_scale]
        mean = float(np.mean(values))
        sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        records.append(ScaleRecord(base.tau, mean, sd, len(values), True))
    return EntropyCurve(
        method=method,
        records=tuple(records),
        m=first.m,
        c=first.c,
        graph=first.graph,
        seed=seed,
    )


def _policy_graph(
    policy: str, spec: GeneratorSpec, signal: MultivariateSignal
) -> WeightedGraph:
    """The channel graph a policy gives; "theoretical" is the correlation the
    generator was told to use, and no edges for channels independent by construction."""
    if policy == "zero" or (policy == "theoretical" and spec.kind != "correlated"):
        return build_zero_graph(spec.p)
    if policy == "complete":
        return build_complete_graph(spec.p)
    if policy == "theoretical":
        return correlation_graph(spec._params["corr"])
    if policy == "estimated":
        return estimate_correlation_graph(signal)
    raise DimensionError(f"unknown graph policy {policy!r}; expected one of {GRAPH_POLICIES}")


def _realization_curves(
    spec: GeneratorSpec, index: int, policies: Sequence[str], config: EmbeddingConfig,
    realizations: int, seed: int,
) -> list[list[EntropyCurve]]:
    """Per policy, the curve of each realization r of spec; its signal is generated
    once, with the seed derived from (seed, index, r), and every policy sees it.

    The realizations run in a plain loop, in order, so the first error in
    realization order propagates. Each mvdeg_curve decides for itself whether
    its scales pay for a thread pool (entropy._POOL_MIN_SAMPLES). Realizations
    are not pooled: most of a small curve's work is Python that holds the GIL.
    """
    if realizations < 1:
        raise DimensionError(f"need at least one realization, got {realizations}")
    curves = [[] for _ in policies]
    with _one_blas_thread():  # pinned once, not once per realization's curve
        for r in range(realizations):
            spec_r = replace(spec, seed=realization_seed(seed, index, r))
            signal = generate(spec_r)
            for policy, per_policy in zip(policies, curves):
                graph = _policy_graph(policy, spec_r, signal)
                per_policy.append(mvdeg_curve(signal, graph, config))
    return curves


def run_noise_experiment(
    conditions: Sequence[tuple[str, GeneratorSpec]],
    graph_policy: str,
    config: EmbeddingConfig,
    realizations: int,
    seed: int,
    label: str = "noise",
) -> EnsembleReport:
    """Aggregated entropy curves per condition over seeded realizations.

    Realization r of condition i regenerates its GeneratorSpec with the seed
    derived from (seed, i, r), so reports are reproducible and conditions are
    independent of each other's ordering.
    """
    curves = []
    for i, (cond_label, spec) in enumerate(conditions):
        (per_real,) = _realization_curves(spec, i, (graph_policy,), config, realizations, seed)
        curves.append(aggregate_curves(per_real, method=cond_label, seed=seed))
    return EnsembleReport(
        label=label,
        curves=tuple(curves),
        realizations=realizations,
        seed=seed,
        config={
            **asdict(config),
            "graph_policy": graph_policy,
            "conditions": [c_label for c_label, _ in conditions],
        },
    )


def compare_graph_policies(
    spec: GeneratorSpec,
    config: EmbeddingConfig,
    realizations: int,
    seed: int,
) -> EnsembleReport:
    """Theoretical versus estimated correlation graph on identical signals.

    Both policies see the same realizations; the summary carries the per-scale
    mean absolute entropy difference between them.
    """
    theo_curves, est_curves = _realization_curves(
        spec, 0, ("theoretical", "estimated"), config, realizations, seed
    )
    pairs = list(zip(theo_curves, est_curves))
    diffs = [
        float(np.mean([abs(t.records[i].mean - e.records[i].mean) for t, e in pairs]))
        if theo_curves[0].records[i].defined else math.nan
        for i in range(config.max_scale)
    ]
    finite = [d for d in diffs if not math.isnan(d)]
    return EnsembleReport(
        label="graph-compare",
        curves=(
            aggregate_curves(theo_curves, method="theoretical", seed=seed),
            aggregate_curves(est_curves, method="estimated", seed=seed),
        ),
        realizations=realizations,
        seed=seed,
        config={**asdict(config), "generator": spec.kind},
        summary={
            "mean_abs_diff_per_scale": diffs,
            "max_mean_abs_diff": max(finite) if finite else math.nan,
        },
    )


def uniform_correlation(p: int, rho: float) -> np.ndarray:
    """Correlation matrix with a single off-diagonal value."""
    if p < 1:
        raise DimensionError(f"channel count must be >= 1, got {p}")
    if not -1.0 <= rho <= 1.0:
        raise DimensionError(f"correlation must be in [-1, 1], got {rho}")
    corr = np.full((p, p), float(rho))
    np.fill_diagonal(corr, 1.0)
    return corr


def block_correlation(p: int, blocks: Sequence[Sequence[int]], rho: float) -> np.ndarray:
    """Identity plus within-block correlation rho for disjoint channel blocks."""
    corr = np.eye(p)
    seen: set[int] = set()
    for block in blocks:
        for ch in block:
            if not 0 <= ch < p:
                raise DimensionError(f"channel {ch} outside 0..{p - 1}")
            if ch in seen:
                raise DimensionError(f"channel {ch} appears in two blocks")
            seen.add(ch)
        for a in block:
            for b in block:
                if a != b:
                    corr[a, b] = rho
    return corr


def structured_correlation_sets(block_rho: float = 0.9) -> list[tuple[str, np.ndarray]]:
    """Five 4-channel correlation structures, from none to fully correlated."""
    return [
        ("uncorrelated", block_correlation(4, [], block_rho)),
        ("one-pair", block_correlation(4, [(0, 1)], block_rho)),
        ("two-pairs", block_correlation(4, [(0, 1), (2, 3)], block_rho)),
        ("triple", block_correlation(4, [(0, 1, 2)], block_rho)),
        ("all-correlated", block_correlation(4, [(0, 1, 2, 3)], block_rho)),
    ]
