"""Timing sweeps, ensemble experiments, and correlation-structure helpers."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import mvdeg.bench as bench
import mvdeg.blas as blas
from mvdeg import (
    DimensionError,
    EmbeddingConfig,
    EntropyCurve,
    GeneratorSpec,
    ScaleRecord,
    aggregate_curves,
    block_correlation,
    build_complete_graph,
    compare_graph_policies,
    environment_info,
    gen_correlated,
    pattern_counts,
    run_noise_experiment,
    run_timing_sweep,
    structured_correlation_sets,
    uniform_correlation,
)


def _curve(means, method="mvdeg"):
    records = []
    for tau, mean in enumerate(means, start=1):
        if mean is None:
            records.append(ScaleRecord(tau, math.nan, math.nan, 0, False))
        else:
            records.append(ScaleRecord(tau, mean, 0.0, 1, True))
    return EntropyCurve(method=method, records=tuple(records), m=2, c=3, graph="zero(n=2)")


# ── timing sweeps ────────────────────────────────────────────────────────────


def test_timing_sweep_structure():
    report = run_timing_sweep(
        (30, 40), p=2, m=2, c=3, seed=5, repetitions=1, warmup=0
    )
    assert len(report.cells) == 4
    assert report.seed == 5
    assert [cell.method for cell in report.cells] == ["mvdeg", "classical"] * 2
    for cell in report.cells:
        expected = pattern_counts(cell.n_samples, 2, 2)
        assert (cell.classical_patterns, cell.graph_bound_patterns) == expected
        assert cell.outcome == "ok"
        assert cell.wall_time_s is not None and cell.wall_time_s >= 0.0


def test_timing_sweep_records_capacity_refusal():
    report = run_timing_sweep(
        (30,), p=2, m=2, c=3, seed=0, pattern_cap=100, repetitions=1, warmup=0
    )
    by_method = {cell.method: cell for cell in report.cells}
    refused = by_method["classical"]
    assert refused.outcome == "refused-capacity"
    assert refused.wall_time_s is None
    assert refused.classical_patterns == 29 * math.comb(4, 2)
    assert by_method["mvdeg"].outcome == "ok"


def test_timing_sweep_times_mvdeg_on_the_complete_graph(monkeypatch):
    graphs = []

    def record(signal, graph, m, c):
        graphs.append(graph)
        return 0.0, None

    monkeypatch.setattr(bench, "mvdeg_single_scale", record)
    run_timing_sweep((30,), p=3, m=2, c=3, methods=("mvdeg",), repetitions=1, warmup=0)
    assert graphs and all(g.describe() == build_complete_graph(3).describe() for g in graphs)


def test_timing_sweep_validation():
    with pytest.raises(DimensionError):
        run_timing_sweep((), p=2, m=2, c=3)
    with pytest.raises(DimensionError):
        run_timing_sweep((30,), p=2, m=2, c=3, methods=("mvdeg", "fft"))


def test_environment_info_keys():
    info = environment_info()
    assert set(info) == {"python", "numpy", "cpu", "threads", "blas_core"}
    assert info["numpy"] == np.__version__


def test_environment_info_names_the_openblas_kernel():
    core = environment_info()["blas_core"]
    assert isinstance(core, str) and core and core == core.strip()
    assert core == blas._blas_core()


def test_environment_info_without_openblas_holds_none(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    info = environment_info()
    assert info["threads"] is None and info["blas_core"] is None
    with bench._one_blas_thread():  # nothing to pin, nothing to restore
        assert bench._blas_threads() is None


def _set_blas_threads(count):
    blas._openblas().scipy_openblas_set_num_threads64_(count)


def test_one_blas_thread_pins_the_block_and_restores_the_count():
    before = bench._blas_threads()
    try:
        _set_blas_threads(2)
        with bench._one_blas_thread():
            assert bench._blas_threads() == 1
        assert bench._blas_threads() == 2
        with pytest.raises(RuntimeError):
            with bench._one_blas_thread():
                raise RuntimeError("the count comes back on an error too")
        assert bench._blas_threads() == 2
    finally:
        _set_blas_threads(before)


def test_timing_sweep_runs_on_one_blas_thread_and_restores_the_callers():
    # without OPENBLAS_NUM_THREADS, OpenBLAS starts with a thread per CPU
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = (
        "import mvdeg, mvdeg.bench as b, mvdeg.blas\n"
        "mvdeg.blas._openblas().scipy_openblas_set_num_threads64_(2)\n"
        "r = mvdeg.run_timing_sweep((40,), p=2, m=2, c=3, repetitions=1, warmup=0)\n"
        "print(r.environment['threads'], b._blas_threads())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["1", "2"]


# counts the BLAS threads each scale runs on, under every library entry point
# that runs curves, and under two threads running curves at once
LIBRARY_CURVES = """
import threading
import mvdeg, mvdeg.entropy as entropy
from mvdeg.blas import _blas_threads, _openblas

_openblas().scipy_openblas_set_num_threads64_(2)
seen, scale = set(), entropy.mvdeg_single_scale

def counted(*args):
    seen.add(_blas_threads())
    return scale(*args)

entropy.mvdeg_single_scale = counted
signal, config = mvdeg.gen_wgn(2, 200, 0), mvdeg.EmbeddingConfig(3, 4, 5)
complete = mvdeg.build_complete_graph(2)
spec = mvdeg.GeneratorSpec("correlated", 2, 200, 0, {"corr": [[1.0, 0.5], [0.5, 1.0]]})
mvdeg.mvdeg_curve(signal, complete, config)
mvdeg.univariate_mde(signal.values[0], config)
mvdeg.run_noise_experiment([("c", spec)], "complete", config, 3, 0)
mvdeg.compare_graph_policies(spec, config, 3, 0)
alone = _blas_threads()
start = threading.Barrier(2)

def curves():
    start.wait()
    for _ in range(20):
        mvdeg.mvdeg_curve(signal, complete, config)

workers = [threading.Thread(target=curves) for _ in range(2)]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join()
print(sorted(seen), alone, _blas_threads())
"""


def test_library_curves_run_on_one_blas_thread_and_restore_the_callers():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run(
        [sys.executable, "-c", LIBRARY_CURVES], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["[1]", "2", "2"]


def test_one_blas_thread_nests_and_the_outermost_block_restores():
    before = bench._blas_threads()
    try:
        _set_blas_threads(3)
        with bench._one_blas_thread():
            with bench._one_blas_thread():
                assert bench._blas_threads() == 1
            assert bench._blas_threads() == 1
        assert bench._blas_threads() == 3
    finally:
        _set_blas_threads(before)


def test_one_blas_thread_holds_for_overlapping_callers_and_the_last_out_restores():
    # the first caller leaves while the second is still inside
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    inside = []

    def first():
        with bench._one_blas_thread():
            first_in.set()
            second_in.wait()
        first_out.set()

    def second():
        first_in.wait()
        with bench._one_blas_thread():
            second_in.set()
            first_out.wait()
            inside.append(bench._blas_threads())

    before = bench._blas_threads()
    try:
        _set_blas_threads(3)
        callers = [threading.Thread(target=first), threading.Thread(target=second)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
        assert inside == [1] and bench._blas_threads() == 3
    finally:
        _set_blas_threads(before)


def test_one_blas_thread_under_many_racing_callers():
    inside, switch = set(), sys.getswitchinterval()

    def caller():
        for _ in range(200):
            with bench._one_blas_thread():
                inside.add(bench._blas_threads())

    before = bench._blas_threads()
    callers = [threading.Thread(target=caller) for _ in range(8)]
    try:
        _set_blas_threads(3)
        sys.setswitchinterval(1e-6)
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
        after = bench._blas_threads()
        _set_blas_threads(before)
    assert not any(thread.is_alive() for thread in callers)
    assert inside == {1} and after == 3


@pytest.mark.parametrize("threads", [1, 2])
def test_environment_info_reads_back_the_blas_thread_count(threads):
    # OpenBLAS caps the requested count at the CPUs the process may run on
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    code = "import os, mvdeg; print(mvdeg.environment_info()['threads'], len(os.sched_getaffinity(0)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    blas, cpus = map(int, out.split())
    assert blas == min(threads, cpus)


# ── curve aggregation ────────────────────────────────────────────────────────


def test_aggregate_mean_and_sd():
    merged = aggregate_curves([_curve([0.4, None]), _curve([0.6, None])], method="wgn")
    first, second = merged.records
    assert first.mean == pytest.approx(0.5, abs=1e-15)
    assert first.sd == pytest.approx(math.sqrt(0.02), abs=1e-12)
    assert first.n_realizations == 2
    assert second.defined is False and second.n_realizations == 0
    assert merged.method == "wgn"


def test_aggregate_single_curve_sd_zero():
    merged = aggregate_curves([_curve([0.7])], method="solo")
    assert merged.records[0].sd == 0.0
    assert merged.records[0].n_realizations == 1


def test_aggregate_validation():
    with pytest.raises(DimensionError):
        aggregate_curves([], method="none")
    other = EntropyCurve(
        method="x", records=_curve([0.4]).records, m=3, c=3, graph="zero(n=2)"
    )
    with pytest.raises(DimensionError):
        aggregate_curves([_curve([0.4]), other], method="mix")
    with pytest.raises(DimensionError):
        aggregate_curves([_curve([0.4]), _curve([None])], method="mix")


# ── ensemble experiments ─────────────────────────────────────────────────────


def test_noise_experiment_structure_and_determinism():
    conditions = [
        ("white", GeneratorSpec("wgn", p=2, n_samples=64, seed=0)),
        ("pink", GeneratorSpec("one_over_f", p=2, n_samples=64, seed=0)),
    ]
    cfg = EmbeddingConfig(m=2, c=3, max_scale=3)
    report = run_noise_experiment(conditions, "zero", cfg, realizations=2, seed=9)
    assert report.label == "noise"
    assert report.realizations == 2
    assert [curve.method for curve in report.curves] == ["white", "pink"]
    for curve in report.curves:
        assert len(curve.records) == 3
        for record in curve.records:
            assert record.defined and record.n_realizations == 2
    assert report.config["graph_policy"] == "zero"
    assert report.config["conditions"] == ["white", "pink"]

    again = run_noise_experiment(conditions, "zero", cfg, realizations=2, seed=9)
    assert again.curves == report.curves  # same seed, same values, bit for bit


def test_theoretical_policy_on_independent_noise_matches_edgeless():
    conditions = [("white", GeneratorSpec("wgn", p=3, n_samples=60, seed=0))]
    cfg = EmbeddingConfig(m=2, c=4, max_scale=2)
    zero = run_noise_experiment(conditions, "zero", cfg, realizations=2, seed=4)
    theo = run_noise_experiment(conditions, "theoretical", cfg, realizations=2, seed=4)
    assert zero.curves[0].records == theo.curves[0].records


def test_noise_experiment_validation():
    conditions = [("white", GeneratorSpec("wgn", p=2, n_samples=40, seed=0))]
    cfg = EmbeddingConfig(m=2, c=3, max_scale=2)
    with pytest.raises(DimensionError):
        run_noise_experiment(conditions, "zero", cfg, realizations=0, seed=1)
    with pytest.raises(DimensionError):
        run_noise_experiment(conditions, "nearest", cfg, realizations=1, seed=1)


def test_compare_graph_policies_summary():
    spec = GeneratorSpec(
        "correlated",
        p=2,
        n_samples=200,
        seed=0,
        params={"corr": [[1.0, 0.8], [0.8, 1.0]]},
    )
    cfg = EmbeddingConfig(m=2, c=3, max_scale=2)
    report = compare_graph_policies(spec, cfg, realizations=2, seed=13)
    assert [curve.method for curve in report.curves] == ["theoretical", "estimated"]
    diffs = report.summary["mean_abs_diff_per_scale"]
    assert len(diffs) == 2
    assert all(d >= 0.0 for d in diffs)
    assert report.summary["max_mean_abs_diff"] == max(diffs)
    again = compare_graph_policies(spec, cfg, realizations=2, seed=13)
    assert again.summary == report.summary


def test_compare_graph_policies_matches_single_policy_experiments():
    spec = GeneratorSpec(
        "correlated", p=3, n_samples=150, seed=0,
        params={"corr": uniform_correlation(3, 0.7).tolist()},
    )
    cfg = EmbeddingConfig(m=2, c=4, max_scale=3)
    compared = compare_graph_policies(spec, cfg, realizations=3, seed=21)
    for policy, curve in zip(("theoretical", "estimated"), compared.curves):
        alone = run_noise_experiment([(policy, spec)], policy, cfg, realizations=3, seed=21)
        assert alone.curves == (curve,)  # bit for bit, records and all


# ── correlation-structure helpers ────────────────────────────────────────────


def test_uniform_correlation():
    corr = uniform_correlation(3, 0.5)
    assert np.array_equal(np.diag(corr), np.ones(3))
    assert corr[0, 1] == corr[1, 2] == 0.5
    with pytest.raises(DimensionError):
        uniform_correlation(3, 1.5)


@pytest.mark.parametrize("p", [0, -1])
def test_uniform_correlation_refuses_fewer_than_one_channel(p):
    with pytest.raises(DimensionError, match="channel count must be >= 1"):
        uniform_correlation(p, 0.5)


def test_block_correlation_values():
    corr = block_correlation(4, [(0, 1), (2, 3)], 0.9)
    assert corr[0, 1] == corr[1, 0] == 0.9
    assert corr[2, 3] == corr[3, 2] == 0.9
    assert corr[0, 2] == corr[1, 3] == 0.0
    assert np.array_equal(np.diag(corr), np.ones(4))


def test_block_correlation_validation():
    with pytest.raises(DimensionError):
        block_correlation(4, [(0, 1), (1, 2)], 0.9)  # overlapping blocks
    with pytest.raises(DimensionError):
        block_correlation(4, [(0, 4)], 0.9)  # channel out of range


def test_structured_sets_are_factorizable():
    sets = structured_correlation_sets()
    assert [label for label, _ in sets] == [
        "uncorrelated",
        "one-pair",
        "two-pairs",
        "triple",
        "all-correlated",
    ]
    for _, corr in sets:
        assert corr.shape == (4, 4)
        sig = gen_correlated(4, 16, corr, seed=1)  # must not raise
        assert sig.p == 4
    by_label = dict(sets)
    assert by_label["uncorrelated"][0, 1] == 0.0
    assert by_label["two-pairs"][0, 1] == 0.9 and by_label["two-pairs"][0, 2] == 0.0
    assert np.all(by_label["all-correlated"][~np.eye(4, dtype=bool)] == 0.9)
