"""Large entropy curves run their scales on a thread pool, small ones and the
realizations of an ensemble run serially: values and errors match a serial loop."""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mvdeg.bench as bench
import mvdeg.entropy as entropy
from mvdeg import (
    CapacityError,
    EmbeddingConfig,
    FloatRangeError,
    GeneratorSpec,
    MultivariateSignal,
    WeightedGraph,
    aggregate_curves,
    build_complete_graph,
    build_zero_graph,
    classical_mvde,
    classical_mvde_curve,
    coarse_grain,
    estimate_correlation_graph,
    gen_wgn,
    generate,
    mvdeg_curve,
    mvdeg_single_scale,
    realization_seed,
    run_noise_experiment,
    univariate_mde,
    univariate_single_scale,
    write_signal_csv,
)
from mvdeg.entropy import _curve

SOURCE = Path(__file__).resolve().parent.parent / "src"
WORKERS = [1, 2, 3, 8]


@pytest.fixture
def affinity(monkeypatch):
    """Make the process look as if it may run on `cpus` CPUs."""

    def set_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    return set_cpus


def serial_means(n_samples, config, entropy_at):
    return [
        entropy_at(tau) if n_samples // tau >= config.m + 1 else None
        for tau in range(1, config.max_scale + 1)
    ]


def assert_same_means(curve, want):
    got = [r.mean if r.defined else None for r in curve.records]
    assert [None if v is None else v.hex() for v in got] == [
        None if v is None else v.hex() for v in want
    ]
    assert [r.tau for r in curve.records] == list(range(1, len(want) + 1))


@pytest.mark.parametrize("cpus", WORKERS)
def test_mvdeg_curve_is_the_serial_single_scale_loop(affinity, cpus):
    affinity(cpus)
    signal = gen_wgn(5, 3_000, 1)
    graph = estimate_correlation_graph(signal)
    config = EmbeddingConfig(m=4, c=6, max_scale=800)  # scales from 600 on are undefined
    want = serial_means(
        signal.n_samples, config,
        lambda tau: mvdeg_single_scale(coarse_grain(signal, tau), graph, 4, 6)[0],
    )
    assert_same_means(mvdeg_curve(signal, graph, config), want)


@pytest.mark.parametrize("cpus", WORKERS)
def test_univariate_mde_is_the_serial_single_scale_loop(affinity, cpus):
    affinity(cpus)
    signal = gen_wgn(1, 20_000, 2)
    channel = signal.values[0]
    config = EmbeddingConfig(m=3, c=5, max_scale=30)
    want = serial_means(
        channel.size, config,
        lambda tau: univariate_single_scale(coarse_grain(signal, tau).values[0], 3, 5)[0],
    )
    assert_same_means(univariate_mde(channel, config), want)


@pytest.mark.parametrize("cpus", WORKERS)
def test_classical_curve_is_the_serial_single_scale_loop(affinity, cpus):
    affinity(cpus)
    signal = gen_wgn(3, 400, 3)
    config = EmbeddingConfig(m=3, c=4, max_scale=150)
    want = serial_means(
        signal.n_samples, config, lambda tau: classical_mvde(signal, 3, 4, tau=tau)[0]
    )
    assert_same_means(classical_mvde_curve(signal, config), want)


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("cpus", WORKERS)
def test_failing_scales_raise_what_the_serial_loop_raises(affinity, cpus):
    affinity(cpus)
    # every scale is over the cap, each with its own pattern count: tau = 1's error comes first
    signal = gen_wgn(3, 400, 3)
    config = EmbeddingConfig(m=3, c=4, max_scale=10)
    want = raised(lambda: classical_mvde(signal, 3, 4, tau=1, pattern_cap=1000))
    assert want[0] is CapacityError
    assert raised(lambda: classical_mvde_curve(signal, config, pattern_cap=1000)) == want

    graph = WeightedGraph(build_complete_graph(3).weights * 1.7e308)
    want = raised(lambda: mvdeg_single_scale(signal, graph, 4, 6))
    assert want[0] is FloatRangeError
    assert raised(lambda: mvdeg_curve(signal, graph, EmbeddingConfig(4, 6, 10))) == want


@pytest.mark.parametrize("cpus", WORKERS)
def test_first_failing_scale_in_tau_order_wins(affinity, cpus):
    affinity(cpus)
    # scale 3 fails last in wall time, scale 5 first; the loop's error is scale 3's
    def entropy_at(tau):
        if tau == 3:
            time.sleep(0.2)
        if tau in (3, 5):
            raise ValueError(f"scale {tau}")
        return float(tau)

    with pytest.raises(ValueError, match="^scale 3$"):
        _curve(100, EmbeddingConfig(m=2, c=3, max_scale=8), entropy_at, "mvdeg", "test", pooled=True)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every pool _curve makes, in order."""
    sizes = []

    class Recording(entropy.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(entropy, "ThreadPoolExecutor", Recording)
    return sizes


@pytest.mark.parametrize("cpus, defined, workers", [(1, 20, 1), (2, 20, 2), (8, 3, 3), (4, 1, 1)])
def test_pool_has_one_worker_per_cpu_and_at_most_one_per_scale(
    affinity, pool_sizes, cpus, defined, workers
):
    affinity(cpus)
    # n_samples // tau >= m + 1 = 3 holds for tau = 1 .. defined
    config = EmbeddingConfig(m=2, c=3, max_scale=20)
    curve = _curve(3 * defined, config, float, "mvdeg", "test", pooled=True)
    assert pool_sizes == [workers]
    assert [r.mean for r in curve.records if r.defined] == [float(t) for t in range(1, defined + 1)]


def test_pool_falls_back_to_the_cpu_count_without_an_affinity_api(monkeypatch, pool_sizes):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _curve(100, EmbeddingConfig(m=2, c=3, max_scale=20), float, "mvdeg", "test", pooled=True)
    assert pool_sizes == [3]


def test_a_small_curve_runs_its_scales_serially(affinity, pool_sizes):
    affinity(2)
    # the criterion-6 ensemble's curve: p=3, N=15k
    signal = gen_wgn(3, 15_000, 5)
    mvdeg_curve(signal, build_zero_graph(3), EmbeddingConfig(4, 6, 20))
    assert pool_sizes == []


def test_a_curve_from_the_threshold_up_pools_its_scales(affinity, pool_sizes):
    affinity(2)
    half = entropy._POOL_MIN_SAMPLES // 2
    config = EmbeddingConfig(3, 4, 6)
    graph = build_complete_graph(2)
    signal = gen_wgn(2, half, 6)
    curve = mvdeg_curve(signal, graph, config)
    assert pool_sizes == [2]
    assert_same_means(curve, serial_means(
        half, config, lambda tau: mvdeg_single_scale(coarse_grain(signal, tau), graph, 3, 4)[0]
    ))
    mvdeg_curve(gen_wgn(2, half - 1, 6), graph, config)
    assert pool_sizes == [2]


MIXTURES = [(f"F({q})", GeneratorSpec("mixture", 3, 300, 0, {"q": q})) for q in (0, 3)]


def serial_ensemble(conditions, config, realizations, seed):
    """run_noise_experiment's curves on the zero graph, from a plain loop."""
    return [
        aggregate_curves(
            [
                mvdeg_curve(
                    generate(replace(spec, seed=realization_seed(seed, i, r))),
                    build_zero_graph(spec.p), config,
                )
                for r in range(realizations)
            ],
            method=label, seed=seed,
        )
        for i, (label, spec) in enumerate(conditions)
    ]


def bits(curves):
    return [
        (c.method, [(r.tau, r.mean.hex(), r.sd.hex(), r.n_realizations) for r in c.records])
        for c in curves
    ]


@pytest.mark.parametrize("cpus", WORKERS)
def test_ensembles_run_their_realizations_serially(affinity, pool_sizes, monkeypatch, cpus):
    affinity(cpus)
    config = EmbeddingConfig(4, 6, 8)
    report = run_noise_experiment(MIXTURES, "zero", config, 3, 11)
    # curves below the threshold: no pool at either level
    assert pool_sizes == []
    assert bits(report.curves) == bits(serial_ensemble(MIXTURES, config, 3, 11))

    # curves from the threshold up each pool their own scales, one curve at a time
    n = -(-entropy._POOL_MIN_SAMPLES // 3)
    large = [(label, replace(spec, n_samples=n)) for label, spec in MIXTURES]
    config = EmbeddingConfig(4, 6, 3)
    which = {realization_seed(11, i, r): (i, r) for i in range(2) for r in range(2)}

    def marked_generate(spec):
        pool_sizes.append(which[spec.seed])
        return generate(spec)

    monkeypatch.setattr(bench, "generate", marked_generate)
    report = run_noise_experiment(large, "zero", config, 2, 11)
    workers = min(cpus, 3)
    assert pool_sizes == [(0, 0), workers, (0, 1), workers, (1, 0), workers, (1, 1), workers]
    assert bits(report.curves) == bits(serial_ensemble(large, config, 2, 11))


@pytest.mark.parametrize("cpus", WORKERS)
def test_first_failing_realization_in_order_wins(affinity, monkeypatch, cpus):
    affinity(cpus)
    # realization 3 fails last in wall time, 5 first; the loop's error is realization 3's
    realization = {realization_seed(11, 0, r): r for r in range(8)}

    def failing_generate(spec):
        r = realization[spec.seed]
        if r == 3:
            time.sleep(0.2)
        if r in (3, 5):
            raise ValueError(f"realization {r}")
        return generate(spec)

    monkeypatch.setattr(bench, "generate", failing_generate)
    with pytest.raises(ValueError, match="^realization 3$"):
        run_noise_experiment(MIXTURES[:1], "zero", EmbeddingConfig(4, 6, 8), 8, 11)


CHILD = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    assert len(os.sched_getaffinity(0)) == 1
from mvdeg.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
def test_cli_output_does_not_depend_on_the_cpus_it_may_use(tmp_path):
    signal_csv = tmp_path / "signal.csv"
    write_signal_csv(gen_wgn(6, 4_000, 4), signal_csv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SOURCE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    outputs = []
    for mode in ("pin", "free"):
        out = tmp_path / f"{mode}.csv"
        subprocess.run(
            [sys.executable, "-c", CHILD, mode, "entropy", "--input", str(signal_csv),
             "--graph", "correlation", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append((out.read_bytes(), Path(f"{out}.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert np.isfinite(float(outputs[0][0].splitlines()[1].split(b",")[2]))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
def test_cli_ensemble_does_not_depend_on_the_cpus_it_may_use(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SOURCE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    outputs = []
    for mode in ("pin", "free"):
        out = tmp_path / mode
        subprocess.run(
            [sys.executable, "-c", CHILD, mode, "ensemble", "--experiment", "mixture",
             "--n", "400", "--realizations", "3", "--max-scale", "6", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append((Path(f"{out}.csv").read_bytes(), Path(f"{out}.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) == 1 + 4 * 6  # header, 4 conditions x 6 scales


@pytest.mark.parametrize("p, n", [(3, 1201), (8, 20_000)])  # a serial curve, a pooled one
def test_curve_of_an_f_ordered_signal_is_its_single_scales_bit_for_bit(p, n, monkeypatch):
    # scales from 2 coarse-grain a C-ordered copy; scale 1 reads the values as
    # given, because the bits of their moments depend on the memory order
    signal = MultivariateSignal(np.random.default_rng(p).standard_normal((n, p)).T)
    assert not signal.values.flags.c_contiguous
    graph = estimate_correlation_graph(signal)
    scaled = {}

    def single_scale(coarse, *args):
        scaled[coarse.n_samples] = coarse.values
        return mvdeg_single_scale(coarse, *args)

    monkeypatch.setattr(entropy, "mvdeg_single_scale", single_scale)
    curve = mvdeg_curve(signal, graph, EmbeddingConfig(m=3, c=6))
    assert scaled[n] is signal.values
    for record in curve.records:
        value = mvdeg_single_scale(coarse_grain(signal, record.tau), graph, 3, 6)[0]
        assert record.mean.hex() == value.hex(), record.tau


def test_classical_curve_refuses_before_any_scale_runs(monkeypatch):
    signal = gen_wgn(2, 200, 3)
    calls = []
    monkeypatch.setattr(entropy, "_digits_from_cells", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(CapacityError) as err:
        classical_mvde_curve(signal, EmbeddingConfig(m=3, c=4, max_scale=5), pattern_cap=1000)
    assert (err.value.count, err.value.cap) == (198 * 20, 1000)
    assert calls == []
