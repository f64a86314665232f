"""Entropy curves run their scales on a thread pool: values and errors match a serial loop."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mvdeg.entropy as entropy
from mvdeg import (
    CapacityError,
    EmbeddingConfig,
    FloatRangeError,
    WeightedGraph,
    build_complete_graph,
    classical_mvde,
    classical_mvde_curve,
    coarse_grain,
    estimate_correlation_graph,
    gen_wgn,
    mvdeg_curve,
    mvdeg_single_scale,
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
        _curve(100, EmbeddingConfig(m=2, c=3, max_scale=8), entropy_at, "mvdeg", "test")


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
    curve = _curve(3 * defined, EmbeddingConfig(m=2, c=3, max_scale=20), float, "mvdeg", "test")
    assert pool_sizes == [workers]
    assert [r.mean for r in curve.records if r.defined] == [float(t) for t in range(1, defined + 1)]


def test_pool_falls_back_to_the_cpu_count_without_an_affinity_api(monkeypatch, pool_sizes):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _curve(100, EmbeddingConfig(m=2, c=3, max_scale=20), float, "mvdeg", "test")
    assert pool_sizes == [3]


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


def test_classical_curve_refuses_before_any_scale_runs(monkeypatch):
    signal = gen_wgn(2, 200, 3)
    calls = []
    monkeypatch.setattr(entropy, "classical_mvde", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(CapacityError) as err:
        classical_mvde_curve(signal, EmbeddingConfig(m=3, c=4, max_scale=5), pattern_cap=1000)
    assert (err.value.count, err.value.cap) == (198 * 20, 1000)
    assert calls == []
