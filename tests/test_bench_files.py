"""Schema of the committed benchmark summaries, BENCH_*.json at the repository root.

Each is the --json output of perfbench/sweep.py: per workload, the seeds and
run length, whether every run checked out, and for each end-to-end metric
BENCHMARK.json declares, its unit, median, quartiles, spread and per-run values.
BENCH_*.pairs.json files hold paired perfbench/run.py runs instead.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(path for path in ROOT.glob("BENCH_*.json") if not path.name.endswith(".pairs.json"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_benchmark_summary_holds_every_workload_and_metric(path):
    summary = json.loads(path.read_text())
    assert set(summary) == {workload["name"] for workload in DECLARED["workloads"]}
    metrics = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
    for run in summary.values():
        runs = len(run["seeds"])
        assert runs >= 2 and run["trace"] == 0 and run["correct"] is True
        assert len(run["wall_s"]) == runs
        assert {name: row["unit"] for name, row in run["metrics"].items()} == metrics
        for row in run["metrics"].values():
            assert len(row["values"]) == runs
            assert row["q1"] <= row["median"] <= row["q3"]
            assert min(row["values"]) <= row["median"] <= max(row["values"])


def test_benchmark_summaries_are_committed():
    assert FILES
