"""Byte contract of the command line: stdout, stderr, exit code and written files.

Each case runs main(argv) in process, in a fresh directory that holds copies of
data/cli_contract/inputs, and must reproduce data/cli_contract/<case>/ exactly:
``stdout``, ``stderr``, ``exit_code`` and ``files/<path>`` for every file the
command wrote. Bench reports carry wall times and the environment, so those are
masked on both sides. The expected data is written by make_cli_contract.py,
which this test never calls; regenerating it changes what the test pins. Like
the float.hex goldens, the data is pinned to the installed numpy version, and
its usage messages, formatted at COLUMNS=80, to the installed Python's
argparse. The cases in ONE_CPU run the command line in a child process
limited to one CPU, where the curve's thread pool has a single worker, and
must write the same bytes as the in-process run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mvdeg.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_contract"
INPUTS = DATA / "inputs"
SOURCE = Path(__file__).resolve().parent.parent / "src"

_GAUSSIAN = ("graph", "--kind", "gaussian", "--sigma1-sq", "1.0", "--sigma2", "2.5", "--out", "g.json")

CASES: dict[str, tuple[str, ...]] = {
    "entropy-mde": (
        "entropy", "--input", "one.csv", "--method", "mde", "--m", "3", "--out", "curve.csv",
    ),
    "entropy-mde-two-channels": (
        "entropy", "--input", "two.csv", "--method", "mde", "--out", "curve.csv",
    ),
    "generate-mixture": (
        "generate", "--kind", "mixture", "--q", "1", "--n", "64", "--seed", "3", "--out", "mix.csv",
    ),
    "generate-mixture-white-n3": (
        "generate", "--kind", "mixture", "--q", "3", "--n", "3", "--out", "mix.csv",
    ),
    "generate-wgn": ("generate", "--kind", "wgn", "--p", "2", "--n", "16", "--seed", "4", "--out", "sig.csv"),
    "generate-one-over-f": (
        "generate", "--kind", "one_over_f", "--p", "2", "--n", "16", "--seed", "5", "--out", "sig.csv",
    ),
    "generate-correlated": (
        "generate", "--kind", "correlated", "--corr", "corr.json", "--n", "16", "--seed", "6",
        "--out", "sig.csv",
    ),
    "generate-correlated-singular": (
        "generate", "--kind", "correlated", "--corr", "corr_singular.json", "--n", "16",
        "--out", "sig.csv",
    ),
    "generate-mixture-q0": (
        "generate", "--kind", "mixture", "--q", "0", "--n", "16", "--seed", "7", "--out", "mix.csv",
    ),
    "generate-mixture-q5": ("generate", "--kind", "mixture", "--q", "5", "--n", "16", "--out", "mix.csv"),
    "generate-correlated-asymmetric": (
        "generate", "--kind", "correlated", "--corr", "corr_asymmetric.json", "--n", "16",
        "--out", "sig.csv",
    ),
    "generate-correlated-not-psd": (
        "generate", "--kind", "correlated", "--corr", "corr_not_psd.json", "--n", "16",
        "--out", "sig.csv",
    ),
    "generate-negative-seed": (
        "generate", "--kind", "wgn", "--p", "2", "--n", "16", "--seed", "-1", "--out", "sig.csv",
    ),
    "generate-one-sample": ("generate", "--kind", "wgn", "--p", "2", "--n", "1", "--out", "sig.csv"),
    "generate-one-over-f-n3": (
        "generate", "--kind", "one_over_f", "--p", "1", "--n", "3", "--out", "sig.csv",
    ),
    **{
        f"ensemble-{experiment}-{policy}": (
            "ensemble", "--experiment", experiment, "--graph-policy", policy, "--n", "60",
            "--realizations", "2", "--m", "3", "--max-scale", "3", "--seed", "1",
            "--degrees", "0.5,2" if experiment == "graph-compare" else "0.9,0.3", "--out", "ens",
        )
        for experiment, policies in (
            ("degrees", ("zero", "estimated")),
            ("sets", ("zero", "complete")),
            ("graph-compare", ("zero", "estimated")),
        )
        for policy in policies
    },
    "ensemble-mixture": (
        "ensemble", "--experiment", "mixture", "--n", "120", "--realizations", "2",
        "--m", "3", "--max-scale", "4", "--seed", "5", "--out", "ens",
    ),
    "ensemble-mixture-no-realizations": (
        "ensemble", "--experiment", "mixture", "--realizations", "0", "--out", "ens",
    ),
    "ensemble-graph-compare-no-realizations": (
        "ensemble", "--experiment", "graph-compare", "--realizations", "0", "--out", "ens",
    ),
    "bench-refused-classical": (
        "bench", "--Ns", "20,200", "--p", "2", "--m", "3", "--cap", "1000", "--out", "bench",
    ),
    "graph-gaussian": (*_GAUSSIAN, "--coords", "stations.csv"),
    "graph-gaussian-blank-lines": (*_GAUSSIAN, "--coords", "stations_blank.csv"),
    "graph-gaussian-1_0-cell": (*_GAUSSIAN, "--coords", "stations_1_0.csv"),
    "graph-gaussian-empty-file": (*_GAUSSIAN, "--coords", "empty.csv"),
    "graph-gaussian-wrong-columns": (*_GAUSSIAN, "--coords", "stations_columns.csv"),
    "entropy-empty-file": ("entropy", "--input", "empty.csv", "--out", "curve.csv"),
    "entropy-header-only": ("entropy", "--input", "header_only.csv", "--out", "curve.csv"),
    "entropy-wrong-columns": ("entropy", "--input", "signal_columns.csv", "--out", "curve.csv"),
    "entropy-blank-lines": (
        "entropy", "--input", "signal_blank.csv", "--m", "2", "--max-scale", "3", "--out", "curve.csv",
    ),
    "entropy-1_0-cell": (
        "entropy", "--input", "signal_1_0.csv", "--m", "2", "--max-scale", "3", "--out", "curve.csv",
    ),
    **{
        f"entropy-mvdeg-{name}": (
            "entropy", "--input", "three.csv", "--method", "mvdeg", "--graph", graph,
            "--m", "3", "--max-scale", "5", "--out", "curve.csv",
        )
        for name, graph in (
            ("zero", "zero"), ("complete", "complete"), ("correlation", "correlation"),
            ("json-graph", "graph3.json"),
        )
    },
    "entropy-mvdeg-m6": (
        "entropy", "--input", "three.csv", "--graph", "graph3.json", "--m", "6", "--max-scale", "3",
        "--out", "curve.csv",
    ),
    "entropy-mvdeg-max-scale-20": (
        "entropy", "--input", "three.csv", "--graph", "correlation", "--max-scale", "20",
        "--out", "curve.csv",
    ),
    "entropy-classical": (
        "entropy", "--input", "two.csv", "--method", "classical", "--m", "3", "--max-scale", "4",
        "--out", "curve.csv",
    ),
    "entropy-classical-refused": (
        "entropy", "--input", "three.csv", "--method", "classical", "--cap", "1000", "--out", "curve.csv",
    ),
    "entropy-constant": ("entropy", "--input", "constant.csv", "--max-scale", "3", "--out", "curve.csv"),
    "entropy-constant-correlation": (
        "entropy", "--input", "constant.csv", "--graph", "correlation", "--out", "curve.csv",
    ),
    "graph-zero": ("graph", "--kind", "zero", "--p", "3", "--out", "g.json"),
    "graph-complete": ("graph", "--kind", "complete", "--p", "3", "--out", "g.json"),
    "graph-correlation": ("graph", "--kind", "correlation", "--signal", "three.csv", "--out", "g.json"),
    # N * p = 51,200 samples: the curve runs its scales on the thread pool
    **{
        name: (
            "entropy", "--input", "pooled.csv", "--method", "mvdeg", "--graph", "correlation",
            "--out", "curve.csv",
        )
        for name in ("entropy-mvdeg-pooled", "entropy-mvdeg-pooled-one-cpu")
    },
    "version": ("--version",),
    **{
        f"usage-{name}": argv
        for name, argv in (
            ("no-command", ()),
            ("unknown-command", ("frobnicate",)),
            ("unknown-choice", ("generate", "--kind", "violet", "--n", "10", "--out", "s.csv")),
            ("missing-required", ("generate", "--kind", "wgn", "--p", "2", "--n", "10")),
            ("not-an-integer", ("entropy", "--input", "two.csv", "--m", "four", "--out", "c.csv")),
            ("unknown-flag", (
                "ensemble", "--experiment", "mixture", "--threads", "2", "--out", "ens",
            )),
            ("mixture-no-q", ("generate", "--kind", "mixture", "--n", "16", "--out", "s.csv")),
            ("mixture-p2", (
                "generate", "--kind", "mixture", "--q", "1", "--p", "2", "--n", "16", "--out", "s.csv",
            )),
            ("correlated-no-corr", ("generate", "--kind", "correlated", "--n", "16", "--out", "s.csv")),
            ("correlated-p-conflict", (
                "generate", "--kind", "correlated", "--corr", "corr.json", "--p", "2", "--n", "16",
                "--out", "s.csv",
            )),
            ("wgn-no-p", ("generate", "--kind", "wgn", "--n", "16", "--out", "s.csv")),
            ("graph-zero-no-p", ("graph", "--kind", "zero", "--out", "g.json")),
            ("graph-correlation-no-signal", ("graph", "--kind", "correlation", "--out", "g.json")),
            ("graph-gaussian-no-sigma", (
                "graph", "--kind", "gaussian", "--coords", "stations.csv", "--out", "g.json",
            )),
            ("entropy-gaussian-no-coords", (
                "entropy", "--input", "three.csv", "--graph", "gaussian", "--out", "c.csv",
            )),
            ("entropy-missing-input", ("entropy", "--input", "missing.csv", "--out", "c.csv")),
            ("bench-empty-ns", ("bench", "--Ns", ",,", "--out", "bench")),
            ("bench-ns-not-integers", ("bench", "--Ns", "20,x", "--out", "bench")),
            ("bench-empty-methods", ("bench", "--Ns", "20", "--methods", ",", "--out", "bench")),
            ("bench-unknown-method", ("bench", "--Ns", "20", "--methods", "fft", "--out", "bench")),
            ("ensemble-empty-degrees", (
                "ensemble", "--experiment", "degrees", "--degrees", ",,", "--out", "ens",
            )),
            ("ensemble-degrees-not-numbers", (
                "ensemble", "--experiment", "degrees", "--degrees", "0.5,x", "--out", "ens",
            )),
        )
    },
}
ONE_CPU = frozenset({"entropy-mvdeg-pooled-one-cpu"})

# pins the process to one CPU, then runs the command line on the arguments
_ONE_CPU_CHILD = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from mvdeg.cli import main
sys.exit(main(sys.argv[1:]))
"""

_MASK = "<masked>"
_WALL_TIME = re.compile(r"\d+\.\d{6}s")


def _mask_bench_file(name: str, data: bytes) -> bytes:
    """A bench report with its environment and every measured wall time masked."""
    if name.endswith(".json"):
        report = json.loads(data)
        report["environment"] = _MASK
        for cell in report["cells"]:
            if cell["wall_time_s"] is not None:
                cell["wall_time_s"] = _MASK
        return (json.dumps(report, indent=1) + "\n").encode()
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    column = rows[0].index("wall_time_s")
    for row in rows[1:]:
        if row[column]:
            row[column] = _MASK
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode()


def run_case(
    argv: tuple[str, ...], workdir: Path, one_cpu: bool = False
) -> tuple[int, str, str, dict[str, bytes]]:
    """Run main(argv) in workdir, seeded with the inputs, at COLUMNS=80; in a child
    process on one CPU when one_cpu. Return the exit code, stdout, stderr and
    {relative path: bytes} of every file it wrote."""
    inputs = set()
    for source in sorted(INPUTS.iterdir()):
        shutil.copyfile(source, workdir / source.name)
        inputs.add(source.name)
    if one_cpu:
        path = [str(SOURCE), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        child = subprocess.run(
            [sys.executable, "-c", _ONE_CPU_CHILD, *argv], cwd=workdir, capture_output=True,
            text=True, env=dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(path)),
        )
        code, out, err = child.returncode, child.stdout, child.stderr
    else:
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
        os.chdir(workdir)
        os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
        out, err = stdout.getvalue(), stderr.getvalue()
    files = {
        path.relative_to(workdir).as_posix(): path.read_bytes()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.relative_to(workdir).as_posix() not in inputs
    }
    if argv[:1] == ("bench",):
        out = _WALL_TIME.sub(_MASK, out)
        files = {name: _mask_bench_file(name, data) for name, data in files.items()}
    return code, out, err, files


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_contract(case, tmp_path):
    if case in ONE_CPU and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity API")
    expected = DATA / case
    code, out, err, files = run_case(CASES[case], tmp_path, one_cpu=case in ONE_CPU)
    assert code == int((expected / "exit_code").read_text())
    assert out == (expected / "stdout").read_text()
    assert err == (expected / "stderr").read_text()
    stored = expected / "files"
    want = sorted(p.relative_to(stored).as_posix() for p in stored.rglob("*") if p.is_file())
    assert sorted(files) == want
    for name in want:
        assert files[name].decode() == (stored / name).read_bytes().decode()


def test_every_case_has_data_and_every_data_dir_a_case():
    dirs = {p.name for p in DATA.iterdir() if p.is_dir() and p != INPUTS}
    assert dirs == set(CASES)
