"""End-to-end command-line behavior, driven in process through main(argv)."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mvdeg.bench as bench
import mvdeg.cli as cli
from mvdeg.cli import main

SOURCE = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main(list(argv))


def write_golden_signal(path):
    path.write_text("x\n1.0\n2.0\n3.0\n4.0\n5.0\n")


# ── version and usage errors ─────────────────────────────────────────────────


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "mvdeg" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert run("frobnicate") == 1


def test_unknown_choice_is_usage_error(tmp_path, capsys):
    assert run("generate", "--kind", "violet", "--n", "10", "--out", str(tmp_path / "s.csv")) == 1


# ── generate ─────────────────────────────────────────────────────────────────


def test_generate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ("generate", "--kind", "wgn", "--p", "2", "--n", "50", "--seed", "9")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    assert sidecar["kind"] == "wgn"
    assert sidecar["p"] == 2
    assert sidecar["n_samples"] == 50
    assert sidecar["seed"] == 9
    assert sidecar["generator_version"] == "pcg64-v1"
    assert sidecar["package"].startswith("mvdeg ")


def test_generate_mixture_requires_q(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    assert run("generate", "--kind", "mixture", "--n", "32", "--out", out) == 1
    assert run("generate", "--kind", "mixture", "--q", "2", "--p", "2", "--n", "32", "--out", out) == 1
    assert run("generate", "--kind", "mixture", "--q", "2", "--n", "32", "--out", out) == 0
    with open(out, newline="") as f:
        header = next(csv.reader(f))
    assert len(header) == 3


def test_generate_wgn_requires_p(tmp_path, capsys):
    assert run("generate", "--kind", "wgn", "--n", "32", "--out", str(tmp_path / "s.csv")) == 1


def test_generate_correlated_from_json(tmp_path, capsys):
    corr = tmp_path / "corr.json"
    corr.write_text("[[1.0, 0.6], [0.6, 1.0]]\n")
    out = str(tmp_path / "c.csv")
    assert run("generate", "--kind", "correlated", "--corr", str(corr), "--n", "40", "--out", out) == 0
    with open(out, newline="") as f:
        header = next(csv.reader(f))
    assert len(header) == 2
    assert run(
        "generate", "--kind", "correlated", "--corr", str(corr), "--p", "3",
        "--n", "40", "--out", str(tmp_path / "d.csv"),
    ) == 1


def test_generate_non_psd_correlation_refused(tmp_path, capsys):
    corr = tmp_path / "corr.json"
    corr.write_text("[[1.0, 1.2], [1.2, 1.0]]\n")
    code = run(
        "generate", "--kind", "correlated", "--corr", str(corr),
        "--n", "40", "--out", str(tmp_path / "c.csv"),
    )
    assert code == 4
    assert "order 2" in capsys.readouterr().err


# ── graph ────────────────────────────────────────────────────────────────────


def test_graph_zero_and_complete(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run("graph", "--kind", "zero", "--p", "3", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 3
    assert np.all(np.array(obj["weights"]) == 0.0)
    assert run("graph", "--kind", "complete", "--p", "3", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert np.array(obj["weights"]).sum() == 6.0


def test_graph_too_big_to_allocate_is_one_line_and_exit_4(tmp_path, capsys):
    # numpy refuses the 6.94 EiB request at once, so nothing is allocated
    assert run("graph", "--kind", "zero", "--p", "1000000000", "--out", str(tmp_path / "g.json")) == 4
    err = capsys.readouterr().err
    assert err.startswith("mvdeg: Unable to allocate 6.94 EiB") and err.count("\n") == 1
    assert not (tmp_path / "g.json").exists()


def test_graph_numpy_cannot_size_is_one_line_and_exit_4(tmp_path, capsys):
    # 2.5e19 float64 cells are past what numpy can size: ValueError, not MemoryError
    assert run("graph", "--kind", "zero", "--p", "5000000000", "--out", str(tmp_path / "g.json")) == 4
    err = capsys.readouterr().err
    assert err.startswith("mvdeg: array is too big") and err.count("\n") == 1
    assert not (tmp_path / "g.json").exists()


def test_graph_correlation_from_signal(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    assert run("generate", "--kind", "wgn", "--p", "2", "--n", "200", "--seed", "1", "--out", str(sig)) == 0
    out = tmp_path / "g.json"
    assert run("graph", "--kind", "correlation", "--signal", str(sig), "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    w = np.array(obj["weights"])
    assert w.shape == (2, 2)
    assert w[0, 0] == 0.0 and 0.0 <= w[0, 1] <= 1.0


def test_graph_gaussian_from_stations(tmp_path, capsys):
    coords = tmp_path / "st.csv"
    coords.write_text("station_id,x,y\na,0.0,0.0\nb,1.0,0.0\nc,9.0,0.0\n")
    out = tmp_path / "g.json"
    assert run(
        "graph", "--kind", "gaussian", "--coords", str(coords),
        "--sigma1-sq", "0.5", "--sigma2", "2.0", "--out", str(out),
    ) == 0
    w = np.array(json.loads(out.read_text())["weights"])
    assert w[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert w[0, 2] == 0.0  # beyond the distance cutoff
    assert run("graph", "--kind", "gaussian", "--coords", str(coords), "--out", str(out)) == 1


# ── entropy ──────────────────────────────────────────────────────────────────


def test_entropy_golden_value(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    write_golden_signal(sig)
    out = tmp_path / "curve.csv"
    code = run(
        "entropy", "--input", str(sig), "--m", "2", "--c", "2",
        "--max-scale", "1", "--out", str(out),
    )
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["method", "tau", "mean", "sd", "n_realizations"]
    assert rows[1] == ["mvdeg", "1", "0.75", "0.0", "1"]
    sidecar = json.loads((tmp_path / "curve.csv.json").read_text())
    assert sidecar["config"]["method"] == "mvdeg"
    assert sidecar["curves"][0]["scales"][0]["mean"] == 0.75


def test_entropy_undefined_scales_reported(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    write_golden_signal(sig)
    out = tmp_path / "curve.csv"
    code = run(
        "entropy", "--input", str(sig), "--m", "2", "--c", "2",
        "--max-scale", "4", "--out", str(out),
    )
    assert code == 0
    scales = json.loads((tmp_path / "curve.csv.json").read_text())["curves"][0]["scales"]
    assert [s["defined"] for s in scales] == [True, False, False, False]
    assert "3 undefined" in capsys.readouterr().out


def test_entropy_with_explicit_graph_file(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    assert run("generate", "--kind", "wgn", "--p", "2", "--n", "60", "--out", str(sig)) == 0
    graph = tmp_path / "g.json"
    assert run("graph", "--kind", "complete", "--p", "2", "--out", str(graph)) == 0
    out = tmp_path / "curve.csv"
    code = run(
        "entropy", "--input", str(sig), "--graph", str(graph),
        "--m", "2", "--c", "3", "--max-scale", "2", "--out", str(out),
    )
    assert code == 0


def test_entropy_graph_size_mismatch(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    assert run("generate", "--kind", "wgn", "--p", "2", "--n", "40", "--out", str(sig)) == 0
    graph = tmp_path / "g.json"
    assert run("graph", "--kind", "zero", "--p", "3", "--out", str(graph)) == 0
    code = run("entropy", "--input", str(sig), "--graph", str(graph), "--out", str(tmp_path / "c.csv"))
    assert code == 3
    assert "2 channels" in capsys.readouterr().err


def test_entropy_mde_needs_single_channel(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    assert run("generate", "--kind", "wgn", "--p", "2", "--n", "40", "--out", str(sig)) == 0
    code = run("entropy", "--input", str(sig), "--method", "mde", "--out", str(tmp_path / "c.csv"))
    assert code == 3


def test_entropy_malformed_csv(tmp_path, capsys):
    sig = tmp_path / "bad.csv"
    sig.write_text("a,b\n1.0,2.0\n3.0,spam\n")
    code = run("entropy", "--input", str(sig), "--out", str(tmp_path / "c.csv"))
    assert code == 2
    assert "spam" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["signal", "graph", "coords"])
def test_entropy_non_utf8_input_is_parse_error_without_traceback(tmp_path, bad):
    files = {
        "signal": (tmp_path / "s.csv", b"x\n1.0\n2.0\n3.0\n4.0\n"),
        "graph": (tmp_path / "g.json", b'{"n": 1, "directed": false, "weights": [[0.0]]}'),
        "coords": (tmp_path / "st.csv", b"station_id,x,y\ns1,0,0\n"),
    }
    for name, (path, content) in files.items():
        path.write_bytes(content.replace(b"0", b"\xff", 1) if name == bad else content)
    graph = ["--graph", "gaussian", "--coords", str(files["coords"][0]),
             "--sigma1-sq", "1", "--sigma2", "1"] if bad == "coords" else ["--graph", str(files["graph"][0])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SOURCE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "mvdeg.cli", "entropy", "--input", str(files["signal"][0]), *graph,
         "--m", "2", "--c", "2", "--out", str(tmp_path / "c.csv")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "0xff is not UTF-8" in proc.stderr


@pytest.mark.parametrize("graph", ["correlation", "zero", "complete"])
@pytest.mark.parametrize("scale, message", [
    (1e200, "overflows float64"), (1e-200, "variance underflows float64"),
])
def test_entropy_out_of_range_moments_exit_4(tmp_path, capsys, graph, scale, message):
    sig = tmp_path / "s.csv"
    values = np.random.default_rng(3).standard_normal((40, 2)) * scale
    sig.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in values.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(
            "entropy", "--input", str(sig), "--graph", graph,
            "--m", "2", "--c", "3", "--max-scale", "1", "--out", str(tmp_path / "c.csv"),
        )
    assert code == 4
    assert message in capsys.readouterr().err


def test_entropy_malformed_graph_json(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    write_golden_signal(sig)
    graph = tmp_path / "g.json"
    graph.write_text("{not json")
    code = run(
        "entropy", "--input", str(sig), "--graph", str(graph),
        "--m", "2", "--c", "2", "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2


def test_entropy_gaussian_graph_requires_parameters(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    write_golden_signal(sig)
    code = run(
        "entropy", "--input", str(sig), "--graph", "gaussian",
        "--m", "2", "--c", "2", "--out", str(tmp_path / "c.csv"),
    )
    assert code == 1


def test_entropy_classical_capacity_refusal(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    assert run("generate", "--kind", "wgn", "--p", "2", "--n", "30", "--out", str(sig)) == 0
    code = run(
        "entropy", "--input", str(sig), "--method", "classical",
        "--m", "2", "--c", "3", "--max-scale", "1", "--cap", "10",
        "--out", str(tmp_path / "c.csv"),
    )
    assert code == 4
    assert "174" in capsys.readouterr().err  # 29 windows x C(4,2) patterns


def test_entropy_classical_small_case(tmp_path, capsys):
    sig = tmp_path / "s.csv"
    assert run("generate", "--kind", "wgn", "--p", "2", "--n", "30", "--out", str(sig)) == 0
    out = tmp_path / "c.csv"
    code = run(
        "entropy", "--input", str(sig), "--method", "classical",
        "--m", "2", "--c", "3", "--max-scale", "2", "--out", str(out),
    )
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][0] == "mvde"
    assert 0.0 <= float(rows[1][2]) <= 1.0


def test_entropy_classical_refuses_overflowing_moments(tmp_path, capsys):
    # the channel's sum overflows float64, so its z-scores would all be NaN
    sig = tmp_path / "s.csv"
    values = [1.7e308] + [-1.7e308] * 3 + [0.0] * 4
    sig.write_text("x\n" + "".join(f"{v!r}\n" for v in values))
    out = tmp_path / "c.csv"
    code = run(
        "entropy", "--input", str(sig), "--method", "classical",
        "--m", "5", "--c", "40", "--max-scale", "1", "--out", str(out),
    )
    assert code == 4
    assert "overflows float64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, array", [
    ("entropy", [[0, 1], [1]]),
    ("entropy", [["a", 1], [1, 0]]),
    ("generate", [[1, 0.5], [0.5]]),
    ("generate", [[1, {}], [0.5, 1]]),
])
def test_malformed_json_array_is_parse_error_without_traceback(tmp_path, capsys, command, array):
    path = tmp_path / "array.json"
    if command == "entropy":
        sig = tmp_path / "s.csv"
        sig.write_text("a,b\n1,2\n2,1\n3,5\n4,0\n")
        path.write_text(json.dumps({"n": 2, "directed": False, "weights": array}))
        argv = ("entropy", "--input", str(sig), "--graph", str(path), "--m", "2", "--c", "2")
    else:
        path.write_text(json.dumps(array))
        argv = ("generate", "--kind", "correlated", "--corr", str(path), "--n", "20")
    assert run(*argv, "--out", str(tmp_path / "out.csv")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(path) in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", [
    ("generate", "--kind", "wgn", "--p", "2", "--n", "20"),
    ("ensemble", "--experiment", "mixture", "--n", "64", "--realizations", "1",
     "--m", "2", "--c", "3", "--max-scale", "1"),
    ("bench", "--Ns", "30", "--p", "2", "--m", "2", "--c", "3"),
], ids=lambda command: command[0])
def test_negative_seed_is_dimension_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(*command, "--seed", "-1", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "seed must be >= 0, got -1" in err
    assert list(tmp_path.iterdir()) == []


# ── bench ────────────────────────────────────────────────────────────────────


def test_bench_writes_report_pair(tmp_path, capsys):
    prefix = tmp_path / "timing"
    code = run(
        "bench", "--Ns", "30,40", "--p", "2", "--m", "2", "--c", "3",
        "--out", str(prefix),
    )
    assert code == 0
    payload = json.loads((tmp_path / "timing.json").read_text())
    assert len(payload["cells"]) == 4
    assert (tmp_path / "timing.csv").exists()
    out = capsys.readouterr().out
    assert "mvdeg" in out and "classical" in out


def test_bench_empty_ns_is_usage_error(tmp_path, capsys):
    assert run("bench", "--Ns", ",,", "--out", str(tmp_path / "t")) == 1
    assert run("bench", "--Ns", "30", "--methods", "fft", "--out", str(tmp_path / "t")) == 1


# ── ensemble ─────────────────────────────────────────────────────────────────


def test_ensemble_mixture_small(tmp_path, capsys):
    prefix = tmp_path / "mix"
    code = run(
        "ensemble", "--experiment", "mixture", "--n", "64", "--realizations", "2",
        "--m", "2", "--c", "3", "--max-scale", "2", "--out", str(prefix),
    )
    assert code == 0
    payload = json.loads((tmp_path / "mix.json").read_text())
    assert payload["label"] == "mixture"
    assert [c["method"] for c in payload["curves"]] == ["F(0)", "F(1)", "F(2)", "F(3)"]
    assert "threads" not in payload["config"]
    assert payload["realizations"] == 2


def test_ensemble_threads_flag_is_usage_error(tmp_path, capsys):
    code = run(
        "ensemble", "--experiment", "mixture", "--n", "64", "--realizations", "1",
        "--threads", "2", "--out", str(tmp_path / "mix"),
    )
    assert code == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_ensemble_degrees_small(tmp_path, capsys):
    prefix = tmp_path / "deg"
    code = run(
        "ensemble", "--experiment", "degrees", "--n", "80", "--p", "2",
        "--realizations", "2", "--m", "2", "--c", "3", "--max-scale", "2",
        "--degrees", "0.9,0.1", "--out", str(prefix),
    )
    assert code == 0
    payload = json.loads((tmp_path / "deg.json").read_text())
    assert [c["method"] for c in payload["curves"]] == ["rho=0.9", "rho=0.1"]
    assert payload["config"]["graph_policy"] == "theoretical"


def test_ensemble_degrees_refuses_a_negative_channel_count(tmp_path, capsys):
    prefix = tmp_path / "deg"
    code = run("ensemble", "--experiment", "degrees", "--p", "-1", "--out", str(prefix))
    assert code == 3
    assert "channel count must be >= 1, got -1" in capsys.readouterr().err
    assert not (tmp_path / "deg.json").exists()


def test_ensemble_sets_small(tmp_path, capsys):
    prefix = tmp_path / "sets"
    code = run(
        "ensemble", "--experiment", "sets", "--n", "60", "--realizations", "1",
        "--m", "2", "--c", "3", "--max-scale", "1", "--out", str(prefix),
    )
    assert code == 0
    payload = json.loads((tmp_path / "sets.json").read_text())
    assert len(payload["curves"]) == 5
    assert payload["curves"][0]["method"] == "uncorrelated"


def test_ensemble_graph_compare_small(tmp_path, capsys):
    prefix = tmp_path / "cmp"
    code = run(
        "ensemble", "--experiment", "graph-compare", "--n", "100", "--p", "2",
        "--realizations", "2", "--m", "2", "--c", "3", "--max-scale", "2",
        "--degrees", "0.8", "--out", str(prefix),
    )
    assert code == 0
    payload = json.loads((tmp_path / "cmp.json").read_text())
    assert [c["method"] for c in payload["curves"]] == ["theoretical", "estimated"]
    diffs = payload["summary"]["mean_abs_diff_per_scale"]
    assert len(diffs) == 2 and all(d >= 0.0 for d in diffs)


# ── edge formats ─────────────────────────────────────────────────────────────


def test_generate_sidecar_bytes_are_indent_1_json(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run("generate", "--kind", "wgn", "--p", "2", "--n", "20", "--seed", "4", "--out", str(out)) == 0
    raw = (tmp_path / "s.csv.json").read_text()
    obj = json.loads(raw)
    assert raw == json.dumps(obj, indent=1) + "\n"
    assert list(obj) == [
        "kind", "p", "n_samples", "seed", "params", "generator_version", "package"
    ]


@pytest.mark.parametrize(
    "command, flag",
    [("graph", "--kind"), ("entropy", "--graph")],
)
def test_gaussian_usage_error_names_the_flag_given(tmp_path, capsys, command, flag):
    sig = tmp_path / "s.csv"
    write_golden_signal(sig)
    coords = tmp_path / "st.csv"
    coords.write_text("station_id,x,y\na,0.0,0.0\n")
    inputs = ("--input", str(sig)) if command == "entropy" else ()
    code = run(
        command, *inputs, flag, "gaussian", "--coords", str(coords),
        "--sigma1-sq", "0.5", "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert capsys.readouterr().err.endswith(
        f"mvdeg: error: {flag} gaussian requires --coords, --sigma1-sq and --sigma2\n"
    )


def test_generate_mixture_with_a_short_one_over_f_channel_is_dimension_error(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    assert run("generate", "--kind", "mixture", "--q", "0", "--n", "3", "--out", out) == 3
    assert "1/f synthesis needs at least 4 samples, got 3" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "argv, missing",
    [
        (("entropy", "--input", "nofile.csv", "--out", "a.csv"), "nofile.csv"),
        (
            ("graph", "--kind", "gaussian", "--coords", "nofile.csv",
             "--sigma1-sq", "1.0", "--sigma2", "1.0", "--out", "g.json"),
            "nofile.csv",
        ),
        (("entropy", "--input", "one.csv", "--out", "/nonexistent/dir/a.csv"), "/nonexistent/dir/a.csv"),
    ],
    ids=["input", "coords", "out"],
)
def test_path_that_cannot_be_opened_is_one_line_and_exit_1(tmp_path, monkeypatch, capsys, argv, missing):
    monkeypatch.chdir(tmp_path)
    write_golden_signal(tmp_path / "one.csv")
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"mvdeg: No such file or directory: {missing}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 1, "directed": "false", "weights": [[0.0]]}', 'directed must be true or false, got "false"'),
        ('{"n": true, "directed": false, "weights": [[0.0]]}', "n must be an integer, got true"),
        ('{"n": 1, "directed": false, "weights": [["0"]]}', "expected a rectangular array of numbers"),
    ],
)
def test_mistyped_graph_json_is_parse_error(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    write_golden_signal(tmp_path / "one.csv")
    (tmp_path / "g.json").write_text(text)
    assert run("entropy", "--input", "one.csv", "--graph", "g.json", "--m", "2", "--out", "c.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("mvdeg: parse error: g.json") and err.endswith(f"{message}\n")
    assert err.count("\n") == 1


def test_commands_run_on_one_blas_thread_and_restore_the_count(tmp_path, monkeypatch):
    seen = []

    def command(args, parser):
        seen.append(bench._blas_threads())
        return 0

    monkeypatch.setattr(cli, "_cmd_graph", command)
    set_threads = bench._openblas().scipy_openblas_set_num_threads64_
    before = bench._blas_threads()
    try:
        set_threads(2)
        assert run("graph", "--kind", "zero", "--p", "2", "--out", str(tmp_path / "g.json")) == 0
        assert seen == [1] and bench._blas_threads() == 2
    finally:
        set_threads(before)
