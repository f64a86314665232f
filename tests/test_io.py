"""File formats: round-trips are exact and malformed input names its position."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvdeg import (
    CURVE_CSV_HEADER,
    DimensionError,
    EmbeddingConfig,
    EntropyCurve,
    MultivariateSignal,
    MvdegError,
    ParseError,
    ScaleRecord,
    StationLayout,
    WeightedGraph,
    build_complete_graph,
    gen_wgn,
    graph_from_json,
    graph_to_json,
    mvdeg_curve,
    read_correlation_json,
    read_graph_json,
    read_signal_csv,
    read_station_csv,
    run_timing_sweep,
    write_curves_csv,
    write_curves_json,
    write_ensemble_report,
    write_graph_json,
    write_signal_csv,
    write_station_csv,
    write_timing_report,
)
from mvdeg.bench import EnsembleReport
from mvdeg.io import _read_signal_cells


# ── signal CSV ───────────────────────────────────────────────────────────────


def test_signal_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    sig = MultivariateSignal(rng.standard_normal((3, 40)), labels=("ax", "ay", "az"))
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    back = read_signal_csv(path)
    assert back.labels == ("ax", "ay", "az")
    assert np.array_equal(back.values, sig.values)


def test_signal_default_labels(tmp_path):
    sig = MultivariateSignal(np.ones((2, 3)) * [[1.0], [2.0]])
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    assert read_signal_csv(path).labels == ("ch1", "ch2")


def test_signal_bad_cell_names_line_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 3
    assert err.value.column == 2
    assert "oops" in str(err.value)


def test_signal_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 3


def test_csv_row_error_names_the_physical_line_the_row_starts_on(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('a,b\n"1\n",2\n3,4,5\n')
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 4


def test_signal_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_signal_csv(path)


def test_signal_blank_header_cell(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text("a,,c\n1,2,3\n4,5,6\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 1


def test_signal_single_row_too_short(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(DimensionError):
        read_signal_csv(path)


def test_signal_blank_lines_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a\n1.0\n\n2.0\n\n")
    sig = read_signal_csv(path)
    assert np.array_equal(sig.values, [[1.0, 2.0]])


def test_signal_write_matches_csv_writer_bytes(tmp_path):
    values = np.array([
        [-0.0, 5e-324, 1.7e308, -1.7e308, 0.1],
        [1.0, -2.5e-310, 3.0, 1e-300, -7.25],
    ])
    sig = MultivariateSignal(values, labels=("x,y", "b"))
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(sig.labels)
    for row in values.T:
        writer.writerow([repr(float(v)) for v in row])
    assert path.read_bytes() == reference.getvalue().encode("utf-8")
    back = read_signal_csv(path)
    assert back.labels == ("x,y", "b")
    assert back.values.tobytes() == sig.values.tobytes()


def test_signal_cells_float_reads_but_loadtxt_rejects(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text('a,b\n1_0,"2"\n\uff13, 4 \n')
    sig = read_signal_csv(path)
    assert np.array_equal(sig.values, [[10.0, 3.0], [2.0, 4.0]])


def test_signal_whitespace_line_is_a_bad_cell(tmp_path):
    path = tmp_path / "space.csv"
    path.write_text("a\n1.0\n \n2.0\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert (err.value.line, err.value.column) == (3, 1)


def test_signal_empty_body_is_dimension_error_without_warning(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text("a,b\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="got 0"):
            read_signal_csv(path)


@pytest.mark.parametrize("name, content, read", [
    ("sig.csv", b"a,b\n1,2\n3,\xff4\n", read_signal_csv),
    ("stations.csv", b"station_id,x,y\ns\xe9,0,0\n", read_station_csv),
    ("g.json", b'{"n": 1, "directed": false, "weights": [[0.0]], "\xff": 1}', read_graph_json),
])
def test_non_utf8_bytes_are_parse_errors(tmp_path, name, content, read):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ParseError, match="is not UTF-8"):
        read(path)


# finite cells that float() reads, some of which np.loadtxt rejects; then
# non-finite cells, which the signal refuses, and cells neither reads
READABLE_CELLS = ["1_0", "\uff17", " 2.5 ", "\t7", "\xa08", '"3"', "-0.0", "5e-324", "+.5"]
BAD_CELLS = [
    "nan", "-nan", "inf", "-Infinity", "1e500", "", " ", '"4,5"', "#", "#1", "1e", "0x10",
]


@st.composite
def signal_csv_texts(draw):
    """A header, rows of readable cells (sometimes one too many or too few), blank
    lines, and up to two odd lines: bad cells, ragged or trailing commas, comments."""
    labels = draw(st.sampled_from([["a"], ["a", "b"], ['"x,y"', "b", "c"]]))
    width = len(labels)
    body_width = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    readable = st.one_of(number, st.sampled_from(READABLE_CELLS))
    row = st.lists(readable, min_size=body_width, max_size=body_width).map(",".join)
    lines = draw(st.lists(st.one_of(row, st.just("")), max_size=6))
    odd_row = st.lists(st.one_of(readable, st.sampled_from(BAD_CELLS)), max_size=width + 1)
    odd = st.one_of(
        odd_row.map(",".join), odd_row.map(lambda cells: ",".join(cells) + ","),
        st.sampled_from([" ", "\t", ",", "#", "# note"]),
    )
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    ends = st.sampled_from(["\n", "\r\n"])
    text = ",".join(labels) + draw(ends) + "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def read_outcome(read, path):
    try:
        sig = read(path)
    except Exception as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)
    return sig.labels, sig.values.tobytes(), sig.values.strides, sig.values.shape


@settings(max_examples=200, deadline=None)
@given(signal_csv_texts())
@example("a\n1\n#\n2\n")
@example("a,b\r\n1,2,\r\n3,4,")
def test_signal_fast_path_matches_cell_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sig.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fast = read_outcome(read_signal_csv, path)
        assert caught == []
        assert fast == read_outcome(_read_signal_cells, path)
        assert not isinstance(fast[0], type) or issubclass(fast[0], MvdegError)


def test_signal_read_peak_memory(tmp_path):
    sig = gen_wgn(64, 20_000, seed=4)
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = read_signal_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == sig.values.tobytes()
    assert peak <= 2.5 * sig.values.nbytes


# ── station CSV ──────────────────────────────────────────────────────────────


def test_station_round_trip(tmp_path):
    layout = StationLayout(
        np.array([[0.0, 0.5], [1.25, -3.75]]), station_ids=("alpha", "beta")
    )
    path = tmp_path / "stations.csv"
    write_station_csv(layout, path)
    back = read_station_csv(path)
    assert back.station_ids == ("alpha", "beta")
    assert np.array_equal(back.positions, layout.positions)


def test_station_header_enforced(tmp_path):
    path = tmp_path / "stations.csv"
    path.write_text("id,x,y\ns1,0,0\n")
    with pytest.raises(ParseError) as err:
        read_station_csv(path)
    assert err.value.line == 1


def test_station_bad_coordinate(tmp_path):
    path = tmp_path / "stations.csv"
    path.write_text("station_id,x,y\ns1,0.0,north\n")
    with pytest.raises(ParseError) as err:
        read_station_csv(path)
    assert err.value.line == 2


def test_station_requires_rows(tmp_path):
    path = tmp_path / "stations.csv"
    path.write_text("station_id,x,y\n")
    with pytest.raises(ParseError):
        read_station_csv(path)


# ── graph JSON ───────────────────────────────────────────────────────────────


def test_graph_json_round_trip(tmp_path):
    graph = build_complete_graph(3)
    path = tmp_path / "g.json"
    write_graph_json(graph, path)
    back = read_graph_json(path)
    assert back.n == 3
    assert back.directed is False
    assert np.array_equal(back.weights, graph.weights)


def test_directed_graph_round_trip():
    w = np.array([[0.0, 1.0], [0.0, 0.0]])
    graph = WeightedGraph(w, directed=True)
    back = graph_from_json(graph_to_json(graph))
    assert back.directed is True
    assert np.array_equal(back.weights, w)


def test_graph_json_missing_keys():
    with pytest.raises(ParseError) as err:
        graph_from_json({"n": 2, "weights": [[0, 1], [1, 0]]})
    assert "directed" in str(err.value)
    with pytest.raises(ParseError):
        graph_from_json([1, 2, 3])


def test_graph_json_size_mismatch():
    with pytest.raises(ParseError):
        graph_from_json({"n": 3, "directed": False, "weights": [[0.0, 1.0], [1.0, 0.0]]})


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1, 2, 3], "g.json: must be an object"),
        ({"n": 1, "weights": [[0.0]]}, "g.json: lacks keys: ['directed']"),
        ({"n": 3, "directed": False, "weights": [[0.0, 1.0], [1.0, 0.0]]},
         "g.json: declares n=3 but weights have shape (2, 2)"),
    ],
)
def test_graph_json_structure_errors_name_the_file(tmp_path, obj, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError) as err:
        read_graph_json(path)
    assert str(err.value) == f"{tmp_path}/{message}"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n", True, "g.json: n must be an integer, got true"),
        ("n", 1.0, "g.json: n must be an integer, got 1.0"),
        ("n", "1", 'g.json: n must be an integer, got "1"'),
        ("directed", "false", 'g.json: directed must be true or false, got "false"'),
        ("directed", 0, "g.json: directed must be true or false, got 0"),
        ("weights", [["0"]], "g.json weights: expected a rectangular array of numbers"),
        ("weights", [[False]], "g.json weights: expected a rectangular array of numbers"),
        ("weights", [[None]], "g.json weights: expected a rectangular array of numbers"),
        ("weights", [[10 ** 400]], "g.json weights: expected a rectangular array of numbers"),
    ],
)
def test_graph_json_fields_must_have_their_json_types(tmp_path, key, value, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 1, "directed": False, "weights": [[0.0]], key: value}))
    with pytest.raises(ParseError) as err:
        read_graph_json(path)
    assert str(err.value) == f"{tmp_path}/{message}"


@pytest.mark.parametrize("text", ['[["1", 0.5], [0.5, 1]]', "[[true, 0.5], [0.5, 1]]"])
def test_correlation_json_refuses_strings_and_booleans(tmp_path, text):
    path = tmp_path / "corr.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="expected a rectangular array of numbers"):
        read_correlation_json(path)


def test_graph_json_extra_keys_ignored():
    obj = {"n": 1, "directed": False, "weights": [[0.0]], "comment": "spare"}
    assert graph_from_json(obj).n == 1


def test_graph_json_syntax_error_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "directed": false,\n "weights": [[0.0]\n}')
    with pytest.raises(ParseError) as err:
        read_graph_json(path)
    assert err.value.line is not None


# ── correlation JSON ─────────────────────────────────────────────────────────


def test_correlation_json(tmp_path):
    path = tmp_path / "corr.json"
    path.write_text("[[1.0, 0.5], [0.5, 1.0]]\n")
    arr = read_correlation_json(path)
    assert arr.shape == (2, 2)
    assert arr[0, 1] == 0.5


def test_correlation_json_must_be_square(tmp_path):
    path = tmp_path / "corr.json"
    path.write_text("[[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]]\n")
    with pytest.raises(ParseError):
        read_correlation_json(path)
    path.write_text("[1.0, 0.5]\n")
    with pytest.raises(ParseError):
        read_correlation_json(path)


# ── curves ───────────────────────────────────────────────────────────────────


def _sample_curve():
    records = (
        ScaleRecord(1, 0.75, 0.01, 2, True),
        ScaleRecord(2, math.nan, math.nan, 0, False),
    )
    return EntropyCurve(
        method="mvdeg", records=records, m=2, c=3, graph="zero(n=1)", seed=7
    )


def test_curves_csv_layout(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves_csv([_sample_curve()], path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CURVE_CSV_HEADER)
    assert rows[1] == ["mvdeg", "1", "0.75", "0.01", "2"]
    assert rows[2][0:2] == ["mvdeg", "2"]
    assert rows[2][2] == "nan" and rows[2][3] == "nan"
    assert rows[2][4] == "0"


def test_curves_csv_values_parse_back(tmp_path):
    sig = MultivariateSignal(np.random.default_rng(0).standard_normal((2, 50)))
    curve = mvdeg_curve(sig, build_complete_graph(2), EmbeddingConfig(2, 3, 4))
    path = tmp_path / "curves.csv"
    write_curves_csv([curve], path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    for row, record in zip(rows, curve.records):
        assert float(row[2]) == record.mean  # repr round-trips exactly


def test_curves_json_flags_and_config(tmp_path):
    path = tmp_path / "curves.json"
    write_curves_json([_sample_curve()], path, config={"m": 2, "c": 3})
    with open(path) as f:
        payload = json.load(f)
    assert payload["config"] == {"m": 2, "c": 3}
    curve = payload["curves"][0]
    assert curve["method"] == "mvdeg"
    assert curve["seed"] == 7
    scales = curve["scales"]
    assert scales[0] == {
        "tau": 1, "mean": 0.75, "sd": 0.01, "n_realizations": 2, "defined": True,
    }
    assert scales[1]["mean"] is None
    assert scales[1]["defined"] is False


def test_curves_json_without_config(tmp_path):
    path = tmp_path / "curves.json"
    write_curves_json([_sample_curve()], path)
    with open(path) as f:
        payload = json.load(f)
    assert "config" not in payload


# ── reports ──────────────────────────────────────────────────────────────────


def test_timing_report_files(tmp_path):
    report = run_timing_sweep(
        (30,), p=2, m=2, c=3, seed=0, pattern_cap=100, repetitions=1, warmup=0
    )
    json_path = tmp_path / "timing.json"
    csv_path = tmp_path / "timing.csv"
    write_timing_report(report, json_path, csv_path)
    with open(json_path) as f:
        payload = json.load(f)
    assert payload["seed"] == 0
    assert set(payload["environment"]) == {"python", "numpy", "cpu", "threads", "blas_core"}
    outcomes = {cell["method"]: cell["outcome"] for cell in payload["cells"]}
    assert outcomes == {"mvdeg": "ok", "classical": "refused-capacity"}
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "method"
    refused = [r for r in rows[1:] if r[0] == "classical"][0]
    assert refused[5] == ""  # no wall time for a refused cell


def test_ensemble_report_files(tmp_path):
    report = EnsembleReport(
        label="demo",
        curves=(_sample_curve(),),
        realizations=2,
        seed=3,
        config={"m": 2},
        summary={"max_mean_abs_diff": 0.0},
    )
    json_path = tmp_path / "ens.json"
    csv_path = tmp_path / "ens.csv"
    write_ensemble_report(report, json_path, csv_path)
    with open(json_path) as f:
        payload = json.load(f)
    assert payload["label"] == "demo"
    assert payload["summary"] == {"max_mean_abs_diff": 0.0}
    assert payload["curves"][0]["scales"][0]["mean"] == 0.75
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CURVE_CSV_HEADER)
    assert len(rows) == 3


# An ASCII script, since the C locale cannot pass an alpha through argv.
WRITE_NON_ASCII_FILES = r"""
import sys
from mvdeg import EntropyCurve, ScaleRecord, write_curves_csv, write_curves_json, write_timing_report
from mvdeg.bench import TimingCell, TimingReport
curve = EntropyCurve("F(\u03b1)", (ScaleRecord(1, 0.75, 0.0, 1, True),), 2, 3, "zero(n=1)")
write_curves_csv([curve], sys.argv[1] + "/c.csv")
write_curves_json([curve], sys.argv[1] + "/c.json")
cell = TimingCell("F(\u03b1)", 30, 2, 2, 3, 0.125, 174, 56, "ok")
write_timing_report(TimingReport((cell,), {"cpu": "\u03b1"}, 0), sys.argv[1] + "/t.json", sys.argv[1] + "/t.csv")
"""


def test_text_files_are_written_as_utf8_under_the_c_locale(tmp_path):
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=os.pathsep.join(
        [source] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", WRITE_NON_ASCII_FILES, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "c.csv").read_bytes().split(b"\r\n")[1] == "F(\u03b1),1,0.75,0.0,1".encode()
    assert (tmp_path / "t.csv").read_bytes().split(b"\r\n")[1] == "F(\u03b1),30,2,2,3,0.125,174,56,ok".encode()
    assert json.loads((tmp_path / "c.json").read_bytes())["curves"][0]["method"] == "F(\u03b1)"
    assert json.loads((tmp_path / "t.json").read_bytes())["environment"]["cpu"] == "\u03b1"


def test_timing_csv_bytes_with_a_refused_cell(tmp_path):
    report = run_timing_sweep(
        (30,), p=2, m=2, c=3, seed=0, pattern_cap=100, repetitions=1, warmup=0
    )
    # pin the one measured wall time so the whole file is deterministic
    cells = tuple(
        cell if cell.wall_time_s is None else dataclasses.replace(cell, wall_time_s=0.125)
        for cell in report.cells
    )
    csv_path = tmp_path / "timing.csv"
    write_timing_report(dataclasses.replace(report, cells=cells), tmp_path / "t.json", csv_path)
    assert csv_path.read_bytes() == (
        b"method,n_samples,p,m,c,wall_time_s,classical_patterns,graph_bound_patterns,outcome\r\n"
        b"mvdeg,30,2,2,3,0.125,174,56,ok\r\n"
        b"classical,30,2,2,3,,174,56,refused-capacity\r\n"
    )
