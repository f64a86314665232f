"""CSV and JSON interchange for signals, layouts, graphs, curves, and reports.

Formats:
  * signal CSV: header of channel names, then one row per time sample.
  * station CSV: header station_id,x,y, one row per site.
  * graph JSON: object with keys n, directed, weights.
  * correlation JSON: plain 2-D array.
  * curve CSV: header method,tau,mean,sd,n_realizations; undefined scales keep
    their row with nan statistics. The JSON mirror carries explicit flags and
    the configuration echo.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .bench import EnsembleReport, TimingCell, TimingReport
from .entropy import EntropyCurve, ScaleRecord
from .errors import DimensionError, ParseError
from .graphs import StationLayout, WeightedGraph
from .signal import MultivariateSignal

CURVE_CSV_HEADER = ("method", "tau", "mean", "sd", "n_realizations")


def write_json(payload, path: str | Path) -> None:
    """Every JSON file the package writes: indent 1, trailing newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
        f.write("\n")


def _read_json(path: str | Path):
    with _utf8(path), open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}: {err.msg}", line=err.lineno, column=err.colno) from None


@contextmanager
def _utf8(path: str | Path):
    """Report a file that is not UTF-8 as a ParseError instead of a UnicodeDecodeError."""
    try:
        yield
    except UnicodeDecodeError as err:
        byte = err.object[err.start]
        raise ParseError(f"{path}: byte {byte:#04x} is not UTF-8 ({err.reason})") from None


# ── signals ──────────────────────────────────────────────────────────────────


def read_signal_csv(path: str | Path) -> MultivariateSignal:
    """Signal CSV -> MultivariateSignal; malformed cells name line and column.

    np.loadtxt parses the body. A body it rejects, or reads as fewer than 2 rows
    or the wrong number of columns, is re-read cell by cell, which returns the
    same signal or raises the error that names the offending line and column.
    """
    with _utf8(path):
        with open(path, newline="", encoding="utf-8") as f:
            labels = _signal_labels(csv.reader(f), path)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # an empty body
                    values = np.loadtxt(f, delimiter=",", ndmin=2, comments=None, dtype=float)
            except ValueError:
                values = None
        if values is None or len(values) < 2 or values.shape[1] != len(labels):
            return _read_signal_cells(path)
    return MultivariateSignal(values.T, labels=labels)


def _signal_labels(reader, path: str | Path) -> tuple[str, ...]:
    """The header row's channel names, stripped; every one must be non-empty."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    labels = tuple(name.strip() for name in header)
    if not labels or any(not name for name in labels):
        raise ParseError(f"{path}: header must name every channel", line=1)
    return labels


def _read_signal_cells(path: str | Path) -> MultivariateSignal:
    """The cell-by-cell parser behind read_signal_csv: float() on every cell."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        labels = _signal_labels(reader, path)
        width = len(labels)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    f"{path}: expected {width} columns, got {len(row)}", line=line_no
                )
            parsed = []
            for col, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: {cell!r} is not a number", line=line_no, column=col
                    ) from None
            rows.append(parsed)
    if len(rows) < 2:
        raise DimensionError(f"{path}: need at least 2 samples, got {len(rows)}")
    values = np.array(rows, dtype=float).T
    return MultivariateSignal(values, labels=labels)


def write_signal_csv(signal: MultivariateSignal, path: str | Path) -> None:
    """Header through csv.writer, then one repr-joined line per sample, converted
    row by row: the bytes csv.writer gives, since no repr needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(signal.channel_labels())
        for row in signal.values.T:
            f.write(",".join(map(repr, row.tolist())) + "\r\n")


# ── station layouts ──────────────────────────────────────────────────────────


def read_station_csv(path: str | Path) -> StationLayout:
    """Station CSV (station_id,x,y) -> StationLayout."""
    ids: list[str] = []
    coords: list[tuple[float, float]] = []
    with _utf8(path), open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["station_id", "x", "y"]:
            raise ParseError(f"{path}: header must be station_id,x,y", line=1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(
                    f"{path}: expected 3 columns, got {len(row)}", line=line_no
                )
            try:
                coords.append((float(row[1]), float(row[2])))
            except ValueError:
                raise ParseError(
                    f"{path}: coordinates must be numbers", line=line_no
                ) from None
            ids.append(row[0].strip())
    if not ids:
        raise ParseError(f"{path}: no stations listed")
    return StationLayout(np.array(coords), station_ids=tuple(ids))


def write_station_csv(layout: StationLayout, path: str | Path) -> None:
    ids = layout.station_ids or tuple(f"s{i + 1}" for i in range(layout.n))
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["station_id", "x", "y"])
        for sid, (x, y) in zip(ids, layout.positions):
            writer.writerow([sid, repr(float(x)), repr(float(y))])


# ── graphs and correlation matrices ──────────────────────────────────────────


def graph_to_json(graph: WeightedGraph) -> dict:
    return {
        "n": graph.n,
        "directed": graph.directed,
        "weights": graph.weights.tolist(),
    }


def _float_array(value, source: str | Path) -> np.ndarray:
    """A JSON array as floats; a ragged or non-numeric one is a ParseError naming source."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{source}: expected a rectangular array of numbers") from None


def graph_from_json(obj: dict, source: str = "graph JSON") -> WeightedGraph:
    if not isinstance(obj, dict):
        raise ParseError("graph JSON must be an object")
    missing = {"n", "directed", "weights"} - set(obj)
    if missing:
        raise ParseError(f"graph JSON lacks keys: {sorted(missing)}")
    weights = _float_array(obj["weights"], f"{source} weights")
    if weights.shape != (obj["n"], obj["n"]):
        raise ParseError(
            f"graph JSON declares n={obj['n']} but weights have shape {weights.shape}"
        )
    return WeightedGraph(weights, directed=bool(obj["directed"]))


def read_graph_json(path: str | Path) -> WeightedGraph:
    return graph_from_json(_read_json(path), str(path))


def write_graph_json(graph: WeightedGraph, path: str | Path) -> None:
    write_json(graph_to_json(graph), path)


def read_correlation_json(path: str | Path) -> np.ndarray:
    arr = _float_array(_read_json(path), path)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParseError(f"{path}: correlation JSON must be a square 2-D array")
    return arr


# ── entropy curves ───────────────────────────────────────────────────────────


def _record_to_row(method: str, record: ScaleRecord) -> list[str]:
    return [
        method,
        str(record.tau),
        repr(float(record.mean)),
        repr(float(record.sd)),
        str(record.n_realizations),
    ]


def write_curves_csv(curves: Sequence[EntropyCurve], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CURVE_CSV_HEADER)
        for curve in curves:
            for record in curve.records:
                writer.writerow(_record_to_row(curve.method, record))


def curve_to_json(curve: EntropyCurve) -> dict:
    return {
        "method": curve.method,
        "m": curve.m,
        "c": curve.c,
        "graph": curve.graph,
        "seed": curve.seed,
        "scales": [
            {
                "tau": r.tau,
                "mean": None if math.isnan(r.mean) else r.mean,
                "sd": None if math.isnan(r.sd) else r.sd,
                "n_realizations": r.n_realizations,
                "defined": r.defined,
            }
            for r in curve.records
        ],
    }


def write_curves_json(
    curves: Sequence[EntropyCurve], path: str | Path, config: dict | None = None
) -> None:
    payload: dict = {"curves": [curve_to_json(c) for c in curves]}
    if config:
        payload["config"] = config
    write_json(payload, path)


# ── reports ──────────────────────────────────────────────────────────────────


def write_timing_report(report: TimingReport, json_path: str | Path, csv_path: str | Path) -> None:
    write_json(
        {
            "environment": report.environment,
            "seed": report.seed,
            "cells": [asdict(cell) for cell in report.cells],
        },
        json_path,
    )
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([field.name for field in fields(TimingCell)])
        for cell in report.cells:
            writer.writerow(["" if v is None else v for v in astuple(cell)])


def write_ensemble_report(
    report: EnsembleReport, json_path: str | Path, csv_path: str | Path
) -> None:
    write_json(
        {
            "label": report.label,
            "realizations": report.realizations,
            "seed": report.seed,
            "config": report.config,
            "summary": report.summary,
            "curves": [curve_to_json(c) for c in report.curves],
        },
        json_path,
    )
    write_curves_csv(report.curves, csv_path)
