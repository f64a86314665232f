"""Write the expected data that tests/test_cli_contract.py compares against.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/make_cli_contract.py

It rewrites tests/data/cli_contract/: the input files, then, for each case in
test_cli_contract.CASES, the stdout, stderr, exit code and written files of
that command. Run it only to change what the contract pins, and say so in
CHANGES.md; the test itself never calls it.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from mvdeg import gen_wgn, write_signal_csv
from test_cli_contract import CASES, DATA, INPUTS, ONE_CPU, run_case


def _rows(header: str, values) -> str:
    """A signal CSV body with values to 3 decimals, one row per sample."""
    return header + "\n" + "".join(",".join(f"{v:.3f}" for v in row) + "\n" for row in values)


def write_inputs() -> None:
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    INPUTS.mkdir(parents=True)
    write_signal_csv(gen_wgn(1, 60, 5), INPUTS / "one.csv")
    write_signal_csv(gen_wgn(2, 40, 6), INPUTS / "two.csv")
    write_signal_csv(gen_wgn(3, 400, 8), INPUTS / "three.csv")
    pooled = gen_wgn(8, 6400, 9).values.T
    (INPUTS / "pooled.csv").write_text(_rows(",".join(f"c{k}" for k in range(8)), pooled))
    (INPUTS / "constant.csv").write_text(_rows("a,b", [[1.5, -2.0]] * 30))
    graph = "[[0.0, 0.8, 0.0], [0.8, 0.0, 0.3], [0.0, 0.3, 0.0]]"
    (INPUTS / "graph3.json").write_text(f'{{"n": 3, "directed": false, "weights": {graph}}}\n')
    rows = gen_wgn(2, 12, 7).values.T
    body = _rows("a,b", rows)
    lines = body.splitlines(keepends=True)
    (INPUTS / "signal_blank.csv").write_text("".join(lines[:4]) + "\n" + "".join(lines[4:]) + "\n\n")
    (INPUTS / "signal_1_0.csv").write_text("".join(lines[:3]) + "1_0,0.5\n" + "".join(lines[4:]))
    (INPUTS / "signal_columns.csv").write_text("a,b\n1.0,2.0\n3.0,4.0,5.0\n")
    (INPUTS / "header_only.csv").write_text("a,b\n")
    (INPUTS / "empty.csv").write_text("")
    (INPUTS / "corr.json").write_text("[[1.0, 0.6, 0.2], [0.6, 1.0, 0.4], [0.2, 0.4, 1.0]]\n")
    (INPUTS / "corr_singular.json").write_text("[[1.0, 1.0], [1.0, 1.0]]\n")
    (INPUTS / "corr_asymmetric.json").write_text("[[1.0, 0.2], [0.3, 1.0]]\n")
    (INPUTS / "corr_not_psd.json").write_text("[[1.0, 1.2], [1.2, 1.0]]\n")
    stations = "station_id,x,y\ns1,0.0,0.0\ns2,1.0,0.0\ns3,0.0,2.0\ns4,3.0,1.5\n"
    (INPUTS / "stations.csv").write_text(stations)
    (INPUTS / "stations_blank.csv").write_text(stations.replace("s2,", "\ns2,") + "\n")
    (INPUTS / "stations_1_0.csv").write_text(stations.replace("s4,3.0,", "s4,1_0,"))
    (INPUTS / "stations_columns.csv").write_text(stations.replace("s3,0.0,2.0", "s3,0.0"))


def write_case(case: str, argv: tuple[str, ...]) -> None:
    target = DATA / case
    if target.exists():
        shutil.rmtree(target)
    with tempfile.TemporaryDirectory() as workdir:
        code, out, err, files = run_case(argv, Path(workdir), one_cpu=case in ONE_CPU)
    (target / "files").mkdir(parents=True)
    (target / "exit_code").write_text(f"{code}\n")
    (target / "stdout").write_text(out)
    (target / "stderr").write_text(err)
    for name, data in files.items():
        path = target / "files" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


if __name__ == "__main__":
    write_inputs()
    for case, argv in sorted(CASES.items()):
        write_case(case, argv)
        print(f"wrote {DATA.name}/{case}")
