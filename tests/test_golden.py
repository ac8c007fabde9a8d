"""Byte-identity of CLI reports against stored golden files.

The golden reports under ``tests/golden/expected`` were first written by the
pure ``Fraction`` implementation that preceded the numpy kernel; CHANGES.md
names each regeneration since and why (the last two wrote every ``d``
table, and then the zeros on the ``tau`` and defect diagonals, in the
space's one type).  Every case runs one CLI command on a small input and
compares the written report byte for byte, together with the exit code.

Regenerate (only from a commit whose reports are known good)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from wavemodel.cli import main

HERE = pathlib.Path(__file__).parent / "golden"
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

# name -> (argv without --out, expected exit code); the report format follows --format
CASES = {
    "tau-segment": (["tau", "--backend", "segment", "--samples", "7",
                     "--length", "3/2"], 0),
    "tau-segment-csv": (["tau", "--backend", "segment", "--samples", "7",
                         "--format", "csv"], 0),
    "tau-segment-linear-grid": (["tau", "--backend", "segment", "--samples", "5",
                                 "--grid", "1/16,2,32,linear"], 0),
    "conditions-segment": (["conditions", "--backend", "segment", "--samples", "9"], 0),
    "isometry-segment-csv": (["isometry", "--backend", "segment", "--samples", "6",
                              "--length", "5", "--format", "csv"], 0),
    "tau-points": (["tau", "--backend", "points", "--input", "points.csv"], 0),
    "isometry-points": (["isometry", "--backend", "points", "--input", "points.csv"], 0),
    # -0, -0.0, ints, ratios and exponents: the loader's one-pass rows
    "isometry-points-tokens": (["isometry", "--backend", "points", "--input",
                                "points_tokens.csv"], 0),
    "conditions-points-csv": (["conditions", "--backend", "points", "--input",
                               "points.csv", "--format", "csv"], 0),
    "tau-graph": (["tau", "--backend", "graph", "--input", "edges.txt"], 0),
    "isometry-graph-csv": (["isometry", "--backend", "graph", "--input", "edges.txt",
                            "--format", "csv"], 0),
    "conditions-graph": (["conditions", "--backend", "graph", "--input", "edges.txt"], 0),
    "conditions-graph-csv": (["conditions", "--backend", "graph", "--input",
                              "edges.txt", "--format", "csv"], 0),
    "tau-graph-binary": (["tau", "--backend", "graph", "--input", "edges_binary.txt"], 0),
    # 48 nodes: the kernels split into slabs at the default slab size
    "conditions-graph-48": (["conditions", "--backend", "graph", "--input", "edges_48.txt"], 0),
    "tau-graph-48": (["tau", "--backend", "graph", "--input", "edges_48.txt"], 0),
    "tau-discrete": (["tau", "--backend", "discrete", "--n", "5"], 0),
    "isometry-discrete": (["isometry", "--backend", "discrete", "--n", "6"], 0),
    "conditions-discrete-csv": (["conditions", "--backend", "discrete", "--n", "5",
                                 "--format", "csv"], 0),
    "tau-matrix": (["tau", "--backend", "matrix", "--input", "matrix.csv"], 0),
    "conditions-matrix": (["conditions", "--backend", "matrix", "--input", "matrix.csv"], 0),
    "isometry-matrix-float": (["isometry", "--backend", "matrix", "--input",
                               "matrix_float.csv"], 0),
    # a float matrix whose 0 and 1 are read as Fractions, reported as 0.0 and 1.0
    "isometry-matrix-mixed": (["isometry", "--backend", "matrix", "--input",
                               "matrix_mixed.csv"], 0),
    "conditions-matrix-float-csv": (["conditions", "--backend", "matrix", "--input",
                                     "matrix_float.csv", "--format", "csv"], 0),
    "validate-matrix": (["validate", "--backend", "matrix", "--input", "matrix.csv"], 0),
    "validate-points": (["validate", "--backend", "points", "--input", "points.csv"], 0),
    "validate-bad-triangle": (["validate", "--backend", "matrix", "--input",
                               "bad_triangle.csv"], 1),
    # the key/value rows of a CSV report that holds no table
    "validate-segment-csv": (["validate", "--backend", "segment", "--samples", "3",
                              "--format", "csv"], 0),
    "nucleus-demo-segment": (["nucleus-demo", "--backend", "segment", "--samples", "7",
                              "--center", "3"], 0),
    "nucleus-demo-points": (["nucleus-demo", "--backend", "points", "--input", "points.csv",
                             "--center", "2"], 0),
    "nucleus-demo-matrix-float": (["nucleus-demo", "--backend", "matrix", "--input",
                                   "matrix_float.csv", "--center", "1"], 0),
    "nucleus-demo-left-window": (["nucleus-demo", "--net", "left-window", "--x", "1/3"], 0),
    "nucleus-demo-right-window": (["nucleus-demo", "--net", "right-window", "--x", "1/3"], 0),
}

# segment-demo writes three files into a directory: directory name -> --x;
# 3/10 has two exceptional radii, 1/2 has them merged into one
SEGMENT_DEMOS = {"segment-demo-3-10": "3/10", "segment-demo-1-2": "1/2"}
SEGMENT_DEMO_FILES = ("four_functions.json", "chain_report.json", "traces.csv")


def _argv(args, out):
    return [str(INPUTS / a) if (INPUTS / a).is_file() else a for a in args] + [
        "--out", str(out)]


def _suffix(args):
    return ".csv" if "csv" in args else ".json"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path):
    args, code = CASES[name]
    out = tmp_path / f"{name}{_suffix(args)}"
    assert main(_argv(args, out)) == code
    assert out.read_bytes() == (EXPECTED / out.name).read_bytes()


@pytest.mark.parametrize("name", sorted(SEGMENT_DEMOS))
def test_segment_demo_matches_golden(name, tmp_path):
    assert main(["segment-demo", "--x", SEGMENT_DEMOS[name], "--out", str(tmp_path)]) == 0
    for file in SEGMENT_DEMO_FILES:
        assert (tmp_path / file).read_bytes() == (EXPECTED / name / file).read_bytes()


def test_every_golden_d_table_holds_one_kind():
    """A report's ``d`` table is written in its space's one type: all
    strings (``Fraction``s), all ints or all floats."""
    kinds = {}
    for path in sorted(EXPECTED.glob("*.json")):
        report = json.loads(path.read_text())
        if isinstance(report, dict) and "d" in report:
            kinds[path.stem] = {type(v).__name__ for row in report["d"] for v in row}
    assert len(kinds) > 5 and {k: v for k, v in kinds.items() if len(v) != 1} == {}


def test_every_golden_table_holds_one_kind_and_brackets_a_zero_diagonal():
    """Each ``tau``, ``d`` and ``condition2_defects`` table holds one JSON
    kind, its diagonal's zeros included; a ``tau_brackets`` table holds grid
    values, and its diagonal is [0, 0]."""
    kinds, diagonals = {}, {}
    for path in sorted(EXPECTED.glob("*.json")):
        report = json.loads(path.read_text())
        if not isinstance(report, dict):
            continue
        for key in ("tau", "d", "condition2_defects"):
            if key in report:
                kinds[path.stem, key] = {type(v).__name__ for row in report[key] for v in row}
        if "tau_brackets" in report:
            brackets = report["tau_brackets"]
            diagonals[path.stem] = frozenset(json.dumps(row[i]) for i, row in enumerate(brackets))
    assert len(kinds) > 20 and {k: v for k, v in kinds.items() if len(v) != 1} == {}
    assert len(diagonals) > 5 and set(diagonals.values()) == {frozenset({"[0, 0]"})}


def regenerate() -> None:
    EXPECTED.mkdir(parents=True, exist_ok=True)
    for name, (args, code) in sorted(CASES.items()):
        out = EXPECTED / f"{name}{_suffix(args)}"
        got = main(_argv(args, out))
        if got != code:
            raise SystemExit(f"{name}: exit {got}, expected {code}")
        print(f"wrote {out.relative_to(HERE)}")
    for name, x in sorted(SEGMENT_DEMOS.items()):
        if main(["segment-demo", "--x", x, "--out", str(EXPECTED / name)]) != 0:
            raise SystemExit(f"{name}: segment-demo failed")


if __name__ == "__main__":
    sys.exit(regenerate())
