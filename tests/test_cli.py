import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from wavemodel import ParseError, load_edges, load_matrix_csv, load_points_csv
from wavemodel.cli import build_parser, main


POINTS = str(pathlib.Path(__file__).parent / "golden" / "inputs" / "points.csv")


def run(tmp_path, *argv, out_name="out.json"):
    out = tmp_path / out_name
    code = main([*argv, "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


# ---------------------------------------------------------------------------
# Parsers


def test_load_points_csv(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n3,4\n\n1,1\n")
    coords, labels = load_points_csv(str(p))
    assert coords == [[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]
    assert labels is None


def test_load_points_csv_labels(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("a,0,0\nb,1,0\n")
    coords, labels = load_points_csv(str(p))
    assert labels == ["a", "b"]
    assert coords == [[0.0, 0.0], [1.0, 0.0]]


def test_load_points_csv_error_position(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n1,oops\n")
    with pytest.raises(ParseError) as ei:
        load_points_csv(str(p))
    assert ei.value.row == 2 and ei.value.col == 2


def test_load_edges(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n0 1 1\n1 2 3/2\n")
    edges = load_edges(str(p))
    assert edges[1][2] == 1.5


def test_load_edges_errors(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    with pytest.raises(ParseError):
        load_edges(str(p))
    p.write_text("x 1 2\n")
    with pytest.raises(ParseError):
        load_edges(str(p))


def test_loaders_parse_each_distinct_token_once(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 3/2\n1 2 3/2\n2 3 0.5\n3 0 0.5\n")
    edges = load_edges(str(p))
    assert edges[0][2] is edges[1][2] and edges[2][2] is edges[3][2]
    m = tmp_path / "m.csv"
    m.write_text("0,1/3,1/3\n1/3,0,1/3\n1/3,1/3,0\n")
    rows = load_matrix_csv(str(m))
    assert len({id(v) for row in rows for v in row}) == 2
    # a bad token is reported where it first occurs
    m.write_text("0,1,oops\n1,0,oops\noops,1,0\n")
    with pytest.raises(ParseError) as ei:
        load_matrix_csv(str(m))
    assert (ei.value.row, ei.value.col) == (1, 3)


def test_load_matrix_not_square(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,1\n1,0,2\n")
    with pytest.raises(ParseError) as ei:
        load_matrix_csv(str(p))
    assert ei.value.row == 2


# ---------------------------------------------------------------------------
# validate


def test_validate_segment(tmp_path):
    code, data = run(tmp_path, "validate", "--backend", "segment",
                     "--samples", "11")
    assert code == 0
    assert data["valid"] and data["n"] == 11
    assert data["min_positive_distance"] == "1/10"


def test_validate_bad_matrix_exit_1(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("0,1\n2,0\n")
    code, data = run(tmp_path, "validate", "--backend", "matrix",
                     "--input", str(m))
    assert code == 1
    assert data["valid"] is False and data["witness"] == [0, 1]


def test_validate_unparsable_input_exit_2(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("0,x\nx,0\n")
    assert main(["validate", "--backend", "matrix", "--input", str(m)]) == 2


def test_validate_missing_file_exit_2(tmp_path):
    assert main(["validate", "--backend", "matrix",
                 "--input", str(tmp_path / "absent.csv")]) == 2


@pytest.mark.parametrize("token", ["1e400", "-1e999", "nan", "inf", "-inf", "NaN"])
def test_non_finite_matrix_entry_is_a_parse_error(tmp_path, token):
    m = tmp_path / "m.csv"
    m.write_text(f"0,1\n{token},0\n")
    with pytest.raises(ParseError) as ei:
        load_matrix_csv(str(m))
    assert (ei.value.row, ei.value.col) == (2, 1)
    assert main(["validate", "--backend", "matrix", "--input", str(m)]) == 2


def test_non_finite_point_coordinate_is_not_a_label(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n1e400,1\n")
    with pytest.raises(ParseError) as ei:
        load_points_csv(str(p))
    assert (ei.value.row, ei.value.col) == (2, 1)
    p.write_text("a,0,0\nb,1," + "9" * 400 + "\n")  # a rational beyond float range
    with pytest.raises(ParseError) as ei:
        load_points_csv(str(p))
    assert (ei.value.row, ei.value.col) == (2, 3)


def test_non_finite_edge_weight_is_a_parse_error(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1 1\n1 2 1e999\n")
    with pytest.raises(ParseError) as ei:
        load_edges(str(g))
    assert (ei.value.row, ei.value.col) == (2, 3)
    assert main(["tau", "--backend", "graph", "--input", str(g)]) == 2


def test_float_positivity_failure_names_eta(tmp_path, capsys):
    """A float distance in (0, eta] is refused by the eta rule, and the
    message says so; an exact space still refuses d <= 0."""
    g = tmp_path / "g.txt"
    g.write_text("0 1 1e-300\n1 2 1e300\n")
    assert main(["validate", "--backend", "graph", "--input", str(g)]) == 1
    assert "d(0,1) = 1e-300 <= eta = 1e-09 for distinct points" in capsys.readouterr().out
    assert main(["conditions", "--backend", "graph", "--input", str(g)]) == 1
    err = capsys.readouterr().err
    assert err == "validation failure: d(0,1) = 1e-300 <= eta = 1e-09 for distinct points\n"
    m = tmp_path / "m.csv"
    m.write_text("0,0\n0,0\n")
    assert main(["conditions", "--backend", "matrix", "--input", str(m)]) == 1
    assert "d(0,1) = 0 <= 0 for distinct points" in capsys.readouterr().err


def test_float_graph_weight_that_rounds_to_zero_is_refused_by_eta(tmp_path, capsys):
    """1/10^400 is positive but rounds to 0.0 beside a float weight: the eta
    rule refuses it (exit 1); the graph is connected, not disconnected (2)."""
    g = tmp_path / "g.txt"
    g.write_text("0 1 0.5\n1 2 1/1" + "0" * 400 + "\n")
    code, data = run(tmp_path, "validate", "--backend", "graph", "--input", str(g))
    assert code == 1
    assert data == {"valid": False, "witness": [1, 2],
                    "error": "d(1,2) = 0.0 <= eta = 1e-09 for distinct points"}


def test_validate_exit_1_when_point_distances_overflow(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("1e308,1e308\n-1e308,-1e308\n")
    code, data = run(tmp_path, "validate", "--backend", "points", "--input", str(p))
    assert code == 1
    assert data["valid"] is False and data["witness"] == [0, 1]


def test_validate_accepts_a_large_nearly_collinear_cloud(tmp_path):
    """The rounding of math.dist breaks this triangle by more than eta, but
    the points themselves satisfy it: a point cloud is a metric."""
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n-123948716.92454171,-135161505.53280166\n"
                 "-235532660.49759912,-256839681.643356\n")
    code, data = run(tmp_path, "validate", "--backend", "points", "--input", str(p))
    assert code == 0
    assert data["valid"] is True and data["n"] == 3


def test_validate_accepts_a_two_edge_float_path(tmp_path):
    """Floyd-Warshall's sum d(0,2) rounds past d(0,1) + d(1,2) by more than
    eta, but each float geodesic lies within gamma_{n-1} of the exact one:
    a float graph is a metric by construction."""
    g = tmp_path / "g.txt"
    g.write_text("0 1 5798099837.879883\n1 2 8379475785.850711\n")
    code, data = run(tmp_path, "validate", "--backend", "graph", "--input", str(g))
    assert code == 0
    assert data["valid"] is True and data["n"] == 3


@pytest.mark.parametrize("text,witness", [
    ("0 1 1e308\n1 2 1e308\n", [0, 2]),
    ("0 1 8e307\n1 2 8e307\n2 3 8e307\n", [0, 3]),
], ids=["two-edges", "three-edges"])
def test_float_path_sum_past_the_float_range_is_refused(tmp_path, capsys, text, witness):
    """A connected graph whose path sum overflows is not disconnected: it is
    refused as points are, naming the first such pair in row-major order,
    and no overflow warning reaches stderr."""
    g = tmp_path / "g.txt"
    g.write_text(text)
    error = f"d({witness[0]},{witness[1]}) = inf is not a finite number"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run(tmp_path, "validate", "--backend", "graph", "--input", str(g))
        assert code == 1
        assert data == {"valid": False, "error": error, "witness": witness}
        assert main(["conditions", "--backend", "graph", "--input", str(g)]) == 1
    assert capsys.readouterr().err == f"validation failure: {error}\n"


def test_float_graph_near_the_float_range_is_valid(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1 1e308\n1 2 1e308\n0 2 1.5e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run(tmp_path, "validate", "--backend", "graph", "--input", str(g))
    assert code == 0
    assert data["valid"] is True and data["min_positive_distance"] == 1e308


def test_missing_required_option_exit_3():
    assert main(["validate", "--backend", "discrete"]) == 3


# ---------------------------------------------------------------------------
# flags


_SPACE = {"--backend", "--input", "--n", "--samples", "--length"}
_REPORT = {"--format", "--out"}


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: [o for a in sp._actions if not isinstance(a, argparse._HelpAction)
                    for o in a.option_strings]
             for name, sp in sub.choices.items()}
    assert {name: set(f) for name, f in flags.items()} == {
        "validate": _SPACE | _REPORT,
        "conditions": _SPACE | _REPORT,
        "tau": _SPACE | {"--grid"} | _REPORT,
        "isometry": _SPACE | {"--grid"} | _REPORT,
        "segment-demo": {"--x", "--out"},
        "nucleus-demo": {"--net", "--x", "--center"} | _SPACE | {"--grid"} | _REPORT,
    }
    assert sum(map(len, flags.values())) == 43


@pytest.mark.parametrize("argv", [
    ["segment-demo", "--x", "1/3", "--backend", "graph"],
    ["tau", "--backend", "segment", "--samples", "3", "--eta", "1e-6"],
    ["validate", "--backend", "interval1d"],
])
def test_unread_flags_are_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main([*argv, "--out", str(tmp_path / "out")])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv", [
    ["tau", "--backend", "discrete", "--n", "3", "--input", "/nonexistent",
     "--length", "7", "--samples", "9"],
    ["validate", "--backend", "segment", "--samples", "3", "--n", "3"],
    ["conditions", "--samples", "3", "--input", "edges.txt"],
    ["isometry", "--backend", "points", "--input", "pts.csv", "--samples", "3"],
    ["tau", "--backend", "matrix", "--input", "m.csv", "--n", "2"],
    ["nucleus-demo", "--backend", "graph", "--input", "g.txt", "--length", "2",
     "--center", "0"],
])
def test_space_flags_the_backend_ignores_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("configuration refused:")
    assert not out.exists()


def test_refused_space_flags_are_named(capsys):
    assert main(["tau", "--backend", "discrete", "--n", "3", "--input", "/nonexistent",
                 "--length", "7", "--samples", "9"]) == 3
    assert capsys.readouterr().err == (
        "configuration refused: --backend discrete does not read "
        "--input, --samples, --length\n")


@pytest.mark.parametrize("argv, code", [
    (["--backend", "segment", "--samples", "1"], 3),
    (["--backend", "discrete", "--n", "0"], 3),
    (["--backend", "segment", "--samples", "3", "--length", "0"], 3),
    (["--backend", "points", "--input", "{dup}"], 2),  # errors in input files
    (["--backend", "graph", "--input", "{split}"], 2),
])
def test_out_of_range_space_flags_are_refused(tmp_path, capsys, argv, code):
    (tmp_path / "dup.csv").write_text("0,0\n0,0\n")
    (tmp_path / "split.txt").write_text("0 1 1\n2 3 1\n")
    argv = [a.format(dup=tmp_path / "dup.csv", split=tmp_path / "split.txt") for a in argv]
    assert main(["validate", *argv, "--out", str(tmp_path / "out.json")]) == code
    prefix = "configuration refused: " if code == 3 else "ingestion error: "
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("argv, value", [
    (["tau", "--backend", "segment", "--samples", "3",
      "--grid", "1/100,1e400,5,geometric"], "1e+400"),
    (["tau", "--backend", "segment", "--samples", "3",
      "--grid", "1e-400,3,5,geometric"], "1e-400"),
    (["tau", "--backend", "segment", "--samples", "3", "--length", "1e400"], "1.25e+399"),
    (["tau", "--backend", "points", "--input", POINTS,
      "--grid", "1/100,1e400,5,linear"], "2.5e+399"),
    (["isometry", "--backend", "points", "--input", POINTS,
      "--grid", "1/100,1e400,5,linear"], "2.5e+399"),
    (["nucleus-demo", "--backend", "points", "--input", POINTS,
      "--grid", "1/100,1e400,5,linear", "--center", "0"], "2.5e+399"),
    (["tau", "--backend", "segment", "--samples", "3",
      "--grid", "1e-200,1e200,5,geometric"], "1e+200/1e-200"),
])
def test_grid_values_beyond_float_range_are_refused(tmp_path, capsys, argv, value):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration refused: grid") and f" {value} " in err
    assert not out.exists()


def test_exact_space_takes_a_linear_grid_beyond_float_range(tmp_path):
    code, data = run(tmp_path, "tau", "--backend", "segment", "--samples", "3",
                     "--length", "1e400", "--grid", "1e398,1e401,5,linear")
    assert code == 0 and data["tau"][0][2] == str(10 ** 400)


# ---------------------------------------------------------------------------
# output errors


def test_missing_out_directory_is_an_output_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["tau", "--backend", "segment", "--samples", "3", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith("output error:")


def test_segment_demo_unwritable_directory_is_an_output_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["segment-demo", "--x", "1/3", "--out", str(blocker / "d")]) == 4
    assert capsys.readouterr().err.startswith("output error:")


_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _cli(argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "wavemodel.cli", *argv],
                            stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=_SRC), **kwargs)


def _assert_clean_output_error(proc):
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 4
    assert err.startswith("output error:")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_every_open_names_its_encoding(tmp_path):
    """No file is opened in the locale's encoding: each loader, the report
    writer and ``segment-demo`` run in a child that turns Python's
    ``EncodingWarning`` into an error."""
    inputs = pathlib.Path(__file__).parent / "golden" / "inputs"
    for argv in (["validate", "--backend", "matrix", "--input", str(inputs / "matrix.csv")],
                 ["isometry", "--backend", "points", "--input", POINTS],
                 ["conditions", "--backend", "graph", "--input", str(inputs / "edges.txt"),
                  "--format", "csv"],
                 ["segment-demo", "--x", "1/3"]):
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "wavemodel.cli", *argv,
                               "--out", str(tmp_path / argv[0])], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=_SRC), timeout=60)
        assert (proc.returncode, "Traceback" in proc.stderr) == (0, False), proc.stderr


def test_stdout_pipe_closed_before_writing():
    r, w = os.pipe()
    os.close(r)  # no reader: the first write fails
    try:
        proc = _cli(["validate", "--backend", "segment", "--samples", "3"], stdout=w)
    finally:
        os.close(w)
    _assert_clean_output_error(proc)


def test_stdout_pipe_closed_during_the_report():
    # as in `wavemodel tau ... | head -1`: the reader leaves while a report
    # far larger than the pipe buffer (about 2 MB) is still being written
    proc = _cli(["tau", "--backend", "segment", "--samples", "120"],
                stdout=subprocess.PIPE)
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _assert_clean_output_error(proc)


def test_report_to_a_text_stream_without_a_buffer(capsys):
    """stdout replaced by a text-only stream (``io.StringIO``, a notebook's):
    the report is written as text, the golden bytes; a failed write is
    still an output error (exit 4)."""
    golden = pathlib.Path(__file__).parent / "golden" / "expected" / "tau-segment.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["tau", "--backend", "segment", "--samples", "7", "--length", "3/2"]) == 0
    assert out.getvalue().encode() == golden.read_bytes()

    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    with contextlib.redirect_stdout(Full()):
        assert main(["validate", "--backend", "segment", "--samples", "3"]) == 4
    assert capsys.readouterr().err.startswith("output error:")


# ---------------------------------------------------------------------------
# conditions


def test_conditions_discrete(tmp_path):
    code, data = run(tmp_path, "conditions", "--backend", "discrete", "--n", "4")
    assert code == 0
    assert data["condition1"]["holds"]
    assert data["max_defect"] == "1"
    # the defect equals the minimum spacing, so the sample-tolerance rule
    # cannot tell it apart from discretization error
    assert data["verdict"] == "holds within sample tolerance"


def test_conditions_fails_verdict(tmp_path):
    g = tmp_path / "g.txt"
    # defect(0, 2) = 1 far exceeds twice the minimum spacing 1/100
    g.write_text("0 1 1\n1 2 1\n0 3 1/100\n")
    code, data = run(tmp_path, "conditions", "--backend", "graph",
                     "--input", str(g))
    assert code == 0
    assert data["verdict"] == "fails"


@pytest.mark.parametrize("heavy,max_defect,verdict", [
    ("2", "2", "holds within sample tolerance"),  # max_defect = 2 min_positive_distance
    ("3", "3", "fails"),
])
def test_conditions_verdict_at_twice_the_minimum_spacing(tmp_path, heavy, max_defect, verdict):
    """The path 0 - 1 - 2 with weights 1 and ``heavy``: the sample-tolerance
    rule admits a max defect of exactly twice the minimum spacing 1."""
    g = tmp_path / "g.txt"
    g.write_text(f"0 1 1\n1 2 {heavy}\n")
    code, data = run(tmp_path, "conditions", "--backend", "graph", "--input", str(g))
    assert code == 0
    assert data["max_defect"] == max_defect
    assert data["verdict"] == verdict


@pytest.mark.parametrize("d33", ["4e-10", "0.0"])
def test_conditions_of_a_line_with_a_diagonal_within_eta(tmp_path, d33):
    """The 8-point unit line metric with d(3,3) = 4e-10 validates, and its
    kernel holds 0.0 there: its defects are the exact-zero twin's.  A ball
    B_s(3) with s <= d(3,3) would not hold its centre."""
    m = tmp_path / "line.csv"
    m.write_text("".join(",".join(d33 if i == j == 3 else f"{abs(i - j)}.0" for j in range(8))
                         + "\n" for i in range(8)))
    assert run(tmp_path, "validate", "--backend", "matrix", "--input", str(m))[1]["valid"]
    code, data = run(tmp_path, "conditions", "--backend", "matrix", "--input", str(m))
    assert code == 0
    assert data["max_defect"] == 1.0
    assert data["verdict"] == "holds within sample tolerance"


def test_conditions_segment_within_tolerance(tmp_path):
    code, data = run(tmp_path, "conditions", "--backend", "segment",
                     "--samples", "21")
    assert code == 0
    assert data["verdict"] == "holds within sample tolerance"


def test_conditions_csv_matrix(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["conditions", "--backend", "discrete", "--n", "3",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 3 and rows[0][1] == "1"


# ---------------------------------------------------------------------------
# tau / isometry


def test_tau_segment(tmp_path):
    code, data = run(tmp_path, "tau", "--backend", "segment", "--samples", "11")
    assert code == 0
    assert data["tau"][0][10] == "1"  # tau = d at the extreme pair
    assert data["tau_brackets"][0][10][0] != data["tau_brackets"][0][10][1]
    assert data["atom_count"] == 11


def test_isometry_segment_report(tmp_path):
    code, data = run(tmp_path, "isometry", "--backend", "segment",
                     "--samples", "21")
    assert code == 0
    assert "tau_brackets" not in data
    assert data["warnings"] == []
    # deviation bounded by one sample spacing
    from fractions import Fraction
    assert Fraction(data["max_abs_tau_minus_d"]) <= Fraction(1, 20)


def test_isometry_discrete_reports_cause(tmp_path):
    code, data = run(tmp_path, "isometry", "--backend", "discrete", "--n", "5")
    assert code == 0
    assert data["homothety_c"] == "2"
    assert "discrepancy_cause" in data


def test_tau_coarse_grid_refused(tmp_path):
    code = main(["tau", "--backend", "segment", "--samples", "11",
                 "--grid", "1/2,3,8,geometric"])
    assert code == 3


def test_bad_grid_spec_exit_3():
    assert main(["tau", "--backend", "discrete", "--n", "3",
                 "--grid", "1,2,3"]) == 3
    assert main(["tau", "--backend", "discrete", "--n", "3",
                 "--grid", "1,2,x,linear"]) == 3


def test_tau_graph_from_file(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1 1\n1 2 1\n")
    code, data = run(tmp_path, "tau", "--backend", "graph", "--input", str(g))
    assert code == 0
    assert data["tau"][0][1] == "2" and data["tau"][0][2] == "2"


def test_tau_points_from_file(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n0,1\n1,0\n1,1\n")
    code, data = run(tmp_path, "tau", "--backend", "points", "--input", str(p))
    assert code == 0
    assert data["n"] == 4


def test_isometry_reports_non_singleton_nuclei(tmp_path):
    # points 0 and 1 lie 1.2e-9 apart: farther than the tolerance 1e-9, so
    # not duplicates, but inside every open ball of the default grid
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n1.2e-9,0\n1,0\n")
    code, data = run(tmp_path, "isometry", "--backend", "points", "--input", str(p))
    assert code == 0
    assert data["atom_count"] == 2
    assert data["warnings"] == [
        "nucleus of point 0 is [0, 1], not a singleton",
        "nucleus of point 1 is [0, 1], not a singleton",
    ]


# ---------------------------------------------------------------------------
# demos


def test_segment_demo_writes_artifacts(tmp_path, capsys):
    outdir = tmp_path / "demo"
    code = main(["segment-demo", "--x", "3/10", "--out", str(outdir)])
    assert code == 0
    funcs = json.loads((outdir / "four_functions.json").read_text())
    assert [f["name"] for f in funcs] == [
        "ball_lower", "atom_from_left", "atom_from_right", "ball_upper"]
    report = json.loads((outdir / "chain_report.json").read_text())
    assert report["all_pass"] is True
    rows = list(csv.reader((outdir / "traces.csv").read_text().splitlines()))
    assert rows[0] == ["t", "function", "set"]
    assert len(rows) == 1 + 4 * len(report["probes"])


def test_segment_demo_midpoint_note(tmp_path, capsys):
    code = main(["segment-demo", "--x", "1/2", "--out", str(tmp_path / "d")])
    assert code == 0
    captured = capsys.readouterr()
    assert "merge" in captured.err
    assert captured.out == ""  # status lines go to stderr


def test_segment_demo_bad_x_exit_3(tmp_path):
    assert main(["segment-demo", "--x", "2", "--out", str(tmp_path / "d")]) == 3
    assert main(["segment-demo", "--x", "oops", "--out", str(tmp_path / "d")]) == 3


def test_nucleus_demo_left_window(tmp_path):
    code, data = run(tmp_path, "nucleus-demo", "--net", "left-window",
                     "--x", "1/2")
    assert code == 0
    assert data["nucleus"] == "[1/2, 1/2]"
    assert all(r["lower_ok"] and r["upper_ok"] for r in data["sandwich"])


def test_nucleus_demo_shrinking_ball(tmp_path):
    code, data = run(tmp_path, "nucleus-demo", "--net", "shrinking-ball",
                     "--backend", "segment", "--samples", "11", "--center", "5")
    assert code == 0
    assert data["nucleus"] == [5]
    assert all(r["lower_ok"] and r["upper_ok"] for r in data["sandwich"])


@pytest.mark.parametrize("argv", [
    ["--net", "left-window", "--x", "1/2", "--backend", "graph",
     "--grid", "1,2,3,linear", "--center", "7"],
    ["--net", "right-window", "--x", "1/3", "--backend", "segment"],
    ["--net", "left-window", "--x", "1/2", "--input", "edges.txt"],
    ["--net", "right-window", "--x", "1/2", "--n", "3"],
    ["--net", "left-window", "--x", "1/2", "--samples", "5", "--length", "2"],
    ["--net", "shrinking-ball", "--samples", "5", "--center", "2", "--x", "1/2"],
])
def test_nucleus_demo_refuses_flags_its_net_ignores(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main(["nucleus-demo", *argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("configuration refused:")
    assert not out.exists()


def test_nucleus_demo_center_out_of_range(tmp_path):
    assert main(["nucleus-demo", "--net", "shrinking-ball", "--backend",
                 "segment", "--samples", "11", "--center", "99"]) == 3


def test_one_parser_serves_successive_calls_without_leaking_flags(tmp_path):
    """The parser is built once per process; the flags of one call do not
    reach the next, whose report equals a fresh process's."""
    assert build_parser() is build_parser()
    seg = ["--backend", "segment", "--samples", "5"]
    gridded = tmp_path / "gridded.json"
    assert main(["tau", *seg, "--grid", "1/16,2,32,linear", "--out", str(gridded)]) == 0
    assert main(["conditions", *seg, "--format", "csv",
                 "--out", str(tmp_path / "conditions.csv")]) == 0
    out = tmp_path / "tau.json"
    assert main(["tau", *seg, "--out", str(out)]) == 0
    fresh = _cli(["tau", *seg], stdout=subprocess.PIPE)
    text, _ = fresh.communicate(timeout=60)
    assert fresh.returncode == 0
    assert out.read_text() == text != gridded.read_text()


def test_cli_import_does_not_load_networkx():
    code = "import sys, wavemodel.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=_SRC), check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# refusals


@pytest.mark.parametrize("argv, message", [
    (["validate", "--backend", "segment"], "--backend segment requires --samples"),
    (["validate", "--backend", "points"], "--backend points requires --input"),
    (["conditions", "--backend", "graph"], "--backend graph requires --input"),
    (["tau", "--backend", "matrix"], "--backend matrix requires --input"),
    (["segment-demo"], "segment-demo requires --x"),
    (["nucleus-demo", "--net", "left-window"], "--net left-window requires --x"),
    (["nucleus-demo", "--net", "right-window"], "--net right-window requires --x"),
    (["nucleus-demo", "--net", "left-window", "--x", "1"],
     "--x must lie strictly inside (0, 1), got 1"),
    (["nucleus-demo", "--net", "right-window", "--x=-1/2"],
     "--x must lie strictly inside (0, 1), got -1/2"),
    (["nucleus-demo", "--backend", "segment", "--samples", "5"],
     "--net shrinking-ball requires --center"),
])
def test_a_missing_or_bad_flag_is_refused_by_name(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"configuration refused: {message}\n"
    assert not out.exists()


def test_a_closed_stdout_is_an_output_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["validate", "--backend", "segment", "--samples", "3"]) == 4
    assert capsys.readouterr().err == "output error: stdout is closed\n"


def test_conditions_on_one_point_hold(tmp_path):
    """The defect and the max defect of one point are the kernel's 0 in the
    space's one type: "0" on the discrete metric, 0.0 on a float matrix."""
    code, data = run(tmp_path, "conditions", "--backend", "discrete", "--n", "1")
    assert code == 0
    assert (data["condition2_defects"], data["max_defect"], data["verdict"]) == (
        [["0"]], "0", "holds")
    assert data["min_positive_distance"] is None
    one = tmp_path / "one.csv"
    one.write_text("0.0\n")
    code, data = run(tmp_path, "conditions", "--backend", "matrix", "--input", str(one))
    assert code == 0
    assert repr((data["condition2_defects"], data["max_defect"])) == repr(([[0.0]], 0.0))


def test_shrinking_ball_net_that_never_stabilizes_exits_1(tmp_path):
    """A path graph whose node i > 0 lies at 2^(i - 66) from node 0: each
    halving of eps, from the diameter 1, drops one node from the ball about
    0, so 64 halvings do not stabilize it."""
    g = tmp_path / "g.txt"
    g.write_text(f"0 1 1/{2 ** 65}\n" + "".join(f"{i} {i + 1} 1/{2 ** (66 - i)}\n"
                                                for i in range(1, 66)))
    code, data = run(tmp_path, "nucleus-demo", "--backend", "graph", "--input", str(g),
                     "--center", "0")
    assert code == 1
    assert data == {"error": "non-stabilizing net: family did not stabilize within 64 halvings"}


@pytest.mark.parametrize("text", ["0,1\n\n,\n1,0\n", " , \n0,1\n1,0\n\n"])
def test_matrix_csv_skips_blank_rows(tmp_path, text):
    m = tmp_path / "m.csv"
    m.write_text(text)
    assert load_matrix_csv(str(m)) == [[0, 1], [1, 0]]


@pytest.mark.parametrize("text", ["", "\n\n", ",,\n"])
def test_matrix_csv_without_rows_exit_2(tmp_path, capsys, text):
    m = tmp_path / "m.csv"
    m.write_text(text)
    with pytest.raises(ParseError) as ei:
        load_matrix_csv(str(m))
    assert (str(ei.value), ei.value.row, ei.value.col) == ("row 1, col 1: no matrix rows found",
                                                          1, 1)
    assert main(["validate", "--backend", "matrix", "--input", str(m)]) == 2
    assert capsys.readouterr().err == "ingestion error: row 1, col 1: no matrix rows found\n"
