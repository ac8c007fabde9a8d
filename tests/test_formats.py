"""The loaders' one-pass reads against their row-by-row references.

``formats.load_points_csv`` reads each row with one ``float`` pass and
keeps the values where that pass gives what ``_coordinate`` gives (no '_',
no zero, every value finite); every other row is read field by field.
``oracles.load_points_per_field`` reads every row field by field.  Values
must match bit for bit, the sign of zero included; labels, and each
``ParseError``'s message, row and column, must match too.

``formats.load_edges`` reads the file line by line and parses each
distinct weight token once.  ``oracles.load_edges_by_row`` is the old line
loop, with the old ``Fraction``-or-``float`` number parser.  Edges must
match in value and type, with one object per weight token, and so must
each ``ParseError``.  The command line builds a graph with
``build_from_graph(load_edges(path))``; it must build what
``build_from_graph(load_edges_by_row(path))`` builds, and refuse what that
refuses, with the same message, exit code and stderr.
"""

import contextlib
import io
import json
import os
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavemodel import (
    MetricError,
    ParseError,
    build_from_graph,
    cli,
    formats,
    load_edges,
    load_points_csv,
)

import oracles
from test_golden import CASES, INPUTS

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # decimals, exponents
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.4E}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(2 ** 53, 2 ** 80).map(str),  # ints that round to a float
    st.integers(10 ** 399, 10 ** 400).map(str),  # beyond the floats
    st.sampled_from(["3", "-0", "-0.0", "0", "0.0", "+0", "1e-400", "2e0", " 2.5 ",
                     "1/2", "-7/4", "1/0", "1_000", "1_0.5", "nan", "inf", "-inf",
                     "1e400", "-1e400", "", " "]),
)
LABELS = st.sampled_from(["a", "p_1", " label ", "x y", "0x10"])
ROWS = st.one_of(
    st.lists(NUMBERS, min_size=1, max_size=3),
    st.builds(lambda label, fields: [label, *fields], LABELS,
              st.lists(NUMBERS, max_size=3)),
    st.sampled_from([[], [" "], [" ", ""]]),  # blank lines
)


def outcome(load, path):
    """What a loader gives: the bits of every value and the labels, or the
    error with its message and position."""
    try:
        coords, labels = load(str(path))
    except ParseError as e:
        return "error", str(e), e.row, e.col
    return [[v.hex() for v in row] for row in coords], labels


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("points") / "points.csv"


@settings(max_examples=150, deadline=None)
@given(st.lists(ROWS, max_size=6))
def test_loader_matches_the_per_field_path(csv_path, rows):
    csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert outcome(load_points_csv, csv_path) == outcome(oracles.load_points_per_field,
                                                         csv_path)


def test_plain_rows_take_the_one_pass_path(tmp_path, monkeypatch):
    """Rows of finite nonzero floats never reach ``_coordinate``; a zero, an
    underscore, a label, a ratio or a value that is not finite does."""
    def refuse(*args):
        raise AssertionError("read field by field")

    p = tmp_path / "points.csv"
    p.write_text("0.5,1.25\n3,4e-2\n\n-1.5E+3,7\n")
    monkeypatch.setattr(formats, "_coordinate", refuse)
    assert load_points_csv(str(p)) == ([[0.5, 1.25], [3.0, 0.04], [-1500.0, 7.0]], None)
    for row in ("-0,1", "0.0,1", "1_0,1", "a,1,2", "1/2,1", "nan,1", "1e400,1"):
        p.write_text(row + "\n")
        with pytest.raises(AssertionError, match="field by field"):
            load_points_csv(str(p))


def test_points_tokens_report_matches_golden():
    """``-0``, ``-0.0``, ints, ratios and exponents: the loader reads them
    as the per-field path does; the report is the golden case
    ``isometry-points-tokens``, which the per-field loader wrote."""
    path = INPUTS / "points_tokens.csv"
    coords, _ = load_points_csv(str(path))
    assert outcome(load_points_csv, path) == outcome(oracles.load_points_per_field, path)
    assert [v.hex() for v in coords[0]] == ["0x0.0p+0", "-0x0.0p+0"]  # '-0' is 0.0
    assert "points_tokens.csv" in CASES["isometry-points-tokens"][0]


# valid tokens are drawn more often than invalid ones, so that most files load
ENDPOINTS = st.sampled_from(["0", "1", "2", "3", "4"] * 4 + ["+3", "1_0", "007", "-0", "٣", "-1",
                            "1.0", "a", "1e1"] + ["0", "1", "2", "3", "4"] * 4)
WEIGHTS = st.one_of(
    st.integers(0, 40).map(str),
    st.builds("{}/{}".format, st.integers(1, 12), st.integers(1, 6)),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # decimals, exponents
    st.sampled_from(["+3", "1_0", "2/4", "-1/2", "0.5", "1e-3", "2E2", ".5", "5.", "-0", "0",
                     "1_0/3", "٣/2", "12345678901234567890/3"] * 2
                    + ["1/0", "/3", "3/", "1//2", "inf", "-inf", "nan", "1e400", "abc",
                       "9" * 5000]
                    + ["+3", "1_0", "2/4", "-1/2", "0.5", "1e-3", "2E2", ".5", "5.", "-0", "0"]),
)
SPACE = st.sampled_from([" ", "  ", "\t", "\x0c", " \t "])


@st.composite
def edge_lines(draw):
    """Mostly three fields, sometimes two or four, between whitespace."""
    fields = [draw(ENDPOINTS), draw(ENDPOINTS), draw(WEIGHTS)]
    arity = draw(st.sampled_from([3] * 10 + [2, 4] + [3] * 10))  # rare ones inside
    fields = fields[:arity] + [draw(WEIGHTS)] * (arity - 3)
    line = draw(SPACE).join(fields) if draw(st.booleans()) else " ".join(fields)
    lead = draw(st.sampled_from(["", "", " ", "\t", "\x0c"]))
    tail = draw(st.sampled_from(["", " ", "\t", "\x0c"]))
    return lead + line + tail


LINES = st.one_of(
    edge_lines(), edge_lines(), edge_lines(),
    st.sampled_from(["", " ", "\t", "\x0c", "# comment", "  # indented 0 1 2", "#0 1 2",
                     "0 1 2 # more fields, not a comment"]),
)


def edges_outcome(load, path):
    """What an edge loader gives: each edge as reprs (value and type), the
    weights' objects numbered by first occurrence, or the error."""
    try:
        edges = load(str(path))
    except ParseError as e:
        return "error", str(e), e.row, e.col
    ids = {}
    return [(repr(i), repr(j), repr(w), ids.setdefault(id(w), len(ids))) for i, j, w in edges]


@settings(max_examples=300, deadline=None)
@given(st.lists(LINES, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]),
       st.booleans())
@example(["0 1 1/2", "1 -1 2"], "\n", True)  # one bad row after a good one
@example(["0 1 1/2", "2 1 3/"], "\r\n", False)
@example(["0 1 2", "", "1 2"], "\r", True)
@example(["# only a comment", " "], "\n", True)
def test_edge_loader_matches_the_row_by_row_reference(csv_path, lines, end, last_end):
    csv_path.write_bytes((end.join(lines) + (end if last_end else "")).encode())
    assert edges_outcome(load_edges, csv_path) == edges_outcome(oracles.load_edges_by_row,
                                                                csv_path)


def test_edge_loader_shares_one_object_per_weight_token(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1 1/2\n1 2 0.5\n# 9 9 9\n\n2 3 1/2\n 3\t0 0.5 \n0 2 2/4\n")
    edges = load_edges(str(p))
    assert edges == [(0, 1, F(1, 2)), (1, 2, 0.5), (2, 3, F(1, 2)), (3, 0, 0.5), (0, 2, F(1, 2))]
    assert edges[0][2] is edges[2][2] and edges[1][2] is edges[3][2]
    assert edges[4][2] is not edges[0][2]  # '2/4' is a token of its own


@settings(max_examples=300, deadline=None)
@given(st.one_of(WEIGHTS, st.text(max_size=6)))
def test_number_matches_the_reference_parser(text):
    def outcome(parse):
        try:
            return repr(parse(text, 4, 3))
        except ParseError as e:
            return str(e)
    assert outcome(formats._number) == outcome(oracles.number)


# mostly valid weights, exact and float, so that most graphs build
GRAPH_WEIGHTS = st.sampled_from(["1", "2", "3", "7/2", "1/2", "2/4", "0.5", "2.5", "1e-3"] * 3
                                + ["0", "3/0", "-1", "nan", "1e400", "x"])
GRAPH_LINES = st.one_of(
    st.builds("{} {} {}".format, st.integers(0, 4), st.integers(0, 4), GRAPH_WEIGHTS),
    st.builds("{} {} {}".format, st.integers(0, 4), st.integers(0, 4), GRAPH_WEIGHTS),
    LINES,  # blank lines, comments and malformed rows
)


def cli_route(path):
    """The space the command line builds from an edge file."""
    return cli.build_space(cli.build_parser().parse_args(
        ["validate", "--backend", "graph", "--input", path]))


def reference_route(path):
    return build_from_graph(oracles.load_edges_by_row(path))


def graph_outcome(build, path):
    """The kernel's dtype, bits and scale, or the error's type and message."""
    try:
        s = build(path)
    except (ParseError, MetricError) as e:
        return type(e), str(e)
    m = s._m
    return m.dtype, m.tolist() if m.dtype == object else m.tobytes(), s._scale


def validate_outcome(path):
    """``wavemodel validate`` on the edge file: exit code, stderr, report."""
    out = path + ".json"
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["validate", "--backend", "graph", "--input", path, "--out", out])
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = fh.read()
    return code, err.getvalue(), report


@settings(max_examples=300, deadline=None)
@given(st.lists(GRAPH_LINES, max_size=8))
@example(["0 1 1/2", "1 2 1/2", "1 2 0.5", "2 2 7", "0 1 2", "2 0 0.5"])  # repeats, a loop
@example(["0 1 0.5", "1 2 2.5", "0 2 1e-3", "1 2 0.5"])  # floats only
@example(["0 1 3", "1 2 0", "2 0 1"])
@example(["0 1 3/0", "1 2 1/2"])
@example(["0 1 1/2", "2 3 1/2"])  # disconnected
@example(["0 1 x", "1 2 -1"])
@example(["0 1 2.5", "1 2 0", "2 0 -1", "0 2 0"])  # the first refused weight in edge order
@example(["1 2 1"])  # no node 0
def test_cli_builds_what_the_row_reference_builds(csv_path, lines):
    path = str(csv_path)
    csv_path.write_text("\n".join(lines) + "\n")
    want = graph_outcome(reference_route, path)
    assert graph_outcome(cli_route, path) == want
    if isinstance(want[0], type):  # refused: the same exit code, stderr and report
        with mock.patch.object(cli, "build_space", lambda args: reference_route(args.input)):
            reference = validate_outcome(path)
        assert validate_outcome(path) == reference


# ---------------------------------------------------------------------------
# Encoding: every loader reads UTF-8, with or without a byte-order mark; a
# byte that does not decode is an ingestion error at its row and field

LOADERS = {"points": load_points_csv, "graph": load_edges, "matrix": formats.load_matrix_csv}
VALID = {"points": "0.1\n0.5\n", "graph": "0 1 1\n1 2 1\n", "matrix": "0,1\n1,0\n"}


def validate_file(backend, path):
    """``wavemodel validate`` on ``path``: exit code, stderr, report."""
    out = path.with_suffix(".json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["validate", "--backend", backend, "--input", str(path),
                         "--out", str(out)])
    return code, err.getvalue(), out.read_text() if out.exists() else None


@pytest.mark.parametrize("backend", sorted(LOADERS))
def test_a_byte_order_mark_is_dropped(tmp_path, backend):
    """Excel and Windows editors start a UTF-8 file with a BOM: the file
    loads, and validates, as it does without one."""
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(VALID[backend].encode())
    marked.write_bytes(b"\xef\xbb\xbf" + VALID[backend].encode())
    assert LOADERS[backend](str(marked)) == LOADERS[backend](str(plain))
    code, err, report = validate_file(backend, marked)
    assert (code, err, report) == validate_file(backend, plain)
    assert code == 0 and json.loads(report)["valid"] is True


UNDECODABLE = [
    ("points", b"0,0\n\xff\xfe,1\n", "row 2, col 1: not UTF-8: byte 0xff"),
    ("points", b"1,2\n" * 3000 + b"3,\xe94\n", "row 3001, col 2: not UTF-8: byte 0xe9"),
    ("graph", b"0 1 1\n1 2 \xff\n", "row 2, col 3: not UTF-8: byte 0xff"),
    ("graph", b"\xef\xbb\xbf0 1 1\r\n1\t\xc32 1\r\n", "row 2, col 2: not UTF-8: byte 0xc3"),
    ("matrix", b"0,1\r\n1,\xc3", "row 2, col 2: not UTF-8: byte 0xc3"),
]


@pytest.mark.parametrize("backend, data, message", UNDECODABLE,
                         ids=["points", "points-late", "graph", "graph-bom", "matrix"])
def test_an_undecodable_byte_is_an_ingestion_error(tmp_path, backend, data, message):
    """A byte that is not UTF-8 is a ``ParseError`` at its row and field,
    past the first block the reader decodes too: exit 2, no report and no
    traceback."""
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as ei:
        LOADERS[backend](str(path))
    assert str(ei.value) == message
    assert validate_file(backend, path) == (2, f"ingestion error: {message}\n", None)


# ---------------------------------------------------------------------------
# A number token that holds '_' is refused on every Python: ``Fraction``
# reads '1_0' from Python 3.11 on only, ``float`` reads '1_0.5' everywhere

UNDERSCORED = ["1_0", "1_0/3", "1_0.5", "1e1_0"]
WITH_TOKEN = {"points": ("0.1\n{}\n", 2, 1), "points-coordinate": ("0.1,2\n3,{}\n", 2, 2),
              "graph": ("0 1 1\n1 2 {}\n", 2, 3), "matrix": ("0,{}\n1,0\n", 1, 2)}


@pytest.mark.parametrize("token", UNDERSCORED)
@pytest.mark.parametrize("case", sorted(WITH_TOKEN))
def test_a_number_with_an_underscore_is_refused(tmp_path, case, token):
    """In a points, edge or matrix file: a ``ParseError`` "not a number" at
    the token's row and column, exit 2; a first points field such as
    '1_0/3' is a refused number, not a label."""
    text, row, col = WITH_TOKEN[case]
    backend = case.partition("-")[0]
    path = tmp_path / "input.txt"
    path.write_text(text.format(token))
    message = f"row {row}, col {col}: not a number: {token!r}"
    with pytest.raises(ParseError) as ei:
        LOADERS[backend](str(path))
    assert str(ei.value) == message
    assert validate_file(backend, path) == (2, f"ingestion error: {message}\n", None)


@pytest.mark.parametrize("argv", [
    *(["validate", "--backend", "segment", "--samples", "3", "--length", t]
      for t in UNDERSCORED),
    ["segment-demo", "--x", "1/1_0"],
    ["tau", "--backend", "segment", "--samples", "3", "--grid", "1/1_0,1,5,linear"],
], ids=[*(f"length-{t}" for t in UNDERSCORED), "x", "grid"])
def test_a_rational_flag_with_an_underscore_is_refused(tmp_path, capsys, argv):
    """``--length``, ``--x`` and ``--grid``: exit 3, nothing written."""
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 3
    token = next(a for a in argv if "_" in a).split(",")[0]
    assert capsys.readouterr().err == f"configuration refused: not a rational number: {token!r}\n"
    assert not out.exists()


# An integer token with '_' is refused by the same rule (``int`` reads '1_0'
# on every Python): edge endpoints, the grid count and the integer flags

@pytest.mark.parametrize("line", ["1 0_2 1", "0_1 2 1"])
def test_an_edge_endpoint_with_an_underscore_is_refused(tmp_path, line):
    """'1 0_2 1' once joined nodes 1 and 2; the refusal names the column of
    the endpoint with '_'."""
    col = 1 + ("_" not in line.split()[0])
    assert_edge_refused(tmp_path, line, f"row 2, col {col}: endpoint indices must be integers")


def assert_edge_refused(tmp_path, line, message):
    """Both edge loaders refuse ``line``, after a good one, with ``message``;
    ``validate`` exits 2 with it."""
    path = tmp_path / "edges.txt"
    path.write_text(f"0 1 1\n{line}\n")
    for load in (load_edges, oracles.load_edges_by_row):
        with pytest.raises(ParseError) as ei:
            load(str(path))
        assert str(ei.value) == message
    assert validate_file("graph", path) == (2, f"ingestion error: {message}\n", None)


@pytest.mark.parametrize("line, message", [
    ("0 x 1", "row 2, col 2: endpoint indices must be integers"),
    ("x -2 1", "row 2, col 1: endpoint indices must be integers"),
    ("-1 x 1", "row 2, col 2: endpoint indices must be integers"),
    ("1 -2 1", "row 2, col 2: indices must be nonnegative"),
    ("-1 -2 1", "row 2, col 1: indices must be nonnegative"),
])
def test_an_edge_endpoint_refusal_names_its_column(tmp_path, line, message):
    """Every endpoint refusal was at column 1: the column of the first
    endpoint that is no integer, else of the first negative one."""
    assert_edge_refused(tmp_path, line, message)


def test_a_grid_count_with_an_underscore_is_refused(tmp_path, capsys):
    """Exit 3, nothing written; at the parent '1_0' built 10 grid values."""
    out = tmp_path / "out"
    argv = ["tau", "--backend", "segment", "--samples", "3", "--grid", "1/100,2,1_0,linear"]
    assert cli.main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("configuration refused: "
                                       "grid count must be an integer: '1_0'\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--backend", "discrete", "--n", "1_2"],
    ["validate", "--backend", "segment", "--samples", "1_0"],
    ["nucleus-demo", "--backend", "discrete", "--n", "3", "--center", "0_1"],
], ids=["n", "samples", "center"])
def test_an_integer_flag_with_an_underscore_is_refused(tmp_path, capsys, argv):
    """argparse's refusal: exit 2, the flag named, nothing written."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as ei:
        cli.main([*argv, "--out", str(out)])
    assert ei.value.code == 2
    assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err
    assert not out.exists()
