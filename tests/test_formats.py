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
