"""The JSON report writer against the standard-library encoder.

``cli.encode_report`` must give the bytes of
``json.dumps(jsonable(report), indent=2, sort_keys=True) + "\\n"``, the
encoder the CLI used before, which stays here as the reference.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import build_from_matrix, cli, metric

import oracles

F = Fraction
INF = math.inf


def reference(report) -> str:
    return json.dumps(cli.jsonable(report), indent=2, sort_keys=True) + "\n"


# values that compare equal across types, or that the reference rewrites
TRICKY = [0, 0.0, -0.0, F(0), False, True, 1, 1.0, F(1), F(1, 2), 0.5, "0.5",
          INF, -INF, math.nan, None, "", "inf", "é漢", 'q"\\\n\t\x00']

scalars = st.one_of(
    st.sampled_from(TRICKY),
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(),
    st.text(),
)
trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_writer_matches_the_reference_encoder(report):
    assert "".join(cli.encode_report(report)) == reference(report)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TRICKY), max_size=8), max_size=6))
def test_rows_of_values_that_compare_equal(rows):
    """Equal values of other types keep their own tokens: 0, 0.0, -0.0,
    Fraction(0) and False are each written as the reference writes them."""
    report = {"rows": rows, "again": [list(reversed(r)) for r in rows]}
    assert "".join(cli.encode_report(report)) == reference(report)


@pytest.mark.parametrize("report", [
    {"row": [-0.0, 0.0, -0.0, 0.0]},
    {"row": [0, 0.0, F(0), False, -0.0, None]},
    {"row": [F(1, 2), 0.5, F(1, 2), 0.5, "1/2"]},
    {"row": [INF, -INF, 2.0, INF], "bracket": (F(3, 2), INF)},
    {"none": None, "empty": [], "empty_dict": {}, "empty_tuple": ()},
    {"é": "café ☃", "esc": 'a"b\\c\nd\te\x01', "z": {"y": [1, [2, [3]]]}},
    {"mixed": [1, [2.5, F(-7, 3)], {"k": (0, 0.0)}, [], "s", {}]},
    [F(5, 7)] * 3 + [F(5, 7), F(10, 14)],
    [], {}, 0, -0.0, "top",
])
def test_edge_cases(report):
    assert "".join(cli.encode_report(report)) == reference(report)


class LoudFloat(float):
    """A float subclass whose own repr json does not use."""

    def __repr__(self):
        return f"LoudFloat({float(self)!r})"


@pytest.mark.parametrize("value", [np.float64(0.5), np.float64(-0.0), np.float64(1e-300),
                                   np.float64(INF), np.float64(-INF), np.float64(math.nan),
                                   LoudFloat(0.1), LoudFloat(INF)], ids=repr)
def test_float_subclasses_are_written_as_json_writes_them(value):
    """numpy's float64 and any float subclass: ``float.__repr__``, not the
    subclass's repr (``np.float64(0.5)`` under numpy 2)."""
    report = {"x": value, "row": [value, 1.5, value], "pair": (F(1, 2), value)}
    assert "".join(cli.encode_report(report)) == reference(report)


def test_a_d_table_of_numpy_floats_is_written():
    s = build_from_matrix([[0, np.float64(0.5)], [np.float64(0.5), 0]])
    report = {"d": metric._dist_table(s)}
    assert "".join(cli.encode_report(report)) == reference(report)
    assert json.loads(reference(report)) == {"d": [[0, 0.5], [0.5, 0]]}


def test_unserializable_values_are_refused():
    with pytest.raises(TypeError):
        "".join(cli.encode_report({"a": {1, 2}}))


def test_tau_report_leaves_one_table_row_at_a_time(monkeypatch):
    """segment-201: no part is longer than one row of a table, indent and
    separator included, and the parts join to the reference text."""
    parts, reports = [], []
    monkeypatch.setattr(cli, "_write", lambda written, path: parts.extend(written))
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda report, args: (
        reports.append(report), emit(report, args)))
    assert cli.main(["tau", "--backend", "segment", "--samples", "201"]) == 0
    [report] = reports
    assert "".join(parts) == reference(report)
    tables = [report[k].tolist() for k in ("tau", "d", "tau_brackets")]
    # a row at the indent of a top-level table's rows, after the last row's "],\n"
    row = max(len("    " + json.dumps(cli.jsonable(r), indent=2).replace("\n", "\n    "))
              for table in tables for r in table) + len(",\n")
    assert len(parts) > 3 * 201
    assert max(map(len, parts)) <= row


# ---------------------------------------------------------------------------
# the reports the CLI writes, on every backend


def _inputs(tmp_path, rng):
    """(backend argv) lists with seeded random inputs for every backend."""
    n = rng.randint(2, 9)
    pts = tmp_path / "points.csv"
    pts.write_text("".join(f"{rng.random():.17g},{rng.random():.17g}\n" for _ in range(n)))
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{i} {j} {w}\n" for i, j, w in oracles.random_graph_edges(rng, n)))
    float_edges = tmp_path / "float_edges.txt"
    float_edges.write_text("".join(f"{i} {j} {float(w)!r}\n"
                                   for i, j, w in oracles.random_graph_edges(rng, n)))
    exact = tmp_path / "matrix.csv"
    exact.write_text("".join(",".join(map(str, row)) + "\n"
                             for row in oracles.random_rational_metric(rng, n)))
    floats = tmp_path / "matrix_float.csv"
    floats.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                              for row in oracles.random_rational_metric(rng, n)))
    length = F(rng.randint(1, 99), rng.randint(1, 99))
    return [
        ["--backend", "points", "--input", str(pts)],
        ["--backend", "graph", "--input", str(edges)],
        ["--backend", "graph", "--input", str(float_edges)],
        ["--backend", "matrix", "--input", str(exact)],
        ["--backend", "matrix", "--input", str(floats)],
        ["--backend", "discrete", "--n", str(n)],
        ["--backend", "segment", "--samples", str(n), "--length", str(length)],
    ]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("command", ["tau", "isometry", "conditions"])
def test_cli_reports_match_the_reference_encoder(tmp_path, monkeypatch, seed, command):
    written, reports = [], []
    monkeypatch.setattr(cli, "_write", lambda parts, path: written.append("".join(parts)))
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda report, args: (
        reports.append(report), emit(report, args)))
    backends = _inputs(tmp_path, random.Random(f"report/{seed}"))
    for argv in backends:
        assert cli.main([command, *argv]) == 0
    assert len(written) == len(reports) == len(backends)
    for text, report in zip(written, reports):
        assert text == reference(report)
