"""Matrix tables: the kernel matrices as codes into their distinct values.

``metric._Table`` carries ``tau``, ``d``, the grid brackets and the defect
matrix into the reports.  ``cli.encode_report`` renders it from one token
per distinct value; these tests hold it to the standard-library encoder
(``test_report.reference``), to ``csv.writer`` over its expanded rows and,
for tables built from kernel arrays, to the element-wise conversion kept
in ``oracles.to_values``.
"""

import csv
import io
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import (
    build_from_matrix,
    build_from_points,
    build_segment_sample,
    condition2_report,
    default_grid,
    load_matrix_csv,
    wave_distance_matrix,
    wave_model,
)
from wavemodel import cli, metric

import oracles
from test_golden import EXPECTED, INPUTS
from test_kernel import SPACES
from test_report import TRICKY, reference

F = Fraction
INF = math.inf

# the values of matrix cells: scalars, and bracket pairs as tau_brackets holds them
cells = st.one_of(
    st.sampled_from(TRICKY),
    st.tuples(st.sampled_from([0, F(1, 3), F(2), 0.5]),
              st.sampled_from([0, F(2, 3), F(4), 1.5, INF])),
    st.integers(), st.floats(), st.fractions(),
)


def is_number(v) -> bool:
    return type(v) in (int, float, F)


# the values of a tau or defect table, the tables a CSV report writes
numbers = st.one_of(st.sampled_from(list(filter(is_number, TRICKY))),
                    st.integers(), st.floats(), st.fractions())


@st.composite
def tables(draw, cells=cells):
    """A random table of ``cells``: codes, the diagonal's among them, into
    its values."""
    n = draw(st.integers(1, 6))
    values = draw(st.lists(cells, min_size=1, max_size=8))
    codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=n * n, max_size=n * n))
    return metric._Table(np.reshape(codes, (n, n)), values)


def expanded(report):
    """``report`` with each table written out as nested lists, code by code."""
    if isinstance(report, metric._Table):
        return [[report.values[c] for c in row] for row in report.codes.tolist()]
    if isinstance(report, dict):
        return {k: expanded(v) for k, v in report.items()}
    if isinstance(report, (list, tuple)):
        return [expanded(v) for v in report]
    return report


@settings(max_examples=200, deadline=None)
@given(tables(), st.dictionaries(st.text(max_size=3), st.sampled_from(TRICKY), max_size=3))
def test_table_reports_match_the_reference_encoder(table, extra):
    assert _same(table.tolist(), expanded(table))
    for report in ({"m": table, **extra}, {"a": {"b": [table, (table,)]}}, table):
        text = "".join(cli.encode_report(report))
        assert text == reference(report) == reference(expanded(report))


@settings(max_examples=100, deadline=None)
@given(tables(numbers))
def test_csv_branch_writes_the_expanded_rows(table):
    """``tau``, ``isometry`` and ``conditions`` with ``--format csv`` write
    their one table, here any table of numbers, as ``csv.writer`` writes
    its rows."""
    written = []
    with mock.patch.object(cli, "_write", lambda parts, path: written.append("".join(parts))), \
            mock.patch.object(metric, "_tau_table", lambda space: table), \
            mock.patch.object(metric, "_table", lambda a, scale: table):
        for command in ("tau", "isometry", "conditions"):
            assert cli.main([command, "--backend", "discrete", "--n", "2",
                             "--format", "csv"]) == 0
    assert written == [csv_reference(table)] * 3


def csv_reference(table) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(expanded(table))
    return buf.getvalue()


QUOTED = ["", None, "a,b", 'q"', "x\ny", "\r", " lead", "trail ", ",", '"', "é漢"]


@settings(max_examples=200, deadline=None)
@given(tables(numbers))
def test_csv_table_matches_the_csv_writer(table):
    assert cli._csv_table(table) == csv_reference(table)


@pytest.mark.parametrize("value", [*QUOTED, *TRICKY, (0, F(2, 3)), (0.5, INF)])
@pytest.mark.parametrize("diagonal", ["", 0, None])
def test_csv_table_of_one_column(value, diagonal):
    """A one-column table is written one ``str`` per row, with no quoting
    and no rule for an empty field: the tables of CSV reports hold ints,
    floats and Fractions, whose ``str`` is never empty and is what ``csv``
    writes.  The other values here are those the writer no longer takes."""
    table = metric._Table(np.array([[0], [1], [0]]), [value, diagonal])
    assert cli._csv_table(table) == f"{value}\r\n{diagonal}\r\n{value}\r\n"
    if is_number(value) and is_number(diagonal):
        assert cli._csv_table(table) == csv_reference(table)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_csv_table_of_several_columns_quotes_as_csv_does(n):
    """``csv`` quotes no number: a table of every kind of number that a
    report's table holds is written without a quote, as ``csv`` writes it."""
    values = [v for v in [*TRICKY, F(-7, 3), 2 ** 200, -1e300, 5e-324] if is_number(v)]
    table = metric._Table(np.arange(n * n).reshape(n, n) % len(values), values)
    assert cli._csv_table(table) == csv_reference(table)
    assert '"' not in cli._csv_table(table)


@pytest.mark.parametrize("values", [
    (0.0, -0.0, 1.5, 0),  # floats beside an int
    (0.25, INF, 0), (-INF, 0.5, 0.0), (math.nan, 0.5, 0),
    (0.5, F(1, 2), 1, 0), (True, 1.0, 0), (2 ** 200, -7, 0.5), (3, 1, 0),
    ((0, F(2, 3)), (F(2, 3), F(4, 3)), (F(4, 3), INF), (0, 0)),  # grid brackets
    ((0.5, 1.5), (0.5, F(1, 2)), (), (1,), 0.5),
])
def test_table_tokens_are_the_scalar_tokens(values):
    cell = "      "
    assert cli._cell_tokens(values, cell) == [
        cli._token(x) or "".join(cli._parts(x, cell)) for x in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.integers(), st.sampled_from(TRICKY)), max_size=9))
def test_scalar_table_tokens_are_the_scalar_tokens(values):
    assert cli._cell_tokens(values, "    ") == list(map(cli._token, values))


def _same(a, b):
    """Equal nested lists whose entries also agree in type (and in the sign
    of a zero): repr tells 0, 0.0, -0.0, Fraction(0) and False apart."""
    return repr(a) == repr(b)


kernel_ints = st.lists(st.integers(-50, 50), min_size=1, max_size=49)


@settings(max_examples=100, deadline=None)
@given(kernel_ints, st.one_of(st.none(), st.integers(1, 60)))
def test_int64_table_matches_the_elementwise_conversion(flat, scale):
    a = _square(flat, np.int64)
    assert _same(metric._table(a, scale).tolist(), oracles.to_values(a, scale))


@settings(max_examples=100, deadline=None)
@given(kernel_ints, st.one_of(st.none(), st.integers(1, 10 ** 30)))
def test_object_table_matches_the_elementwise_conversion(flat, scale):
    a = _square([v * 2 ** 70 for v in flat], object)  # beyond int64
    assert _same(metric._table(a, scale).tolist(), oracles.to_values(a, scale))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 1.0]),
                          st.floats()), min_size=1, max_size=49))
def test_float_table_matches_the_elementwise_conversion(flat):
    a = _square(flat, np.float64)
    assert _same(metric._table(a, None).tolist(), oracles.to_values(a, None))


def _square(flat, dtype):
    n = math.isqrt(len(flat))
    return np.array(flat[:n * n], dtype=dtype).reshape(n, n)


# ---------------------------------------------------------------------------
# d, tau and the defects of the reports


@pytest.mark.parametrize("rows", [
    [[0, F(1), 0.5], [F(1), 0, 0.75], [0.5, 0.75, 0]],  # mixed float and Fraction
    [[F(0), 0.3], [0.3, F(0)]],  # float matrix CSV: Fraction zeros on the diagonal
    [[1e-10, 0.3], [0.3, 0.0]],  # float diagonals within eta of 0
    [[F(0), 1], [1, F(0)]],  # exact ints beside Fraction zeros
    [[0, F(1, 2)], [F(1, 2), 0]],
    [[0, 2 ** 70], [2 ** 70, 0]],  # Python ints in an object kernel
    [[0.0, F(1)], [F(1), 0.0]],  # Fractions on a float space
    [[0.0, 1], [1, 0.0]],  # ints on a float space
    [[0, np.float64(0.5)], [np.float64(0.5), 0]],  # a float type of numpy's
    [[F(0)]], [[0.0]],
])
def test_dist_table_keeps_every_entry_and_its_type(rows):
    space = build_from_matrix(rows)
    assert _same(metric._dist_table(space).tolist(), [list(row) for row in space.dist])


@pytest.mark.parametrize("name", sorted(SPACES))
def test_dist_table_of_every_backend(name):
    space = SPACES[name]
    table = metric._dist_table(space)
    assert _same(table.tolist(), [list(row) for row in space.dist])
    # one value per rank of R, the diagonal included, each the kernel value
    # in the one type of the space
    kind = float if not space.exact else int if space._scale is None else F
    values, _ = space._ranks
    assert _same(list(table.values), [space._value(v) for v in values])
    assert {type(v) for v in table.values} == {kind}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_wave_model_lists_match_the_public_functions(name):
    space = SPACES[name]
    result = wave_model(space, default_grid(space), include_brackets=True)
    assert _same(result.tau, wave_distance_matrix(space))
    assert _same(result.condition2, condition2_report(space))
    assert result.brackets[0][0] == (0, 0)
    assert result.tau is result.tau  # built once
    assert wave_model(space, default_grid(space)).brackets is None


def test_tau_and_isometry_reports_need_no_lists():
    space = build_segment_sample(9, F(3, 2))
    result = wave_model(space, default_grid(space), include_brackets=True)
    assert not {"tau", "brackets", "condition2"} & set(vars(result))


def test_points_report_renders_float_tokens():
    space = build_from_points([(0.0, 0.0), (0.1, 0.2), (0.7, 0.3)])
    report = {"d": metric._dist_table(space),
              "tau": wave_model(space, default_grid(space)).tau_table}
    assert "".join(cli.encode_report(report)) == reference(report)


def test_mixed_matrix_report_matches_golden():
    """The float matrix ``0,1,0.5 / 1,0,0.75 / 0.5,0.75,0`` reads its 0 and
    1 as Fractions, but a float space reports floats: ``d`` writes them as
    0.0 and 1.0 beside 0.5, as in the golden case ``isometry-matrix-mixed``."""
    space = build_from_matrix(load_matrix_csv(str(INPUTS / "matrix_mixed.csv")))
    assert not space.exact
    d = [[0.0, 1.0, 0.5], [1.0, 0.0, 0.75], [0.5, 0.75, 0.0]]
    assert json.loads("".join(cli.encode_report({"d": metric._dist_table(space)}))) == {"d": d}
    assert json.loads((EXPECTED / "isometry-matrix-mixed.json").read_text())["d"] == d


def test_segment_tau_and_bracket_codes_are_int16():
    """``_in_use`` renumbers a 45-point segment's tau, bracket and defect
    codes in int16, which holds their count and the brackets' diagonal code."""
    s = build_segment_sample(45, F(7, 3))
    result = wave_model(s, default_grid(s), include_brackets=True)
    assert result.tau_table.codes.dtype == np.int16
    assert result.bracket_table.codes.dtype == np.int16
    assert metric._table(s._defects, s._scale).codes.dtype == np.int16


def test_in_use_renumbers_40000_codes_in_int32():
    """40,000 codes in use out of 40,000, each twice: past int16, the codes
    are int32, the largest is 39,999, and they are ``np.unique``'s inverse."""
    rng = np.random.default_rng(0)
    codes = np.concatenate([rng.permutation(40_000), rng.permutation(40_000)]).reshape(400, 200)
    got, used = metric._in_use(codes, 40_000)
    assert got.dtype == np.int32 and int(got.max()) == 39_999
    assert used == list(range(40_000))
    _, inverse = np.unique(codes, return_inverse=True)
    assert (got.ravel() == inverse.ravel()).all()
