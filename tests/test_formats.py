"""The points loader's one-pass rows against the per-field reference.

``formats.load_points_csv`` reads each row with one ``float`` pass and
keeps the values where that pass gives what ``_coordinate`` gives (no '_',
no zero, every value finite); every other row is read field by field.
``oracles.load_points_per_field`` reads every row field by field.  Values
must match bit for bit, the sign of zero included; labels, and each
``ParseError``'s message, row and column, must match too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import ParseError, formats, load_points_csv
from wavemodel.cli import main

import oracles
from test_golden import EXPECTED, INPUTS, _argv

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


def test_points_tokens_report_matches_golden(tmp_path):
    """``-0``, ``-0.0``, ints, ratios and exponents: the loader reads them
    as the per-field path does, and the report is the golden one, which the
    per-field loader wrote."""
    path = INPUTS / "points_tokens.csv"
    coords, _ = load_points_csv(str(path))
    assert outcome(load_points_csv, path) == outcome(oracles.load_points_per_field, path)
    assert [v.hex() for v in coords[0]] == ["0x0.0p+0", "-0x0.0p+0"]  # '-0' is 0.0
    out = tmp_path / "isometry-points-tokens.json"
    args = ["isometry", "--backend", "points", "--input", "points_tokens.csv"]
    assert main(_argv(args, out)) == 0
    assert out.read_bytes() == (EXPECTED / out.name).read_bytes()
