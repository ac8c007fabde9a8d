"""One rule reads an API number: matrix entries, graph weights, the
segment's length and radii.

``metric._rational`` reads a Python int as itself and every other finite
number as a ``Fraction`` with Python-int parts: numpy integers and
``Fraction``s with numpy parts by value, numpy floats through ``float``.
So a number given as a numpy scalar or a ``Decimal`` builds the space its
Python twin builds, with no arithmetic in the scalar's own dtype.  Bools
(Python's and numpy's) and strs are no distances; radii accept bools.
``metric._kernel_values`` reads each distinct number object once, and
every exact kernel holds four times its largest entry in its dtype.
"""

import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import (
    AxiomViolation,
    MetricError,
    build_discrete,
    build_from_graph,
    build_from_matrix,
    build_segment_sample,
    wave_distance_matrix,
)
from wavemodel import cli, metric

import oracles
from test_kernel import KEY_SPACES, SPACES, same_matrix

F = Fraction

#: numpy integer types, signed and unsigned.
NP_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
#: Denominators whose fractions a ``Decimal`` holds exactly.
DENOMINATORS = (1, 2, 4, 5, 8)


def as_kind(v, kind):
    """The Python int or Fraction ``v`` given as a ``Decimal`` or, with
    parts of a numpy int type, as a numpy int or a ``Fraction``."""
    if kind is Decimal:
        return Decimal(v) if type(v) is int else Decimal(v.numerator) / Decimal(v.denominator)
    return kind(v) if type(v) is int else F(kind(v.numerator), kind(v.denominator))


def same_scale(scale, twin_scale) -> bool:
    """Equal, or 1 where the twin, every entry a Python int, has None."""
    return scale == twin_scale or (twin_scale is None and scale == 1)


def assert_same_space(s, twin):
    """The same kernel bits and dtype, scale, tau and defects."""
    assert same_matrix(s._m, twin._m) and same_scale(s._scale, twin._scale)
    assert same_matrix(s._meet, twin._meet) and same_matrix(s._defects, twin._defects)
    assert wave_distance_matrix(s) == wave_distance_matrix(twin)


@st.composite
def kinds(draw):
    """A numpy int type or ``Decimal``, and the largest numerator it takes."""
    kind = draw(st.sampled_from([*NP_INTS, Decimal]))
    cap = 2 ** 40 if kind is Decimal else min(int(np.iinfo(kind).max), 2 ** 40)
    return kind, draw(st.sampled_from([100, cap]))


@st.composite
def exact_metrics(draw, top):
    """An n x n metric of k / D with k in [top/2, top]: every triangle holds."""
    n = draw(st.integers(1, 6))
    denominator = draw(st.sampled_from(DENOMINATORS))
    k = st.integers(top // 2, top)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(k)
            rows[i][j] = rows[j][i] = v if denominator == 1 else F(v, denominator)
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_numpy_and_decimal_matrices_build_their_python_twin(data):
    kind, top = data.draw(kinds())
    rows = data.draw(exact_metrics(top))
    given_rows = [[as_kind(v, kind) for v in row] for row in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in a scalar's dtype
        s = build_from_matrix(given_rows)
    assert_same_space(s, build_from_matrix(rows))
    # the per-entry reference reads them by value too
    m, scale = oracles.exact_matrix_per_entry(given_rows)
    twin_m, twin_scale = oracles.exact_matrix_per_entry(rows)
    assert m == twin_m and same_scale(scale, twin_scale)
    assert (s._m.tolist(), s._scale) == (m, scale)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_numpy_and_decimal_weights_build_their_python_twin(data):
    kind, top = data.draw(kinds())
    n = data.draw(st.integers(1, 8))
    denominator = data.draw(st.sampled_from(DENOMINATORS))
    weight = st.builds(lambda k: k if denominator == 1 else F(k, denominator),
                       st.integers(1, top))
    node = st.integers(0, n - 1)
    edges = [(data.draw(st.integers(0, j - 1)), j, data.draw(weight)) for j in range(1, n)]
    edges += data.draw(st.lists(st.tuples(node, node, weight), max_size=2 * n))
    edges = edges or [(0, 0, data.draw(weight))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = build_from_graph([(i, j, as_kind(w, kind)) for i, j, w in edges])
    assert_same_space(s, build_from_graph(edges))


# ---------------------------------------------------------------------------
# the inputs the four copies of the rule misread


def test_numpy_int16_weights_do_not_wrap():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = build_from_graph([(0, 1, np.int16(20000)), (1, 2, np.int16(20000))])
    assert s.d(0, 0) == 0 and s.d(0, 2) == 40000
    assert wave_distance_matrix(s)[0][1] == 40000
    assert_same_space(s, build_from_graph([(0, 1, 20000), (1, 2, 20000)]))


def test_numpy_int16_matrix_is_read_by_value():
    d = np.int16(30000)
    s = build_from_matrix([[np.int16(0), d], [d, np.int16(0)]])
    assert s._m.dtype == np.int32 and s.d(0, 1) == 30000
    assert_same_space(s, build_from_matrix([[0, 30000], [30000, 0]]))


def test_numpy_int32_past_int16_builds():
    d = np.int32(600_000_000)
    want = build_from_matrix([[0, 600_000_000], [600_000_000, 0]])
    assert want._m.dtype == np.int64
    assert_same_space(build_from_matrix([[np.int32(0), d], [d, np.int32(0)]]), want)
    assert_same_space(build_from_graph([(0, 1, d)]), build_from_graph([(0, 1, 600_000_000)]))


def test_a_huge_decimal_weight_is_a_finite_number():
    """Decimal("1e400") is read as 10**400, as a matrix entry reads it; in a
    float space it has no finite float, and is refused as 10**400 is."""
    huge = Decimal("1e400")
    s = build_from_graph([(0, 1, huge), (1, 2, 1)])
    assert s.d(0, 2) == 10 ** 400 + 1
    assert_same_space(s, build_from_graph([(0, 1, 10 ** 400), (1, 2, 1)]))
    far = Decimal(10 ** 400 + 1)
    assert_same_space(s, build_from_matrix([[0, huge, far], [huge, 0, 1], [far, 1, 0]]))
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    for w in (huge, 10 ** 400):
        with pytest.raises(AxiomViolation) as ei:
            build_from_graph([*edges, (3, 0, w)])
        assert (str(ei.value), ei.value.witness) == (f"d(0,3) = {w} is not a finite number",
                                                     (0, 3))


# ---------------------------------------------------------------------------
# radii


@st.composite
def radii(draw):
    """(given, twin): a positive radius as a numpy int, a ``Decimal``, a
    numpy float or a ``Fraction`` with numpy parts, and its Python twin."""
    form = draw(st.sampled_from(["int", "decimal", "float", "fraction"]))
    if form == "float":
        kind = draw(st.sampled_from([np.float16, np.float32, np.float64]))
        r = kind(draw(st.floats(1e-3, 1e4)))
        return r, float(r)
    if form == "decimal":
        twin = F(draw(st.integers(1, 10 ** 6)), draw(st.sampled_from(DENOMINATORS)))
        return as_kind(twin, Decimal), twin
    kind = draw(st.sampled_from(NP_INTS))
    top = min(int(np.iinfo(kind).max), 10 ** 6)
    if form == "int":
        twin = draw(st.integers(1, top))
    else:
        twin = F(draw(st.integers(1, top)), draw(st.integers(1, min(top, 1000))))
    return as_kind(twin, kind), twin


@settings(max_examples=200, deadline=None)
@given(st.lists(radii(), min_size=1, max_size=5))
def test_radii_are_read_as_their_python_twins(pairs):
    given_radii, twins = zip(*pairs)
    for name in KEY_SPACES:
        s = SPACES[name]
        for closed in (False, True):
            assert same_matrix(s._radius_keys(given_radii, closed),
                               s._radius_keys(twins, closed))


def test_rational_reads_every_number_by_value():
    assert metric._rational(7) == 7 and type(metric._rational(7)) is int
    for v, want in [(np.int16(-3), F(-3)), (F(np.int64(6), np.int64(4)), F(3, 2)),
                    (np.float32(0.5), F(1, 2)), (Decimal("0.25"), F(1, 4)), (True, F(1)),
                    (Decimal("1e400"), F(10 ** 400))]:
        got = metric._rational(v)
        assert got == want and type(got) is F
        assert type(got.numerator) is int and type(got.denominator) is int
    for v in (math.nan, math.inf, np.float64(-math.inf), Decimal("NaN"), Decimal("-Infinity"),
              "1", None, 1j, np.True_, object()):
        assert metric._rational(v) is None


# ---------------------------------------------------------------------------
# one read per distinct number object


@pytest.fixture
def reads(monkeypatch):
    """The numbers ``metric._rational`` reads from here on."""
    calls = []
    read = metric._rational
    monkeypatch.setattr(metric, "_rational", lambda v: calls.append(v) or read(v))
    return calls


def test_each_distinct_weight_object_is_read_once(reads):
    """Dropped weights are read too (a repeated edge's first weight, a
    self-loop's), as each must be a positive number."""
    third, half = F(1, 3), F(1, 2)
    edges = [(0, 1, third), (1, 2, third), (2, 0, 2), (0, 1, half), (1, 1, F(5, 7)),
             (2, 3, third)]
    s = build_from_graph(edges)
    assert sorted(map(id, reads)) == sorted({id(w) for *_, w in edges})
    assert s.d(0, 1) == half and s._scale == 6


def test_each_distinct_entry_object_is_read_once(reads):
    third, half = F(1, 3), Decimal("0.5")
    build_from_matrix([[0, half, third], [half, 0, third], [third, third, 0]])
    assert sorted(map(id, reads)) == sorted(map(id, (0, half, third)))
    reads.clear()
    build_segment_sample(5, np.int16(3))
    assert len(reads) == 1


# ---------------------------------------------------------------------------
# the segment's length


def test_numpy_int16_length_builds_the_int_kernel():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in the scalar's dtype
        s = build_segment_sample(5, np.int16(30000))
    twin = build_segment_sample(5, 30000)
    assert s._m.dtype == np.int32 and same_matrix(s._m, twin._m)
    assert s._scale == twin._scale == 1 and type(s._scale) is int
    assert wave_distance_matrix(s) == wave_distance_matrix(twin)


@pytest.mark.parametrize("length", ["3/2", True, np.True_, None, 1j, math.nan, math.inf,
                                    Decimal("NaN")])
def test_a_length_that_is_no_number_is_refused(length):
    with pytest.raises(MetricError) as ei:
        build_segment_sample(5, length)
    assert str(ei.value) == f"length must be a finite number, got {length!r}"


def test_the_command_line_length_is_read_as_before():
    args = cli.build_parser().parse_args(["validate", "--backend", "segment", "--samples",
                                          "9", "--length", "3/2"])
    s, twin = cli.build_space(args), build_segment_sample(9, F(3, 2))
    assert same_matrix(s._m, twin._m) and s._scale == twin._scale == 16


# ---------------------------------------------------------------------------
# every exact kernel holds four times its largest entry in its dtype


def narrowest_for_four_times_the_max(m: np.ndarray):
    """The narrowest of int16, int32, int64 and object that holds
    4 max |m|, worked out on Python ints."""
    top = 4 * max(abs(int(v)) for v in m.ravel().tolist())
    return next((t for t in (np.int16, np.int32, np.int64) if top <= np.iinfo(t).max), object)


def path(w):
    """A 5-node path with equal weights w: its kernel's largest entry is 4w."""
    return build_from_graph([(i, i + 1, w) for i in range(4)])


def two_points(d):
    return build_from_matrix([[0, d], [d, 0]])


I16, I32, I64 = (int(np.iinfo(t).max) for t in (np.int16, np.int32, np.int64))

#: Builders whose kernels land in each dtype, with the Python twin of each
#: space given numpy scalars, ``Decimal``s or ``Fraction``s with numpy parts.
DTYPE_CASES = {
    "discrete": (lambda: build_discrete(6), np.int16, None),
    "matrix-int16": (lambda: two_points(np.int16(I16 // 4)), np.int16,
                     lambda: two_points(I16 // 4)),
    "matrix-int32": (lambda: two_points(np.uint16(I16 // 4 + 1)), np.int32,
                     lambda: two_points(I16 // 4 + 1)),
    "matrix-int64": (lambda: two_points(F(np.int64(I32), np.int64(3))), np.int64,
                     lambda: two_points(F(I32, 3))),
    "matrix-object": (lambda: two_points(Decimal(I64 // 4 + 1)), object,
                      lambda: two_points(I64 // 4 + 1)),
    "graph-int16": (lambda: path(np.int8(1)), np.int16, lambda: path(1)),
    "graph-int32": (lambda: path(np.int16(I16 // 16 + 1)), np.int32,
                    lambda: path(I16 // 16 + 1)),
    "graph-int64": (lambda: path(F(np.int32(I32 // 16 + 1), np.int32(7))), np.int64,
                    lambda: path(F(I32 // 16 + 1, 7))),
    "graph-object": (lambda: path(np.int64(I64 // 16 + 1)), object,
                     lambda: path(I64 // 16 + 1)),
    "segment-int16": (lambda: build_segment_sample(5, F(np.int32(3), np.int32(2))), np.int16,
                      lambda: build_segment_sample(5, F(3, 2))),
    "segment-int32": (lambda: build_segment_sample(5, np.int16(30000)), np.int32,
                      lambda: build_segment_sample(5, 30000)),
    "segment-int64": (lambda: build_segment_sample(5, F(np.int64(10 ** 9), np.int64(7))),
                      np.int64, lambda: build_segment_sample(5, F(10 ** 9, 7))),
    "segment-object": (lambda: build_segment_sample(2, np.uint64(2 ** 63)), object,
                       lambda: build_segment_sample(2, 2 ** 63)),
}


@pytest.mark.parametrize("name", sorted(DTYPE_CASES))
def test_every_builder_holds_four_times_its_largest_entry(name):
    build, dtype, twin = DTYPE_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = build()
    assert s._m.dtype == dtype == narrowest_for_four_times_the_max(s._m)
    if twin is not None:
        assert_same_space(s, twin())


@pytest.mark.parametrize("name", sorted(SPACES))
def test_every_exact_kernel_is_the_narrowest_for_four_times_its_max(name):
    m = SPACES[name]._m
    assert m.dtype == np.float64 or m.dtype == narrowest_for_four_times_the_max(m)


# ---------------------------------------------------------------------------
# the report's d table of a given matrix


@pytest.mark.parametrize("rows,want", [
    ([[np.int16(0), np.int16(3)], [np.int16(3), np.int16(0)]], [["0", "3"], ["3", "0"]]),
    ([[0, np.uint8(3)], [np.uint8(3), 0]], [[0, "3"], ["3", 0]]),
    ([[0, Decimal("1.5")], [Decimal("1.5"), 0]], [[0, "3/2"], ["3/2", 0]]),
    ([[0, F(np.int64(1), np.int64(2))], [F(1, 2), 0]], [[0, "1/2"], ["1/2", 0]]),
    ([[0.0, np.float32(0.1)], [np.float32(0.1), np.float16(0)]],
     [[0.0, float(np.float32(0.1))], [float(np.float32(0.1)), 0.0]]),
    ([[0.0, np.float64(0.1)], [0.1, 0.0]], [[0.0, 0.1], [0.1, 0.0]]),
])
def test_d_table_writes_each_entry_as_the_rule_reads_it(rows, want):
    """A Python int, float (numpy's float64 too) or ``Fraction`` is written
    as given; a numpy int or float, or a ``Decimal``, as its kernel value:
    an int or ``Fraction`` on an exact space, a float on a float space."""
    report = {"d": metric._dist_table(build_from_matrix(rows))}
    text = "".join(cli.encode_report(report))
    assert text == json.dumps(cli.jsonable(report), indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == {"d": want}
