"""Builders whose output is a metric by construction hand over their kernel.

``build_from_graph``, ``build_segment_sample``, ``build_discrete`` and
``build_from_points`` set the kernel matrix ``_m`` and ``_scale``
together, without ingesting or validating a ``dist``.  ``build_from_matrix``
still validates, and then drops the ``dist`` it was given.  Every space
makes ``dist`` from its kernel when it is first read, in one type: ints
without a scale, ``Fraction``s with one, floats on a float space.  Each
space must equal its twin ``FiniteMetricSpace(space.dist)``, which reads
the same ``dist`` back through the full path: equal ``dist``, equal ``_m``
with its dtype, equal ``_scale`` (a point cloud or a float-weight graph
wherever the twin accepts it).
"""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import (
    AxiomViolation,
    FiniteMetricSpace,
    build_discrete,
    build_from_graph,
    build_from_matrix,
    build_from_points,
    build_segment_sample,
    default_grid,
    wave_model,
)
from wavemodel import metric
from wavemodel.cli import main

import oracles
from test_golden import INPUTS

F = Fraction


def assert_equals_its_twin(s, shared=True):
    """s equals FiniteMetricSpace(s.dist), and (if ``shared``) its dist
    shares one object per distinct value, as the full path's ingest expects."""
    twin = FiniteMetricSpace(s.dist)
    assert s.dist == twin.dist
    assert s._m.dtype == twin._m.dtype
    assert np.array_equal(s._m, twin._m)
    assert s._scale == twin._scale and type(s._scale) is type(twin._scale)
    entries = [v for row in s.dist for v in row]
    assert not shared or len(set(map(id, entries))) == len(set(entries))


INTS = st.integers(1, 60)
FRACTIONS = st.builds(F, st.integers(1, 60), st.sampled_from([1, 2, 3, 7, 10, 12]))
WHOLE = st.builds(F, st.integers(1, 60))  # Fractions of denominator 1


@st.composite
def graphs(draw, weights):
    """A connected graph on 1..12 nodes: a random spanning tree plus up to 2n
    further edges, repeats and self-loops included; one node is a self-loop."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, j - 1)), j, draw(weights)) for j in range(1, n)]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node, weights), max_size=2 * n))
    return edges or [(0, 0, draw(weights))]


@settings(max_examples=150, deadline=None)
@given(graphs(st.one_of(INTS, FRACTIONS)))
def test_exact_graph_equals_its_twin(edges):
    assert_equals_its_twin(build_from_graph(edges))


@settings(max_examples=150, deadline=None)
@given(graphs(st.one_of(INTS, FRACTIONS)))
def test_exact_graph_matches_dijkstra(edges):
    """Repeated edges keep their last weight and self-loops add only their
    node, as in the source-outward reference."""
    s = build_from_graph(edges)
    assert [list(row) for row in s.dist] == oracles.dijkstra_distances(edges, s.n)


BAD_WEIGHTS = st.sampled_from([0, -1, F(-1, 2), F(0), 0.0, -0.5, math.inf, math.nan, "1",
                               True, np.True_, None, np.float64(-2)])


@settings(max_examples=200, deadline=None)
@given(graphs(st.one_of(INTS, FRACTIONS, st.floats(0.25, 4), BAD_WEIGHTS)))
def test_graph_refuses_the_first_bad_weight_in_edge_order(edges):
    want = oracles.first_weight_error(edges)
    try:
        build_from_graph(edges)
    except metric.MetricError as e:
        got = type(e), str(e), getattr(e, "witness", None)
        assert got == want or (want is None and "weight" not in str(e))
    else:
        assert want is None


@settings(max_examples=50, deadline=None)
@given(graphs(INTS))
def test_int_graph_has_no_scale(edges):
    s = build_from_graph(edges)
    assert s._scale is None
    assert_equals_its_twin(s)


@settings(max_examples=50, deadline=None)
@given(graphs(WHOLE))
def test_whole_fraction_graph_has_scale_one(edges):
    s = build_from_graph(edges)
    assert s._scale == (1 if s.n > 1 else None)  # one node: no weight is kept
    assert_equals_its_twin(s)


def test_weight_on_no_shortest_path_leaves_the_scale():
    s = build_from_graph([(0, 1, F(1, 3)), (0, 2, F(1, 10)), (2, 1, F(1, 10))])
    assert s.d(0, 1) == F(1, 5)
    assert s._scale == 10
    assert_equals_its_twin(s)


@pytest.mark.parametrize("dtype,prev", [(np.int16, None), (np.int32, np.int16),
                                        (np.int64, np.int32), (object, np.int64)])
@pytest.mark.parametrize("denominator", [1, 3])
def test_graph_kernel_in_each_dtype(dtype, prev, denominator):
    """A 5-node path with equal weights w: its longest geodesic is 4w, so the
    kernel holds 16w, while Floyd-Warshall needs only 2 (5w + 1); w just past
    the narrower bound puts the kernel in ``dtype``, one wider than the
    Floyd-Warshall matrix."""
    w = 1 if prev is None else int(np.iinfo(prev).max) // 16 + 1
    s = build_from_graph([(i, i + 1, F(w, denominator)) for i in range(4)])
    assert s._m.dtype == dtype
    assert_equals_its_twin(s)


@pytest.mark.parametrize("w", [F(1, 2), 1, 0.5])
def test_one_node_graph_equals_its_twin(w):
    s = build_from_graph([(0, 0, w)])
    assert s.n == 1 and s._scale is None
    assert_equals_its_twin(s)


def test_float_graph_equals_its_validated_twin():
    for edges in ([(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.7), (0, 3, 0.3), (1, 3, 0.3)],
                  [(0, 1, F(1, 3)), (1, 2, np.float64(0.25)), (0, 2, F(3, 2))]):
        s = build_from_graph(edges)
        assert not s.exact
        try:
            assert_equals_its_twin(s)
        except AxiomViolation:  # a triangle broken by rounding beyond eta
            pass


@pytest.mark.parametrize("tiny,token", [(F(1, 10 ** 20), "1e-20"), (F(1, 10 ** 400), "0.0")])
def test_a_positive_weight_that_rounds_to_zero_is_an_edge(tiny, token):
    """A missing edge is marked by its position, not by the value 0.0: an
    exact weight that rounds to 0.0 in a float graph is refused by the eta
    rule, as any weight within eta is, not called disconnected."""
    with pytest.raises(AxiomViolation) as ei:
        build_from_graph([(0, 1, 0.5), (1, 2, tiny)])
    assert str(ei.value) == f"d(1,2) = {token} <= eta = 1e-09 for distinct points"
    assert ei.value.witness == (1, 2)


#: u = 2^-53, the unit roundoff of float64.
UNIT = F(1, 2 ** 53)


def gamma(k):
    """gamma_k = k u / (1 - k u), the bound of k roundings (Higham)."""
    return k * UNIT / (1 - k * UNIT)


@st.composite
def scaled_float_graphs(draw):
    """A connected graph of float weights in [1, 4) times 10^e, e from -3
    to 12, with full-width significands."""
    scale = 10.0 ** draw(st.integers(-3, 12))
    return draw(graphs(st.floats(1, 4, exclude_max=True).map(lambda w: w * scale)))


@settings(max_examples=150, deadline=None)
@given(scaled_float_graphs())
def test_float_geodesics_are_within_gamma_of_the_exact_ones(edges):
    """Each stored distance c of an n-node float graph satisfies
    |c - d*| <= gamma_{n-1} d*, with d* the exact geodesic of the float
    weights (Dijkstra on their exact ``Fraction`` values), and wherever the
    validating path accepts the matrix it builds the same space."""
    s = build_from_graph(edges)
    exact = oracles.dijkstra_distances([(i, j, F(w)) for i, j, w in edges], s.n)
    bound = gamma(s.n - 1)
    for i in range(s.n):
        for j in range(s.n):
            assert abs(F(s.d(i, j)) - exact[i][j]) <= bound * exact[i][j]
    try:
        assert_equals_its_twin(s)
    except AxiomViolation:  # a triangle broken by rounding beyond eta
        pass


@pytest.mark.parametrize("length,dtype", [(F(3, 2), np.int16), (F(15000), np.int32),
                                          (F(10 ** 9, 7), np.int64), (F(10 ** 20, 3), object)])
def test_segment_kernel_in_each_dtype(length, dtype):
    s = build_segment_sample(17, length)
    assert s._m.dtype == dtype
    assert_equals_its_twin(s)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(1, 10 ** 25), st.integers(1, 10 ** 6))
def test_segment_equals_its_twin(samples, p, q):
    assert_equals_its_twin(build_segment_sample(samples, F(p, q)))


@pytest.mark.parametrize("n", [1, 2, 300])
def test_discrete_equals_its_twin(n):
    s = build_discrete(n)
    assert s._m.dtype == np.int16 and s._scale == 1
    assert_equals_its_twin(s)


#: Each stored point distance lies within this many ulps of the true one.
ULPS = 2


@st.composite
def hard_clouds(draw):
    """3 to 8 points, nearly collinear or nearly cocircular, at scales from
    1e-3 to 1e12: their true triangles are tight, so rounding breaks them."""
    scale = 10.0 ** draw(st.integers(-3, 12))
    at = draw(st.lists(st.integers(0, 1000), min_size=3, max_size=8, unique=True))
    turn = draw(st.floats(0, 2 * math.pi))
    off = draw(st.lists(st.floats(-1, 1), min_size=len(at), max_size=len(at)))
    if draw(st.booleans()):  # on a line through the origin, off it by 1e-9 of the scale
        u, v = math.cos(turn), math.sin(turn)
        return [(scale * (k / 1000 * u - e * 1e-9 * v), scale * (k / 1000 * v + e * 1e-9 * u))
                for k, e in zip(at, off)]
    return [(scale * (1 + e * 1e-9) * math.cos(turn + k / 200),
             scale * (1 + e * 1e-9) * math.sin(turn + k / 200)) for k, e in zip(at, off)]


@settings(max_examples=100, deadline=None)
@given(hard_clouds())
def test_point_distances_are_within_two_ulps_of_the_true_ones(coords):
    """Every cloud builds, each stored distance c satisfies
    (c - 2 ulp(c))^2 <= S <= (c + 2 ulp(c))^2 for the exact sum S of the
    squared coordinate differences, and wherever the validating path
    accepts the cloud's matrix it builds the same space."""
    s = build_from_points(coords)
    for i, p in enumerate(coords):
        for j in range(i + 1, len(coords)):
            c, q = s.d(i, j), coords[j]
            exact = sum((F(a) - F(b)) ** 2 for a, b in zip(p, q))
            slack = ULPS * F(math.ulp(c))
            assert (F(c) - slack) ** 2 <= exact <= (F(c) + slack) ** 2
    try:  # float entries are read by value, not by object
        assert_equals_its_twin(s, shared=False)
    except AxiomViolation:  # a triangle broken by rounding beyond eta
        pass


def test_only_builders_without_a_construction_guarantee_validate(monkeypatch):
    """Graphs, segments, the discrete metric and point clouds never ingest
    or validate; matrices do."""
    def refuse(*args):
        raise AssertionError("validated")

    monkeypatch.setattr(metric, "_kernel_matrix", refuse)
    monkeypatch.setattr(FiniteMetricSpace, "_validate", refuse)
    build_from_graph([(0, 1, F(1, 3)), (1, 2, 2)])
    build_segment_sample(5, F(3, 2))
    build_discrete(4)
    build_from_points([(0.0,), (1.0,)])
    build_from_graph([(0, 1, 0.5), (1, 2, F(1, 3))])
    with pytest.raises(AssertionError, match="validated"):
        build_from_matrix([[0, 1], [1, 0]])


BUILDERS = {
    "segment": lambda: build_segment_sample(9, F(7, 3)),
    "segment-object": lambda: build_segment_sample(5, F(10 ** 20, 3)),
    "discrete": lambda: build_discrete(5),
    "discrete-1": lambda: build_discrete(1),
    "graph-scale": lambda: build_from_graph([(0, 1, F(1, 3)), (1, 2, 2), (2, 3, F(5, 2)),
                                             (3, 0, F(1, 2))]),
    "graph-scale-1": lambda: build_from_graph([(0, 1, F(2)), (1, 2, F(3))]),
    "graph-int": lambda: build_from_graph([(0, 1, 1), (1, 2, 2), (0, 3, 7), (3, 3, 5)]),
    "graph-one-node": lambda: build_from_graph([(0, 0, F(1, 2))]),
    "graph-float": lambda: build_from_graph([(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.7)]),
    "points": lambda: build_from_points([(0.0, 1.0), (2.0, -0.5), (-1.0, 3.0), (4.0, 4.0)]),
    "matrix": lambda: build_from_matrix([[0, F(1, 2), 1], [F(1, 2), 0, 1], [1, 1, 0]]),
}


def eager_dist(name):
    """The distances of each builder, computed here without the kernel, in
    one type each: ints without a scale, ``Fraction``s with one, floats on a
    float space, the diagonal included."""
    if name.startswith("segment"):
        n, length = (9, F(7, 3)) if name == "segment" else (5, F(10 ** 20, 3))
        step = length / (n - 1)
        return [[abs(i - j) * step for j in range(n)] for i in range(n)]
    if name.startswith("discrete"):
        n = 5 if name == "discrete" else 1
        return [[F(int(i != j)) for j in range(n)] for i in range(n)]
    if name == "points":
        coords = [(0.0, 1.0), (2.0, -0.5), (-1.0, 3.0), (4.0, 4.0)]
        return [[0.0 if p == q else math.dist(p, q) for q in coords] for p in coords]
    if name == "graph-one-node":
        return [[0]]
    if name == "graph-float":  # Floyd-Warshall's sums are Dijkstra's on this graph
        rows = oracles.dijkstra_distances([(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.7)], 3)
        return [[float(v) for v in row] for row in rows]
    edges = {"graph-scale": [(0, 1, F(1, 3)), (1, 2, 2), (2, 3, F(5, 2)), (3, 0, F(1, 2))],
             "graph-scale-1": [(0, 1, F(2)), (1, 2, F(3))],
             "graph-int": [(0, 1, 1), (1, 2, 2), (0, 3, 7)]}[name]
    kind = int if name == "graph-int" else F  # every entry a Fraction with a scale
    rows = oracles.dijkstra_distances(edges, 1 + max(max(i, j) for i, j, _ in edges))
    return [[kind(v) for v in row] for row in rows]


@pytest.mark.parametrize("name", ["segment", "segment-object", "discrete", "discrete-1",
                                  "graph-scale", "graph-scale-1", "graph-int", "graph-one-node",
                                  "graph-float", "points"])
def test_first_read_of_dist_equals_the_eager_dist(name):
    s = BUILDERS[name]()
    assert "dist" not in vars(s)
    dist = s.dist
    assert vars(s)["dist"] is dist and s.dist is dist  # made once
    want = eager_dist(name)
    assert type(dist) is tuple and all(type(row) is tuple for row in dist)
    assert repr([list(row) for row in dist]) == repr(want)  # values, types and zero signs
    assert_equals_its_twin(s, shared=name != "points")


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_d_reads_the_kernel_without_making_dist(name):
    """``d(i, j)`` is ``dist[i][j]`` in value and type, zero signs, negative
    indices and refusals included, and leaves ``dist`` unmade."""
    s, reference = BUILDERS[name](), BUILDERS[name]()
    n = s.n
    got = [[s.d(i, j) for j in range(-n, n)] for i in range(-n, n)]
    assert "dist" not in vars(s)
    assert repr(got) == repr([[reference.dist[i][j] for j in range(-n, n)]
                              for i in range(-n, n)])
    assert repr(s.d(np.int64(n - 1), False)) == repr(reference.dist[n - 1][0])
    for i, j in ((n, 0), (0, n), (-n - 1, 0), (0, -n - 1)):
        with pytest.raises(IndexError):
            s.d(i, j)
    for i, j in ((0.0, 0), (0, "0"), (0, None)):
        with pytest.raises(TypeError):
            s.d(i, j)
    assert "dist" not in vars(s)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_spaces_survive_a_pickle_round_trip(name):
    s = BUILDERS[name]()
    s.min_positive_distance()  # a cached kernel property goes along
    copy = pickle.loads(pickle.dumps(s))
    assert np.array_equal(copy._m, s._m) and copy._m.dtype == s._m.dtype
    assert copy._scale == s._scale and type(copy._scale) is type(s._scale)
    assert "dist" not in vars(copy)  # the kernel alone goes along
    assert copy == s  # compares dist: made on both sides where it was not
    again = pickle.loads(pickle.dumps(s))  # now with dist made
    assert again == s and again.dist == s.dist


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_hash_and_repr_leave_dist_unmade(name):
    """``hash``, ``repr`` and the ``repr`` of a wave model read only the
    kernel: a short text, and ``dist`` still unmade."""
    s = BUILDERS[name]()
    text = repr(s)
    assert hash(s) == hash(BUILDERS[name]())
    assert repr(wave_model(s, default_grid(s))).count(text) == 1
    assert "dist" not in vars(s)
    assert text == (f"<FiniteMetricSpace: {s.n} points, {'exact' if s.exact else 'float'}, "
                    f"{s._m.dtype} kernel>")


@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    [[0, F(1, 2), 1], [F(1, 2), 0, F(1, 2)], [1, F(1, 2), 0]],
    [[0]],
])
def test_spaces_with_equal_dist_hash_equal(rows):
    """The same distances as ints (where they are), ``Fraction``s and
    floats: equal spaces, one hash, made without ``dist``."""
    spaces = [build_from_matrix([[kind(v) for v in row] for row in rows])
              for kind in (lambda v: v, F, float)]
    hashes = {hash(s) for s in spaces}
    assert not any("dist" in vars(s) for s in spaces)
    assert len(hashes) == 1
    assert spaces[0] == spaces[1] == spaces[2]


def test_a_space_without_dist_refuses_other_missing_attributes():
    s = build_discrete(3)
    with pytest.raises(AttributeError, match="'missing'"):
        s.missing
    assert "dist" not in vars(s)
    with pytest.raises(AttributeError, match="'dist'"):  # given, never made
        object.__new__(FiniteMetricSpace).dist


@pytest.mark.parametrize("argv", [
    ["conditions", "--backend", "graph", "--input", str(INPUTS / "edges.txt")],
    ["conditions", "--backend", "graph", "--input", str(INPUTS / "edges.txt"),
     "--format", "csv"],
    ["isometry", "--backend", "points", "--input", str(INPUTS / "points.csv")],
    ["tau", "--backend", "segment", "--samples", "7"],
    ["conditions", "--backend", "discrete", "--n", "4"],
    ["validate", "--backend", "graph", "--input", str(INPUTS / "edges.txt")],
    ["tau", "--backend", "points", "--input", str(INPUTS / "points.csv")],
    ["nucleus-demo", "--backend", "segment", "--samples", "7", "--center", "3"],
    *([*command, "--backend", "matrix", "--input", str(INPUTS / name)]
      for name in ("matrix.csv", "matrix_float.csv")
      for command in (["isometry"], ["conditions"], ["tau", "--format", "csv"], ["validate"])),
], ids=["conditions-graph", "conditions-graph-csv", "isometry-points", "tau-segment",
        "conditions-discrete", "validate-graph", "tau-points", "nucleus-demo-segment",
        *(f"{command}-{name}" for name in ("matrix", "matrix-float")
          for command in ("isometry", "conditions", "tau-csv", "validate"))])
def test_commands_on_kernel_spaces_never_make_dist(argv, tmp_path, monkeypatch):
    """``__getattr__`` is what makes ``dist``: refusing it proves no read.
    A given matrix is read by ``__post_init__``, which then drops it."""
    def refuse(self, name):
        raise AssertionError(f"read {name}")

    given, post_init = [], FiniteMetricSpace.__post_init__

    def keep(self):
        post_init(self)
        given.append(self)

    monkeypatch.setattr(FiniteMetricSpace, "__getattr__", refuse)
    monkeypatch.setattr(FiniteMetricSpace, "__post_init__", keep)
    assert main([*argv, "--out", str(tmp_path / "report")]) == 0
    assert not any("dist" in vars(s) for s in given)
