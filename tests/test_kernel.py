"""Differential tests: the numpy matrix paths against the scalar reference.

The reference is the pure-Python code of ``oracles.py`` (``open_ball``,
``closed_ball``, ``neighborhood``, ``condition2_defect``,
``wave_distance_points``), which reads the distances as given, its
brute-force oracles, and ``lattice.wave_distance_classes``.
Every comparison is exact equality, on floats too: the matrix paths perform
the same comparisons and the same single additions as the scalar code.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import (
    AxiomViolation,
    FiniteMetricSpace,
    MetricError,
    TimeGrid,
    build_discrete,
    build_from_graph,
    build_from_matrix,
    build_from_points,
    build_segment_sample,
    condition2_report,
    default_grid,
    load_edges,
    wave_distance_matrix,
    wave_model,
)
from wavemodel import cli, metric
from wavemodel.cli import main
from wavemodel.lattice import (
    b_star_lower,
    b_star_upper,
    isotony_apply,
    make_grid,
    nucleus,
    wave_distance_classes,
)
from wavemodel.metric import open_balls

import oracles
from test_golden import CASES, EXPECTED, INPUTS, _argv

F = Fraction
#: Large primes: a metric with these denominators scales past int64.
BIG_PRIMES = (2147483647, 2147483629, 2147483587)
#: The int dtypes of exact kernels, narrowest first.
INT_DTYPES = (np.int16, np.int32, np.int64)


def bound(dtype):
    """The largest scaled entry a kernel of ``dtype`` holds: 4 * max fits."""
    return int(np.iinfo(dtype).max) // 4


def near_top(rng, n, top, denominator=1):
    """An exact metric with entries in (top/2, top] over ``denominator``
    (so every triangle holds) and d(0, 1) = top / denominator."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = top if (i, j) == (0, 1) else rng.randint(top // 2 + 1, top)
            rows[i][j] = rows[j][i] = F(v, denominator) if denominator > 1 else v
    return rows


def on_a_line(rng, n, top):
    """Integer points 0 = p_0 < ... < p_{n-1} = top on a line: every
    triangle through a point between two others holds with equality."""
    at = [0, *sorted(rng.sample(range(1, top), n - 2)), top]
    return [[abs(p - q) for q in at] for p in at]


def random_float_graph(rng, n):
    edges = [(rng.randrange(j), j, round(rng.uniform(0.1, 3.0), 2)) for j in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n), round(rng.uniform(0.1, 3.0), 2))
              for _ in range(n)]
    return build_from_graph(edges)


def spaces(given):
    """(id, space) pairs covering every kernel dtype and backend, n <= 40;
    ``given`` receives the rows of the float matrices given off symmetry or
    off a zero diagonal."""
    rng = random.Random(20240517)
    yield "one-point", build_from_matrix([[0]])
    yield "one-point-float", build_from_matrix([[0.0]])
    for n in (1, 2, 9):
        yield f"discrete-{n}", build_discrete(n)
    yield "segment-2", build_segment_sample(2)
    yield "segment-17", build_segment_sample(17, F(7, 3))
    for n in (2, 5, 12, 25, 40):
        yield f"graph-{n}", oracles.random_graph_space(rng, n)
    yield "graph-int", build_from_graph([(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 0, 4), (0, 2, 4)])
    for n in (2, 7, 20, 40):
        yield f"points-{n}", oracles.random_point_space(rng, n)
    for n in (6, 30):
        yield f"float-graph-{n}", random_float_graph(rng, n)
    for n in (4, 6, 30):
        yield f"rational-{n}", build_from_matrix(oracles.random_rational_metric(rng, n))
    yield "python-int", build_from_matrix(
        oracles.random_rational_metric(rng, 12, BIG_PRIMES))
    # float matrices given off exact symmetry or off a zero diagonal within
    # eta: the space keeps their upper triangle, mirrored, with a 0.0 diagonal
    for name, n, off_diagonal in (("float-asymmetric-12", 12, True),
                                  ("float-diagonal-9", 9, False)):
        given[name] = within_eta(rng, n, off_diagonal)
        yield name, build_from_matrix(given[name])
    # the largest entry at each int dtype's bound: the kernels' sums reach
    # 2 * max and the defect sentinel -max
    yield "int16-top-12", build_from_matrix(near_top(rng, 12, bound(np.int16)))
    yield "int32-line-12", build_from_matrix(on_a_line(rng, 12, bound(np.int32)))
    yield "int64-top-9", build_from_matrix(near_top(rng, 9, bound(np.int64), 3))


def within_eta(rng, n, off_diagonal):
    """The matrix of n random points with each off-diagonal entry, or each
    diagonal entry, moved by at most 4e-10 (well within eta = 1e-9)."""
    rows = [list(row) for row in oracles.random_point_space(rng, n).dist]
    for i in range(n):
        if off_diagonal:
            for j in range(n):
                if j != i:
                    rows[i][j] += rng.choice([-2e-10, 1e-10, 2e-10])
        else:
            rows[i][i] = rng.choice([-4e-10, 4e-10])
    return rows


#: The rows given for the spaces that ``spaces`` builds off symmetry or
#: off a zero diagonal.
GIVEN = {}
SPACES = dict(spaces(GIVEN))


def by_pair(space, fn):
    return [[fn(space, x, y) for y in range(space.n)] for x in range(space.n)]


def test_python_int_fallback_is_used():
    assert SPACES["python-int"]._m.dtype == object
    assert SPACES["rational-30"]._m.dtype != object


def test_spaces_cover_every_int_dtype_at_its_bound():
    for name, dtype in (("int16-top-12", np.int16), ("int32-line-12", np.int32),
                        ("int64-top-9", np.int64)):
        m = SPACES[name]._m
        assert m.dtype == dtype and int(m.max()) == bound(dtype)


@pytest.mark.parametrize("denominator", [1, 3])
@pytest.mark.parametrize("k", range(len(INT_DTYPES)))
def test_kernel_dtype_is_the_narrowest_holding_four_times_the_max(k, denominator):
    """Just below and just above each bound, with int and Fraction entries;
    the scaled values are those of the per-entry conversion."""
    rng = random.Random(k)
    wider = INT_DTYPES[k + 1] if k + 1 < len(INT_DTYPES) else object
    for top, dtype in ((bound(INT_DTYPES[k]), INT_DTYPES[k]),
                       (bound(INT_DTYPES[k]) + 1, wider)):
        rows = near_top(rng, 5, top, denominator)
        s = build_from_matrix(rows)
        assert s._m.dtype == dtype and int(s._m.max()) == top
        assert (s._m.tolist(), s._scale) == oracles.exact_matrix_per_entry(rows)
        assert condition2_report(s)["defects"] == by_pair(s, oracles.condition2_defect)
        assert wave_distance_matrix(s) == [
            [0 if x == y else oracles.wave_distance_points(s, x, y) for y in range(s.n)]
            for x in range(s.n)]


@pytest.mark.parametrize("name", ["discrete-9", "segment-17", "int16-top-12",
                                  "int32-line-12", "int64-top-9"])
def test_first_meeting_clamps_radii_beyond_the_dtype(name):
    s = SPACES[name]
    top = int(np.iinfo(s._m.dtype).max)
    scale = s._scale or 1
    radii = sorted({F(1, 2 * scale), F(int(oracles.meet(s).max()), scale), F(top - 1, scale),
                    F(top, scale), F(top + 1, scale), F(top + 2, scale), F(10 ** 30)})
    got = metric.first_meeting(s, radii)
    for x in range(s.n):
        for y in range(s.n):
            assert got[x, y] == next((k for k, r in enumerate(radii)
                                      if oracles.open_ball(s, x, r) & oracles.open_ball(s, y, r)),
                                     len(radii))


def test_float_spaces_within_eta_are_not_exactly_symmetric():
    """As given; each space holds the given upper triangle, mirrored, with a
    0.0 diagonal, bit for bit."""
    m = np.array(GIVEN["float-asymmetric-12"])
    assert (m != m.T).any() and not m.diagonal().any()
    m = np.array(GIVEN["float-diagonal-9"])
    assert (m == m.T).all() and (m.diagonal() > 0).any() and (m.diagonal() < 0).any()
    for name, rows in GIVEN.items():
        upper = np.triu(rows, 1)
        assert same_matrix(SPACES[name]._m, upper + upper.T)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_defect_matrix_matches_scalar_sweep(name):
    s = SPACES[name]
    report = condition2_report(s)
    want = by_pair(s, oracles.condition2_defect)
    assert report["defects"] == want
    flat = [v for row in want for v in row]
    assert report["max_defect"] == max(flat)
    assert report["holds"] == (max(flat) <= 0)


def test_spaces_hold_one_and_two_points():
    assert {SPACES[k].n for k in ("one-point", "one-point-float", "discrete-1")} == {1}
    assert {SPACES[k].n for k in ("discrete-2", "segment-2", "graph-2", "points-2")} == {2}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_kernels_across_slab_boundaries(name, monkeypatch):
    """With 64-element slabs every n > 4 splits into slabs, with one-element
    slabs every block is one row, and slabs with lo > 0 sweep only part of
    the columns.  The defect sweep runs in its default planes and chunks,
    then in one-row planes with chunks of 1, 2 and 3 sorted positions (in
    the first block; a block with lo > 0 has fewer columns, so its chunks
    hold more positions).  The scalar references hold at every pair, and
    validation still finds the scalar loops' first failure."""
    n, cell = SPACES[name].n, SPACES[name]._m.itemsize
    for slab, plane, chunk in ((64, metric._PLANE, metric._CHUNK), (1, 1, 1),
                               (1, 1, 2 * n * cell), (1, 1, 3 * n * cell)):
        monkeypatch.setattr(metric, "_SLAB", slab)
        monkeypatch.setattr(metric, "_PLANE", plane)
        monkeypatch.setattr(metric, "_CHUNK", chunk)
        s = FiniteMetricSpace(SPACES[name].dist)  # fresh: the kernels are cached
        assert condition2_report(s)["defects"] == by_pair(s, oracles.condition2_defect)
        assert wave_distance_matrix(s) == [
            [0 if x == y else oracles.wave_distance_points(s, x, y) for y in range(s.n)]
            for x in range(s.n)]
        build_broken_copies(s, random.Random(name), 8)


def same_matrix(a, b):
    """Equal dtype and entries, floats bit for bit."""
    return a.dtype == b.dtype and (a.tolist() == b.tolist() if a.dtype == object
                                   else a.tobytes() == b.tobytes())


@pytest.mark.parametrize("name", sorted(SPACES))
def test_kernels_permute_with_the_points(name, monkeypatch):
    """Relabel s by a random permutation pi, so that point i of the copy is
    point pi[i] of s; with 64-element slabs, blocks straddle the relabelled
    indices, and so do the defect sweep's blocks of 256-byte planes.  The
    defects, tau, the first meetings, the atoms and the Condition-2 verdict
    of the copy are those of s, relabelled."""
    monkeypatch.setattr(metric, "_SLAB", 64)
    monkeypatch.setattr(metric, "_PLANE", 256)
    s = SPACES[name]
    pi = list(range(s.n))
    random.Random(name).shuffle(pi)
    t = FiniteMetricSpace(tuple(tuple(s.dist[p][q] for q in pi) for p in pi))
    at = np.ix_(pi, pi)
    assert same_matrix(t._defects, s._defects[at])
    assert same_matrix(2 * oracles.meet(t), (2 * oracles.meet(s))[at])
    grid = default_grid(s)
    assert same_matrix(metric.first_meeting(t, grid.values),
                       metric.first_meeting(s, grid.values)[at])
    label = np.argsort(pi).tolist()  # label[z]: the copy's index of point z of s
    atoms = wave_model(s, grid).atoms
    assert wave_model(t, grid).atoms == tuple(frozenset(label[z] for z in atoms[p]) for p in pi)
    want = condition2_report(s)
    got = condition2_report(t)
    assert (got["max_defect"], got["holds"]) == (want["max_defect"], want["holds"])


@pytest.mark.parametrize("case,args", [
    (case, CASES[case][0]) for case in ("conditions-graph-48", "tau-graph-48")])
def test_reports_larger_than_one_slab_match_golden(case, args):
    """48 nodes: the kernels split into slabs at the default slab size; the
    reports are golden cases (``test_golden.CASES``)."""
    assert len(list(metric._slabs(48))) > 1
    assert build_from_graph(load_edges(str(INPUTS / args[args.index("--input") + 1]))).n == 48


@pytest.mark.parametrize("name", [k for k in sorted(SPACES) if SPACES[k].n <= 7])
def test_defect_matrix_matches_radius_grid_oracle(name):
    s = SPACES[name]
    defects = condition2_report(s)["defects"]
    tol = oracles.defect_oracle_resolution(s)
    for x in range(s.n):
        for y in range(s.n):
            assert abs(defects[x][y] - oracles.brute_force_condition2_defect(s, x, y)) <= tol


@pytest.mark.parametrize("name", sorted(SPACES))
def test_tau_matrix_matches_closed_form_per_pair(name):
    s = SPACES[name]
    want = [[0 if x == y else oracles.wave_distance_points(s, x, y) for y in range(s.n)]
            for x in range(s.n)]
    assert wave_distance_matrix(s) == want


def radii_through_distances(s, rng, count=40):
    """Up to ``count`` radii among the positive distances of s, their halves
    and, on float spaces, values within eta of them; plus a tiny radius and
    one past every distance (and past the largest value of an int kernel)."""
    d = sorted({F(v) for row in s.dist for v in row if v > 0})
    values = d + [v / 2 for v in d]
    if not s.exact:
        values += [v + k * F(s.eta) / 2 for v in d for k in (-3, -1, 1, 3)]
    values = [v for v in values if v > 0]
    return [*rng.sample(values, min(count, len(values))), F(1, 2 ** 40), F(10 ** 30)]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_balls_and_neighborhoods_match_scalar(name):
    """Open and closed balls at and between the distances, where d < r and
    d <= r part, and neighborhoods of random sets (the empty one too)."""
    s = SPACES[name]
    rng = random.Random(name)
    radii = radii_through_distances(s, rng)
    for x in range(s.n):
        assert open_balls(s, x, radii) == tuple(oracles.open_ball(s, x, r) for r in radii)
        for r in radii:
            assert metric.open_ball(s, x, r) == oracles.open_ball(s, x, r)
            assert metric.closed_ball(s, x, r) == oracles.closed_ball(s, x, r)
    for _ in range(6):
        a = oracles.random_subset(rng, s.n)
        for r in radii:
            assert metric.neighborhood(s, a, r) == oracles.neighborhood(s, a, r)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_ball_table_and_brackets_match_scalar(name):
    s = SPACES[name]
    grid = default_grid(s)
    reps = []
    for x in range(s.n):
        rep = b_star_lower(s, x, grid)
        assert rep.sets == tuple(oracles.open_ball(s, x, t) for t in grid)
        reps.append(rep)
    result = wave_model(s, grid, include_brackets=True)
    for x in range(s.n):
        for y in range(s.n):
            want = (0, 0) if x == y else wave_distance_classes(reps[x], reps[y])
            assert result.brackets[x][y] == want


@pytest.mark.parametrize("name", ["segment-17", "points-20", "python-int"])
def test_radius_keys_follow_the_radii_passed(name):
    # a grid tuple is converted once; another tuple, or a list changed in
    # place, gets keys of its own
    s = SPACES[name]
    grid = default_grid(s).values
    doubled = tuple(2 * t for t in grid)
    for radii in (grid, doubled, grid, doubled):
        for x in range(s.n):
            assert open_balls(s, x, radii) == tuple(oracles.open_ball(s, x, t) for t in radii)
    radii = list(grid)
    open_balls(s, 0, radii)
    radii[:] = doubled
    assert open_balls(s, 0, radii) == tuple(oracles.open_ball(s, 0, t) for t in doubled)


#: Exact kernels in int16, int32, int64 and Python ints, and float spaces.
KEY_SPACES = ["segment-17", "int16-top-12", "int32-line-12", "int64-top-9", "python-int",
              "points-20", "float-graph-6", "float-asymmetric-12"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, exclude_min=True, allow_infinity=False),
                min_size=1, max_size=6))
def test_radius_keys_of_a_float_are_those_of_its_fraction(radii):
    """A float radius is keyed as its Fraction is, open and closed, on every
    kernel dtype; the grid's interior values and the kernel values (as
    floats) are among the radii."""
    for name in KEY_SPACES:
        s = SPACES[name]
        values = s._ranks[0][1:].tolist()
        at_values = [float(v if s._scale is None else F(v, s._scale)) for v in values[:4]]
        floats = [*radii, *at_values, *map(float, default_grid(s).values[1:-1])]
        for closed in (False, True):
            got = s._radius_keys(floats, closed)
            assert got.dtype == s._m.dtype
            assert same_matrix(got, s._radius_keys([F(r) for r in floats], closed))
        assert open_balls(s, 0, floats) == tuple(oracles.open_ball(s, 0, r) for r in floats)


@pytest.mark.parametrize("name", ["segment-17", "python-int", "points-20"])
def test_radius_keys_refusals_and_other_number_types(name):
    s = SPACES[name]
    for r in (math.inf, -math.inf, math.nan, np.float64(math.nan), Decimal("NaN"),
              Decimal("-Infinity"), None, 1j, "1/2", np.True_, object()):
        with pytest.raises(MetricError) as ei:
            s._radius_keys([F(1, 2), r])
        assert str(ei.value) == f"radius must be a finite number, got {r}"
    for r in (0, 0.0, -0.0, F(0), F(-1, 3), -2, -1e300, np.int64(0), Decimal("-0.5")):
        with pytest.raises(MetricError) as ei:
            s._radius_keys([F(1, 2), r])
        assert str(ei.value) == f"radius must be positive, got {r}"
    # numpy ints (no integer ratio of their own), Decimals and bools
    assert same_matrix(s._radius_keys([np.int64(2), Decimal("0.25"), True]),
                       s._radius_keys([2, F(1, 4), 1]))


@pytest.mark.parametrize("name", ["discrete-1", "one-point-float", "discrete-2", "discrete-9",
                                  "segment-2", "segment-17", "graph-25", "python-int",
                                  "points-20", "float-asymmetric-12", "float-diagonal-9",
                                  "float-ties"])
def test_extremes_match_the_triu_indices_reference(name):
    """The least and the largest distance of two points, in value and type:
    every distance ties on the discrete metric, and one point has no pair,
    so no least distance, and its diameter is the kernel's 0 in the space's
    one type (``Fraction(0)`` on the discrete metric, 0.0 on a float one)."""
    s = SPACES.get(name) or build_from_matrix([[0, 0.5, 0.25, 0.5], [0.5, 0, 0.5, 0.25],
                                               [0.25, 0.5, 0, 0.5], [0.5, 0.25, 0.5, 0]])
    assert repr(s._extremes) == repr(oracles.extremes(s))
    assert (s.min_positive_distance(), s.diameter()) == s._extremes
    if s.n == 1:
        assert s._extremes[0] is None and repr(s._extremes[1]) == repr(s.d(0, 0))


def grid_through_distances(s):
    """A grid holding every positive distance and every half distance of s
    (n > 1), so that grid values test the open-ball boundary d < t."""
    d = {F(v) for row in s.dist for v in row if v > 0}
    values = sorted(d | {v / 2 for v in d})
    return TimeGrid((values[0] / 2, *values, 2 * values[-1]))


def coarsest_grid(s):
    """The default grid's end points: only the first isolates the points."""
    values = default_grid(s).values
    return TimeGrid((values[0], values[-1]))


GRIDS = {
    "default": default_grid,
    "coarsest": coarsest_grid,
    "through-distances": grid_through_distances,
}


@pytest.mark.parametrize("name,grid_kind", [
    (name, kind) for name in sorted(SPACES) for kind in GRIDS
    if SPACES[name].n > 1 or kind != "through-distances"])
def test_atoms_are_the_nuclei_of_the_ball_functions(name, grid_kind):
    s = SPACES[name]
    grid = GRIDS[grid_kind](s)
    result = wave_model(s, grid)
    assert len(result.atoms) == s.n
    for x in range(s.n):
        rep = b_star_lower(s, x, grid)
        assert result.atoms[x] == nucleus(rep) == oracles.intersection_nucleus(rep)
        assert result.atoms[x] == oracles.open_ball(s, x, grid.values[0])
    assert len(result.warnings) == sum(a != {x} for x, a in enumerate(result.atoms))


#: A float space whose distances tie: two values, each taken four times.
FLOAT_TIES = [[0, 0.5, 0.25, 0.5], [0.5, 0, 0.5, 0.25],
              [0.25, 0.5, 0, 0.5], [0.5, 0.25, 0.5, 0]]


@pytest.mark.parametrize("name", ["segment-17", "discrete-9", "python-int", "float-ties"])
def test_balls_and_brackets_on_a_grid_through_the_distances(name):
    """Every grid-wide read at t = d exactly, on exact and tied float
    spaces: open and closed balls, neighbourhoods and the brackets."""
    s = SPACES.get(name) or build_from_matrix(FLOAT_TIES)
    grid = grid_through_distances(s)
    reps = [b_star_lower(s, x, grid) for x in range(s.n)]
    for x in range(s.n):
        assert reps[x].sets == tuple(oracles.open_ball(s, x, t) for t in grid)
        assert b_star_upper(s, x, grid).sets == tuple(oracles.closed_ball(s, x, t) for t in grid)
    rng = random.Random(name)
    for a in [frozenset(), frozenset({0}), *(oracles.random_subset(rng, s.n) for _ in range(4))]:
        assert isotony_apply(s, a, grid).sets == tuple(oracles.neighborhood(s, a, t)
                                                       for t in grid)
    brackets = wave_model(s, grid, include_brackets=True).brackets
    for x in range(s.n):
        for y in range(x + 1, s.n):
            assert brackets[x][y] == wave_distance_classes(reps[x], reps[y])


@pytest.mark.parametrize("name", sorted(SPACES))
def test_isometry_fit_matches_pairwise_sums(name):
    """Every kernel dtype: the fit is the scalar loop's, to the bit and the
    Python type (products near a dtype's bound leave the dtype)."""
    s = SPACES[name]
    result = wave_model(s, default_grid(s))
    max_dev, c = oracles.isometry_fit(s)
    assert repr(result.max_abs_tau_minus_d) == repr(max_dev)
    assert repr(result.homothety_c) == repr(c)
    assert type(result.homothety_c) is type(c)


#: The largest kernel maximum whose fit on 9 points runs in int64:
#: n (n - 1) max^2 = 72 max^2 <= the int64 maximum.
INT64_FIT_TOP = math.isqrt(int(np.iinfo(np.int64).max) // 72)


@pytest.mark.parametrize("top,denominator,dtype,in_int64", [
    (bound(np.int16), 1, np.int16, True),
    (bound(np.int16), 5, np.int16, True),
    (INT64_FIT_TOP, 1, np.int32, True),
    (INT64_FIT_TOP + 1, 1, np.int32, False),
    (INT64_FIT_TOP, 7, np.int32, True),
    (INT64_FIT_TOP + 1, 7, np.int32, False),
    (bound(np.int32), 1, np.int32, False),  # the int64 sum of the products wraps
    (bound(np.int64), 3, np.int64, False),  # each product wraps
    (4 * bound(np.int64), 1, object, False),
])
def test_isometry_fit_on_each_side_of_the_int64_bound(top, denominator, dtype, in_int64):
    """9 points with the largest kernel entry ``top``: the fit equals the
    scalar loop's in value and Python type, whether n (n - 1) max^2 fits
    int64 (int64 products and sum) or not (Python ints)."""
    s = build_from_matrix(near_top(random.Random(top), 9, top, denominator))
    assert s._m.dtype == dtype and s._m.max() == top
    assert (72 * top ** 2 <= np.iinfo(np.int64).max) is in_int64
    got, want = metric.isometry_fit(s), oracles.isometry_fit(s)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("d,dtype", [(2 ** 7, np.int16), (2 ** 15, np.int32),
                                     (2 ** 31, np.int64)])
def test_isometry_fit_sums_hold_their_bound_at_each_dtype_edge(d, dtype):
    """Two points at distance d: sum tau d = 2 d^2 = n (n - 1) max d^2 is
    one past the maximum of ``dtype`` and d^2 is not, so the sums take the
    next wider dtype and c is exactly 2; any tighter bound wraps sum tau d."""
    assert d * d <= np.iinfo(dtype).max == 2 * d * d - 1
    s = build_from_matrix([[0, d], [d, 0]])
    assert metric.isometry_fit(s) == (d, 2)
    assert wave_model(s, default_grid(s)).homothety_c == 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=2, max_size=14, unique=True),
       st.lists(st.floats(0, 0.4), min_size=28, max_size=28),
       st.floats(1e-3, 1e6))
def test_isometry_fit_is_the_row_major_loop_on_float_spaces(cells, jitter, scale):
    """Distinct lattice cells, each point jittered inside its cell and the
    whole cloud scaled: the fit's float sums keep the scalar loop's bits."""
    points = [((x + jitter[2 * k]) * scale, (y + jitter[2 * k + 1]) * scale)
              for k, (x, y) in enumerate(cells)]
    s = build_from_points(points)
    assert repr(metric.isometry_fit(s)) == repr(oracles.isometry_fit(s))


@pytest.mark.parametrize("name", [k for k in sorted(SPACES) if SPACES[k].n > 1])
def test_extreme_distances_are_the_matrix_entries(name):
    """The extreme distances are entries of ``dist`` in value and type: ints,
    ``Fraction``s or floats, the one type of every entry."""
    s = SPACES[name]
    upper = [s.d(i, j) for i in range(s.n) for j in range(i + 1, s.n)]
    for got, want in ((s.min_positive_distance(), min(upper)), (s.diameter(), max(upper))):
        assert got == want and {type(v) for v in upper} == {type(got)}


def test_discrete_metric_tau_is_twice_d():
    s = SPACES["discrete-9"]
    assert wave_distance_matrix(s) == [[2 * s.d(i, j) for j in range(s.n)]
                                       for i in range(s.n)]


def test_api_value_types_follow_the_input():
    tau = wave_distance_matrix(SPACES["graph-int"])
    assert all(type(v) is int for row in tau for v in row)
    assert type(wave_distance_matrix(SPACES["graph-12"])[0][1]) is Fraction
    assert type(wave_distance_matrix(SPACES["points-7"])[0][1]) is float
    assert type(condition2_report(SPACES["python-int"])["defects"][0][1]) is Fraction


# ---------------------------------------------------------------------------
# Validation: the first failure and its witness, as the scalar loops found them


def broken_copies(rng, rows, count):
    """Copies of ``rows`` with one entry pushed out of range."""
    n = len(rows)
    for _ in range(count):
        i, j = rng.randrange(n), rng.randrange(n)
        bad = [list(r) for r in rows]
        kind = rng.randrange(4)
        if kind == 0:
            bad[i][j] = bad[i][j] * 3 + 1  # may break triangles, symmetry, diagonal
        elif kind == 1:
            bad[i][j] = bad[j][i] = bad[i][j] * 3 + 1  # a symmetric long edge
        elif kind == 2:
            bad[i][j] = bad[j][i] = bad[i][j] - bad[i][j]  # zero
        else:
            bad[i][j] = -bad[i][j] - 1
        yield bad


@pytest.mark.parametrize("name", ["graph-12", "rational-6", "points-7", "python-int",
                                  "segment-17", "float-graph-6", "int16-top-12",
                                  "int32-line-12", "int64-top-9"])
def test_first_failure_and_witness_match_scalar_loops(name):
    assert build_broken_copies(SPACES[name], random.Random(name), 40) > 0


def build_broken_copies(s, rng, count, breaks=broken_copies):
    """Build ``count`` copies of s broken by ``breaks``: each fails with the
    scalar loops' first failure and witness, or builds when they find none.
    Returns the number that failed."""
    seen = 0
    for bad in breaks(rng, [list(r) for r in s.dist], count):
        want = oracles.first_axiom_failure(bad, s.eta)
        if want is None:
            FiniteMetricSpace(tuple(map(tuple, bad)))
            continue
        seen += 1
        with pytest.raises(AxiomViolation) as ei:
            FiniteMetricSpace(tuple(map(tuple, bad)))
        assert (str(ei.value), ei.value.witness) == want
    return seen


def symmetric_breaks(rng, rows, count):
    """Copies of ``rows`` with one pair (i != j) lengthened or shortened on
    both sides: symmetry, the diagonal and positivity still hold, so only
    the triangle check can refuse them."""
    n = len(rows)
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        bad = [list(r) for r in rows]
        v = bad[i][j]
        bad[i][j] = bad[j][i] = v * 3 + 1 if rng.random() < 0.5 else F(v) / 3
        yield bad


@pytest.mark.parametrize("name", [k for k in sorted(SPACES)
                                  if SPACES[k].exact and SPACES[k].n >= 9])
def test_min_plus_check_across_half_slabs(name, monkeypatch):
    """With 64-element slabs the (min, +) check runs in several half slabs;
    it passes the space, and each broken copy fails with the ordered scan's
    first failing triple."""
    monkeypatch.setattr(metric, "_SLAB", 64)
    s = FiniteMetricSpace(SPACES[name].dist)
    assert len(list(metric._slabs(s.n))) > 2
    assert build_broken_copies(s, random.Random(name), 30, symmetric_breaks) > 0


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_triangle_witness_in_each_int_dtype(dtype, monkeypatch):
    """Lengthening a pair of a line metric at the bound breaks the tight
    triangles through the points between, and keeps the dtype."""
    monkeypatch.setattr(metric, "_SLAB", 64)
    rng = random.Random(str(dtype))
    rows = on_a_line(rng, 10, bound(dtype))
    assert build_from_matrix(rows)._m.dtype == dtype
    # pairs with a point between them, short of the end pair already at top
    pairs = [(i, k) for i in range(10) for k in range(i + 2, 10) if (i, k) != (0, 9)]
    for i, k in rng.sample(pairs, 10):
        bad = [list(r) for r in rows]
        bad[i][k] = bad[k][i] = min(rows[i][k] * 2, bound(dtype))
        assert metric._kernel_matrix(bad)[0].dtype == dtype
        with pytest.raises(AxiomViolation) as ei:
            build_from_matrix(bad)
        assert (str(ei.value), ei.value.witness) == oracles.first_axiom_failure(bad, 0)


def test_ordered_scan_runs_only_when_the_exact_check_fails(monkeypatch):
    """Exactly symmetric spaces with margin >= 0, exact or float, valid or
    refused, take the (min, +) product once, and the ordered scan reads
    only the rows it flags; float spaces asymmetric within eta or past the
    margin's range (max d >= 2^48 eta) take no product and scan every row.
    The rows are those given, not the snapped ``dist`` of the space."""
    calls = []
    product = metric._min_product
    monkeypatch.setattr(metric, "_min_product", lambda m, op: calls.append(op) or
                        product(m, op))
    for name, s in SPACES.items():
        calls.clear()
        FiniteMetricSpace(tuple(map(tuple, GIVEN.get(name, s.dist))))
        assert calls == ([] if name == "float-asymmetric-12" else [np.add]), name
    calls.clear()
    build_from_matrix([[0.0, 1e6], [1e6, 0.0]])
    assert calls == []
    for rows in ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], [[0.0, 1, 3], [1, 0, 1], [3, 1, 0]]):
        calls.clear()
        with pytest.raises(AxiomViolation):
            build_from_matrix(rows)
        assert calls == [np.add]


#: The largest distance of a line metric per kernel kind: twice it still
#: fits the int dtype, and passes int64 on object kernels.
LINE_TOPS = {"int16": bound(np.int16) // 2, "int32": bound(np.int32) // 2,
             "int64": bound(np.int64) // 2, "object": 2 ** 62, "float": 1000,
             "float-asymmetric": 1000}


@pytest.mark.parametrize("kind", sorted(LINE_TOPS))
def test_refusal_in_the_last_rows_matches_scalar_loops(kind):
    """A 40-point line metric with its last pair (38, 39) lengthened: the
    (min, +) product flags rows 38 and 39 only, and the first failing triple
    lies in row 38, the last one where a symmetric d can fail first.  The
    float-asymmetric copy instead moves two entries of row 39 within eta off
    symmetry, which breaks the tight (39, 1, 0) by 1.2 eta: every row is
    scanned, and only row 39 fails."""
    n, top = 40, LINE_TOPS[kind]
    rows = on_a_line(random.Random(kind), n, top)
    if kind.startswith("float"):
        rows = [[float(v) for v in row] for row in rows]
    if kind == "float-asymmetric":
        rows[n - 1][0] += 6e-10
        rows[n - 1][1] -= 6e-10
    else:
        rows[n - 2][n - 1] = rows[n - 1][n - 2] = 2 * top
    want = np.float64 if kind.startswith("float") else kind
    assert metric._kernel_matrix(rows)[0].dtype == want
    failure = oracles.first_axiom_failure(rows, 1e-9 if kind.startswith("float") else 0)
    assert failure[1][0] == (n - 1 if kind == "float-asymmetric" else n - 2)
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix(rows)
    assert (str(ei.value), ei.value.witness) == failure


def test_failing_triangle_witness():
    rows = [[0, 1, 5, 2], [1, 0, 1, 2], [5, 1, 0, 2], [2, 2, 2, 0]]
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix(rows)
    assert ei.value.witness == (0, 1, 2) == oracles.first_axiom_failure(rows, 0)[1]


def test_float_slack_is_eta():
    # a triangle off by less than eta passes, as in the scalar loop
    e = 1e-12
    rows = [[0.0, 1.0, 2.0 + e], [1.0, 0.0, 1.0], [2.0 + e, 1.0, 0.0]]
    assert build_from_matrix(rows).n == 3
    rows[0][2] = rows[2][0] = 2.0 + 1e-6
    with pytest.raises(AxiomViolation):
        build_from_matrix(rows)


def test_float_margin_covers_the_rounding_gap():
    """The scan's (a - b) - c exceeds eta, while the product's a - (b + c)
    falls just short of it: a (min, +) check against eta alone would pass
    this matrix; the margin eta - 2^-48 max|d| sends it to the scan."""
    a, b, c = 695.655792736914, 527.427661008108, 168.22813172780602
    assert (a - b) - c > 1e-9 >= a - (b + c)
    rows = [[0, b, a], [b, 0, c], [a, c, 0]]
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix(rows)
    assert ei.value.witness == (0, 1, 2)
    assert (str(ei.value), ei.value.witness) == oracles.first_axiom_failure(rows, 1e-9)


def test_snapped_matrix_may_break_a_triangle_by_up_to_twice_eta():
    """The given rows pass within eta; their upper triangle, mirrored, breaks
    (0, 2, 1) by 1.9e-9, so the space's own ``dist`` is refused."""
    rows = [[0, 3, 1], [3 - 0.9e-9, 0, 2 - 1.9e-9], [1, 2 - 0.95e-9, 0]]
    assert oracles.first_axiom_failure(rows, 1e-9) is None
    space = build_from_matrix(rows)
    assert space.dist == ((0.0, 3.0, 1.0), (3.0, 0.0, 2 - 1.9e-9), (1.0, 2 - 1.9e-9, 0.0))
    with pytest.raises(AxiomViolation) as ei:
        FiniteMetricSpace(space.dist)
    assert ei.value.witness == (0, 2, 1)
    assert (str(ei.value), ei.value.witness) == oracles.first_axiom_failure(space.dist, 1e-9)


@st.composite
def moved_float_rows(draw):
    """(rows, off_diagonal): the float matrix of distinct points of a 4 x 4
    integer grid or of a line, scaled, whose lines hold tight triangles,
    with the entries off the diagonal moved by up to 4e-10 each, its
    diagonal moved, or both.  Three moves of 4e-10 break a tight triangle by
    more than eta, and one more move of 1.2e-9 may put a pair off symmetry
    or the diagonal past eta."""
    n = draw(st.integers(2, 8))
    pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)) if draw(st.booleans())
                        else st.tuples(st.integers(0, 9), st.just(0)),
                        min_size=n, max_size=n, unique=True))
    scale = draw(st.sampled_from([1.0, 0.1, 7.3]))
    off_symmetry, off_diagonal = draw(st.sampled_from([(True, False), (False, True),
                                                       (True, True)]))
    rows = [[math.dist(p, q) * scale for q in pts] for p in pts]
    for i in range(n):
        if off_diagonal:
            rows[i][i] = draw(st.sampled_from([-4e-10, -0.0, 0.0, 3e-10, 4e-10]))
        for j in range(n):
            if off_symmetry and j != i:
                rows[i][j] += draw(st.sampled_from([-4e-10, 4e-10, 0.0, -2e-10, 1e-10]))
    if draw(st.integers(0, 4)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if (off_diagonal if i == j else off_symmetry):
            rows[i][j] += 1.2e-9
    return rows, off_diagonal


#: The rounding margin of the comparison with the given rows: the kernel and
#: the scalar reference each round r + s and its difference with d once,
#: each by at most 2^-53 of a value <= 2 max d.
SNAP_ROUNDING = 2.0 ** -50


@settings(max_examples=200, deadline=None)
@given(moved_float_rows())
def test_float_matrix_snaps_to_its_upper_triangle(case):
    """A float matrix off symmetry or off a zero diagonal is refused or
    accepted on its given rows, with the scalar loops' message and witness;
    an accepted one holds its upper triangle, mirrored, with a +0.0
    diagonal.  Off symmetry by at most delta, with a zero diagonal, each
    tau and defect is within 3 delta of the scalar references on the given
    rows, plus ``SNAP_ROUNDING`` of max d."""
    rows, off_diagonal = case
    n = len(rows)
    failure = oracles.first_axiom_failure(rows, 1e-9)
    if failure is not None:
        with pytest.raises(AxiomViolation) as ei:
            build_from_matrix(rows)
        assert (str(ei.value), ei.value.witness) == failure
        return
    space = build_from_matrix(rows)
    want = tuple(tuple(rows[min(i, j)][max(i, j)] if i != j else 0.0 for j in range(n))
                 for i in range(n))
    assert space.dist == want
    assert all(type(v) is float for row in space.dist for v in row)
    assert not any(math.copysign(1, space.dist[i][i]) < 0 for i in range(n))
    if off_diagonal:
        return
    delta = max(abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(n))
    slack = 3 * delta + SNAP_ROUNDING * max(map(max, rows))
    given = SimpleNamespace(dist=rows, n=n, eta=1e-9)
    tau = wave_distance_matrix(space)
    defects = condition2_report(space)["defects"]
    for x in range(n):
        for y in range(n):
            if x != y:
                assert abs(tau[x][y] - oracles.wave_distance_points(given, x, y)) <= slack
            assert abs(defects[x][y] - oracles.condition2_defect(given, x, y)) <= slack


@settings(max_examples=300, deadline=None)
@given(st.floats(0.01, 1000), st.floats(0.01, 1000), st.integers(-8, 8),
       st.permutations(range(4)))
def test_triangle_within_ulps_of_eta_gets_the_scan_verdict(b, c, k, perm):
    """One triangle with a = b + c + eta moved by k ulps, so that its excess
    lies within 8 ulps of a around eta, and a fourth point at distance a from
    the others, relabelled: the space is refused exactly when the ordered
    scan refuses it, with the scan's message and witness."""
    a = b + c + 1e-9
    for _ in range(abs(k)):
        a = math.nextafter(a, math.inf if k > 0 else 0)
    base = [[0, b, a, a], [b, 0, c, a], [a, c, 0, a], [a, a, a, 0]]
    rows = [[float(base[perm[i]][perm[j]]) for j in range(4)] for i in range(4)]
    failure = oracles.first_axiom_failure(rows, 1e-9)
    if failure is None:
        assert build_from_matrix(rows).n == 4
    else:
        with pytest.raises(AxiomViolation) as ei:
            build_from_matrix(rows)
        assert (str(ei.value), ei.value.witness) == failure


@st.composite
def tied_float_spaces(draw):
    """Float spaces with ties: distinct points of a 4 x 4 integer grid,
    scaled, built by the points backend or as a matrix with one of: nothing
    changed, -0.0 on the diagonal, diagonal entries within eta of 0
    (negative ones too), or entries below the diagonal moved by 2e-10
    (asymmetric within eta, which the ordered scan validates)."""
    n = draw(st.integers(2, 7))
    pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        min_size=n, max_size=n, unique=True))
    scale = draw(st.sampled_from([1.0, 0.1, 7.3]))
    change = draw(st.sampled_from(["points", "none", "-0.0", "diagonal", "asymmetric"]))
    if change == "points":
        return build_from_points([(x * scale, y * scale) for x, y in pts])
    rows = [[math.dist(p, q) * scale for q in pts] for p in pts]
    for i in range(n):
        if change == "-0.0":
            rows[i][i] = draw(st.sampled_from([0.0, -0.0]))
        elif change == "diagonal":
            rows[i][i] = draw(st.sampled_from([-4e-10, -0.0, 0.0, 3e-10]))
        elif change == "asymmetric":
            for j in range(i):
                rows[i][j] += draw(st.sampled_from([0.0, -2e-10, 2e-10]))
    return build_from_matrix(rows)


@settings(max_examples=150, deadline=None)
@given(tied_float_spaces())
def test_float_kernels_on_ranks_match_the_scalar_loops(space):
    """The meet, ``first_meeting`` and the tau, d and defect tables of a
    float space, which run on its ranks R, are bit-identical to the scalar
    float loops of ``oracles``."""
    n = space.n
    tau = by_pair(space, oracles.wave_distance_points)  # 0.0 on the diagonal
    off = ~np.eye(n, dtype=bool)
    # bit for bit off the diagonal; on it, 0.0 and -0.0 share one rank
    meet = oracles.meet(space)
    assert (2 * meet[off]).tobytes() == np.array(tau)[off].tobytes()
    assert (np.diagonal(meet) == np.diagonal(space._m)).all()
    radii = sorted({*map(F, meet[off].tolist()), *default_grid(space, 8).values})
    got = metric.first_meeting(space, radii)
    for x in range(n):
        for y in range(n):
            assert got[x, y] == next((k for k, r in enumerate(radii) if
                                      oracles.open_ball(space, x, r) &
                                      oracles.open_ball(space, y, r)), len(radii))
    same = lambda a, b: repr(a) == repr(b)  # noqa: E731 (types and zero signs too)
    assert same(metric._tau_table(space).tolist(), tau)
    assert same(metric._dist_table(space).tolist(), [list(row) for row in space.dist])
    defects = by_pair(space, oracles.condition2_defect)
    assert same(condition2_report(space)["defects"], defects)


def test_ranks_widen_past_int16():
    """260 random points have more distinct distances than int16 holds: R is
    int32, and the meet on it is the meet on the values."""
    space = oracles.random_point_space(random.Random(3), 260)
    values, ranks = space._ranks
    assert len(values) > 2 ** 15 and ranks.dtype == np.int32
    assert (values[ranks] == space._m).all()
    assert oracles.meet(space).tobytes() == metric._min_product(space._m, np.maximum).tobytes()
    assert_ranks_are_those_of_the_matrix(space)
    assert_order_is_the_float_argsort(space)


#: Exact spaces with a kernel of every dtype, built from their kernel and from dist.
EXACT_SPACES = ["discrete-9", "segment-17", "graph-25", "rational-30", "int16-top-12",
                "int32-line-12", "int64-top-9", "python-int"]


def test_exact_spaces_cover_every_kernel_dtype():
    assert {SPACES[name]._m.dtype for name in EXACT_SPACES} == {*map(np.dtype, INT_DTYPES),
                                                                np.dtype(object)}


@pytest.mark.parametrize("name", EXACT_SPACES)
def test_exact_meet_and_tau_on_ranks_match_the_kernel_values(name):
    """On R, the meet is the (min, max) product of the kernel itself, and
    the tau table holds the same values, type for type."""
    s = SPACES[name]
    assert s.exact
    assert same_matrix(oracles.meet(s), oracles.meet_on_values(s))
    want = oracles.tau_table_on_values(s).tolist()
    assert repr(metric._tau_table(s).tolist()) == repr(want)
    assert_ranks_are_those_of_the_matrix(s)


def test_ranks_of_a_100_point_object_kernel_are_int16():
    space = build_from_matrix(oracles.random_rational_metric(random.Random(4), 100, BIG_PRIMES))
    values, ranks = space._ranks
    assert space._m.dtype == object and values.dtype == object
    assert ranks.dtype == np.int16
    assert (values[ranks] == space._m).all()
    assert same_matrix(oracles.meet(space), oracles.meet_on_values(space))


def test_given_d_table_has_one_value_per_distinct_kernel_value():
    """Equal values in distinct objects are one value, the int diagonal
    too, and every entry of the table is its kernel value: a ``Fraction``
    over the scale, equal to the entry given, as in ``dist``."""
    one = F(1)  # distances in [1, 2]: every triangle holds
    rows = [[0 if i == j else one if i + j == 5 else F(3 + (i + j) % 3, 3) for j in range(6)]
            for i in range(6)]
    space = build_from_matrix(rows)
    table = metric._dist_table(space)
    got = table.tolist()
    assert got == rows and all(type(v) is F for row in got for v in row)
    assert len(table.values) == len({v for row in rows for v in row}) == 4
    assert {id(v) for row in got for v in row} == {id(v) for v in table.values}
    assert repr(space.dist) == repr(tuple(map(tuple, got)))


@pytest.mark.parametrize("name", sorted(SPACES))
def test_d_table_codes_are_r_itself(name):
    """The ``d`` table holds R, not a copy, and making its lists and its
    report leaves R as it was."""
    s = SPACES[name]
    ranks = s._ranks[1]
    before = ranks.copy()
    table = metric._dist_table(s)
    assert table.codes is ranks
    table.tolist()
    "".join(cli.encode_report({"d": table}))
    assert same_matrix(s._ranks[1], before)


FLOAT_SPACES = [name for name, s in SPACES.items() if not s.exact]


def assert_order_is_the_float_argsort(space):
    """The defect sweep's order, a stable sort of R, is the stable sort of
    the floats."""
    assert np.array_equal(oracles.sweep_order(space),
                          np.argsort(space._m, axis=1, kind="stable"))


def assert_open_balls_are_the_scalar_balls(space):
    """``open_balls``, which stable-sorts its row of the floats, gives the
    balls of ``oracles.open_ball`` at each distinct |d(x, .)| > 0, at half
    of it, and one and two eta below it, where d <= r + eta rounds to d."""
    eta = space.eta
    for x in range(space.n):
        values = {abs(v) for v in space.dist[x]} - {0.0}
        radii = sorted({r for v in values for r in (v, v / 2, v - eta, v - 2 * eta) if r > 0})
        assert open_balls(space, x, radii) == tuple(oracles.open_ball(space, x, r)
                                                    for r in radii)


def assert_ranks_are_those_of_the_matrix(space):
    """R, from the upper triangle when d is mirrored, is one ``np.unique``
    of the whole matrix (``==``: 0.0 and -0.0 are one value), dtype included."""
    values, ranks = np.unique(space._m, return_inverse=True)
    got_values, got_ranks = space._ranks
    assert np.array_equal(got_values, values)
    assert np.array_equal(got_ranks, ranks.reshape(space._m.shape))
    assert got_ranks.dtype == metric._int_dtype(len(values))


def test_every_kernel_is_mirrored():
    """Every space, the float matrices given off symmetry or off a zero
    diagonal included, holds d = d^T with a +0 diagonal, and so does R."""
    assert set(GIVEN) < set(FLOAT_SPACES)
    for name, s in SPACES.items():
        for m in (s._m, s._ranks[1]):
            assert (m == m.T).all() and not m.diagonal().any(), name
        assert not np.signbit(s._m.diagonal().astype(float)).any(), name


@pytest.mark.parametrize("name", FLOAT_SPACES)
def test_float_ranks_and_order_match_the_float_matrix(name):
    assert_ranks_are_those_of_the_matrix(SPACES[name])
    assert_order_is_the_float_argsort(SPACES[name])
    assert_open_balls_are_the_scalar_balls(SPACES[name])


@settings(max_examples=150, deadline=None)
@given(tied_float_spaces())
def test_tied_float_ranks_and_order_match_the_float_matrix(space):
    """On tied floats, -0.0 and 0.0 on the diagonal included, the sweep's
    sort of R and the balls' sort of a float row order the points as the
    stable sort of the floats does."""
    assert_ranks_are_those_of_the_matrix(space)
    assert_order_is_the_float_argsort(space)
    assert_open_balls_are_the_scalar_balls(space)


def test_float_conditions_leave_the_meet_uncomputed(monkeypatch, tmp_path):
    """The defects of a float space sort R but never take its (min, max)
    product: not in ``condition2_report``, not in ``conditions``."""
    def refuse(*args):
        raise AssertionError("(min, max) product computed")

    monkeypatch.setattr(metric, "_min_product", refuse)
    space = oracles.random_point_space(random.Random(8), 30)
    metric.condition2_report(space)
    assert "_ranks" in space.__dict__ and "_meet_ranks" not in space.__dict__
    out = tmp_path / "conditions-points-csv.csv"
    assert main(_argv(["conditions", "--backend", "points", "--input", "points.csv",
                       "--format", "csv"], out)) == 0
    assert out.read_bytes() == (EXPECTED / out.name).read_bytes()


# ---------------------------------------------------------------------------
# Graph geodesics by Floyd-Warshall


def test_exact_graph_matches_dijkstra():
    rng = random.Random(5)
    for n in (2, 9, 30):
        edges = oracles.random_graph_edges(rng, n)
        s = build_from_graph(edges)
        assert [list(r) for r in s.dist] == oracles.dijkstra_distances(edges, n)


def test_float_graph_deviates_from_dijkstra_by_rounding_only():
    # 0.1-weights: Floyd-Warshall adds path pieces in another order than a
    # source-outward sum, which may differ in the last place
    # (up to 2 ulp on these graphs)
    rng = random.Random(11)
    for n in (8, 20, 35):
        edges = [(j - 1, j, rng.choice([0.1, 0.2, 0.3, 0.7])) for j in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n), 0.3) for _ in range(n // 2)]
        s = build_from_graph(edges)
        ref = oracles.dijkstra_distances(edges, n)
        for i in range(n):
            for j in range(n):
                gap = abs(s.d(i, j) - ref[i][j])
                assert gap <= 4 * math.ulp(ref[i][j]) and gap <= s.eta


def test_graph_repeated_edge_keeps_last_weight_and_loops_add_nodes():
    s = build_from_graph([(0, 1, 5), (1, 0, 2), (1, 1, 7), (1, 2, 1)])
    assert s.d(0, 1) == 2 and s.d(0, 2) == 3 and s.d(1, 1) == 0


def test_graph_disconnected_and_node_errors():
    with pytest.raises(MetricError, match="disconnected"):
        build_from_graph([(0, 1, F(1, 2)), (2, 3, 1)])
    with pytest.raises(MetricError, match="disconnected"):
        build_from_graph([(0, 1, 0.5), (2, 3, 0.25)])
    with pytest.raises(MetricError, match="consecutive"):
        build_from_graph([(0, 2, 1)])
    with pytest.raises(MetricError, match="no nodes"):
        build_from_graph([])


PATH_400 = [(i, i + 1, 1) for i in range(399)]


@pytest.mark.parametrize("edges", [
    [(0, 3, 1), (1, 2, 1)],
    [e for e in PATH_400 if e[0] != 199],
    [(i, j, 0.5) for i, j, _ in PATH_400 if i != 199],
    [(0, 1, 1e308), (1, 2, 1e308), (3, 4, 1.0)],
    [(0, 1, 1.0), (2, 3, 1e308), (3, 4, 1e308)],
], ids=["node-0-apart", "exact-path-400", "float-path-400",
        "overflow-beside-a-component", "a-component-beside-overflow"])
def test_graph_disconnected(edges):
    """Node 0's reach over the finite geodesics misses a component (the
    two-component graphs of ``test_graph_disconnected_and_node_errors``
    too), also where a float path sum past the float range leaves inf
    inside one: two components are disconnected, not overflowing."""
    with pytest.raises(MetricError) as ei:
        build_from_graph(edges)
    assert str(ei.value) == "graph is disconnected: no finite metric"


def test_graph_weight_past_the_float_range_is_refused_before_its_paths():
    """An int weight past the float range on a float graph is refused as
    the first such entry of the weight matrix in row-major order."""
    with pytest.raises(AxiomViolation) as ei:
        build_from_graph([(0, 1, 0.5), (2, 1, 10 ** 400), (0, 3, 10 ** 400)])
    assert str(ei.value) == f"d(0,3) = {10 ** 400} is not a finite number"
    assert ei.value.witness == (0, 3)


def test_graph_with_python_int_scale():
    edges = [(0, 1, 1 + F(1, BIG_PRIMES[0])), (1, 2, 1 + F(1, BIG_PRIMES[1])),
             (0, 2, 3)]
    s = build_from_graph(edges)
    assert s._m.dtype == object
    assert s.d(0, 2) == 2 + F(1, BIG_PRIMES[0]) + F(1, BIG_PRIMES[1])


@pytest.mark.parametrize("top", [4095, 4096])
@pytest.mark.parametrize("denominator", [1, 3])
def test_graph_no_edge_bound_at_the_int16_limit(top, denominator):
    """A missing edge holds m * max + 1 in kernel units and a relaxation adds
    two entries: on 4 nodes Floyd-Warshall runs in int16 up to a largest
    scaled weight of 4095, and in int32 from 4096 on."""
    rng = random.Random(top)
    for _ in range(5):
        weights = [top, *(rng.randint(top // 2, top) for _ in range(3))]
        edges = [(i, i + 1, F(w, denominator)) for i, w in enumerate(weights[:3])]
        edges.append((0, 2, F(weights[3], denominator)))
        s = build_from_graph(edges)
        assert [list(r) for r in s.dist] == oracles.dijkstra_distances(edges, 4)


def test_graph_with_mixed_fraction_and_numpy_float_weights():
    edges = [(0, 1, F(1, 3)), (1, 2, np.float64(0.25)), (2, 3, np.float32(0.5)),
             (0, 3, F(3, 2)), (1, 3, np.longdouble(1.5))]
    s = build_from_graph(edges)
    assert not s.exact
    ref = oracles.dijkstra_distances([(i, j, float(w)) for i, j, w in edges], 4)
    assert all(abs(s.d(i, j) - ref[i][j]) <= s.eta for i in range(4) for j in range(4))
    with pytest.raises(MetricError, match="disconnected"):
        build_from_graph([(0, 1, F(1, 3)), (2, 3, np.float64(0.25))])


def test_points_space_defects_on_collinear_points():
    s = build_from_points([(0,), (1,), (2,), (3.5,)])
    assert condition2_report(s)["defects"] == by_pair(s, oracles.condition2_defect)


# ---------------------------------------------------------------------------
# Ingest: each distinct entry object is converted once


class CountedDecimal(Decimal):
    """A Decimal that counts its conversions to ``Fraction``."""

    conversions = 0

    def as_integer_ratio(self):
        CountedDecimal.conversions += 1
        return super().as_integer_ratio()


def ingest_cases():
    third = F(1, 3)
    yield "equal-values-distinct-objects", [[F(abs(i - j), 3) for j in range(6)]
                                            for i in range(6)]
    yield "one-object-many-positions", [[0 if i == j else third for j in range(6)]
                                        for i in range(6)]
    yield "mixed-int-fraction-decimal", [[0, 1, F(3, 2), Decimal("2.25")],
                                         [1, 0, Decimal("0.5"), F(5, 4)],
                                         [F(3, 2), Decimal("0.5"), 0, 1],
                                         [Decimal("2.25"), F(5, 4), 1, 0]]
    yield "ints", [[abs(i - j) * 7 for j in range(5)] for i in range(5)]
    yield "python-int", [list(r) for r in SPACES["python-int"].dist]


@pytest.mark.parametrize("name,rows", list(ingest_cases()))
def test_per_distinct_ingest_equals_the_per_entry_conversion(name, rows):
    m, scale = metric._exact_matrix(rows)
    assert (m.tolist(), scale) == oracles.exact_matrix_per_entry(rows)


def test_each_distinct_entry_object_is_converted_once():
    half, quarter = CountedDecimal("0.5"), CountedDecimal("0.25")
    rows = [[0 if i == j else half if (i + j) % 2 else quarter for j in range(7)]
            for i in range(7)]
    CountedDecimal.conversions = 0
    m, scale = metric._exact_matrix(rows)
    assert CountedDecimal.conversions == 2
    assert (m.tolist(), scale) == oracles.exact_matrix_per_entry(rows)


@pytest.mark.parametrize("bad_ids_descend", [True, False])
def test_refused_entry_is_the_first_in_row_major_order(bad_ids_descend):
    """Two bad objects, placed so that their ``id`` order is (or is not)
    the reverse of their row-major order; the one that comes first in
    row-major order is reported, as the per-entry loop reported it."""
    nan, inf = Decimal("NaN"), Decimal("Infinity")
    first, second = sorted((nan, inf), key=id, reverse=bad_ids_descend)
    rows = [[0, 1, 1, 1], [1, 0, 1, first], [1, second, 0, 1], [1, first, 1, 0]]
    rows[3][2] = second
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix(rows)
    with pytest.raises(AxiomViolation) as want:
        oracles.exact_matrix_per_entry(rows)
    assert (str(ei.value), ei.value.witness) == (str(want.value), want.value.witness)
    assert ei.value.witness == (1, 3)


# ---------------------------------------------------------------------------
# Closed forms at slab scale: one-row slabs at the default slab size


@pytest.mark.parametrize("n", [257, 513])
def test_closed_forms_at_slab_scale(n):
    """The discrete metric has tau = 2d and the defect 1 at every pair of
    distinct points; the segment sample with step h has
    tau(i, j) = 2 ceil(|i - j| / 2) h and the defect h at every pair of
    distinct points, with lengths 3/2, 15000 and 10^9/7 putting the kernel
    in int16, int32 and int64; the unit-weight path graph is the segment
    with h = 1."""
    assert next(metric._slabs(n)) == (0, 1)
    off = [[abs(i - j) for j in range(n)] for i in range(n)]

    discrete = build_discrete(n)
    assert wave_distance_matrix(discrete) == [[2 * v for v in row] for row in discrete.dist]
    report = condition2_report(discrete)
    assert report["defects"] == [[1 if k else 0 for k in row] for row in off]
    assert report["max_defect"] == 1

    segments = {length: build_segment_sample(n, length)
                for length in (F(3, 2), F(15000), F(10 ** 9, 7))}
    h = F(3, 2) / (n - 1)
    tau = [2 * ((k + 1) // 2) * h for k in range(n)]
    assert wave_distance_matrix(segments[F(3, 2)]) == [[tau[k] for k in row] for row in off]
    for (length, segment), dtype in zip(segments.items(), INT_DTYPES):
        assert segment._m.dtype == dtype
        assert_segment_closed_forms(segment, length / (n - 1))

    path = build_from_graph([(i, i + 1, 1) for i in range(n - 1)])
    assert wave_distance_matrix(path) == [[2 * ((k + 1) // 2) for k in row] for row in off]
    assert_segment_closed_forms(path, 1)


def separation_floor(m: np.ndarray) -> np.ndarray:
    """s(x, y) = min{d(y, z) : d(x, z) < d(x, y)} at every pair x != y of
    the kernel ``m``, 0 on the diagonal: with r = d(x, y) the balls
    B_r(x) and B_s(y) are disjoint, so defect(x, y) >= (r + s) - r."""
    s = np.zeros_like(m)
    for x in range(len(m)):
        inside = m[x][None, :] < m[x][:, None]  # [y, z]: d(x, z) < d(x, y)
        s[x] = np.where(inside, m, m.max()).min(axis=1)
        s[x, x] = 0
    return s


#: Spaces of 257 points; the nearly collinear cloud's rounding breaks
#: triangles by more than eta, so it would not validate as a matrix.
DEFECT_FLOOR_SPACES = {
    "discrete": lambda rng: build_discrete(257),
    "segment": lambda rng: build_segment_sample(257, F(3, 2)),
    "graph": lambda rng: oracles.random_graph_space(rng, 257),
    "rational": lambda rng: build_from_matrix(oracles.random_rational_metric(rng, 257)),
    "points": lambda rng: oracles.random_point_space(rng, 257),
    "collinear-points": lambda rng: build_from_points(
        [(k * 1e7 + rng.uniform(-1e-3, 1e-3), k * 3e7) for k in range(257)]),
}


@pytest.mark.parametrize("name", sorted(DEFECT_FLOOR_SPACES))
def test_every_defect_is_at_least_the_separation_floor(name, monkeypatch):
    """defect(x, y) >= s(x, y) > 0 at every pair of distinct points, exactly
    on exact spaces and as (d + s) - d in float64 (the sweep's own
    arithmetic) on point clouds; so max_defect > 0 and the verdict is never
    "holds" on two or more points.  The bound needs no triangle inequality."""
    space = DEFECT_FLOOR_SPACES[name](random.Random(name))
    monkeypatch.setattr(metric, "_SLAB", 64)
    m = space._m
    floor = separation_floor(m)
    if not space.exact:
        floor = (m + floor) - m
    off = ~np.eye(space.n, dtype=bool)
    assert (floor[off] > 0).all()
    assert (space._defects >= floor).all()
    max_defect = metric._max_defect(space)
    assert max_defect > 0 and cli._verdict(space, max_defect) != "holds"


def test_segment_closed_forms_in_the_object_dtype(monkeypatch):
    """A length whose scaled entries pass int64, with blocks of a few rows
    and defect chunks of a few positions."""
    monkeypatch.setattr(metric, "_SLAB", 64)
    monkeypatch.setattr(metric, "_PLANE", 64 * 8)  # 64 object entries
    monkeypatch.setattr(metric, "_CHUNK", 2 * 64 * 8)
    n = 17
    assert len(list(metric._slabs(n, cell=8))) > 2
    segment = build_segment_sample(n, F(10 ** 20, 3))
    assert segment._m.dtype == object
    assert_segment_closed_forms(segment, F(10 ** 20, 3) / (n - 1))
    assert condition2_report(segment)["defects"] == by_pair(segment, oracles.condition2_defect)


def scaled(s, c):
    """The space with every distance of s times c."""
    return FiniteMetricSpace(tuple(tuple(c * v for v in row) for row in s.dist))


#: Factors that move an int16 kernel into int32, int64 and object.
SCALES = ((F(1), np.int16), (F(1000), np.int32), (F(10 ** 12, 7), np.int64),
          (F(10 ** 21, 7), object))


@pytest.mark.parametrize("name", ["rational-6", "graph-5", "segment-17"])
def test_exact_results_scale_with_the_metric(name):
    """d -> c d on a linear grid scaled by c: tau, the defects, the maximum
    defect, max |tau - d| and the grid brackets scale by c exactly; the
    homothety factor, the atoms and the Condition-2 verdict do not change."""
    s = SPACES[name]
    assert s._m.dtype == np.int16
    lo, hi = F(s.min_positive_distance()) / 4, 2 * F(s.diameter())
    base = wave_model(s, make_grid(lo, hi, 40, "linear"), include_brackets=True)
    defects = condition2_report(s)["defects"]
    for c, dtype in SCALES:
        t = scaled(s, c)
        assert t._m.dtype == dtype
        result = wave_model(t, make_grid(c * lo, c * hi, 40, "linear"), include_brackets=True)
        assert result.tau == [[c * v for v in row] for row in base.tau]
        assert condition2_report(t)["defects"] == [[c * v for v in row] for row in defects]
        assert result.max_defect == c * base.max_defect
        assert result.max_abs_tau_minus_d == c * base.max_abs_tau_minus_d
        assert result.brackets == [[(c * a, c * b) for a, b in row] for row in base.brackets]
        assert result.homothety_c == base.homothety_c
        assert result.atoms == base.atoms
        assert cli._verdict(t, result.max_defect) == cli._verdict(s, base.max_defect)


def assert_segment_closed_forms(s, h):
    """s is the uniform sample of a segment with step h: in the kernel's
    dtype every off-diagonal defect is h and tau(i, j) = 2 ceil(|i - j| / 2) h,
    and the report reads the defect h."""
    hk = int(h * (s._scale or 1))  # h in kernel units
    off = np.abs(np.subtract.outer(np.arange(s.n), np.arange(s.n))).astype(s._m.dtype)
    assert s._defects.dtype == s._m.dtype
    assert np.array_equal(s._defects, np.where(off > 0, hk, 0))
    assert np.array_equal(2 * oracles.meet(s), 2 * ((off + 1) // 2) * hk)
    report = condition2_report(s)
    assert report["max_defect"] == h and type(report["max_defect"]) is type(h)
    assert sorted(set(chain.from_iterable(report["defects"]))) == [0, h]
    assert report["holds"] is False
