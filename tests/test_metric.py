import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wavemodel import (
    AxiomViolation,
    FiniteMetricSpace,
    MetricError,
    build_discrete,
    build_from_graph,
    build_from_matrix,
    build_from_points,
    build_segment_sample,
    wave_distance_matrix,
)
from wavemodel import metric
from wavemodel.metric import (
    INFINITY,
    check_condition1,
    closed_ball,
    condition2_defect,
    first_meeting,
    neighborhood,
    open_ball,
    open_balls,
)

import oracles

F = Fraction


# ---------------------------------------------------------------------------
# Backends


def test_two_points_on_line():
    s = build_from_points([(0,), (1,)])
    assert s.n == 2
    assert s.d(0, 1) == pytest.approx(1.0)


def test_three_four_five_triangle():
    s = build_from_points([(0, 0), (3, 4)])
    assert s.d(0, 1) == pytest.approx(5.0)


def test_uniform_segment_sample():
    s = build_segment_sample(101)
    assert s.d(17, 42) == F(25, 100)
    assert s.exact


def test_segment_sample_shares_one_fraction_per_offset():
    s = build_segment_sample(9, F(7, 3))
    step = F(7, 24)
    assert s.dist == tuple(tuple(abs(i - j) * step for j in range(9)) for i in range(9))
    assert all(type(v) is F and v is s.dist[0][abs(i - j)]
               for i, row in enumerate(s.dist) for j, v in enumerate(row))


def test_the_entries_fix_the_number_system():
    s = FiniteMetricSpace(((0, 0.5), (0.5, 0)))
    assert not s.exact and s.eta == 1e-9
    s = FiniteMetricSpace(((0, F(1, 2)), (F(1, 2), 0)))
    assert s.exact and s.eta == 0
    assert build_from_graph([(0, 1, F(1, 2)), (1, 2, 3)]).exact
    s = build_from_graph([(0, 1, F(1, 2)), (1, 2, 3), (2, 3, 0.25)])
    assert not s.exact and s.eta == 1e-9
    assert type(s.d(0, 3)) is float


def test_rational_graph_shares_one_fraction_per_value():
    s = build_from_graph([(0, 1, F(1, 3)), (1, 2, F(1, 3)), (2, 3, F(2, 3)), (3, 0, 1)])
    entries = [v for row in s.dist for v in row]
    assert all(type(v) is F for v in entries)  # the diagonal too: Fraction(0)
    assert len({id(v) for v in entries}) == len(set(entries)) == 4
    assert all(s.d(i, i) == 0 for i in range(4))


def test_point_cloud_errors():
    with pytest.raises(MetricError):
        build_from_points([(0, 0), (1,)])
    with pytest.raises(MetricError):
        build_from_points([(1, 2), (1, 2)])
    # the first duplicate pair in row-major order
    with pytest.raises(MetricError, match=r"^duplicate points 0 and 2$"):
        build_from_points([(0, 0), (1, 1), (0, 1e-10), (1, 1)])


@pytest.mark.parametrize("space", [build_discrete(1), build_from_points([(0.3, 0.4)]),
                                   build_from_matrix([[0]])])
def test_one_point_has_no_min_positive_distance(space):
    assert space.min_positive_distance() is None
    assert repr(space.diameter()) == repr(space.d(0, 0))  # 0 in the space's one type


def test_path_graph_geodesics():
    s = build_from_graph([(0, 1, 1), (1, 2, 1)])
    assert s.d(0, 2) == 2


def test_triangle_graph_shortcut():
    s = build_from_graph([(0, 1, 1), (1, 2, 1), (0, 2, 3)])
    assert s.d(0, 2) == 2  # two-edge path beats the direct heavy edge


def test_single_edge_graph():
    s = build_from_graph([(0, 1, 1)])
    assert s.d(0, 1) == 1


def test_graph_errors():
    with pytest.raises(MetricError):
        build_from_graph([(0, 1, 1), (2, 3, 1)])  # disconnected
    with pytest.raises(MetricError):
        build_from_graph([(0, 1, 0)])


def test_discrete_metric():
    s1 = build_discrete(1)
    assert s1.n == 1
    s3 = build_discrete(3)
    assert all(s3.d(i, j) == 1 for i in range(3) for j in range(3) if i != j)
    # one Fraction(0) and one Fraction(1) are shared by every entry
    entries = [v for row in s3.dist for v in row]
    assert all(type(v) is F for v in entries) and len({id(v) for v in entries}) == 2
    oracles.assert_metric_axioms(build_discrete(10))
    with pytest.raises(MetricError):
        build_discrete(0)


def test_matrix_validation():
    build_from_matrix([[0, 1], [1, 0]])
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix([[0, 1], [2, 0]])
    assert ei.value.witness == (0, 1)
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert len(ei.value.witness) == 3


@pytest.mark.parametrize("rows, witness", [
    ([[0, math.nan], [math.nan, 0]], (0, 1)),
    ([[math.nan, 1.0], [1.0, 0]], (0, 0)),
    ([[0, 1.0, 2.0], [1.0, 0, math.inf], [2.0, math.inf, 0]], (1, 2)),
    ([[0, -math.inf], [-math.inf, 0]], (0, 1)),
    ([[0, 1], [None, 0]], (1, 0)),
    # Fraction() and numpy read strs and bools as numbers; dist would keep them
    ((("0", "1"), ("1", "0")), (0, 0)),
    ([[0, "1"], ["1", 0]], (0, 1)),
    ([[0, 1.0], ["1", 0.0]], (1, 0)),
    ([[0, True], [True, 0]], (0, 1)),
    ([[0, np.True_], [np.True_, 0]], (0, 1)),
    ([[0.0, np.True_], [np.True_, 0.0]], (0, 1)),
    ([[False, 1.0], [1.0, 0.0]], (0, 0)),
])
def test_non_finite_matrix_is_refused_with_witness(rows, witness):
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix(rows)
    assert ei.value.witness == witness
    assert "not a finite number" in str(ei.value)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.longdouble])
def test_numpy_float_entries_build_a_float_space(dtype):
    a = np.array([[0, 1.5, 2], [1.5, 0, 1], [2, 1, 0]], dtype=dtype)
    s = build_from_matrix(a)
    assert not s.exact and s.eta == 1e-9
    assert s._m.dtype == np.float64 and s._m.tolist() == a.astype(np.float64).tolist()
    s = build_from_graph([(0, 1, dtype(1.5)), (1, 2, dtype(1)), (0, 2, F(3))])
    assert not s.exact and s._m.tolist() == [[0, 1.5, 2.5], [1.5, 0, 1], [2.5, 1, 0]]
    a[0, 1] = np.inf
    with pytest.raises(AxiomViolation, match=r"^d\(0,1\) = inf is not a finite number$"):
        build_from_matrix(a)


def test_float_overflowing_rational_is_refused_on_float_space():
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix([[0, 1.5], [F(10 ** 400), 0]])
    assert ei.value.witness == (1, 0)


def test_non_finite_points_are_refused():
    with pytest.raises(AxiomViolation, match=r"^d\(0,1\) = nan is not a finite number$"):
        build_from_points([(0.0, 0.0), (math.nan, 1.0)])
    with pytest.raises(AxiomViolation) as ei:  # the distance of (2, 3) overflows
        build_from_points([(0.0, 0.0), (1.0, 0.0), (1e308, 1e308), (-1e308, -1e308)])
    assert ei.value.witness == (2, 3)
    assert str(ei.value) == "d(2,3) = inf is not a finite number"


def test_empty_and_ragged_spaces_are_refused():
    with pytest.raises(MetricError, match=r"^a metric space needs at least one point$"):
        FiniteMetricSpace(())
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix([[0, 1], [1]])
    assert (str(ei.value), ei.value.witness) == ("row 1 has length 1, expected 2", (1,))
    with pytest.raises(MetricError, match=r"^empty point cloud$"):
        build_from_points([])


@pytest.mark.parametrize("v", [None, 1j, object()])
def test_a_non_number_beside_a_float_entry_is_refused(v):
    """The float path reads what numpy refuses one entry at a time, as NaN."""
    assert math.isnan(metric._as_float(v))
    with pytest.raises(AxiomViolation) as ei:
        build_from_matrix([[0.0, 1.0], [v, 0.0]])
    assert (str(ei.value), ei.value.witness) == (f"d(1,0) = {v} is not a finite number",
                                                 (1, 0))


@pytest.mark.parametrize("w", [math.inf, math.nan, -math.inf, "1", True, np.True_])
def test_non_finite_edge_weight_is_refused(w):
    with pytest.raises(AxiomViolation) as ei:
        build_from_graph([(0, 1, 1), (1, 2, w)])
    assert ei.value.witness == (1, 2)
    assert "on edge (1,2) is not a finite number" in str(ei.value)


# ---------------------------------------------------------------------------
# Distance to a set and neighborhoods


def test_set_distance_member_is_zero():
    s = build_segment_sample(11)
    assert oracles.set_distance(s, 4, frozenset({4, 9})) == 0


def test_set_distance_minimum():
    s = build_segment_sample(11)
    # x = 0.0 against A = {0.5, 0.7}
    assert oracles.set_distance(s, 0, frozenset({5, 7})) == F(1, 2)


def test_set_distance_empty_is_infinity():
    s = build_segment_sample(11)
    assert oracles.set_distance(s, 0, frozenset()) == INFINITY


def test_neighborhood_empty_maps_to_empty():
    s = build_segment_sample(11)
    assert neighborhood(s, frozenset(), F(1, 2)) == frozenset()


def test_neighborhood_strict_inequality():
    s = build_segment_sample(11)
    assert neighborhood(s, frozenset({5}), F(15, 100)) == frozenset({4, 5, 6})


def test_neighborhood_whole_space_absorbs():
    s = build_segment_sample(11)
    assert neighborhood(s, frozenset(range(s.n)), F(1, 100)) == frozenset(range(s.n))


def test_neighborhood_rejects_nonpositive_radius():
    s = build_segment_sample(11)
    with pytest.raises(MetricError):
        neighborhood(s, frozenset({0}), 0)


def test_balls_discrete():
    s = build_discrete(4)
    assert open_ball(s, 2, 1) == frozenset({2})
    assert closed_ball(s, 2, 1) == frozenset(range(s.n))


def test_balls_segment():
    s = build_segment_sample(11)
    assert open_ball(s, 5, F(1, 10)) == frozenset({5})
    assert closed_ball(s, 5, F(1, 10)) == frozenset({4, 5, 6})
    assert neighborhood(s, frozenset({5}), F(1, 10)) == oracles.open_ball(s, 5, F(1, 10))


def test_closed_ball_with_radius_at_least_diameter():
    s = build_segment_sample(11)
    assert closed_ball(s, 3, 1) == frozenset(range(s.n))


@pytest.mark.parametrize("bad", [-1, -5, 5, 99])
def test_out_of_range_point_index_is_refused(bad):
    # a negative index used to wrap around to the last points
    s = build_segment_sample(5)
    r = F(1, 2)
    calls = [
        lambda: open_ball(s, bad, r),
        lambda: closed_ball(s, bad, r),
        lambda: open_balls(s, bad, [r, 1]),
        lambda: neighborhood(s, frozenset({bad}), r),
        lambda: neighborhood(s, frozenset({0, bad}), r),
        lambda: oracles.set_distance(s, bad, frozenset({0})),
        lambda: oracles.set_distance(s, 0, frozenset({bad})),
        lambda: oracles.set_distance(s, bad, frozenset()),
    ]
    for call in calls:
        with pytest.raises(MetricError, match="point index out of range"):
            call()


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("space", [build_segment_sample(5),
                                   build_from_points([(0, 0), (1, 0), (0, 2)])],
                         ids=["exact", "float"])
def test_non_finite_radius_is_refused(space, r):
    calls = [
        lambda: open_ball(space, 0, r),
        lambda: closed_ball(space, 0, r),
        lambda: open_balls(space, 0, [F(1, 2), r]),
        lambda: neighborhood(space, frozenset({0, 1}), r),
        lambda: first_meeting(space, [F(1, 2), r]),
    ]
    for call in calls:
        with pytest.raises(MetricError, match=f"radius must be a finite number, got {r}"):
            call()


@pytest.mark.parametrize("space", [build_segment_sample(5),
                                   build_from_points([(0, 0), (1, 0), (0, 2)])],
                         ids=["exact", "float"])
def test_a_bad_radius_and_a_bad_point_are_refused_in_order(space):
    """Given both, a ball refuses its point first; a neighbourhood refuses
    its radius first, also for the empty set, which has no point."""
    for r in (0, -1, math.inf):
        for bad in (-1, space.n):
            for call in (lambda: open_ball(space, bad, r), lambda: closed_ball(space, bad, r),
                         lambda: open_balls(space, bad, [F(1, 2), r])):
                with pytest.raises(MetricError, match="^point index out of range$"):
                    call()
            for a in (frozenset({bad}), frozenset({0, bad}), frozenset()):
                with pytest.raises(MetricError, match="^radius must be "):
                    neighborhood(space, a, r)


@pytest.mark.parametrize("r", [F(10 ** 400), 10 ** 400], ids=["fraction", "int"])
def test_radius_past_the_floats_covers_a_float_space(r):
    """A finite radius that no float holds is a ball of every point."""
    s = build_from_points([(0, 0), (1, 0), (0, 2)])
    whole = frozenset(range(s.n))
    assert open_ball(s, 0, r) == closed_ball(s, 2, r) == whole
    assert open_balls(s, 1, [F(1, 2), r]) == (frozenset({1}), whole)
    assert neighborhood(s, frozenset({0}), r) == whole
    meets = first_meeting(s, [F(1, 2), r])
    assert meets.tolist() == [[0 if x == y else 1 for y in range(3)] for x in range(3)]


# ---------------------------------------------------------------------------
# Conditions


def test_condition1_reports_hold():
    for s in (build_discrete(10), build_segment_sample(11)):
        rep = check_condition1(s)
        assert rep["holds"]


def test_condition2_two_point_defect():
    s = build_from_matrix([[0, 1], [1, 0]])
    assert condition2_defect(s, 0, 1) == 1
    assert oracles.brute_force_condition2_defect(s, 0, 1) == 1


def test_condition2_same_point_convention():
    s = build_discrete(5)
    assert repr(condition2_defect(s, 3, 3)) == repr(F(0))  # the kernel's 0, over the scale 1


def test_condition2_segment_sample_defect_small():
    s = oracles.segment_sample_cached(101)
    eps = F(1, 100)
    worst = max(condition2_defect(s, i, j)
                for i in range(0, 101, 7) for j in range(0, 101, 11) if i != j)
    assert worst <= 2 * eps


def test_condition2_closed_form_matches_brute_force():
    rng = random.Random(7)
    for _ in range(10):
        s = oracles.random_graph_space(rng, 6)
        for x in range(s.n):
            for y in range(x + 1, s.n):
                assert condition2_defect(s, x, y) == \
                    oracles.brute_force_condition2_defect(s, x, y)


def test_condition2_closed_form_on_tolerance_backends():
    rng = random.Random(9)
    for _ in range(5):
        s = oracles.random_point_space(rng, 5)
        tol = oracles.defect_oracle_resolution(s)
        for x in range(s.n):
            for y in range(x + 1, s.n):
                got = condition2_defect(s, x, y)
                want = oracles.brute_force_condition2_defect(s, x, y)
                assert abs(got - want) <= tol


def test_condition2_collinear_triple():
    # evenly spaced points on a line: r = s = d works, defect = d exactly
    s = build_from_points([(0,), (1,), (2,)])
    assert condition2_defect(s, 0, 2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Semigroup property


def test_semigroup_segment_grid_aligned_radii():
    # radii aligned with the sample spacing lose one boundary point per hop
    s = oracles.segment_sample_cached(101)
    a = frozenset({50})
    lhs, rhs = oracles.semigroup_defect(s, a, F(1, 10), F(1, 10))
    assert lhs <= rhs
    assert rhs - lhs <= {31, 69}  # only the outermost sample points differ


def test_semigroup_segment_half_offset_radii_exact():
    # fractional offsets w.r.t. the spacing summing to <= 1 give exact equality
    s = oracles.segment_sample_cached(101)
    a = frozenset({50})
    step = F(1, 100)
    for r, t in [(F(21, 2) * step, F(19, 2) * step),
                 (F(5, 2) * step, F(7, 2) * step)]:
        lhs, rhs = oracles.semigroup_defect(s, a, r, t)
        assert lhs == rhs


def test_semigroup_path_graph_strict_inclusion():
    s = build_from_graph([(0, 1, 1), (1, 2, 1)])
    lhs, rhs = oracles.semigroup_defect(s, frozenset({0}), F(6, 10), F(6, 10))
    assert lhs == frozenset({0})
    assert rhs == frozenset({0, 1})
    assert lhs < rhs  # strict: the separation property fails on this graph


def test_semigroup_whole_space():
    s = build_discrete(5)
    lhs, rhs = oracles.semigroup_defect(s, frozenset(range(s.n)), F(1, 2), F(1, 2))
    assert lhs == rhs == frozenset(range(s.n))


def test_semigroup_rejects_bad_input():
    s = build_discrete(3)
    with pytest.raises(MetricError):
        oracles.semigroup_defect(s, frozenset({0}), 0, 1)
    with pytest.raises(MetricError):
        oracles.semigroup_defect(s, frozenset(), 1, 1)


# ---------------------------------------------------------------------------
# Wave distance between points


def test_wave_distance_discrete_doubles():
    s = build_discrete(5)
    assert oracles.wave_distance_points(s, 0, 3) == 2
    assert oracles.wave_distance_points(s, 2, 2) == 0


def test_wave_distance_path_graph():
    s = build_from_graph([(0, 1, 1), (1, 2, 1)])
    assert oracles.wave_distance_points(s, 0, 2) == 2 == s.d(0, 2)
    assert oracles.wave_distance_points(s, 0, 1) == 2 != s.d(0, 1)


@pytest.mark.parametrize("space, unit", [
    (build_from_graph([(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 4, 4)]), int),
    (build_from_points([[0], [3], [4], [8], [12]]), float),
], ids=["path-graph", "points"])
def test_wave_distance_breaks_a_triangle(space, unit):
    """The smallest known case where tau is no metric: on the points
    {0, 3, 4, 8, 12}, and on the path graph of their gaps 3, 1, 4, 4,
    tau(0, 4) = 16 > tau(0, 2) + tau(2, 4) = 6 + 8."""
    tau = wave_distance_matrix(space)
    assert [(tau[x][y], type(tau[x][y])) for x, y in ((0, 4), (0, 2), (2, 4))] == [
        (16, unit), (6, unit), (8, unit)]
    assert tau[0][4] > tau[0][2] + tau[2][4]


def test_wave_distance_matches_brute_force_scan():
    rng = random.Random(11)
    for _ in range(5):
        s = oracles.random_space(rng, 5)
        for x in range(s.n):
            for y in range(s.n):
                tau = oracles.wave_distance_points(s, x, y)
                scanned, step = oracles.brute_force_tau(s, x, y)
                assert abs(scanned - tau) <= step


def test_wave_distance_dominates_d():
    rng = random.Random(13)
    for _ in range(10):
        s = oracles.random_space(rng, 6)
        for x in range(s.n):
            for y in range(s.n):
                tau = oracles.wave_distance_points(s, x, y)
                assert tau == oracles.wave_distance_points(s, y, x)
                assert tau >= s.d(x, y) - 2 * s.eta


# ---------------------------------------------------------------------------
# Property suites (seeded random instances)


def test_metric_axioms_on_random_backends():
    rng = random.Random(17)
    for _ in range(100):
        oracles.assert_metric_axioms(oracles.random_space(rng, rng.randint(2, 6)))


def test_neighborhood_monotone_in_set_and_radius():
    rng = random.Random(19)
    s = build_segment_sample(21)
    for _ in range(100):
        a = oracles.random_subset(rng, s.n)
        b = a | oracles.random_subset(rng, s.n)
        t = F(rng.randint(1, 40), 40)
        u = t + F(rng.randint(0, 20), 40)
        assert neighborhood(s, a, t) <= neighborhood(s, b, t)
        assert neighborhood(s, a, t) <= neighborhood(s, a, u)
        if a:
            assert a <= neighborhood(s, a, t)


def test_disjointness_equivalence():
    rng = random.Random(23)
    for _ in range(100):
        s = oracles.random_space(rng, rng.randint(2, 6))
        a = oracles.random_subset(rng, s.n)
        b = oracles.random_subset(rng, s.n)
        t = F(rng.randint(1, 50), 10)
        lhs_empty = not (a & neighborhood(s, b, t))
        rhs_empty = not (neighborhood(s, a, t) & b)
        assert lhs_empty == rhs_empty


def test_semigroup_inclusion_always_holds():
    rng = random.Random(29)
    for _ in range(100):
        s = oracles.random_space(rng, rng.randint(2, 6))
        a = oracles.random_subset(rng, s.n, allow_empty=False)
        r = F(rng.randint(1, 30), 10)
        t = F(rng.randint(1, 30), 10)
        lhs, rhs = oracles.semigroup_defect(s, a, r, t)
        assert lhs <= rhs
