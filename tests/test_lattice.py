import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavemodel import (
    GridError,
    MetricError,
    NetError,
    TimeGrid,
    build_discrete,
    build_from_graph,
    build_from_matrix,
    build_segment_sample,
    default_grid,
    make_grid,
    wave_model,
)
from wavemodel.lattice import (
    DecreasingNet,
    LatticeFunction,
    b_star_lower,
    b_star_upper,
    check_grid_admissible,
    isotony_apply,
    net_limit,
    nucleus,
    sandwich_check,
    wave_distance_classes,
)
from wavemodel.metric import (
    INFINITY,
    closed_ball,
    neighborhood,
    open_ball,
)

import oracles

F = Fraction


def fine_grid(space, count=12):
    return default_grid(space, count)


# ---------------------------------------------------------------------------
# Grids


def test_time_grid_validation():
    TimeGrid((F(1, 4), F(1, 2), F(1)))
    with pytest.raises(GridError):
        TimeGrid((F(1, 2),))
    with pytest.raises(GridError):
        TimeGrid((F(0), F(1)))
    with pytest.raises(GridError):
        TimeGrid((F(1, 2), F(1, 2)))


@pytest.mark.parametrize("values, message", [
    ((math.nan, 0.5, 1.0), "positive"),
    ((0.25, math.nan, 1.0), "strictly increasing"),
    ((0.25, 0.5, math.nan), "strictly increasing"),
])
def test_time_grid_refuses_nan(values, message):
    with pytest.raises(GridError, match=f"^grid values must be {message}$"):
        TimeGrid(values)


@pytest.mark.parametrize("values, message", [
    ((F(1, 4), math.inf), "finite"),
    ((0.25, 0.5, math.inf), "finite"),
    ((0.25, math.inf, math.inf), "strictly increasing"),
    ((math.inf, math.inf), "strictly increasing"),
])
def test_time_grid_refuses_inf(values, message):
    with pytest.raises(GridError, match=f"^grid values must be {message}$"):
        TimeGrid(values)


def test_make_grid_laws():
    lin = make_grid(F(1, 10), F(1), 10, "linear")
    assert lin.values[0] == F(1, 10) and lin.values[-1] == F(1)
    geo = make_grid(F(1, 10), F(1), 10, "geometric")
    assert geo.values[0] == F(1, 10) and geo.values[-1] == F(1)
    assert all(b > a for a, b in zip(geo.values, geo.values[1:]))
    with pytest.raises(GridError):
        make_grid(F(1), F(1, 2), 4)
    with pytest.raises(GridError):
        make_grid(F(1, 10), F(1), 10, "sorted")


@pytest.mark.parametrize("law", ["linear", "geometric"])
def test_make_grid_refuses_a_single_value(law):
    with pytest.raises(GridError, match=r"^count must be >= 2$"):
        make_grid(F(1, 10), F(1), 1, law)


def test_default_grid_is_admissible():
    for s in (build_discrete(5), build_segment_sample(21)):
        check_grid_admissible(s, default_grid(s))


def test_grid_admissibility_refusals():
    s = build_segment_sample(11)
    with pytest.raises(GridError):
        check_grid_admissible(s, make_grid(F(1, 2), F(3), 4))  # lo too large
    with pytest.raises(GridError):
        check_grid_admissible(s, make_grid(F(1, 100), F(1, 2), 4))  # hi too small


def geometric_values(lo, hi, count):
    """``make_grid``'s geometric law written out value by value: the ends
    as given, each interior value the ``Fraction`` of ``float(lo) * ratio^k``."""
    ratio = (float(hi) / float(lo)) ** (1.0 / (count - 1))
    return (F(lo), *(F(float(lo) * ratio ** k) for k in range(1, count - 1)), F(hi))


POSITIVE = st.fractions(min_value=F(1, 10 ** 12), max_value=10 ** 12).filter(lambda v: v > 0)
#: hi - lo from about 1e-18 (interior floats that collide) up to 1e12
GAPS = st.builds(lambda m, e: m * F(10) ** -e, st.integers(1, 999), st.integers(-9, 21))


@settings(max_examples=300, deadline=None)
@given(POSITIVE, GAPS, st.integers(2, 80))
@example(F(1, 3), F(1, 10 ** 18), 40)  # interior floats that collide: refused
@example(F(10 ** 12), F(1, 10 ** 9), 3)
def test_geometric_grid_values_follow_the_law(lo, gap, count):
    """The values equal the law's in value and type (all ``Fraction``s), and
    a grid whose values do not increase is refused with the public
    constructor's message."""
    hi = lo + gap
    want = geometric_values(lo, hi, count)
    try:
        TimeGrid(want)
    except GridError as exc:
        with pytest.raises(GridError) as ei:
            make_grid(lo, hi, count)
        assert str(ei.value) == str(exc)
        return
    grid = make_grid(lo, hi, count)
    assert grid.values == want and all(type(v) is F for v in grid.values)
    assert len(grid) == count and list(grid) == list(want)


def test_time_grid_keeps_its_given_values_and_one_field():
    assert [f.name for f in dataclasses.fields(TimeGrid)] == ["values"]
    for values in ((F(1, 4), F(1, 2)), (1, 2, 5), (0.25, 0.5)):
        grid = TimeGrid(values)
        assert grid.values is values and list(grid) == list(values)


def test_brackets_of_a_given_int_grid_stay_ints():
    """A bracket end is 2 t of the value as given: int grid values give ints."""
    s = build_discrete(3)
    res = wave_model(s, TimeGrid((F(1, 4), 1, 3)), include_brackets=True)
    assert res.brackets[0][1] == (2, 6) and type(res.brackets[0][1][0]) is int


# ---------------------------------------------------------------------------
# Isotony


def test_isotony_of_empty_set_is_bottom():
    s = build_segment_sample(11)
    g = isotony_apply(s, frozenset(), fine_grid(s))
    assert all(v == frozenset() for v in g.sets)


def test_isotony_of_whole_space_is_top():
    s = build_segment_sample(11)
    g = isotony_apply(s, frozenset(range(s.n)), fine_grid(s))
    assert all(v == frozenset(range(s.n)) for v in g.sets)


def test_isotony_segment_example():
    s = build_segment_sample(11)
    grid = TimeGrid((F(15, 100), F(25, 100)))
    g = isotony_apply(s, frozenset({5}), grid)
    assert g.sets[0] == frozenset({4, 5, 6})
    assert g.sets[1] == frozenset({3, 4, 5, 6, 7})


def test_isotony_preserves_order():
    rng = random.Random(31)
    s = build_segment_sample(13)
    grid = fine_grid(s)
    for _ in range(50):
        g = oracles.random_subset(rng, s.n)
        h = g | oracles.random_subset(rng, s.n)
        assert oracles.isotony_monotone_check(s, g, h, grid)
        assert oracles.isotony_monotone_check(s, g, g, grid)
        # unrelated pairs: vacuously true
        assert oracles.isotony_monotone_check(s, oracles.random_subset(rng, s.n),
                                              oracles.random_subset(rng, s.n), grid)


def test_lattice_function_must_be_monotone():
    grid = TimeGrid((F(1, 4), F(1, 2)))
    with pytest.raises(NetError):
        LatticeFunction(grid, (frozenset({1}), frozenset()))


def test_lattice_function_takes_one_set_per_grid_value():
    grid = TimeGrid((F(1, 2), F(1)))
    g = LatticeFunction(grid, (frozenset({0}), frozenset({0, 1})))
    assert (g(0), g(1)) == (frozenset({0}), frozenset({0, 1}))
    for sets in ((frozenset({0}),), (frozenset(),) * 3):
        with pytest.raises(GridError, match=r"^one set per grid value required$"):
            LatticeFunction(grid, sets)


# ---------------------------------------------------------------------------
# Net limits


def test_nets_refuse_an_empty_chain_and_a_nonpositive_eps0():
    with pytest.raises(NetError, match=r"^empty chain$"):
        DecreasingNet.from_chain([])
    for eps0 in (0, F(-1, 2)):
        with pytest.raises(NetError, match=r"^eps0 must be positive$"):
            DecreasingNet.from_family(lambda e: frozenset(), eps0=eps0)


def test_net_limit_of_constant_net_is_isotony_image():
    s = build_segment_sample(11)
    grid = fine_grid(s)
    g = frozenset({3, 4})
    net = DecreasingNet.from_chain([g, g, g])
    assert net_limit(s, net, grid).sets == isotony_apply(s, g, grid).sets


def test_net_limit_shrinking_balls_matches_enumeration():
    s = oracles.segment_sample_cached(101)
    grid = TimeGrid((F(5, 1000), F(105, 1000), F(255, 1000), F(1, 2)))
    x = 50
    net = DecreasingNet.from_family(lambda e: open_ball(s, x, e), eps0=F(1, 5))
    g = net_limit(s, net, grid)
    # independent enumeration at the sampled eps schedule
    eps_list = [F(1, 5) / 2 ** k for k in range(10)]
    for i, t in enumerate(grid):
        expect = None
        for e in eps_list:
            nb = oracles.neighborhood(s, oracles.open_ball(s, x, e), t)
            expect = nb if expect is None else expect & nb
        assert g.sets[i] == expect


def test_net_limit_below_every_member():
    rng = random.Random(37)
    s = build_segment_sample(21)
    grid = fine_grid(s)
    for _ in range(30):
        chain = oracles.random_decreasing_chain(rng, s.n)
        net = DecreasingNet.from_chain(chain)
        g = net_limit(s, net, grid)
        for member in chain:
            assert oracles.leq(g, isotony_apply(s, member, grid))


@pytest.mark.parametrize("bad", [-1, 11, 99])
def test_net_limit_refuses_out_of_range_members(bad):
    s = build_segment_sample(11)
    net = DecreasingNet.from_chain([frozenset({0, bad}), frozenset({0})])
    with pytest.raises(MetricError, match="point index out of range"):
        net_limit(s, net, fine_grid(s))


def test_net_limit_rejects_non_decreasing():
    s = build_segment_sample(11)
    with pytest.raises(NetError):
        DecreasingNet.from_chain([frozenset({1}), frozenset({1, 2})])
    calls = []

    def wandering(eps):
        calls.append(eps)
        return frozenset({len(calls) % s.n})

    with pytest.raises(NetError):
        net_limit(s, DecreasingNet.from_family(wandering), fine_grid(s))


def test_net_limit_reports_non_stabilizing_family():
    s = build_discrete(100)

    def family(eps):
        # strictly shrinks at every halving for more than the step budget
        k = 0
        e = Fraction(1)
        while e > eps:
            e /= 2
            k += 1
        return frozenset(range(min(k, 99), 100))

    with pytest.raises(NetError, match="stabilize"):
        net_limit(s, DecreasingNet.from_family(family), fine_grid(s))


def test_from_family_refuses_a_growing_or_unstable_family_when_built():
    """The family is sampled when the net is built, so ``from_family``
    raises before any space or grid is read."""
    def growing(eps):
        return frozenset(range(int(1 / eps)))  # {0}, then {0, 1}, ...

    with pytest.raises(NetError, match=r"^family is not decreasing at eps=1/2$"):
        DecreasingNet.from_family(growing)
    calls = []

    def shrinking(eps):
        calls.append(eps)
        return frozenset(range(len(calls), 100))  # a new set at every halving

    with pytest.raises(NetError, match=r"^family did not stabilize within 64 halvings$"):
        DecreasingNet.from_family(shrinking, eps0=F(3))
    assert calls == [F(3, 2 ** k) for k in range(64)]
    net = DecreasingNet.from_family(lambda e: frozenset({0}) if e < 1 else frozenset({0, 1}))
    assert net.chain == (frozenset({0, 1}), frozenset({0}), frozenset({0}))


def test_grid_wide_reads_refuse_a_bad_point_and_a_bad_grid_value_in_order():
    """b_star_lower and b_star_upper refuse the point before the grid, as
    the balls do; isotony_apply and sandwich_check refuse the grid values
    before the points, as neighborhood does."""
    s = build_segment_sample(5)
    grid = object.__new__(TimeGrid)  # a grid TimeGrid refuses: its last value is inf
    object.__setattr__(grid, "values", (F(1, 2), math.inf))
    for bad in (-1, s.n):
        for fn in (b_star_lower, b_star_upper):
            with pytest.raises(MetricError, match="^point index out of range$"):
                fn(s, bad, grid)
        with pytest.raises(MetricError, match="^radius must be a finite number, got inf$"):
            isotony_apply(s, frozenset({0, bad}), grid)
        g = LatticeFunction(grid, (frozenset({bad}),) * 2)
        with pytest.raises(MetricError, match="^radius must be a finite number, got inf$"):
            sandwich_check(s, g)
        with pytest.raises(MetricError, match="^point index out of range$"):
            sandwich_check(s, LatticeFunction(fine_grid(s), (frozenset({bad}),) * 12))


# ---------------------------------------------------------------------------
# Nucleus and the sandwich bound


def test_nucleus_of_point_isotony_image():
    s = build_segment_sample(11)
    g = isotony_apply(s, frozenset({4}), fine_grid(s))
    assert nucleus(g) == frozenset({4})


def test_nucleus_of_constant_functions():
    s = build_segment_sample(11)
    grid = fine_grid(s)
    assert nucleus(isotony_apply(s, frozenset(range(s.n)), grid)) == frozenset(range(s.n))
    assert nucleus(isotony_apply(s, frozenset(), grid)) == frozenset()


def test_nucleus_with_and_without_closures_agree():
    # discrete topology: closure is the identity, so both readings coincide
    rng = random.Random(43)
    s = build_segment_sample(21)
    grid = fine_grid(s)
    for _ in range(30):
        chain = oracles.random_decreasing_chain(rng, s.n)
        g = net_limit(s, DecreasingNet.from_chain(chain), grid)
        direct = g.sets[0]
        for v in g.sets:
            direct = direct & v
        assert nucleus(g) == direct


def test_sandwich_constant_ball_net():
    s = build_segment_sample(21)
    grid = fine_grid(s)
    ball = open_ball(s, 10, F(1, 10))
    g = net_limit(s, DecreasingNet.from_chain([ball]), grid)
    assert all(r.lower_ok and r.upper_ok for r in sandwich_check(s, g))


def test_sandwich_empty_function():
    s = build_segment_sample(11)
    grid = fine_grid(s)
    g = isotony_apply(s, frozenset(), grid)
    assert all(r.lower_ok and r.upper_ok for r in sandwich_check(s, g))


def test_sandwich_random_isotony_images():
    rng = random.Random(47)
    s = build_segment_sample(21)
    grid = fine_grid(s)
    for _ in range(30):
        g0 = oracles.random_subset(rng, s.n)
        g = isotony_apply(s, g0, grid)
        assert all(r.lower_ok and r.upper_ok for r in sandwich_check(s, g))
        assert nucleus(g) == g0  # closure(G) = G in the discrete topology


def test_nonempty_nets_have_nonempty_nucleus():
    rng = random.Random(53)
    s = build_segment_sample(21)
    grid = fine_grid(s)
    for _ in range(30):
        chain = oracles.random_decreasing_chain(rng, s.n, keep_nonempty=True)
        g = net_limit(s, DecreasingNet.from_chain(chain), grid)
        assert nucleus(g) != frozenset()


# ---------------------------------------------------------------------------
# Closed forms of nucleus and net_limit against the full intersections


def _oracle_spaces(rng):
    return [build_segment_sample(13), build_discrete(7),
            oracles.random_graph_space(rng, 9), oracles.random_point_space(rng, 9)]


def test_net_limit_closed_form_on_random_chains():
    rng = random.Random(59)
    for s in _oracle_spaces(rng):
        grid = fine_grid(s)
        for _ in range(25):
            net = DecreasingNet.from_chain(oracles.random_decreasing_chain(rng, s.n))
            g = net_limit(s, net, grid)
            assert g == oracles.intersection_net_limit(s, net, grid)
            assert nucleus(g) == oracles.intersection_nucleus(g)


def test_net_limit_closed_form_chain_ending_empty():
    rng = random.Random(61)
    for s in _oracle_spaces(rng):
        grid = fine_grid(s)
        chain = [*oracles.random_decreasing_chain(rng, s.n, keep_nonempty=True),
                 frozenset()]
        net = DecreasingNet.from_chain(chain)
        g = net_limit(s, net, grid)
        assert g == oracles.intersection_net_limit(s, net, grid)
        assert all(v == frozenset() for v in g.sets)
        assert nucleus(g) == oracles.intersection_nucleus(g) == frozenset()


def test_net_limit_closed_form_on_stabilizing_families():
    rng = random.Random(67)
    for s in _oracle_spaces(rng):
        grid = fine_grid(s)
        eps0 = F(s.diameter())
        for _ in range(5):
            x = rng.randrange(s.n)
            core = oracles.random_subset(rng, s.n, allow_empty=False)
            for family in (lambda e: open_ball(s, x, e),
                           lambda e: closed_ball(s, x, e),
                           lambda e: neighborhood(s, core, e)):
                net = DecreasingNet.from_family(family, eps0=eps0)
                g = net_limit(s, net, grid)
                assert g == oracles.intersection_net_limit(s, net, grid)
                assert nucleus(g) == oracles.intersection_nucleus(g)


def test_nucleus_closed_form_on_random_monotone_functions():
    rng = random.Random(71)
    for s in _oracle_spaces(rng):
        grid = fine_grid(s)
        for _ in range(25):
            # a random increasing chain of sets, one per grid value
            cur, sets = set(oracles.random_subset(rng, s.n)), []
            for _t in grid:
                cur |= {p for p in range(s.n) if rng.random() < 0.1}
                sets.append(frozenset(cur))
            g = LatticeFunction(grid, tuple(sets))
            assert nucleus(g) == oracles.intersection_nucleus(g)
        for x in range(s.n):
            for g in (b_star_lower(s, x, grid), b_star_upper(s, x, grid)):
                assert nucleus(g) == oracles.intersection_nucleus(g)


# ---------------------------------------------------------------------------
# b_* and b^*


def test_b_star_discrete():
    s = build_discrete(4)
    grid = TimeGrid((F(1, 4), F(1), F(3, 2)))
    lower = b_star_lower(s, 1, grid)
    upper = b_star_upper(s, 1, grid)
    assert lower.sets[1] == frozenset({1})       # open unit ball
    assert upper.sets[1] == frozenset(range(s.n))         # closed unit ball
    assert oracles.leq(lower, upper)


def test_b_star_nuclei_are_singletons():
    for s in (build_discrete(6), build_segment_sample(21),
              build_from_graph([(0, 1, 2), (1, 2, 1), (2, 3, 3)])):
        grid = default_grid(s)
        for x in range(s.n):
            assert nucleus(b_star_lower(s, x, grid)) == frozenset({x})
            assert nucleus(b_star_upper(s, x, grid)) == frozenset({x})


def test_b_star_segment_chains_nested():
    s = build_segment_sample(11)
    grid = TimeGrid((F(1, 10), F(2, 10)))
    lower = b_star_lower(s, 5, grid)
    assert lower.sets[0] < lower.sets[1]


# ---------------------------------------------------------------------------
# Classes and atoms


def test_b_star_representatives_equivalent():
    s = build_segment_sample(21)
    grid = default_grid(s)
    assert nucleus(b_star_lower(s, 7, grid)) == nucleus(b_star_upper(s, 7, grid))


def test_class_order_bottom_below_everything():
    s = build_segment_sample(11)
    grid = default_grid(s)
    bottom = isotony_apply(s, frozenset(), grid)
    rep = b_star_lower(s, 3, grid)
    assert nucleus(bottom) <= nucleus(rep)
    assert nucleus(bottom) != nucleus(rep)


def test_distinct_points_not_equivalent():
    s = build_segment_sample(11)
    grid = default_grid(s)
    assert nucleus(b_star_lower(s, 2, grid)) != nucleus(b_star_lower(s, 9, grid))


def test_is_atom():
    s = build_segment_sample(11)
    grid = default_grid(s)
    # atoms are the classes with a singleton nucleus; the empty nucleus is
    # the least class, not an atom
    assert len(nucleus(b_star_lower(s, 4, grid))) == 1
    assert len(nucleus(isotony_apply(s, frozenset(range(s.n)), grid))) != 1
    assert len(nucleus(isotony_apply(s, frozenset(), grid))) != 1


# ---------------------------------------------------------------------------
# Wave distance on the grid


def test_bracket_same_point_starts_at_zero():
    s = build_segment_sample(11)
    grid = default_grid(s)
    a = b_star_lower(s, 5, grid)
    lo, hi = wave_distance_classes(a, a)
    assert lo == 0


def test_bracket_discrete_straddles_two():
    s = build_discrete(5)
    grid = TimeGrid((F(1, 4), F(9, 10), F(11, 10), F(3)))
    lo, hi = wave_distance_classes(b_star_lower(s, 0, grid), b_star_lower(s, 3, grid))
    assert lo == 2 * F(9, 10) and hi == 2 * F(11, 10)
    assert lo <= 2 <= hi


def test_bracket_segment_quarter_points():
    s = oracles.segment_sample_cached(101)
    grid = default_grid(s)
    a = b_star_lower(s, 25, grid)
    b = b_star_lower(s, 75, grid)
    lo, hi = wave_distance_classes(a, b)
    assert lo <= F(1, 2) <= hi
    assert hi - lo < F(1, 10)


def test_bracket_never_intersecting_is_infinite():
    s = build_segment_sample(11)
    grid = TimeGrid((F(1, 100), F(2, 100)))  # far below d(0, 10) / 2
    lo, hi = wave_distance_classes(b_star_lower(s, 0, grid), b_star_lower(s, 10, grid))
    assert hi == INFINITY
    assert lo == 2 * F(2, 100)


def test_bracket_requires_common_grid():
    s = build_segment_sample(11)
    a = b_star_lower(s, 0, make_grid(F(1, 100), F(2), 4))
    b = b_star_lower(s, 1, make_grid(F(1, 100), F(2), 5))
    with pytest.raises(GridError):
        wave_distance_classes(a, b)


def test_bracket_contains_closed_form_and_is_representative_independent():
    rng = random.Random(59)
    spaces = [build_discrete(5), build_segment_sample(21),
              build_from_graph([(0, 1, 1), (1, 2, 1)])]
    for _ in range(5):
        spaces.append(oracles.random_graph_space(rng, 5))
    for s in spaces:
        grid = default_grid(s)
        for x in range(s.n):
            for y in range(x, s.n):
                low = wave_distance_classes(b_star_lower(s, x, grid),
                                            b_star_lower(s, y, grid))
                up = wave_distance_classes(b_star_upper(s, x, grid),
                                           b_star_upper(s, y, grid))
                assert low == up
                tau = oracles.wave_distance_points(s, x, y)
                assert low[0] <= tau <= low[1]


# ---------------------------------------------------------------------------
# Wave model


def test_wave_model_segment_sample():
    s = oracles.segment_sample_cached(101)
    res = wave_model(s, default_grid(s))
    assert res.max_abs_tau_minus_d <= F(2, 100)
    assert len(res.atoms) == s.n
    assert all(len(a) == 1 for a in res.atoms)
    assert abs(res.homothety_c - 1) < F(3, 100)


def test_wave_model_discrete_homothety():
    s = build_discrete(10)
    res = wave_model(s, default_grid(s))
    for i in range(10):
        for j in range(10):
            assert res.tau[i][j] == 2 * s.d(i, j)
    assert res.homothety_c == 2
    assert res.condition2["max_defect"] == 1


def test_wave_model_single_point():
    s = build_from_matrix([[0]])
    res = wave_model(s, make_grid(F(1, 4), F(1), 4))
    assert res.tau == [[0]]
    assert len(res.atoms) == 1


def test_wave_model_refuses_coarse_grid():
    s = build_segment_sample(11)
    with pytest.raises(GridError):
        wave_model(s, make_grid(F(1, 2), F(3), 8))


def test_wave_model_path_graph_flags_condition2():
    s = build_from_graph([(0, 1, 1), (1, 2, 1)])
    res = wave_model(s, default_grid(s))
    assert res.tau[0][1] == 2 and res.tau[0][2] == 2
    assert res.condition2["max_defect"] > 0
