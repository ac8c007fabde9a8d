"""Property tests of the paper's invariants on small random spaces.

Spaces come from hypothesis-driven generators: non-geodesic rational
metrics (``oracles.random_rational_metric``), rational-weight graphs,
Euclidean point clouds and the discrete metric.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import (
    build_discrete,
    build_from_matrix,
    condition2_report,
    wave_distance_matrix,
)
import oracles

SMALL = st.integers(1, 8)

rational_metrics = st.builds(
    lambda rng, n: build_from_matrix(oracles.random_rational_metric(rng, n)),
    st.randoms(use_true_random=False), SMALL)
discrete = st.builds(build_discrete, st.integers(1, 12))
spaces = st.one_of(
    rational_metrics,
    discrete,
    st.builds(oracles.random_graph_space, st.randoms(use_true_random=False), SMALL),
    st.builds(oracles.random_point_space, st.randoms(use_true_random=False), SMALL),
)

PROPERTY = settings(max_examples=80, deadline=None)


def pairs(space):
    return [(x, y) for x in range(space.n) for y in range(space.n)]


@PROPERTY
@given(spaces)
def test_tau_is_symmetric_with_zero_diagonal_and_between_d_and_2d(space):
    tau = wave_distance_matrix(space)
    for x, y in pairs(space):
        assert tau[x][y] == tau[y][x]
        assert space.d(x, y) <= tau[x][y] <= 2 * space.d(x, y)
    assert all(tau[x][x] == 0 for x in range(space.n))


@PROPERTY
@given(discrete)
def test_tau_is_twice_d_on_the_discrete_metric(space):
    tau = wave_distance_matrix(space)
    assert all(tau[x][y] == 2 * space.d(x, y) for x, y in pairs(space))


@PROPERTY
@given(spaces)
def test_separation_bounds_the_excess_of_tau_over_d(space):
    """tau - d <= defect at every pair: the balls of radius tau/2 about x
    and y are disjoint, so r = s = tau/2 is admissible in the defect's sup.
    Hence a max defect <= 0 forces tau = d (on a finite space with two or
    more points the closest pair always has a positive defect)."""
    tau = wave_distance_matrix(space)
    report = condition2_report(space)
    defects = report["defects"]
    for x, y in pairs(space):
        assert tau[x][y] - space.d(x, y) <= defects[x][y]
    if report["max_defect"] <= 0:
        assert all(tau[x][y] == space.d(x, y) for x, y in pairs(space))


@PROPERTY
@given(spaces)
def test_defect_matrix_equals_the_scalar_defect(space):
    defects = condition2_report(space)["defects"]
    assert all(defects[x][y] == oracles.condition2_defect(space, x, y) for x, y in pairs(space))
    # every generated space is exactly symmetric, and then so is the defect
    assert all(space.d(x, y) == space.d(y, x) for x, y in pairs(space))
    assert all(defects[x][y] == defects[y][x] for x, y in pairs(space))
