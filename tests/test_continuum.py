"""Samples of a compact subset of the line against the continuum closed forms.

Omega = [0, 1] u [2, 3] u [7/2, 4] with d = |x - y| is no interval, so its
wave distance tau_Omega and its separation defect are not d and 0
(``oracles.line_tau``, ``oracles.line_defect``).  A sample that holds both
ends of every component, with steps h, has tau and defects within h of
them, and tau never below tau_Omega.  So does every sample of a random
rational union whose steps are at most h, one step per component.

The snowflake delta = |x - y|^(1/2) on [0, 1] has no midpoints: its wave
distance on the continuum is 2^(1/2) delta, a homothety, never the
isometry, and the homothety factor of its samples falls towards sqrt 2.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import build_from_matrix, condition2_report, metric, wave_distance_matrix

import oracles

F = Fraction
OMEGA = ((F(0), F(1)), (F(2), F(3)), (F(7, 2), F(4)))


@pytest.mark.parametrize("h,n", [(F(1, 2), 8), (F(1, 4), 13), (F(1, 8), 23),
                                 (F(1, 16), 43), (F(1, 32), 83)])
def test_sampled_union_of_intervals_is_within_its_step_of_the_continuum(h, n):
    """On the exact sample with step h the largest |tau - tau_Omega| and
    |defect - defect_Omega| are h exactly, and tau >= tau_Omega everywhere."""
    pts = oracles.line_sample(OMEGA, h)
    assert len(pts) == n
    space = build_from_matrix([[abs(p - q) for q in pts] for p in pts])
    tau = wave_distance_matrix(space)
    defects = condition2_report(space)["defects"]
    tau_gaps, defect_gaps = [], []
    for x, p in enumerate(pts):
        for y, q in enumerate(pts):
            if x != y:
                tau_gaps.append(tau[x][y] - oracles.line_tau(OMEGA, p, q))
                defect_gaps.append(abs(defects[x][y] - oracles.line_defect(OMEGA, p, q)))
    assert min(tau_gaps) >= 0
    assert max(tau_gaps) == max(defect_gaps) == h


def rationals(top: int):
    """Positive rationals p/q with p <= top and q <= 6."""
    return st.builds(F, st.integers(1, top), st.integers(1, 6))


@st.composite
def sampled_unions(draw):
    """(Omega, h, sample): one to four components [a, b] with rational ends
    and positive gaps, each sampled from a to b with its own step, at most h
    and dividing b - a; at most 40 points."""
    h = draw(rationals(4))
    start = draw(st.builds(F, st.integers(-6, 6), st.integers(1, 6)))
    omega, pts = [], []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(rationals(12))
        steps = math.ceil(length / h) + draw(st.integers(0, 2))
        if len(pts) + steps + 1 > 40:
            break
        omega.append((start, start + length))
        pts += [start + length * k / steps for k in range(steps + 1)]
        start += length + draw(rationals(12))
    if not omega:  # the first component alone, at one step
        omega, pts = [(start, start + h)], [start, start + h]
    return tuple(omega), h, pts


@settings(max_examples=60, deadline=None)
@given(sampled_unions())
def test_random_sampled_unions_are_within_their_step_of_the_continuum(union):
    """On every pair, 0 <= tau - tau_Omega <= h and 0 <= defect -
    defect_Omega <= h, in exact Fractions."""
    omega, h, pts = union
    space = build_from_matrix([[abs(p - q) for q in pts] for p in pts])
    tau = wave_distance_matrix(space)
    defects = condition2_report(space)["defects"]
    for x, p in enumerate(pts):
        for y, q in enumerate(pts):
            assert 0 <= tau[x][y] - oracles.line_tau(omega, p, q) <= h
            assert 0 <= defects[x][y] - oracles.line_defect(omega, p, q) <= h


def test_snowflake_homothety_falls_towards_sqrt_2():
    """delta = |x - y|^(1/2) on n = 2^k + 1 evenly spaced points of [0, 1],
    k = 3..8, as float matrices: the fitted c stays above sqrt 2, falls as n
    grows, and (c - sqrt 2)(n - 1) stays below 1.1 (0.85 at n = 9, 1.05 at
    n = 257), so c - sqrt 2 shrinks like 1/n."""
    fits = []
    for k in range(3, 9):
        n = 2 ** k + 1
        space = build_from_matrix([[math.sqrt(abs(i - j) / (n - 1)) for j in range(n)]
                                   for i in range(n)])
        c = metric.isometry_fit(space)[1]
        if k <= 4:  # the pair-by-pair reference, on the small samples
            assert c == oracles.isometry_fit(space)[1]
        fits.append((n, c))
    cs = [c for _, c in fits]
    assert all(c > math.sqrt(2) for c in cs)
    assert cs == sorted(cs, reverse=True) and len(set(cs)) == len(cs)
    assert all((c - math.sqrt(2)) * (n - 1) <= 1.1 for n, c in fits)
