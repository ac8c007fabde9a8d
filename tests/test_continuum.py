"""Samples of a compact subset of the line against the continuum closed forms.

Omega = [0, 1] u [2, 3] u [7/2, 4] with d = |x - y| is no interval, so its
wave distance tau_Omega and its separation defect are not d and 0
(``oracles.line_tau``, ``oracles.line_defect``).  A sample that holds both
ends of every component, with steps h, has tau and defects within h of
them, and tau never below tau_Omega.
"""

from fractions import Fraction

import pytest

from wavemodel import build_from_matrix, condition2_report, wave_distance_matrix

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
