"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with plain pytest; the verdict lines bypass output capture so they are
visible in the log even for passing runs.
"""

import random
import time
from fractions import Fraction

import pytest

from wavemodel import (
    build_discrete,
    build_from_matrix,
    build_from_points,
    default_grid,
    wave_model,
)
from wavemodel.interval1d import (
    AffineIntervalFamily,
    Interval,
    IntervalSet,
    iv_ball,
    iv_closure,
    iv_neighborhood,
    iv_net_limit,
)
from wavemodel.lattice import (
    DecreasingNet,
    b_star_lower,
    b_star_upper,
    net_limit,
    nucleus,
    sandwich_check,
    wave_distance_classes,
)
from wavemodel.metric import condition2_defect, neighborhood
from wavemodel.segment import segment_example

import oracles

F = Fraction


def verdict(capsys, num: int, desc: str, ok: bool):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_acceptance_1_segment_isometry(capsys):
    s = oracles.segment_sample_cached(101)
    t0 = time.perf_counter()
    res = wave_model(s, default_grid(s))
    elapsed = time.perf_counter() - t0
    ok = res.max_abs_tau_minus_d <= F(2, 100) and elapsed < 5.0
    verdict(capsys, 1,
            f"101-sample of [0,1]: max |tau - d| = {res.max_abs_tau_minus_d} "
            f"<= 1/50 in {elapsed:.2f}s", ok)


def test_acceptance_2_discrete_homothety(capsys):
    s = build_discrete(10)
    res = wave_model(s, default_grid(s))
    doubled = all(res.tau[i][j] == 2 * s.d(i, j)
                  for i in range(10) for j in range(10))
    ok = doubled and res.homothety_c == 2
    verdict(capsys, 2,
            f"discrete n=10: tau = 2d exactly, fitted c = {res.homothety_c}", ok)


def test_acceptance_3_separation_defect(capsys):
    two = build_from_matrix([[0, 1], [1, 0]])
    exact = condition2_defect(two, 0, 1) == 1
    rng = random.Random(101)
    agree = True
    for _ in range(100):
        s = oracles.random_space(rng, 6)
        tol = oracles.defect_oracle_resolution(s)
        for x in range(s.n):
            for y in range(x + 1, s.n):
                closed = condition2_defect(s, x, y)
                brute = oracles.brute_force_condition2_defect(s, x, y)
                if abs(closed - brute) > tol:
                    agree = False
    ok = exact and agree
    verdict(capsys, 3,
            "two-point defect = +1 exactly; closed form matches the r,s-grid "
            "oracle on 100 random 6-point spaces", ok)


def test_acceptance_4_four_function_chain(capsys):
    x = F(3, 10)
    chain = segment_example(x)
    lower, a1, a2, upper = chain.functions()

    def iset(*comps):
        return IntervalSet.build([Interval(F(a), la, F(b), lb) for a, la, b, lb in comps])

    full = IntervalSet.full()
    expected = {
        F(1, 10): [iset((F(1, 5), False, F(2, 5), False))] * 4,
        F(3, 10): [iset((0, False, F(3, 5), False)),
                   iset((0, True, F(3, 5), False)),
                   iset((0, False, F(3, 5), False)),
                   iset((0, True, F(3, 5), False))],
        F(1, 2): [iset((0, True, F(4, 5), False))] * 4,
        F(7, 10): [iset((0, True, 1, False)),
                   iset((0, True, 1, False)), full, full],
        F(9, 10): [full] * 4,
    }
    values_ok = all(f.evaluate(t) == want
                    for t, row in expected.items()
                    for f, want in zip(chain.functions(), row))
    incomparable = not a1.leq(a2) and not a2.leq(a1)
    left = AffineIntervalFamily.left_window(x)
    right = AffineIntervalFamily.right_window(x)
    limits_ok = all(iv_net_limit(left, t) == a1.evaluate(t)
                    and iv_net_limit(right, t) == a2.evaluate(t)
                    for t in expected)
    point = IntervalSet.point(x)
    nuclei_ok = all(f.nucleus() == point for f in chain.functions())
    ok = values_ok and incomparable and limits_ok and nuclei_ok
    verdict(capsys, 4,
            "x=3/10: four functions exact at the five probe radii, one-sided "
            "atoms incomparable, window nets reproduce them, nuclei = {3/10}", ok)


def test_acceptance_5_property_suites(capsys):
    ok = True

    # (a) metric axioms on 1000 random backends
    rng = random.Random(201)
    for _ in range(1000):
        oracles.assert_metric_axioms(oracles.random_space(rng, rng.randint(2, 6)))

    # (b) disjointness equivalence on 1000 random (A, B, t)
    rng = random.Random(202)
    for _ in range(100):
        s = oracles.random_space(rng, rng.randint(2, 6))
        for _ in range(10):
            a = oracles.random_subset(rng, s.n)
            b = oracles.random_subset(rng, s.n)
            t = F(rng.randint(1, 50), 10)
            ok &= (not (a & neighborhood(s, b, t))) == \
                  (not (neighborhood(s, a, t) & b))

    # (c) semigroup: inclusion always; equality on segment-sample triples
    # whose radii sit at half-spacing offsets (aligned radii lose a single
    # boundary sample per hop, a discretization artifact, not a property
    # failure), and exact equality on the 1-D continuum
    rng = random.Random(203)
    for _ in range(200):
        s = oracles.random_space(rng, rng.randint(2, 6))
        a = oracles.random_subset(rng, s.n, allow_empty=False)
        lhs, rhs = oracles.semigroup_defect(s, a, F(rng.randint(1, 30), 10),
                                            F(rng.randint(1, 30), 10))
        ok &= lhs <= rhs
    seg = oracles.segment_sample_cached(101)
    step = F(1, 100)
    for _ in range(100):
        a = oracles.random_subset(rng, seg.n, allow_empty=False)
        r = (2 * rng.randint(1, 40) + 1) * step / 2
        t = (2 * rng.randint(1, 40) + 1) * step / 2
        lhs, rhs = oracles.semigroup_defect(seg, a, r, t)
        ok &= lhs == rhs
    for _ in range(100):
        lo = F(rng.randint(0, 50), 60)
        hi = lo + F(rng.randint(1, 9), 60)
        cont = IntervalSet.interval(lo, hi, False, False)
        r = F(rng.randint(1, 30), 60)
        t = F(rng.randint(1, 30), 60)
        ok &= iv_neighborhood(iv_neighborhood(cont, r), t) == \
            iv_neighborhood(cont, r + t)

    # (d) closure of the open ball is the closed ball on the continuum
    rng = random.Random(204)
    for _ in range(200):
        x = F(rng.randint(0, 60), 60)
        r = F(rng.randint(1, 40), 60)
        want = IntervalSet.interval(max(F(0), x - r), min(F(1), x + r), True, True)
        ok &= iv_closure(iv_ball(x, r)) == want

    # (e) two-sided nucleus sandwich and (f) nucleus with/without closures
    # on 200 random decreasing nets; (g) nonempty nets keep nonempty nuclei
    rng = random.Random(205)
    s21 = oracles.segment_sample_cached(21)
    grid = default_grid(s21, 12)
    for i in range(200):
        chain = oracles.random_decreasing_chain(rng, s21.n,
                                                keep_nonempty=(i % 2 == 0))
        g = net_limit(s21, DecreasingNet.from_chain(chain), grid)
        ok &= all(r.lower_ok and r.upper_ok for r in sandwich_check(s21, g))
        direct = g.sets[0]
        for v in g.sets:
            direct = direct & v
        ok &= nucleus(g) == direct
        if i % 2 == 0:
            ok &= nucleus(g) != frozenset()

    # (h) grid brackets contain the closed-form tau and do not depend on
    # the representative (open-ball vs interior-of-closed-ball); the wave
    # model's kernel brackets are those brackets (with (0, 0) on the
    # diagonal) and its tau is the per-pair closed form
    rng = random.Random(206)
    spaces = [build_discrete(5), oracles.segment_sample_cached(21)]
    spaces += [oracles.random_space(rng, 5) for _ in range(4)]
    for s in spaces:
        grid = default_grid(s)
        res = wave_model(s, grid, include_brackets=True)
        for x in range(s.n):
            for y in range(x, s.n):
                low = wave_distance_classes(b_star_lower(s, x, grid),
                                            b_star_lower(s, y, grid))
                up = wave_distance_classes(b_star_upper(s, x, grid),
                                           b_star_upper(s, y, grid))
                tau = oracles.wave_distance_points(s, x, y)
                ok &= low == up and low[0] <= tau <= low[1]
                want = (0, 0) if x == y else low
                ok &= res.brackets[x][y] == res.brackets[y][x] == want
                ok &= res.tau[x][y] == res.tau[y][x] == tau

    verdict(capsys, 5,
            "property suites: axioms, disjointness symmetry, semigroup law, "
            "ball closure, nucleus sandwich and identities, tau brackets", ok)


def test_acceptance_6_planar_grid_atoms(capsys):
    pts = [(i / 10, j / 10) for i in range(11) for j in range(11)]
    s = build_from_points(pts)
    grid = default_grid(s)
    singles = all(nucleus(b_star_lower(s, x, grid)) == frozenset({x})
                  and nucleus(b_star_upper(s, x, grid)) == frozenset({x})
                  for x in range(s.n))
    res = wave_model(s, grid)
    one_per_point = (len(res.atoms) == s.n
                     and len(set(res.atoms)) == s.n
                     and not res.warnings)
    ok = singles and one_per_point
    verdict(capsys, 6,
            "11x11 planar grid: both ball representatives have nucleus {x} "
            "at every point; exactly one atom per point", ok)
