import json
import random
from fractions import Fraction

import pytest

from wavemodel import IntervalError
from wavemodel.interval1d import (
    AffineIntervalFamily,
    Interval,
    IntervalSet,
    iv_ball,
    iv_closure,
    iv_family_neighborhood_limit,
    iv_interior,
    iv_intersect,
    iv_neighborhood,
    iv_net_limit,
    iv_to_json,
)

F = Fraction


def iset(*comps):
    return IntervalSet.build([Interval(F(a), la, F(b), lb) for a, la, b, lb in comps])


def from_json(data: list) -> IntervalSet:
    """The round-trip parser of ``iv_to_json``."""
    comps = [Interval(F(d["lo"]), bool(d["lo_closed"]), F(d["hi"]), bool(d["hi_closed"]))
             for d in data]
    return IntervalSet.build(comps)


def rand_set(rng, max_comps=3):
    pts = sorted(F(rng.randint(0, 60), 60) for _ in range(2 * rng.randint(1, max_comps)))
    comps = [Interval(pts[i], rng.random() < 0.5, pts[i + 1], rng.random() < 0.5)
             for i in range(0, len(pts), 2)]
    return IntervalSet.build(comps)


# ---------------------------------------------------------------------------
# Construction and normalization


def test_normalization_merges_touching_components():
    # (0, 1/2) u [1/2, 1) = (0, 1)
    a = iset((0, False, F(1, 2), False), (F(1, 2), True, 1, False))
    assert a == iset((0, False, 1, False))


def test_normalization_keeps_gap():
    a = iset((0, False, F(1, 2), False), (F(1, 2), False, 1, False))
    assert len(a.components) == 2
    assert not a.contains(F(1, 2))


def test_normalization_merges_a_closed_start_after_an_open_one():
    # (0, 1/2) u (1/2, 1) u [1/2, 1/2] = (0, 1): the closed start at 1/2 joins all three
    a = iset((0, False, F(1, 2), False), (F(1, 2), False, 1, False),
             (F(1, 2), True, F(1, 2), True))
    assert a == iset((0, False, 1, False))


def test_empty_components_dropped():
    a = iset((F(1, 2), False, F(1, 2), False), (F(1, 4), True, F(1, 8), True))
    assert a.is_empty()


def test_point_component_survives():
    a = IntervalSet.point(F(1, 2))
    assert a.contains(F(1, 2)) and not a.contains(F(1, 4))


def test_out_of_segment_rejected():
    with pytest.raises(IntervalError) as ei:
        iset((0, True, 2, True))
    assert str(ei.value) == "component [0, 2] leaves the segment [0, 1]"


# ---------------------------------------------------------------------------
# Union / intersection / interior / closure


def test_intersection_example():
    # (0, 1/2) & (1/4, 1) = (1/4, 1/2)
    a = iset((0, False, F(1, 2), False))
    b = iset((F(1, 4), False, 1, False))
    assert iv_intersect(a, b) == iset((F(1, 4), False, F(1, 2), False))


def test_intersection_with_empty():
    a = rand_set(random.Random(3))
    assert iv_intersect(a, IntervalSet.build([])).is_empty()
    assert IntervalSet.build(a.components) == a  # a united with the empty set


def test_interior_opens_inner_endpoints_only():
    # interior of [0, 1/2] relative to [0, 1] keeps 0, drops 1/2
    a = iset((0, True, F(1, 2), True))
    assert iv_interior(a) == iset((0, True, F(1, 2), False))
    assert iv_interior(IntervalSet.full()) == IntervalSet.full()


def test_interior_of_point_is_empty():
    assert iv_interior(IntervalSet.point(F(1, 2))).is_empty()


def test_closure_example():
    a = iset((F(1, 4), False, F(1, 2), False))
    assert iv_closure(a) == iset((F(1, 4), True, F(1, 2), True))


def test_interior_closure_idempotent_and_ordered():
    rng = random.Random(5)
    for _ in range(200):
        a = rand_set(rng)
        inner, outer = iv_interior(a), iv_closure(a)
        assert inner.is_subset(a) and a.is_subset(outer)
        assert iv_interior(inner) == inner
        assert iv_closure(outer) == outer


# ---------------------------------------------------------------------------
# Metric neighborhoods


def test_neighborhood_basic_widening():
    a = iset((F(1, 4), True, F(1, 2), True))
    assert iv_neighborhood(a, F(1, 8)) == iset((F(1, 8), False, F(5, 8), False))


def test_neighborhood_clips_and_closes_passed_endpoint():
    # {0.1}^{0.4}: 0 is strictly inside, 1/2 is exactly reached
    a = IntervalSet.point(F(1, 10))
    assert iv_neighborhood(a, F(4, 10)) == iset((0, True, F(1, 2), False))


def test_neighborhood_exactly_reaching_endpoint_stays_open():
    a = IntervalSet.point(F(1, 2))
    assert iv_neighborhood(a, F(1, 2)) == iset((0, False, 1, False))


def test_neighborhood_rejects_nonpositive_radius():
    with pytest.raises(IntervalError):
        iv_neighborhood(IntervalSet.full(), 0)


def test_neighborhood_depends_only_on_closure():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_set(rng)
        t = F(rng.randint(1, 30), 60)
        assert iv_neighborhood(a, t) == iv_neighborhood(iv_closure(a), t)


def test_semigroup_exact_on_the_segment():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_set(rng)
        r = F(rng.randint(1, 20), 60)
        s = F(rng.randint(1, 20), 60)
        assert iv_neighborhood(iv_neighborhood(a, r), s) == iv_neighborhood(a, r + s)


def test_closure_of_open_ball_is_closed_ball():
    rng = random.Random(13)
    for _ in range(100):
        x = F(rng.randint(0, 60), 60)
        r = F(rng.randint(1, 40), 60)
        lo, hi = max(F(0), x - r), min(F(1), x + r)
        closed_ball = iset((lo, True, hi, True))
        assert iv_closure(iv_ball(x, r)) == closed_ball


def test_ball_two_sided_bound():
    # B_t(x) <= {y}^{d(x,y)+t} and {y} subset of B_t(x)^{d(x,y)+t'} for t' > 0
    rng = random.Random(17)
    for _ in range(100):
        x = F(rng.randint(1, 59), 60)
        y = F(rng.randint(1, 59), 60)
        t = F(rng.randint(1, 20), 60)
        d = abs(x - y)
        ball = iv_ball(x, t)
        assert ball.is_subset(iv_neighborhood(IntervalSet.point(y), d + t))
        assert IntervalSet.point(y).is_subset(iv_neighborhood(ball, d + F(1, 120)))


# ---------------------------------------------------------------------------
# Serialization


def test_json_round_trip_bit_exact():
    rng = random.Random(19)
    for _ in range(50):
        a = rand_set(rng)
        blob = json.dumps(iv_to_json(a))
        assert from_json(json.loads(blob)) == a


def test_json_preserves_fractions_as_strings():
    a = iset((F(1, 3), True, F(2, 3), False))
    data = iv_to_json(a)
    assert data[0]["lo"] == "1/3" and data[0]["hi"] == "2/3"


# ---------------------------------------------------------------------------
# Affine families and their net limits


def test_family_members_decrease():
    fam = AffineIntervalFamily.shrinking_ball(F(1, 2))
    big, small = fam.at(F(1, 4)), fam.at(F(1, 8))
    assert small.is_subset(big)


@pytest.mark.parametrize("t", [0, F(-1, 3)])
def test_radii_and_eps_must_be_positive(t):
    fam = AffineIntervalFamily.shrinking_ball(F(1, 2))
    radius = f"radius must be positive, got {t}"
    for refuse, message in ((lambda: iv_neighborhood(IntervalSet.full(), t), radius),
                            (lambda: iv_ball(F(1, 2), t), radius),
                            (lambda: iv_family_neighborhood_limit(fam, t), radius),
                            (lambda: fam.at(t), "eps must be positive")):
        with pytest.raises(IntervalError) as ei:
            refuse()
        assert str(ei.value) == message


def test_the_empty_set_prints_as_braces():
    empty = iv_intersect(iset((0, True, F(1, 4), False)), iset((F(1, 2), True, 1, True)))
    assert empty.is_empty() and str(empty) == "{}"
    assert str(iset((0, True, F(1, 4), False), (F(1, 2), False, 1, True))) == \
        "[0, 1/4) u (1/2, 1]"


def test_family_core():
    """Each window's core, the intersection over eps of closure(G_eps), is
    {x}: every closure holds x and lies in [x - eps, x + eps]."""
    for x in (F(1, 10), F(1, 2)):
        for fam in (AffineIntervalFamily.left_window(x), AffineIntervalFamily.right_window(x),
                    AffineIntervalFamily.shrinking_ball(x)):
            for k in range(12):
                eps = F(1, 2 ** k)
                c = iv_closure(fam.at(eps))
                assert c.contains(x)
                assert c.is_subset(IntervalSet.interval(max(0, x - eps), min(1, x + eps),
                                                        True, True))


def test_net_limit_left_window_closes_moving_endpoint():
    # intersection over eps of (x - eps, x)^t with x = 1/2, t = 1/4:
    # raw limit [1/4, 3/4), interior (1/4, 3/4)
    fam = AffineIntervalFamily.left_window(F(1, 2))
    raw = iv_family_neighborhood_limit(fam, F(1, 4))
    assert raw == iset((F(1, 4), True, F(3, 4), False))
    assert iv_net_limit(fam, F(1, 4)) == iset((F(1, 4), False, F(3, 4), False))


def test_net_limit_matches_sampled_intersection():
    rng = random.Random(23)
    fams = [AffineIntervalFamily.left_window(F(3, 10)),
            AffineIntervalFamily.right_window(F(3, 10)),
            AffineIntervalFamily.shrinking_ball(F(7, 10))]
    for fam in fams:
        for _ in range(30):
            t = F(rng.randint(1, 50), 60)
            acc = None
            for k in range(1, 12):
                nb = iv_neighborhood(fam.at(F(1, 2 ** k)), t)
                acc = nb if acc is None else iv_intersect(acc, nb)
            # the finite sample over-covers the true limit by at most the
            # last eps on each moving endpoint
            raw = iv_family_neighborhood_limit(fam, t)
            assert raw.is_subset(acc)
            assert iv_net_limit(fam, t).is_subset(acc)
            (rc,), (ac,) = raw.components, acc.components
            eps_last = F(1, 2 ** 11)
            assert rc.lo - ac.lo <= eps_last and ac.hi - rc.hi <= eps_last


def test_ball_limits_give_open_ball_and_interior_closed_ball():
    # x = 1/4, t = 1/4: lower representative (0, 1/2), upper [0, 1/2)
    fam = AffineIntervalFamily.shrinking_ball(F(1, 4))
    lower = iv_ball(F(1, 4), F(1, 4))
    assert lower == iset((0, False, F(1, 2), False))
    upper = iv_net_limit(fam, F(1, 4))
    assert upper == iset((0, True, F(1, 2), False))
    assert lower.is_subset(upper)


def test_family_at_clips_to_segment():
    fam = AffineIntervalFamily.shrinking_ball(F(1, 10))
    assert fam.at(F(1, 2)) == iset((0, True, F(6, 10), False))


# ---------------------------------------------------------------------------
# A pointwise oracle: two finite unions of intervals are equal iff they agree
# on every endpoint and on one point between each pair of consecutive endpoints


def rand_components(rng):
    """Raw components drawn on a coarse grid as ``rand_set`` draws them; some
    are reversed or a point (empty unless closed), and many start where the
    one before starts or ends.  The list is shuffled."""
    pts = sorted(F(rng.randint(0, 12), 12) for _ in range(2 * rng.randint(0, 4)))
    comps = []
    for lo, hi in zip(pts[::2], pts[1::2]):
        kind = rng.random()
        if kind < 0.15:
            lo, hi = hi, lo
        elif kind < 0.3:
            hi = lo
        elif kind < 0.7 and comps:
            lo = rng.choice([comps[-1].lo, comps[-1].hi])
        comps.append(Interval(lo, rng.random() < 0.5, hi, rng.random() < 0.5))
    rng.shuffle(comps)
    return comps


def inside(p, c) -> bool:
    return (c.lo < p or c.lo == p and c.lo_closed) and (p < c.hi or p == c.hi and c.hi_closed)


def nonempty(c) -> bool:
    return c.lo < c.hi or c.lo == c.hi and c.lo_closed and c.hi_closed


def probes(comps, t):
    ends = {F(0), F(1)}
    for c in comps:
        ends |= {c.lo, c.hi, c.lo - t, c.hi + t}
    ends = sorted(e for e in ends if 0 <= e <= 1)
    return ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]


def test_set_operations_agree_with_a_pointwise_oracle():
    rng = random.Random(30)
    for _ in range(400):
        raw_a, raw_b = rand_components(rng), rand_components(rng)
        a, b = IntervalSet.build(raw_a), IntervalSet.build(raw_b)
        t = F(rng.randint(1, 12), 12)
        meet, nbhd = iv_intersect(a, b), iv_neighborhood(a, t)
        for c, d in zip(a.components, a.components[1:]):
            assert c.hi < d.lo or c.hi == d.lo and not (c.hi_closed or d.lo_closed)
        assert all(nonempty(c) for c in a.components)
        outs = [*a.components, *b.components, *meet.components, *nbhd.components]
        implies = True
        for p in probes([*raw_a, *raw_b, *outs], t):
            in_a = any(inside(p, c) for c in raw_a)
            in_b = any(inside(p, c) for c in raw_b)
            assert any(inside(p, c) for c in a.components) == a.contains(p) == in_a
            assert meet.contains(p) == (in_a and in_b)
            near = any(max(c.lo - p, p - c.hi) < t for c in raw_a if nonempty(c))
            assert nbhd.contains(p) == near
            implies = implies and (in_b or not in_a)
        assert a.is_subset(b) == implies
