import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemodel import IntervalError
from wavemodel.cli import main
from wavemodel.interval1d import (
    AffineIntervalFamily,
    Interval,
    IntervalSet,
    iv_ball,
    iv_closure,
    iv_interior,
    iv_net_limit,
)
from wavemodel.segment import (
    PiecewiseBallFunction,
    _probe_radii,
    segment_example,
    verify_four_chain,
)

F = Fraction


def iset(*comps):
    return IntervalSet.build([Interval(F(a), la, F(b), lb) for a, la, b, lb in comps])


X = F(3, 10)


@pytest.fixture(scope="module")
def chain():
    return segment_example(X)


def test_rejects_boundary_and_outside_points():
    for bad in (0, 1, F(3, 2), -F(1, 4)):
        with pytest.raises(IntervalError):
            segment_example(bad)


def test_small_radius_all_four_agree(chain):
    t = F(1, 10)
    ball = iset((F(2, 10), False, F(4, 10), False))
    for f in chain.functions():
        assert f.evaluate(t) == ball


def test_first_exceptional_radius(chain):
    # t = x = 3/10: the ball reaches the left end of the segment
    t = F(3, 10)
    assert chain.ball_lower(t) == iset((0, False, F(3, 5), False))
    assert chain.atom_from_left(t) == iset((0, True, F(3, 5), False))
    assert chain.atom_from_right(t) == iset((0, False, F(3, 5), False))
    assert chain.ball_upper(t) == iset((0, True, F(3, 5), False))


def test_intermediate_radius_all_four_agree(chain):
    t = F(1, 2)
    ball = iset((0, True, F(4, 5), False))
    for f in chain.functions():
        assert f.evaluate(t) == ball


def test_second_exceptional_radius(chain):
    # t = 1 - x = 7/10: the ball reaches the right end
    t = F(7, 10)
    assert chain.ball_lower(t) == iset((0, True, 1, False))
    assert chain.atom_from_left(t) == iset((0, True, 1, False))
    assert chain.atom_from_right(t) == IntervalSet.full()
    assert chain.ball_upper(t) == IntervalSet.full()


def test_large_radius_all_reach_the_whole_segment(chain):
    for f in chain.functions():
        assert f.evaluate(F(9, 10)) == IntervalSet.full()


def test_pointwise_order(chain):
    lower, a1, a2, upper = chain.functions()
    for mid in (a1, a2):
        assert lower.leq(mid)
        assert mid.leq(upper)
    assert lower.leq(upper)


def test_one_sided_atoms_incomparable(chain):
    _, a1, a2, _ = chain.functions()
    assert not a1.leq(a2)
    assert not a2.leq(a1)


def test_all_nuclei_are_the_point(chain):
    point = IntervalSet.point(X)
    for f in chain.functions():
        assert f.nucleus() == point


def test_exception_lists(chain):
    # each one-sided atom leaves the ball at exactly one ambient-endpoint
    # radius: the left atom where the ball first reaches 0, the right atom
    # where it first reaches 1
    assert chain.ball_lower.exceptions == ()
    assert [t for t, _ in chain.atom_from_left.exceptions] == [F(3, 10)]
    assert [t for t, _ in chain.atom_from_right.exceptions] == [F(7, 10)]
    assert [t for t, _ in chain.ball_upper.exceptions] == [F(3, 10), F(7, 10)]


def test_leq_rejects_different_chains(chain):
    other = segment_example(F(1, 4))
    with pytest.raises(IntervalError):
        chain.ball_lower.leq(other.ball_lower)


def test_json_export(chain):
    data = chain.atom_from_left.to_json()
    assert data["name"] == "atom_from_left"
    assert data["center"] == "3/10"
    assert len(data["exceptions"]) == 1


def test_midpoint_merges_the_two_exceptional_radii():
    chain = segment_example(F(1, 2))
    t = F(1, 2)
    assert chain.atom_from_left(t) == iset((0, True, 1, False))
    assert chain.atom_from_right(t) == iset((0, False, 1, True))
    assert chain.ball_lower(t) == iset((0, False, 1, False))
    assert chain.ball_upper(t) == IntervalSet.full()
    assert len(chain.atom_from_left.exceptions) == 1


def test_reflection_swaps_the_one_sided_atoms():
    a = segment_example(F(3, 10))
    b = segment_example(F(7, 10))

    def mirror(s):
        return IntervalSet.build([Interval(1 - c.hi, c.hi_closed, 1 - c.lo, c.lo_closed)
                                  for c in s.components])

    for t in (F(3, 10), F(1, 2), F(7, 10)):
        assert mirror(a.atom_from_left(t)) == b.atom_from_right(t)
        assert mirror(a.atom_from_right(t)) == b.atom_from_left(t)


def test_verify_reports_pass():
    for x in (F(3, 10), F(1, 2), F(7, 10), F(1, 13)):
        rep = verify_four_chain(x)
        assert rep.all_pass, rep.failures
        assert rep.merged_exception == (x == F(1, 2))


def test_verify_reports_a_failing_nucleus_certificate(monkeypatch):
    """Values that never shrink onto x fail the closure certificate: one
    line per function, at the first radius probed."""
    monkeypatch.setattr(PiecewiseBallFunction, "evaluate",
                        lambda f, t: IntervalSet.full())
    rep = verify_four_chain(X)
    assert rep.nuclei_ok is False and not rep.all_pass
    names = ("ball_lower", "atom_from_left", "atom_from_right", "ball_upper")
    assert [m for m in rep.failures if "nucleus" in m] == [
        f"nucleus certificate fails for {name} at t=3/20" for name in names]


def test_verify_reports_a_violated_order(monkeypatch, tmp_path):
    """With ``leq`` false everywhere, both one-sided atoms break the order,
    one line each, and ``segment-demo`` exits 1."""
    monkeypatch.setattr(PiecewiseBallFunction, "leq", lambda f, g: False)
    rep = verify_four_chain(X)
    assert rep.order_ok is False and not rep.all_pass
    assert rep.failures == ("order violated around atom_from_left",
                            "order violated around atom_from_right")
    assert main(["segment-demo", "--x", str(X), "--out", str(tmp_path)]) == 1


def test_verify_json_shape():
    data = verify_four_chain(F(3, 10)).to_json()
    assert data["all_pass"] is True
    assert data["x"] == "3/10"
    assert data["failures"] == []


@pytest.mark.parametrize("x", [F(1, 1000), F(1, 2), F(3, 4), F(5, 6), F(9, 10), F(999, 1000)],
                         ids=str)
def test_probes_reach_every_piece(x):
    """Both breakpoints min(x, 1 - x) and max(x, 1 - x) are probes, and each
    piece (0, lo), (lo, hi), (hi, oo) holds one, so the probes decide
    ``limits_ok`` at every radius."""
    probes = _probe_radii(x)
    lo, hi = sorted((x, 1 - x))
    assert lo in probes and hi in probes
    for a, b in ((0, lo), (lo, hi), (hi, None)):
        if a != b:
            assert any(a < t and (b is None or t < b) for t in probes), (a, b)
    assert verify_four_chain(x).all_pass


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda v: 0 < v < 1)
RADII = st.fractions(min_value=0, max_value=3, max_denominator=60).filter(lambda v: v > 0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_chain_is_its_definition_at_every_radius(data):
    """Each atom is its window net's limit, the upper ball is the shrinking
    ball's limit and int B_t[x], the lower one is B_t(x), and the two differ
    only at t = x and t = 1 - x; ``leq`` is the pointwise order."""
    x = data.draw(UNIT, label="x")
    ts = [x, 1 - x, *data.draw(st.lists(st.one_of(st.sampled_from([x, 1 - x]), RADII),
                                        min_size=1, max_size=6), label="t")]
    chain = segment_example(x)
    lower, left, right, upper = chain.functions()
    for t in ts:
        assert left(t) == iv_net_limit(AffineIntervalFamily.left_window(x), t)
        assert right(t) == iv_net_limit(AffineIntervalFamily.right_window(x), t)
        assert upper(t) == iv_net_limit(AffineIntervalFamily.shrinking_ball(x), t)
        assert upper(t) == iv_interior(iv_closure(iv_ball(x, t)))
        assert lower(t) == iv_ball(x, t)
        if t not in (x, 1 - x):
            assert upper(t) == lower(t)
    for f, g in itertools.product(chain.functions(), repeat=2):
        assert f.leq(g) == all(f(t).is_subset(g(t)) for t in ts)


@pytest.mark.parametrize("x", [F(3, 10), F(1, 2), F(3, 4)], ids=str)
def test_the_four_functions_are_the_end_choices(x):
    """The points of int B_t[x] outside B_t(x) at the breakpoints are two;
    taking or leaving each gives four functions, pairwise distinct, and
    they are the chain's four."""
    chain = segment_example(x)
    breakpoints = sorted({x, 1 - x})

    def with_points(t, points):
        return IntervalSet.build([*chain.ball_lower(t).components,
                                  *(Interval(p, True, p, True) for p in points)])

    gaps = []
    for t in breakpoints:
        upper, lower = chain.ball_upper(t), chain.ball_lower(t)
        ends = sorted({e for c in upper.components for e in (c.lo, c.hi)})
        points = [p for p in ends if upper.contains(p) and not lower.contains(p)]
        assert with_points(t, points) == upper
        gaps += [(t, p) for p in points]
    assert len(gaps) == 2
    choices = [tuple(with_points(t, [p for (s, p), take in zip(gaps, mask) if take and s == t])
                     for t in breakpoints)
               for mask in itertools.product((False, True), repeat=len(gaps))]
    assert len(set(choices)) == 4
    assert set(choices) == {tuple(f(t) for t in breakpoints) for f in chain.functions()}
