from fractions import Fraction

import pytest

from wavemodel import IntervalError
from wavemodel.interval1d import Interval, IntervalSet
from wavemodel.segment import PiecewiseBallFunction, segment_example, verify_four_chain

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


def test_verify_json_shape():
    data = verify_four_chain(F(3, 10)).to_json()
    assert data["all_pass"] is True
    assert data["x"] == "3/10"
    assert data["failures"] == []
