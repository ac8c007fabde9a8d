"""Exact open-set arithmetic on the segment [0, 1] with rational endpoints.

Sets are finite unions of subintervals with open/closed endpoint flags,
normalized to a canonical component list so equality is structural.  The
topology is relative to the segment: 0 and 1 are interior points of sets
containing a one-sided neighborhood of them.  Each endpoint with
its flag is one ordered key, so emptiness, membership, union, intersection
and clipping to the segment are comparisons of keys.

All arithmetic is exact Fractions; no floats enter this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class IntervalError(ValueError):
    """Malformed interval data: a component off the segment, a radius or an
    eps that is not positive, a point not inside the segment."""


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class Interval:
    """One component: endpoints with openness flags; may be a single point.

    Each end is an ordered key: ``start = (lo, not lo_closed)`` is smaller
    the further left the component starts (a closed end before an open one
    at the same value), ``end = (hi, hi_closed)`` larger the further right it
    ends.  It is empty iff not start < end, and holds v iff start <= (v, False)
    and (v, True) <= end.
    """

    lo: Fraction
    lo_closed: bool
    hi: Fraction
    hi_closed: bool

    @property
    def start(self) -> tuple:
        return (self.lo, not self.lo_closed)

    @property
    def end(self) -> tuple:
        return (self.hi, self.hi_closed)

    def is_empty(self) -> bool:
        return not self.start < self.end

    def contains(self, v: Fraction) -> bool:
        return self.start <= (v, False) and (v, True) <= self.end

    def __str__(self):
        l = "[" if self.lo_closed else "("
        r = "]" if self.hi_closed else ")"
        return f"{l}{self.lo}, {self.hi}{r}"


def _between(start: tuple, end: tuple) -> Interval:
    """The component from a start key to an end key."""
    return Interval(start[0], not start[1], end[0], end[1])


def _clipped(start: tuple, end: tuple) -> Interval:
    """The component from start to end, clipped to [0, 1]: an end of the
    segment passed strictly becomes closed, one reached exactly keeps its flag."""
    return _between(max(start, (Fraction(0), False)), min(end, (Fraction(1), True)))


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of disjoint, non-adjacent components in [0, 1]."""

    components: tuple

    @classmethod
    def build(cls, intervals: Sequence[Interval]) -> "IntervalSet":
        kept = []
        for iv in intervals:
            if iv.is_empty():
                continue
            if iv.lo < 0 or iv.hi > 1:
                raise IntervalError(f"component {iv} leaves the segment [0, 1]")
            kept.append(iv)
        merged: list[Interval] = []
        for iv in sorted(kept, key=lambda iv: iv.start):
            if merged and iv.start <= merged[-1].end:
                merged[-1] = _between(merged[-1].start, max(merged[-1].end, iv.end))
            else:
                merged.append(iv)
        return cls(tuple(merged))

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls.interval(0, 1, True, True)

    @classmethod
    def interval(cls, lo, hi, lo_closed: bool, hi_closed: bool) -> "IntervalSet":
        return cls.build([Interval(_frac(lo), lo_closed, _frac(hi), hi_closed)])

    @classmethod
    def point(cls, v) -> "IntervalSet":
        return cls.interval(v, v, True, True)

    def is_empty(self) -> bool:
        return not self.components

    def contains(self, v) -> bool:
        v = _frac(v)
        return any(c.contains(v) for c in self.components)

    def is_subset(self, other: "IntervalSet") -> bool:
        return iv_intersect(self, other) == self

    def __str__(self):
        if not self.components:
            return "{}"
        return " u ".join(str(c) for c in self.components)


# ---------------------------------------------------------------------------
# Lattice operations


def iv_intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = [_between(max(p.start, q.start), min(p.end, q.end))
           for p in a.components for q in b.components]
    return IntervalSet.build(out)


def iv_interior(a: IntervalSet) -> IntervalSet:
    """Interior relative to [0, 1]: endpoints open except at the ends of
    the segment, where a closed endpoint stays closed."""
    return IntervalSet.build([Interval(c.lo, c.lo_closed and c.lo == 0,
                                       c.hi, c.hi_closed and c.hi == 1)
                              for c in a.components])


def iv_closure(a: IntervalSet) -> IntervalSet:
    return IntervalSet.build([Interval(c.lo, True, c.hi, True) for c in a.components])


def iv_neighborhood(a: IntervalSet, t) -> IntervalSet:
    """A^t inside [0, 1]: each component [lo, hi] widens to (lo-t, hi+t),
    clipped; an end of the segment strictly passed becomes closed (it then
    lies at distance < t from A).  Depends only on closure(A), so
    A^t = (closure A)^t holds by construction.
    """
    t = _frac(t)
    if t <= 0:
        raise IntervalError(f"radius must be positive, got {t}")
    return IntervalSet.build([_clipped((c.lo - t, True), (c.hi + t, False))
                              for c in a.components])


def iv_ball(x, t) -> IntervalSet:
    """Open metric ball B_t(x) inside [0, 1]."""
    return iv_neighborhood(IntervalSet.point(x), t)


# ---------------------------------------------------------------------------
# Serialization (bit-exact round trip)


def iv_to_json(a: IntervalSet) -> list:
    return [{"lo": str(c.lo), "lo_closed": c.lo_closed,
             "hi": str(c.hi), "hi_closed": c.hi_closed}
            for c in a.components]


# ---------------------------------------------------------------------------
# The window families over a point x: decreasing in eps, open at both ends


@dataclass(frozen=True)
class AffineIntervalFamily:
    """G_eps = (x + lo_slope eps, x + hi_slope eps) inside [0, 1], with
    lo_slope <= 0 <= hi_slope, not both 0: the sets shrink onto x as eps
    drops to 0, so {x} is the family's core, the intersection over eps of
    closure(G_eps)."""

    x: Fraction
    lo_slope: int
    hi_slope: int

    @classmethod
    def left_window(cls, x) -> "AffineIntervalFamily":
        """(x - eps, x): approaches x from the left."""
        return cls(_frac(x), -1, 0)

    @classmethod
    def right_window(cls, x) -> "AffineIntervalFamily":
        """(x, x + eps): approaches x from the right."""
        return cls(_frac(x), 0, 1)

    @classmethod
    def shrinking_ball(cls, x) -> "AffineIntervalFamily":
        """(x - eps, x + eps): the two-sided approximation of x."""
        return cls(_frac(x), -1, 1)

    def at(self, eps) -> IntervalSet:
        eps = _frac(eps)
        if eps <= 0:
            raise IntervalError("eps must be positive")
        return IntervalSet.build([_clipped((self.x + self.lo_slope * eps, True),
                                           (self.x + self.hi_slope * eps, False))])


def iv_family_neighborhood_limit(fam: AffineIntervalFamily, t) -> IntervalSet:
    """Raw intersection over eps > 0 of (G_eps)^t, before taking interior.

    Endpoint-limit rule: a strictly moving open endpoint closes at its
    limit value (e.g. the intersection of (a - eps, b) over eps is [a, b));
    a stationary endpoint stays open.  Both ends clip as ``_clipped`` says.
    """
    t = _frac(t)
    if t <= 0:
        raise IntervalError(f"radius must be positive, got {t}")
    return IntervalSet.build([_clipped((fam.x - t, fam.lo_slope == 0),
                                       (fam.x + t, fam.hi_slope != 0))])


def iv_net_limit(fam: AffineIntervalFamily, t) -> IntervalSet:
    """Order limit at radius t of the net of neighborhood functions:
    interior of the eps-intersection of (G_eps)^t."""
    return iv_interior(iv_family_neighborhood_limit(fam, t))
