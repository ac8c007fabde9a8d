"""Exact open-set arithmetic on the segment [0, L] with rational endpoints.

Sets are finite unions of subintervals with open/closed endpoint flags,
normalized to a canonical component list so equality is structural.  The
topology is relative to the ambient segment: 0 and L are interior points
of sets containing a one-sided neighborhood of them.  Each endpoint with
its flag is one ordered key, so emptiness, membership, union, intersection
and clipping to the segment are comparisons of keys.

All arithmetic is exact Fractions; no floats enter this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class IntervalError(ValueError):
    """Malformed interval data or mismatched ambient segments."""


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


def _clipped(length, start: tuple, end: tuple) -> Interval:
    """The component from start to end, clipped to [0, L]: an ambient end
    passed strictly becomes closed, one reached exactly keeps its flag."""
    return _between(max(start, (Fraction(0), False)), min(end, (length, True)))


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of disjoint, non-adjacent components in [0, L]."""

    length: Fraction
    components: tuple

    @classmethod
    def build(cls, length, intervals: Sequence[Interval]) -> "IntervalSet":
        length = _frac(length)
        if length <= 0:
            raise IntervalError("ambient length must be positive")
        kept = []
        for iv in intervals:
            if iv.is_empty():
                continue
            if iv.lo < 0 or iv.hi > length:
                raise IntervalError(f"component {iv} leaves the segment [0, {length}]")
            kept.append(iv)
        merged: list[Interval] = []
        for iv in sorted(kept, key=lambda iv: iv.start):
            if merged and iv.start <= merged[-1].end:
                merged[-1] = _between(merged[-1].start, max(merged[-1].end, iv.end))
            else:
                merged.append(iv)
        return cls(length, tuple(merged))

    @classmethod
    def full(cls, length) -> "IntervalSet":
        return cls.interval(length, 0, length, True, True)

    @classmethod
    def interval(cls, length, lo, hi, lo_closed: bool, hi_closed: bool) -> "IntervalSet":
        return cls.build(length, [Interval(_frac(lo), lo_closed, _frac(hi), hi_closed)])

    @classmethod
    def point(cls, length, v) -> "IntervalSet":
        return cls.interval(length, v, v, True, True)

    def is_empty(self) -> bool:
        return not self.components

    def contains(self, v) -> bool:
        v = _frac(v)
        return any(c.contains(v) for c in self.components)

    def is_subset(self, other: "IntervalSet") -> bool:
        self._check_ambient(other)
        return iv_intersect(self, other) == self

    def _check_ambient(self, other: "IntervalSet") -> None:
        if self.length != other.length:
            raise IntervalError("ambient segment lengths differ")

    def __str__(self):
        if not self.components:
            return "{}"
        return " u ".join(str(c) for c in self.components)


# ---------------------------------------------------------------------------
# Lattice operations


def iv_intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    a._check_ambient(b)
    out = [_between(max(p.start, q.start), min(p.end, q.end))
           for p in a.components for q in b.components]
    return IntervalSet.build(a.length, out)


def iv_interior(a: IntervalSet) -> IntervalSet:
    """Interior relative to [0, L]: endpoints open except at the ambient
    boundary, where a closed endpoint stays closed."""
    out = []
    for c in a.components:
        out.append(Interval(c.lo, c.lo_closed and c.lo == 0,
                            c.hi, c.hi_closed and c.hi == a.length))
    return IntervalSet.build(a.length, out)


def iv_closure(a: IntervalSet) -> IntervalSet:
    out = [Interval(c.lo, True, c.hi, True) for c in a.components]
    return IntervalSet.build(a.length, out)


def iv_neighborhood(a: IntervalSet, t) -> IntervalSet:
    """A^t inside [0, L]: each component [lo, hi] widens to (lo-t, hi+t),
    clipped; an ambient endpoint strictly passed becomes closed (it then
    lies at distance < t from A).  Depends only on closure(A), so
    A^t = (closure A)^t holds by construction.
    """
    t = _frac(t)
    if t <= 0:
        raise IntervalError(f"radius must be positive, got {t}")
    out = [_clipped(a.length, (c.lo - t, True), (c.hi + t, False)) for c in a.components]
    return IntervalSet.build(a.length, out)


def iv_ball(length, x, t) -> IntervalSet:
    """Open metric ball B_t(x) inside [0, L]."""
    length, x, t = _frac(length), _frac(x), _frac(t)
    if t <= 0:
        raise IntervalError(f"radius must be positive, got {t}")
    return iv_neighborhood(IntervalSet.point(length, x), t)


# ---------------------------------------------------------------------------
# Serialization (bit-exact round trip)


def iv_to_json(a: IntervalSet) -> list:
    return [{"lo": str(c.lo), "lo_closed": c.lo_closed,
             "hi": str(c.hi), "hi_closed": c.hi_closed}
            for c in a.components]


# ---------------------------------------------------------------------------
# Parametric decreasing families with endpoints affine in eps


@dataclass(frozen=True)
class AffineIntervalFamily:
    """G_eps = interval with endpoints affine in eps, inside [0, L].

    Decreasing in eps: the lower endpoint slope is <= 0 and the upper
    slope is >= 0, so the sets shrink as eps drops to 0.
    """

    length: Fraction
    lo_const: Fraction
    lo_slope: Fraction
    hi_const: Fraction
    hi_slope: Fraction
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        if self.lo_slope > 0 or self.hi_slope < 0:
            raise IntervalError("family is not decreasing in eps")
        # as eps -> 0 the ends compare by constant, then by slope, then by flag
        if not (self.lo_const, self.lo_slope, not self.lo_closed) \
                < (self.hi_const, self.hi_slope, self.hi_closed):
            raise IntervalError("family is empty for small eps")

    @classmethod
    def left_window(cls, length, x) -> "AffineIntervalFamily":
        """(x - eps, x): approaches x from the left."""
        length, x = _frac(length), _frac(x)
        return cls(length, x, Fraction(-1), x, Fraction(0))

    @classmethod
    def right_window(cls, length, x) -> "AffineIntervalFamily":
        """(x, x + eps): approaches x from the right."""
        length, x = _frac(length), _frac(x)
        return cls(length, x, Fraction(0), x, Fraction(1))

    @classmethod
    def shrinking_ball(cls, length, x) -> "AffineIntervalFamily":
        """(x - eps, x + eps): the two-sided approximation of x."""
        length, x = _frac(length), _frac(x)
        return cls(length, x, Fraction(-1), x, Fraction(1))

    def at(self, eps) -> IntervalSet:
        eps = _frac(eps)
        if eps <= 0:
            raise IntervalError("eps must be positive")
        return IntervalSet.build(self.length, [_clipped(
            self.length, (self.lo_const + self.lo_slope * eps, not self.lo_closed),
            (self.hi_const + self.hi_slope * eps, self.hi_closed))])


def iv_family_core(fam: AffineIntervalFamily) -> IntervalSet:
    """Intersection over eps of closure(G_eps): the closed limit interval."""
    return IntervalSet.build(fam.length, [_clipped(
        fam.length, (fam.lo_const, False), (fam.hi_const, True))])


def iv_family_neighborhood_limit(fam: AffineIntervalFamily, t) -> IntervalSet:
    """Raw intersection over eps > 0 of (G_eps)^t, before taking interior.

    Endpoint-limit rule: a strictly moving open endpoint closes at its
    limit value (e.g. the intersection of (a - eps, b) over eps is [a, b));
    a stationary endpoint stays open.  Both ends clip as ``_clipped`` says.
    """
    t = _frac(t)
    if t <= 0:
        raise IntervalError(f"radius must be positive, got {t}")
    return IntervalSet.build(fam.length, [_clipped(
        fam.length, (fam.lo_const - t, fam.lo_slope == 0),
        (fam.hi_const + t, fam.hi_slope != 0))])


def iv_net_limit(fam: AffineIntervalFamily, t) -> IntervalSet:
    """Order limit at radius t of the net of neighborhood functions:
    interior of the eps-intersection of (G_eps)^t."""
    return iv_interior(iv_family_neighborhood_limit(fam, t))
