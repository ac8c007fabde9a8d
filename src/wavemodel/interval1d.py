"""Exact open-set arithmetic on the segment [0, L] with rational endpoints.

Sets are finite unions of subintervals with open/closed endpoint flags,
normalized to a canonical component list so equality is structural.  The
topology is relative to the ambient segment: 0 and L are interior points
of sets containing a one-sided neighborhood of them.

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


@dataclass(frozen=True, order=True)
class Interval:
    """One component: endpoints with openness flags; may be a single point."""

    lo: Fraction
    lo_closed: bool
    hi: Fraction
    hi_closed: bool

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    def contains(self, v: Fraction) -> bool:
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.lo_closed:
            return False
        if v == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self):
        l = "[" if self.lo_closed else "("
        r = "]" if self.hi_closed else ")"
        return f"{l}{self.lo}, {self.hi}{r}"


def _touches(a: Interval, b: Interval) -> bool:
    # a.lo <= b.lo assumed; do a and b overlap or touch without a gap?
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return False


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
        kept.sort()
        merged: list[Interval] = []
        for iv in kept:
            if merged and _touches(merged[-1], iv):
                last = merged[-1]
                if iv.hi > last.hi:
                    hi, hic = iv.hi, iv.hi_closed
                elif iv.hi == last.hi:
                    hi, hic = last.hi, last.hi_closed or iv.hi_closed
                else:
                    hi, hic = last.hi, last.hi_closed
                lo, loc = last.lo, last.lo_closed
                if iv.lo == last.lo:
                    loc = loc or iv.lo_closed
                merged[-1] = Interval(lo, loc, hi, hic)
            else:
                merged.append(iv)
        return cls(length, tuple(merged))

    @classmethod
    def full(cls, length) -> "IntervalSet":
        length = _frac(length)
        return cls.build(length, [Interval(Fraction(0), True, length, True)])

    @classmethod
    def interval(cls, length, lo, hi, lo_closed: bool, hi_closed: bool) -> "IntervalSet":
        return cls.build(length, [Interval(_frac(lo), lo_closed, _frac(hi), hi_closed)])

    @classmethod
    def point(cls, length, v) -> "IntervalSet":
        v = _frac(v)
        return cls.build(length, [Interval(v, True, v, True)])

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
    out = []
    for p in a.components:
        for q in b.components:
            lo, loc = (p.lo, p.lo_closed) if p.lo > q.lo else \
                      (q.lo, q.lo_closed) if q.lo > p.lo else \
                      (p.lo, p.lo_closed and q.lo_closed)
            hi, hic = (p.hi, p.hi_closed) if p.hi < q.hi else \
                      (q.hi, q.hi_closed) if q.hi < p.hi else \
                      (p.hi, p.hi_closed and q.hi_closed)
            out.append(Interval(lo, loc, hi, hic))
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
    out = []
    for c in a.components:
        lo, hi = c.lo - t, c.hi + t
        lo, loc = (Fraction(0), True) if lo < 0 else (lo, False)
        hi, hic = (a.length, True) if hi > a.length else (hi, False)
        out.append(Interval(lo, loc, hi, hic))
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
        if self.lo_const > self.hi_const:
            raise IntervalError("family is empty for small eps")
        if self.lo_const == self.hi_const and self.lo_slope == 0 \
                and self.hi_slope == 0 and not (self.lo_closed and self.hi_closed):
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
        lo = self.lo_const + self.lo_slope * eps
        hi = self.hi_const + self.hi_slope * eps
        lo, loc = (Fraction(0), True) if lo < 0 else (lo, self.lo_closed)
        hi, hic = (self.length, True) if hi > self.length else (hi, self.hi_closed)
        return IntervalSet.interval(self.length, lo, hi, loc, hic)


def iv_family_core(fam: AffineIntervalFamily) -> IntervalSet:
    """Intersection over eps of closure(G_eps): the closed limit interval."""
    lo = max(Fraction(0), fam.lo_const)
    hi = min(fam.length, fam.hi_const)
    return IntervalSet.interval(fam.length, lo, hi, True, True)


def iv_family_neighborhood_limit(fam: AffineIntervalFamily, t) -> IntervalSet:
    """Raw intersection over eps > 0 of (G_eps)^t, before taking interior.

    Endpoint-limit rule: a strictly moving open endpoint closes at its
    limit value (e.g. the intersection of (a - eps, b) over eps is [a, b));
    a stationary endpoint keeps its flag.  Ambient endpoints strictly
    passed are closed, exactly reached keep the computed flag.
    """
    t = _frac(t)
    if t <= 0:
        raise IntervalError(f"radius must be positive, got {t}")
    lo = fam.lo_const - t
    lo_flag = fam.lo_slope != 0
    hi = fam.hi_const + t
    hi_flag = fam.hi_slope != 0
    if lo < 0:
        lo, lo_flag = Fraction(0), True
    if hi > fam.length:
        hi, hi_flag = fam.length, True
    return IntervalSet.interval(fam.length, lo, hi, lo_flag, hi_flag)


def iv_net_limit(fam: AffineIntervalFamily, t) -> IntervalSet:
    """Order limit at radius t of the net of neighborhood functions:
    interior of the eps-intersection of (G_eps)^t."""
    return iv_interior(iv_family_neighborhood_limit(fam, t))
