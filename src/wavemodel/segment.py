"""The four-function chain over a point of the segment [0, 1].

For an interior point x of the segment, int B_t[x] exceeds the open ball
B_t(x) only by the end 0 at t = x and by the end 1 at t = 1 - x, the radii
where the ball reaches them.  So exactly four functions lie between the two:
the open ball with each choice of those ends.  The two one-sided choices
are the order limits of the window nets (x - eps, x) and (x, x + eps); they
are incomparable, all four share the singleton nucleus {x}, and after
factorization by nucleus equality they collapse to a single class.  The
order is decided at x and 1 - x; ``_probe_radii`` says which radii decide
each net's limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .interval1d import (
    AffineIntervalFamily,
    Interval,
    IntervalError,
    IntervalSet,
    iv_ball,
    iv_closure,
    iv_net_limit,
    iv_to_json,
)


@dataclass(frozen=True)
class PiecewiseBallFunction:
    """t -> B_t(center) in [0, 1], joined by the end 0 at t = center if
    ``holds_0`` and by the end 1 at t = 1 - center if ``holds_1``.  Monotone
    in t (a larger ball holds the end already); exact at every rational t."""

    center: Fraction
    holds_0: bool = False
    holds_1: bool = False
    name: str = ""

    def evaluate(self, t) -> IntervalSet:
        t = Fraction(t)
        ends = [Interval(e, True, e, True) for e, held, radius in
                ((Fraction(0), self.holds_0, self.center),
                 (Fraction(1), self.holds_1, 1 - self.center))
                if held and t == radius]
        return IntervalSet.build([*iv_ball(self.center, t).components, *ends])

    __call__ = evaluate

    @property
    def exceptions(self) -> tuple:
        """((t, value), ...) in order of t, at the radii where the value is
        not the open ball."""
        out = ((t, self.evaluate(t)) for t in sorted({self.center, 1 - self.center}))
        return tuple((t, v) for t, v in out if v != iv_ball(self.center, t))

    def leq(self, other: "PiecewiseBallFunction") -> bool:
        """Pointwise order; defined within one chain (same center), where
        the functions can differ only at the radii x and 1 - x."""
        if self.center != other.center:
            raise IntervalError("functions belong to different chains")
        return all(self.evaluate(t).is_subset(other.evaluate(t))
                   for t in {self.center, 1 - self.center})

    def nucleus(self) -> IntervalSet:
        """The single point {center}: every value contains it and shrinks
        onto it as t drops below the smallest exceptional radius."""
        return IntervalSet.point(self.center)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "center": str(self.center),
            "length": "1",  # the segment [0, 1]: a key of the segment-demo goldens
            "base": "open ball of radius t about the center",
            "exceptions": [{"t": str(t), "set": iv_to_json(v)}
                           for t, v in self.exceptions],
        }


@dataclass(frozen=True)
class FourChain:
    ball_lower: PiecewiseBallFunction    # t -> B_t(x): neither end
    atom_from_left: PiecewiseBallFunction   # limit of (x - eps, x): the end 0
    atom_from_right: PiecewiseBallFunction  # limit of (x, x + eps): the end 1
    ball_upper: PiecewiseBallFunction    # t -> int B_t[x]: both ends

    def functions(self) -> tuple:
        return (self.ball_lower, self.atom_from_left,
                self.atom_from_right, self.ball_upper)


def segment_example(x) -> FourChain:
    """The four functions over an interior point x of [0, 1]: the open ball
    with each choice of the ends 0 and 1 (x -> 1 - x swaps the two atoms)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise IntervalError("x must lie strictly inside (0, 1)")
    return FourChain(*(PiecewiseBallFunction(x, h0, h1, name) for h0, h1, name in (
        (False, False, "ball_lower"), (True, False, "atom_from_left"),
        (False, True, "atom_from_right"), (True, True, "ball_upper"))))


@dataclass(frozen=True)
class FourChainReport:
    x: Fraction
    probes: tuple
    order_ok: bool
    incomparable_ok: bool
    limits_ok: bool
    nuclei_ok: bool
    merged_exception: bool
    failures: tuple

    @property
    def all_pass(self) -> bool:
        return self.order_ok and self.incomparable_ok and self.limits_ok and self.nuclei_ok

    def to_json(self) -> dict:
        return {
            "x": str(self.x),
            "probes": [str(t) for t in self.probes],
            "order_ok": self.order_ok,
            "incomparable_ok": self.incomparable_ok,
            "limits_ok": self.limits_ok,
            "nuclei_ok": self.nuclei_ok,
            "merged_exception": self.merged_exception,
            "failures": list(self.failures),
            "all_pass": self.all_pass,
        }


def _probe_radii(x: Fraction) -> tuple:
    """Radii that decide ``limits_ok`` at every t > 0: both breakpoints
    lo = min(x, 1 - x) and hi = max(x, 1 - x), and a radius inside each
    piece (0, lo), (lo, hi) and (hi, oo).  Inside a piece both sides of the
    check are one interval with ends x - t and x + t, clipped to [0, 1],
    and end flags that do not change with t, so one radius decides it."""
    lo, hi = min(x, 1 - x), max(x, 1 - x)
    ts = {lo / 2, x, Fraction(1, 2), 1 - x, Fraction(1), Fraction(2), (hi + 1) / 2,
          (lo + hi) / 2 if lo != hi else hi + Fraction(1, 7)}
    return tuple(sorted(ts))


def verify_four_chain(x) -> FourChainReport:
    """Exact desk check of the four-function chain at probe radii.

    Verifies the pointwise order (lower <= one-sided atoms <= upper),
    incomparability of the two atoms as functions, exact reproduction of
    both atoms by their window nets and of the upper ball by the shrinking
    ball's net at every probe radius, and the common singleton nucleus {x}:
    at shrinking radii t, the closure of each value holds x and lies in
    [x - t, x + t].
    """
    x = Fraction(x)
    chain = segment_example(x)
    failures = []
    lower, a1, a2, upper = chain.functions()

    order_ok = True
    for f in (a1, a2):
        if not (lower.leq(f) and f.leq(upper)):
            order_ok = False
            failures.append(f"order violated around {f.name}")

    incomparable_ok = not a1.leq(a2) and not a2.leq(a1)
    if not incomparable_ok:
        failures.append("one-sided atoms are comparable")

    probes = _probe_radii(x)
    nets = (("left window", AffineIntervalFamily.left_window(x), a1),
            ("right window", AffineIntervalFamily.right_window(x), a2),
            ("shrinking ball", AffineIntervalFamily.shrinking_ball(x), upper))
    limits_ok = True
    for t in probes:
        for name, net, f in nets:
            if iv_net_limit(net, t) != f.evaluate(t):
                limits_ok = False
                failures.append(f"{name} limit differs at t={t}")

    nuclei_ok = True
    t0 = min(x, 1 - x) / 2
    for f in chain.functions():
        t = t0
        for _ in range(5):
            c = iv_closure(f.evaluate(t))
            hull = IntervalSet.interval(max(0, x - t), min(1, x + t), True, True)
            if not (c.contains(x) and c.is_subset(hull)):
                nuclei_ok = False
                failures.append(f"nucleus certificate fails for {f.name} at t={t}")
                break
            t /= 2

    return FourChainReport(
        x=x, probes=probes, order_ok=order_ok, incomparable_ok=incomparable_ok,
        limits_ok=limits_ok, nuclei_ok=nuclei_ok,
        merged_exception=(x * 2 == 1), failures=tuple(failures))
