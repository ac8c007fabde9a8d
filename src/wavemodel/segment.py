"""The four-function chain over a point of the segment [0, 1].

For an interior point x of the segment, the interval between the open-ball
function and the interior-of-closed-ball function contains exactly four
monotone functions.  Two of them arise as order limits of one-sided window
nets (x - eps, x) and (x, x + eps); they are incomparable to each other,
all four share the singleton nucleus {x}, and after factorization by
nucleus equality they collapse to a single class.

Each function equals the open-ball family B_t(x) except at finitely many
exceptional radii (t = x and t = L - x, where the ball hits an ambient
endpoint), so it is stored as the ball formula plus exact overrides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .interval1d import (
    AffineIntervalFamily,
    IntervalError,
    IntervalSet,
    iv_ball,
    iv_closure,
    iv_net_limit,
    iv_to_json,
)


@dataclass(frozen=True)
class PiecewiseBallFunction:
    """t -> B_t(center) in [0, L], with exact overrides at exceptional radii.

    Monotone in t, including across the overrides; evaluation is exact for
    every positive rational t, not only on a grid.
    """

    center: Fraction
    length: Fraction
    exceptions: tuple  # ((t, IntervalSet), ...) sorted by t
    name: str = ""

    def base(self, t) -> IntervalSet:
        return iv_ball(self.length, self.center, t)

    def evaluate(self, t) -> IntervalSet:
        t = Fraction(t)
        for te, val in self.exceptions:
            if te == t:
                return val
        return self.base(t)

    __call__ = evaluate

    def leq(self, other: "PiecewiseBallFunction") -> bool:
        """Pointwise order; defined within one chain (same center/ambient),
        where the functions can differ only at the exceptional radii."""
        if (self.center, self.length) != (other.center, other.length):
            raise IntervalError("functions belong to different chains")
        ts = {t for t, _ in self.exceptions} | {t for t, _ in other.exceptions}
        return all(self.evaluate(t).is_subset(other.evaluate(t)) for t in ts)

    def nucleus(self) -> IntervalSet:
        """The single point {center}: every value contains it and shrinks
        onto it as t drops below the smallest exceptional radius."""
        return IntervalSet.point(self.length, self.center)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "center": str(self.center),
            "length": str(self.length),
            "base": "open ball of radius t about the center",
            "exceptions": [{"t": str(t), "set": iv_to_json(v)}
                           for t, v in self.exceptions],
        }


@dataclass(frozen=True)
class FourChain:
    ball_lower: PiecewiseBallFunction    # t -> B_t(x)
    atom_from_left: PiecewiseBallFunction   # limit of (x - eps, x)
    atom_from_right: PiecewiseBallFunction  # limit of (x, x + eps)
    ball_upper: PiecewiseBallFunction    # t -> int B_t[x]

    def functions(self) -> tuple:
        return (self.ball_lower, self.atom_from_left,
                self.atom_from_right, self.ball_upper)


def _overrides(x: Fraction, length: Fraction, formula) -> tuple:
    """Collect the values at the exceptional radii that differ from the ball."""
    ts = sorted({x, length - x})
    base = lambda t: iv_ball(length, x, t)
    out = []
    for t in ts:  # both positive: segment_example refuses x outside (0, length)
        val = formula(t)
        if val != base(t):
            out.append((t, val))
    return tuple(out)


def segment_example(x, length=Fraction(1)) -> FourChain:
    """Build the four functions over an interior point x of [0, length].

    The one-sided atoms are constructed directly from their window nets via
    exact endpoint-limit arithmetic, which covers every x in (0, length)
    uniformly (the reflection x -> length - x swaps the two atoms).
    """
    x, length = Fraction(x), Fraction(length)
    if not 0 < x < length:
        raise IntervalError(f"x must lie strictly inside (0, {length})")
    left = AffineIntervalFamily.left_window(length, x)
    right = AffineIntervalFamily.right_window(length, x)
    two_sided = AffineIntervalFamily.shrinking_ball(length, x)
    lower = PiecewiseBallFunction(x, length, (), name="ball_lower")
    a_left = PiecewiseBallFunction(
        x, length, _overrides(x, length, lambda t: iv_net_limit(left, t)),
        name="atom_from_left")
    a_right = PiecewiseBallFunction(
        x, length, _overrides(x, length, lambda t: iv_net_limit(right, t)),
        name="atom_from_right")
    upper = PiecewiseBallFunction(
        x, length, _overrides(x, length, lambda t: iv_net_limit(two_sided, t)),
        name="ball_upper")
    return FourChain(lower, a_left, a_right, upper)


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
        return self.order_ok and self.incomparable_ok and self.limits_ok \
            and self.nuclei_ok

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


def _probe_radii(x: Fraction, length: Fraction) -> tuple:
    ts = {x / 2, x, length / 2, length - x, length, length * 2}
    lo, hi = min(x, length - x), max(x, length - x)
    ts.add((lo + hi) / 2 if lo != hi else hi + Fraction(1, 7))
    ts.add((hi + length) / 2)
    return tuple(sorted(t for t in ts if t > 0))


def verify_four_chain(x, length=Fraction(1)) -> FourChainReport:
    """Exact desk check of the four-function chain at probe radii.

    Verifies the pointwise order (lower <= one-sided atoms <= upper),
    incomparability of the two atoms as functions, exact reproduction of
    both atoms by their window nets at every probe radius, and the common
    singleton nucleus {x}: at shrinking radii t, the closure of each value
    holds x and lies in [x - t, x + t].
    """
    x, length = Fraction(x), Fraction(length)
    chain = segment_example(x, length)
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

    probes = _probe_radii(x, length)
    left = AffineIntervalFamily.left_window(length, x)
    right = AffineIntervalFamily.right_window(length, x)
    limits_ok = True
    for t in probes:
        if iv_net_limit(left, t) != a1.evaluate(t):
            limits_ok = False
            failures.append(f"left window limit differs at t={t}")
        if iv_net_limit(right, t) != a2.evaluate(t):
            limits_ok = False
            failures.append(f"right window limit differs at t={t}")

    nuclei_ok = True
    t0 = min(x, length - x) / 2
    for f in chain.functions():
        t = t0
        for _ in range(5):
            c = iv_closure(f.evaluate(t))
            hull = IntervalSet.interval(length, max(Fraction(0), x - t),
                                        min(length, x + t), True, True)
            if not (c.contains(x) and c.is_subset(hull)):
                nuclei_ok = False
                failures.append(f"nucleus certificate fails for {f.name} at t={t}")
                break
            t /= 2

    return FourChainReport(
        x=x, probes=probes, order_ok=order_ok, incomparable_ok=incomparable_ok,
        limits_ok=limits_ok, nuclei_ok=nuclei_ok,
        merged_exception=(x * 2 == length), failures=tuple(failures))
