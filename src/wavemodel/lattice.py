"""Lattice-valued functions of a radius, order limits, nuclei and atoms.

A function t -> open set is realized on a finite strictly increasing grid
of positive rationals and read on the whole grid in one call.  A
decreasing net is a finite chain; a parametric family is sampled into one
on the geometric schedule eps_0 * 2^-k until it stabilizes.  On finite
backends interior and closure are identity maps, which collapses several
of the continuum-side bounds to set equalities.  Nuclei and net limits use
the resulting closed forms (the first grid set, the image of the last net
member); the full intersections they replace are kept as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

from .metric import (
    INFINITY,
    FiniteMetricSpace,
    MetricError,
    PointSet,
    _Table,
    _as_float,
    _balls,
    _bracket_table,
    _check_points,
    _max_defect,
    _neighborhoods,
    _tau_table,
    check_condition1,
    condition2_report,
    isometry_fit,
)
# unused here: the bench tracer wraps lattice.open_ball and lattice.wave_distance_matrix
from .metric import open_ball, wave_distance_matrix  # noqa: F401


class GridError(MetricError):
    """Time grid is malformed or too coarse for the requested construction."""


class NetError(MetricError):
    """A net is not decreasing or a parametric family fails to stabilize."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive finite rationals t_1 < ... < t_m, m >= 2."""

    values: tuple

    def __post_init__(self):
        if len(self.values) < 2:
            raise GridError("grid needs at least 2 values")
        if not self.values[0] > 0:
            raise GridError("grid values must be positive")
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise GridError("grid values must be strictly increasing")
        if not self.values[-1] < INFINITY:
            raise GridError("grid values must be finite")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def make_grid(lo, hi, count: int = 64, law: str = "geometric") -> TimeGrid:
    """Build a grid between lo and hi.

    Geometric spacing goes through floats and converts back to exact binary
    rationals, so grid values essentially never coincide with the decimal
    rationals of the test spaces (which keeps grid brackets unambiguous).
    """
    if count < 2:
        raise GridError("count must be >= 2")
    if not 0 < lo < hi:
        raise GridError("need 0 < lo < hi")
    if law == "linear":
        lo, hi = Fraction(lo), Fraction(hi)
        step = (hi - lo) / (count - 1)
        vals = tuple(lo + k * step for k in range(count))
    elif law == "geometric":
        check_float_range((lo, hi))
        start = float(lo)
        ratio = (float(hi) / start) ** (1.0 / (count - 1))
        if ratio == INFINITY:
            raise GridError(f"grid ratio {_sci(hi)}/{_sci(lo)} is outside the float range")
        vals = [Fraction(start * ratio ** k) for k in range(1, count - 1)]
        vals = tuple([Fraction(lo)] + vals + [Fraction(hi)])
    else:
        raise GridError(f"unknown spacing law {law!r}")
    return TimeGrid(vals)


def check_float_range(values) -> None:
    """Refuse values without a positive finite float: the geometric law
    and float spaces compute with grid values as floats."""
    for v in values:
        if not 0 < _as_float(v) < INFINITY:
            raise GridError(f"grid value {_sci(v)} is outside the positive float range")


def _sci(v) -> str:
    """A number in six significant digits, however large its Fraction."""
    if isinstance(v, (int, Fraction)):
        v = (Decimal(v.numerator) / v.denominator).normalize()
    return f"{v:.6g}"


def default_grid(space: FiniteMetricSpace, count: int = 64) -> TimeGrid:
    """Geometric grid from min-positive-distance/4 to twice the diameter."""
    if space.n == 1:
        return make_grid(Fraction(1, 4), Fraction(2), count)
    lo = Fraction(space.min_positive_distance()) / 4
    hi = 2 * Fraction(space.diameter())
    return make_grid(lo, hi, count)


@dataclass(frozen=True)
class LatticeFunction:
    """Monotone nondecreasing map from grid values to open sets."""

    grid: TimeGrid
    sets: tuple

    def __post_init__(self):
        if len(self.sets) != len(self.grid):
            raise GridError("one set per grid value required")
        for a, b in zip(self.sets, self.sets[1:]):
            if not a <= b:
                raise NetError("lattice function is not monotone in t")

    def __call__(self, i: int) -> PointSet:
        return self.sets[i]

    def to_json(self) -> dict:
        return {
            "grid": [str(t) for t in self.grid],
            "sets": [sorted(s) for s in self.sets],
        }


#: The most samples a parametric family takes to stabilize.
_MAX_HALVINGS = 64


@dataclass(frozen=True)
class DecreasingNet:
    """A decreasing chain of open sets."""

    chain: tuple

    @classmethod
    def from_chain(cls, sets: Sequence[PointSet]) -> "DecreasingNet":
        sets = tuple(frozenset(s) for s in sets)
        if not sets:
            raise NetError("empty chain")
        for a, b in zip(sets, sets[1:]):
            if not b <= a:
                raise NetError("chain is not decreasing")
        return cls(sets)

    @classmethod
    def from_family(cls, family: Callable, eps0=Fraction(1)) -> "DecreasingNet":
        """The chain of G_eps sampled at eps0 * 2^-k until two successive
        samples coincide; refused if a sample grows or none coincide."""
        eps = Fraction(eps0)
        if eps <= 0:
            raise NetError("eps0 must be positive")
        sets, prev = [], None
        for _ in range(_MAX_HALVINGS):
            cur = frozenset(family(eps))
            if prev is not None and not cur <= prev:
                raise NetError(f"family is not decreasing at eps={eps}")
            sets.append(cur)
            if cur == prev:
                return cls(tuple(sets))
            prev = cur
            eps /= 2
        raise NetError(f"family did not stabilize within {_MAX_HALVINGS} halvings")


def isotony_apply(space: FiniteMetricSpace, g: PointSet, grid: TimeGrid) -> LatticeFunction:
    """The image of an open set under the metric isotony: t -> G^t."""
    return LatticeFunction(grid, _neighborhoods(space, frozenset(g), grid.values))


def net_limit(space: FiniteMetricSpace, net: DecreasingNet, grid: TimeGrid) -> LatticeFunction:
    """Order limit of the decreasing net of isotony images.

    Per grid point: interior of the intersection of G_alpha^t over the
    chain.  Interior is the identity on finite backends, and
    neighborhoods are monotone in the set, so the intersection over a
    decreasing chain is the image of its last member.
    """
    _check_points(space, net.chain[0])  # the first member holds all the others
    return isotony_apply(space, net.chain[-1], grid)


def nucleus(g: LatticeFunction) -> PointSet:
    """Intersection of g over the grid (with closures: identical here).

    ``LatticeFunction`` is monotone in t, so this is its smallest-t value.
    """
    return g.sets[0]


@dataclass(frozen=True)
class SandwichRecord:
    t: Fraction
    lower_ok: bool
    upper_ok: bool


def sandwich_check(space: FiniteMetricSpace, g: LatticeFunction) -> tuple:
    """Two-sided nucleus bound at every grid point.

    Lower: (nucleus)^t inside g(t).  Upper: g(t) inside the interior of the
    closure of (nucleus)^t, which on a finite backend is (nucleus)^t itself,
    so with a nonempty nucleus the check collapses to set equality.
    Failures are reported, never raised.
    """
    core_t = _neighborhoods(space, nucleus(g), g.grid.values)
    return tuple(SandwichRecord(t, c <= s, s <= c) for t, s, c in zip(g.grid, g.sets, core_t))


def b_star_lower(space: FiniteMetricSpace, x: int, grid: TimeGrid) -> LatticeFunction:
    """t -> open ball B_t(x)."""
    return LatticeFunction(grid, _balls(space, x, grid.values))


def b_star_upper(space: FiniteMetricSpace, x: int, grid: TimeGrid) -> LatticeFunction:
    """t -> interior of the closed ball B_t[x] (the ball itself here)."""
    return LatticeFunction(grid, _balls(space, x, grid.values, closed=True))


# ---------------------------------------------------------------------------
# Wave distance on the grid and the wave model


def wave_distance_classes(a: LatticeFunction, b: LatticeFunction):
    """Bracket (lower, upper) for tau between two class representatives.

    tau/2 lies between the last grid t with empty intersection and the
    first with nonempty intersection; the bracket is (0, 2 t_1) degenerated
    to lower 0 when they already meet at t_1, and (2 t_m, INFINITY) when
    they never meet on the grid.  The flip index is found by bisection --
    intersection is monotone in t for monotone functions.
    """
    if a.grid != b.grid:
        raise GridError("grids differ")
    m = len(a.grid)
    if not (a.sets[-1] & b.sets[-1]):
        return 2 * a.grid.values[-1], INFINITY
    lo, hi = 0, m - 1  # invariant: sets intersect at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if a.sets[mid] & b.sets[mid]:
            hi = mid
        else:
            lo = mid + 1
    first = lo
    lower = 0 if first == 0 else 2 * a.grid.values[first - 1]
    return lower, 2 * a.grid.values[first]


def check_grid_admissible(space: FiniteMetricSpace, grid: TimeGrid) -> None:
    """Refuse grids whose range cannot resolve nuclei and brackets."""
    if space.n == 1:
        return
    need_lo = Fraction(space.min_positive_distance()) / 2
    need_hi = space.diameter()
    if not grid.values[0] < need_lo:
        raise GridError(
            f"grid too coarse: smallest value {grid.values[0]} must be below "
            f"half the minimum positive distance ({need_lo})")
    if not grid.values[-1] > need_hi:
        raise GridError(
            f"grid too coarse: largest value {grid.values[-1]} must exceed "
            f"the diameter ({need_hi})")


@dataclass(frozen=True)
class WaveModelResult:
    """The wave model of ``space``; ``atoms[x]`` is the nucleus of point x.

    The matrices are kept as tables; ``tau``, ``brackets`` (None unless
    requested) and ``condition2`` (``condition2_report(space)``) are built
    on first access.
    """

    space: FiniteMetricSpace
    atoms: tuple
    tau_table: _Table
    max_abs_tau_minus_d: object
    homothety_c: object
    condition1: dict
    max_defect: object
    bracket_table: _Table | None = None
    warnings: tuple = ()

    @cached_property
    def tau(self) -> list:
        return self.tau_table.tolist()

    @cached_property
    def brackets(self) -> list | None:
        return None if self.bracket_table is None else self.bracket_table.tolist()

    @cached_property
    def condition2(self) -> dict:
        return condition2_report(self.space)


def wave_model(space: FiniteMetricSpace, grid: TimeGrid,
               include_brackets: bool = False) -> WaveModelResult:
    """Construct the atom set and the wave-distance matrix, plus a report.

    One atom per point, given by its nucleus: the nucleus of the open-ball
    function t -> B_t(x) is its first grid value B_{t_1}(x).  The grid is
    refused if it cannot isolate singleton nuclei.  tau comes from the
    closed form 2 min_z max(d(x,z), d(y,z)); brackets, when requested, are
    those of ``wave_distance_classes`` on the open-ball functions, found by
    locating the closed form in the grid: the open balls of radius t meet
    iff min_z max(d(x,z), d(y,z)) lies inside t.
    """
    check_grid_admissible(space, grid)
    # row x of d < t_1 (d <= t_1 + eta on float spaces) is the nucleus of x
    inside = space._m <= space._radius_keys(grid.values[:1])
    atoms = tuple(frozenset(row.nonzero()[0].tolist()) for row in inside)
    warnings = tuple(f"nucleus of point {x} is {sorted(core)}, not a singleton"
                     for x, core in enumerate(atoms) if core != {x})
    max_dev, c = isometry_fit(space)
    brackets = _bracket_table(space, grid.values) if include_brackets else None
    return WaveModelResult(
        space=space, atoms=atoms, tau_table=_tau_table(space),
        max_abs_tau_minus_d=max_dev, homothety_c=c, condition1=check_condition1(space),
        max_defect=_max_defect(space), bracket_table=brackets, warnings=warnings)
