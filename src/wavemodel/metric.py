"""Finite metric-space backends, metric neighborhoods and ball arithmetic.

Every backend reduces to a distance matrix, and the matrix alone fixes
the number system: a space with no float entry is exact and compares
exactly; a space with a float entry (points, float matrices and weights)
compares with the single global tolerance ``eta`` = 1e-9.  A matrix is
validated unless its builder makes a metric by construction (graph
geodesics, the segment sample, the discrete metric, point clouds), and a
refusal comes from the pass that finds it: the triangle scan reads only
the rows that the (min, +) product flags.

Open sets are plain ``frozenset`` objects of point indices: a finite
metric space carries the discrete topology, so every subset is clopen and
interior/closure are identity maps.

Internally each space holds one numpy matrix, built once at construction,
and nothing else of its distances.  ``_kernel_values`` reads matrix
entries, graph weights and the segment's length, one ``_rational`` per
distinct object, and scales exact ones by the LCM of their denominators;
``_narrowed`` puts the kernel in the narrowest of int16, int32, int64 and
object that holds four times its largest entry (float spaces use float64).
``_rational`` reads radii too: a Python int as itself, any other number by
value (numpy scalars too) as a ``Fraction`` of Python ints; a bool is no
distance, but radii accept it.  Every space also ranks its distinct values
(R) for the wave distance and the tables.  Validation, balls,
neighborhoods, the defects, the wave distance and grid brackets all run on
that matrix; a given ``dist`` is read only by the constructor, which drops
it once validated, and every space makes ``dist`` from the matrix when it
is read.  Values leave this module only as ``Fraction``, ``int`` or
``float``, one type per space, and matrices of them as lists or as a
``_Table`` of codes into their distinct values.  The scalar loops the
matrix paths are tested against (balls, neighborhoods, the pair defect,
the wave distance per pair) live in the tests' ``oracles.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, starmap
from typing import Iterable, Sequence

import numpy as np

#: The upper bound of a grid bracket whose balls never meet on the grid.
INFINITY = math.inf

PointSet = frozenset

#: The comparison tolerance of every float space.
_FLOAT_ETA = 1e-9

#: Elements per temporary slab: a (rows, n, cols) block of the n^3 kernels.
_SLAB = 1 << 16
#: Bytes per (rows, cols) plane of the defect sweep, whatever the dtype, and
#: per chunk of planes that it gathers in one call: a chunk stays in cache
#: and takes a few numpy calls for many sorted positions.
_PLANE = 1 << 16
_CHUNK = 1 << 19


class MetricError(ValueError):
    """Bad input to a metric-space constructor or operation."""


class AxiomViolation(MetricError):
    """A metric axiom fails.  ``witness`` holds the offending indices."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


def _slabs(n: int, cell: int | None = None):
    """Row ranges [lo, hi) whose temporaries stay within budget, with the
    n - lo columns from lo swept: (rows, n, cols) blocks of at most
    ``_SLAB`` elements or, given the bytes of an entry ``cell``, (rows,
    cols) planes of at most ``_PLANE`` bytes."""
    budget, depth = (_SLAB, n) if cell is None else (_PLANE, cell)
    hi = 0
    while hi < n:
        lo, hi = hi, min(n, hi + max(1, budget // (depth * (n - hi))))
        yield lo, hi


def _min_product(m: np.ndarray, op) -> np.ndarray:
    """min_z op(m[x, z], m[z, y]) at every pair of a symmetric ``m``: the
    (min, max) product with ``np.maximum``, the (min, +) product with
    ``np.add``.  Exactly symmetric, as it reads rows x and y alike: slab
    [lo, hi) computes the columns from lo and mirrors the rest."""
    out = np.empty_like(m)
    for lo, hi in _slabs(len(m)):
        out[lo:hi, lo:] = op(m[lo:hi, None, :], m[None, lo:, :]).min(axis=2)
        out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


#: The int dtypes of an exact kernel, narrowest first, with their maxima.
_INT_DTYPES = tuple((t, int(np.iinfo(t).max)) for t in (np.int16, np.int32, np.int64))


def _int_dtype(top: int):
    """The narrowest of int16, int32 and int64 that holds ``top``, else
    object (Python ints)."""
    return next((t for t, most in _INT_DTYPES if top <= most), object)


def _narrowed(a) -> np.ndarray:
    """The kernel ``a`` or the list of ints it gathers: float64 as it is, else
    in the narrowest of int16, int32, int64 and object that holds 4 max |a|."""
    if not isinstance(a, list) and a.dtype == np.float64:
        return a
    top = max(map(abs, a)) if isinstance(a, list) else max(-int(a.min()), int(a.max()))
    return np.asarray(a, dtype=_int_dtype(4 * top))


def _upper(n: int) -> np.ndarray:
    """The n x n mask of the pairs i < j: the upper triangle, read row-major."""
    return np.arange(n)[:, None] < np.arange(n)


#: What numpy, ``float()`` or ``Fraction()`` would read as a number but is
#: no distance: the kernel would hold its number.  Radii accept bools.
_NOT_NUMBERS = (str, bool, np.bool_)


def _rational(v):
    """The one reading of an API number as an exact value: a Python int as
    itself, any other finite number as a ``Fraction`` with Python-int parts
    (numpy ints and ``Fraction``s with numpy parts by value, numpy floats
    through ``float``); None for a str, a NaN, an infinity or a non-number."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        if isinstance(v, str):  # Fraction() would parse it
            return None
        try:
            v = Fraction(float(v) if isinstance(v, np.floating) else v)
        except (OverflowError, TypeError, ValueError):
            return None
    p, d = v.numerator, v.denominator
    return v if type(p) is int and type(d) is int else Fraction(int(p), int(d))


def _kernel_values(numbers: Sequence, kept=None) -> tuple:
    """(values, scale, refused, nonpositive) of distinct API numbers, one
    ``_rational`` each: the indices of those of ``_NOT_NUMBERS`` or no finite
    number, and of those <= 0.  Unless one is refused, ``values`` holds the
    numbers at ``kept`` (default all): float64 (inf past the float range) if
    one is a float, numpy's too, else a list of them times the LCM ``scale``
    of their denominators, Python ints (``scale`` None if all are)."""
    read = [None if isinstance(v, _NOT_NUMBERS) else _rational(v) for v in numbers]
    nonpositive = [k for k, q in enumerate(read) if q is not None and q.numerator <= 0]
    if refused := [k for k, q in enumerate(read) if q is None]:
        return None, None, refused, nonpositive
    if kept is not None:
        numbers, read = [numbers[k] for k in kept], [read[k] for k in kept]
    if any(isinstance(v, (float, np.floating)) for v in numbers):
        return np.array(list(map(_as_float, read))), None, refused, nonpositive
    denominators = {q.denominator for q in read}
    scale = math.lcm(*denominators)
    factor = {q: scale // q for q in denominators}
    values = [q.numerator * factor[q.denominator] for q in read]
    return values, None if all(type(q) is int for q in read) else scale, refused, nonpositive


def _kernel_matrix(rows) -> tuple:
    """(matrix, scale), read off the entries after refusing ``_NOT_NUMBERS``:
    ``_exact_matrix`` without a float entry (numpy's float scalars count),
    else float64, refusing its first entry (row-major) that is not finite."""
    types = set(chain.from_iterable(map(type, row) for row in rows))
    if any(issubclass(t, _NOT_NUMBERS) for t in types):
        i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
                    if isinstance(v, _NOT_NUMBERS))
        raise AxiomViolation(f"d({i},{j}) = {rows[i][j]!r} is not a finite number", (i, j))
    if not any(issubclass(t, (float, np.floating)) for t in types):
        return _exact_matrix(rows)
    try:
        m = np.array(rows, dtype=np.float64)
    except (OverflowError, TypeError, ValueError):
        m = np.array([[_as_float(v) for v in row] for row in rows])
    _check_finite(m, rows)
    return m, None


def _by_identity(objects: Iterable, count: int) -> tuple:
    """(first, codes) of ``count`` objects, kept alive, keyed by ``id``: where
    each distinct object first occurs, and each object's code into those."""
    ids = np.fromiter(map(id, objects), dtype=np.uintp, count=count)
    _, first, codes = np.unique(ids, return_index=True, return_inverse=True)
    return first.tolist(), codes


def _exact_matrix(dist) -> tuple:
    """The ``_kernel_values`` of the distinct entry objects, gathered back by
    their codes; the refused entry is the first in row-major order."""
    n = len(dist)
    first, codes = _by_identity(chain.from_iterable(dist), n * n)
    values, scale, refused, _ = _kernel_values([dist[k // n][k % n] for k in first])
    if refused:
        i, j = divmod(min(first[k] for k in refused), n)
        raise AxiomViolation(f"d({i},{j}) = {dist[i][j]} is not a finite number", (i, j))
    return _narrowed(values)[codes].reshape(n, n), scale


def _check_finite(m: np.ndarray, dist) -> None:
    """Refuse the first entry of ``m`` in row-major order that is not finite."""
    bad = ~np.isfinite(m)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), len(m))
        raise AxiomViolation(f"d({i},{j}) = {dist[i][j]} is not a finite number", (i, j))


def _as_float(v) -> float:
    try:
        return float(v)
    except OverflowError:  # finite, but past the floats
        return math.inf
    except (TypeError, ValueError):
        return math.nan


class _Table:
    """An n x n matrix of API values: an int array of ``codes`` into the
    tuple of distinct ``values``, the diagonal's too.  Reports render it
    once per distinct value (``cli.encode_report``)."""

    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values):
        self.codes = codes
        self.values = tuple(values)

    def rows(self, items) -> list:
        """Nested lists of ``items``, one per distinct value, gathered by the
        codes: each item object is shared by its codes."""
        return np.fromiter(items, dtype=object, count=len(self.values))[self.codes].tolist()

    def tolist(self) -> list:
        return self.rows(self.values)


def _values(a: np.ndarray, scale) -> list:
    """Kernel values as API values: ``Fraction``s over ``scale``, if not None."""
    values = a.tolist()
    return values if scale is None else [Fraction(v, scale) for v in values]


def _table(a: np.ndarray, scale) -> _Table:
    """The kernel matrix ``a`` (the defects) as API values, one per distinct
    value, the diagonal's kernel 0 too.  Ints whose range is no wider than
    the matrix are counted, not sorted; floats are told apart by their
    bits, so 0.0 and -0.0 keep their own values."""
    if a.dtype.kind == "i" and (span := int(a.max()) - (low := int(a.min())) + 1) <= a.size:
        codes, used = _in_use(a.astype(np.intp) - low, span)
        return _Table(codes, _values(np.add(used, low), scale))
    floats = a.dtype == np.float64
    distinct, codes = np.unique(a.view(np.uint64) if floats else a, return_inverse=True)
    distinct = distinct.view(np.float64) if floats else distinct
    return _Table(codes.reshape(a.shape), _values(distinct, scale))


def _in_use(codes: np.ndarray, size: int) -> tuple:
    """``codes`` into ``size`` values, renumbered to those in use in the
    narrowest int dtype that holds ``size``, so that one code past them
    fits too (the bracket diagonal's), and their indices."""
    used = np.bincount(codes.ravel(), minlength=size) > 0
    return (np.cumsum(used, dtype=_int_dtype(size)) - 1)[codes], np.flatnonzero(used).tolist()


def _tau_table(space: "FiniteMetricSpace") -> _Table:
    """tau as a table: the codes are ``_meet_ranks`` compressed to the ranks
    in use, with no second sort, the diagonal's rank 0 among them."""
    values = space._ranks[0]
    codes, used = _in_use(space._meet_ranks, len(values))
    return _Table(codes, _values(2 * values[used], space._scale))


def _dist_table(space: "FiniteMetricSpace") -> _Table:
    """``space.dist`` as a table, made without reading ``dist``: R with the
    API value of each rank, the diagonal included.  The table holds R
    itself, no copy."""
    values, ranks = space._ranks
    return _Table(ranks, _values(values, space._scale))


def _bracket_table(space: "FiniteMetricSpace", radii: Sequence) -> _Table:
    """The grid brackets: (2 r_{k-1}, 2 r_k) for each ``first_meeting`` index
    k in use, with r_{-1} = 0 and r_m = ``INFINITY`` for m radii, and (0, 0),
    a code of its own, on the diagonal."""
    codes, used = _in_use(first_meeting(space, radii), len(radii) + 1)
    ends = (0, *radii, INFINITY)
    codes.flat[::len(codes) + 1] = len(used)
    return _Table(codes, [*((2 * ends[k], 2 * ends[k + 1]) for k in used), (0, 0)])


@dataclass(frozen=True)
class FiniteMetricSpace:
    """n points with a symmetric, triangle-valid distance matrix.

    Every kernel is exactly symmetric with a zero diagonal: a float matrix,
    which validates within eta of both, keeps its upper triangle, mirrored.
    That snap, point clouds and float-weight graphs (whose stored distances
    lie within a few roundings of the true ones, README) may break a
    triangle by more than eta: ``FiniteMetricSpace(space.dist)`` may refuse
    their matrix.  The space keeps only its kernel: the given ``dist`` is
    dropped once validated, and ``dist`` is made again from the kernel
    when read, in the space's one type.  Immutable after construction; all
    operations below are pure functions, so concurrent use needs no
    synchronization.
    """

    dist: tuple

    def __post_init__(self):
        n = len(self.dist)
        if n == 0:
            raise MetricError("a metric space needs at least one point")
        for i, row in enumerate(self.dist):
            if len(row) != n:
                raise AxiomViolation(f"row {i} has length {len(row)}, expected {n}", (i,))
        m, scale = _kernel_matrix(self.dist)
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "_scale", scale)
        self._validate()
        if not self.exact:  # an exact kernel that validates has this shape
            m = np.triu(m, 1)
            object.__setattr__(self, "_m", m + m.T)
        object.__delattr__(self, "dist")  # made again from the kernel when read

    @classmethod
    def _of_kernel(cls, m: np.ndarray, scale) -> "FiniteMetricSpace":
        """The space with the kernel matrix ``m`` and ``scale`` that
        ``FiniteMetricSpace(dist)`` would build (dtype included) from its
        own ``dist``: no ingest, and no validation unless the caller runs
        ``_validate`` (a metric by construction needs none)."""
        space = object.__new__(cls)
        object.__setattr__(space, "_m", m)
        object.__setattr__(space, "_scale", scale)
        return space

    def __getattr__(self, name):
        """Runs only for an attribute the instance lacks: ``dist``, made once
        from the kernel's table (nothing else is stored, so the space
        pickles)."""
        if name != "dist" or "_m" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dist = tuple(map(tuple, _dist_table(self).tolist()))
        object.__setattr__(self, "dist", dist)
        return dist

    def __hash__(self):
        """Agrees with ``==``: equal ints, Fractions and floats hash alike."""
        return hash((self.n, self.min_positive_distance(), self.diameter()))

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"<FiniteMetricSpace: {self.n} points, {kind}, {self._m.dtype} kernel>"

    def _validate(self):
        """Raise on the first failure in the order of the scalar loops: the
        pairs (``_check_pairs``), then the triangle inequality over (i, j, k)
        in lexicographic order, refusing (d(i,k) - d(i,j)) - d(j,k) > tol, on
        the rows with d - P > margin, P = d * d the (min, +) product, if d is
        exactly symmetric and margin >= 0, else on every row.  margin is 0 if
        exact, else eta - 2^-48 D, D = max |d|: the scan's (a - b) - c and P's
        a - (b + c) take two roundings each, each off by at most 2^-53 of a
        result, with |a - b|, |b + c| <= 2D and eta <= D, so where the scan
        passes eta the product passes eta - 6 * 2^-53 D > margin."""
        self._check_pairs()
        m, n = self._m, self.n
        tol = 0 if self.exact else _FLOAT_ETA
        margin = 0 if self.exact else tol - 2.0 ** -48 * float(np.abs(m).max())
        rows = np.arange(n)
        if margin >= 0 and (m == m.T).all():
            rows = np.flatnonzero((m - _min_product(m, np.add) > margin).any(axis=1))
        step = max(1, _SLAB // (n * n))  # rows per (rows, n, n) slab
        for at in range(0, len(rows), step):
            block = m[rows[at:at + step]]
            excess = block[:, None, :] - block[:, :, None]  # (d(i,k) - d(i,j)) - d(j,k)
            excess -= m  # at (i, j, k)
            if (fails := excess > tol).any():
                b, j, k = map(int, np.unravel_index(np.argmax(fails), fails.shape))
                i = int(rows[at + b])
                raise AxiomViolation(f"triangle inequality fails on ({i},{j},{k}): "
                                     f"d({i},{k}) > d({i},{j}) + d({j},{k})", (i, j, k))

    def _check_pairs(self):
        """Raise on the first failure of the diagonal, then of symmetry and
        positivity for j > i, row by row: the scalar loops' pair checks."""
        m, n = self._m, self.n
        tol = 0 if self.exact else _FLOAT_ETA
        asym = np.abs(m - m.T) > tol
        bad = (asym | (m <= tol)) & _upper(n)
        np.fill_diagonal(bad, np.abs(np.diagonal(m)) > tol)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), n)
            dij = self.dist[i][j]  # as given while the constructor validates
            if i == j:
                raise AxiomViolation(f"d({i},{i}) = {dij} != 0", (i,))
            if asym[i, j]:
                raise AxiomViolation(f"asymmetric: d({i},{j}) != d({j},{i})", (i, j))
            rule = f"eta = {tol}" if tol else "0"
            raise AxiomViolation(f"d({i},{j}) = {dij} <= {rule} for distinct points", (i, j))

    @property
    def n(self) -> int:
        return len(self._m)

    def d(self, i: int, j: int):
        """``dist[i][j]``, read from the kernel: ``dist`` is not made."""
        return self._value(self._m[operator.index(i), operator.index(j)])

    @property
    def exact(self) -> bool:
        return self._m.dtype != np.float64

    @property
    def eta(self) -> float:
        """The comparison tolerance: 0 on exact spaces."""
        return 0.0 if self.exact else _FLOAT_ETA

    @cached_property
    def _extremes(self) -> tuple:
        """The least distance of two distinct points (None on one point) and
        the largest distance (the kernel's 0 on one point), as API values."""
        upper = self._m[_upper(self.n)]
        return self._value(upper.min()) if len(upper) else None, self._value(self._m.max())

    def min_positive_distance(self):
        """The least distance of two distinct points; None on one point."""
        return self._extremes[0]

    def diameter(self):
        return self._extremes[1]

    # -- matrix kernels (cached: the space is immutable) ---------------------

    def _value(self, v):
        """A kernel scalar as the API value: float, int or Fraction."""
        if isinstance(v, np.generic):
            v = v.item()
        return v if self._scale is None else Fraction(v, self._scale)

    @cached_property
    def _ranks(self) -> tuple:
        """(values, R): the distinct kernel values, increasing, in its dtype,
        and the int16 or int32 matrix R of their exact ranks (no float values
        merge within eta), taken from the upper triangle, whose entries are
        positive, with the diagonal's 0 ranked first."""
        m, n = self._m, self.n
        upper = _upper(n)
        values, codes = np.unique(m[upper], return_inverse=True)
        ranks = np.zeros((n, n), dtype=_int_dtype(len(values) + 1))
        ranks[upper] = codes + 1
        ranks += ranks.T
        return np.concatenate((np.zeros(1, m.dtype), values)), ranks

    @cached_property
    def _meet_ranks(self) -> np.ndarray:
        """The ranks of min_z max(d(x,z), d(y,z)), half of tau: R's (min,
        max) product."""
        return _min_product(self._ranks[1], np.maximum)

    @cached_property
    def _defects(self) -> np.ndarray:
        """The defect sweep of ``condition2_defect`` for all pairs at once.

        Per block of rows x it walks the points z in order of d(x, .), a
        stable sort of the block's rows (of R on a float space, whose exact
        ranks tie where the floats do), whose distances are the radii r: for
        every y, the running minimum of d(y, z) over the z before a sorted
        position is the largest admissible s there, and ``best`` holds the
        largest r + s.  ``dy``, a copy of d, holds -max d on its diagonal,
        so once y is inside r + s <= r - max d <= 0, the initial ``best``.
        The positions go in chunks of at most ``_CHUNK`` bytes of (rows,
        cols) planes: one gather of their rows of ``dy``, the running minimum
        down the chunk in place, carried into the next chunk, one add of the
        radii and one max into ``best``.  These are the per-position sweep's
        sums in the kernel dtype, and a max does not round, so every defect
        is the same bit for bit.  Block [lo, hi) sweeps the columns from lo
        and mirrors the rest."""
        m, n = self._m, self.n
        keys = m if self.exact else self._ranks[1]
        dy = m.copy()
        np.fill_diagonal(dy, -m.max())
        out = np.empty_like(m)
        for lo, hi in _slabs(n, cell=m.itemsize):
            src = np.ascontiguousarray(dy[:, lo:])  # np.take would copy a view per call
            order = np.argsort(keys[lo:hi], axis=1, kind="stable")
            radii = np.take_along_axis(m[lo:hi], order, axis=1)  # sorted d(x, .)
            best = np.zeros((hi - lo, n - lo), m.dtype)
            size = max(1, min(n - 1, _CHUNK // best.nbytes))  # positions per chunk
            # chunk[j] becomes the running minimum over the points before
            # sorted position p + j, whose candidate r + s is chunk[j] +
            # radii[:, p + j], taken before its point joins the ball; inside
            # a group of equal r the running minimum only falls, so the
            # group's start holds its largest candidate
            chunk = np.empty((size + 1, *best.shape), m.dtype)
            planes = list(chunk)
            chunk[0] = src[order[:, 0]]
            for p in range(1, n, size):
                k = min(size, n - p)
                np.take(src, order[:, p:p + k].T, axis=0, out=chunk[1:k + 1], mode="clip")
                for before, plane in zip(planes, planes[1:k + 1]):
                    np.minimum(plane, before, out=plane)
                candidates = chunk[:k]
                candidates += radii[:, p:p + k].T[:, :, None]
                np.maximum(best, candidates.max(axis=0), out=best)
                chunk[0] = chunk[k]
            out[lo:hi, lo:] = best - m[lo:hi, lo:]
            out[hi:, lo:hi] = out[lo:hi, hi:].T
        np.fill_diagonal(out, 0)
        return out

    def _radius_keys(self, radii, closed: bool = False) -> np.ndarray:
        """Per radius r, the largest kernel value counted inside the ball of
        radius r, in the kernel's dtype: d < r (d <= r if ``closed``) on
        exact spaces, clamped to the largest value of an int kernel; d <= r +
        eta on float spaces, where open and closed balls coincide."""
        keys = []
        exact, scale = self.exact, self._scale or 1
        top = np.iinfo(self._m.dtype).max if self._m.dtype.kind == "i" else math.inf
        for r in radii:
            if (q := _rational(r)) is None:
                raise MetricError(f"radius must be a finite number, got {r}")
            if q.numerator <= 0:
                raise MetricError(f"radius must be positive, got {r}")
            if exact:
                keys.append(min((q.numerator * scale - (not closed)) // q.denominator, top))
            else:  # what r + eta evaluates to; every point past the floats
                keys.append(_as_float(q) + _FLOAT_ETA)
        return np.array(keys, dtype=self._m.dtype)


# ---------------------------------------------------------------------------
# Backends


def build_from_points(coords: Sequence[Sequence[float]]) -> FiniteMetricSpace:
    """Euclidean backend: float distances, tolerance 1e-9.  ``math.dist``
    of each pair, within 2 ulps of the true distance (README), fills the
    float64 kernel: a metric by construction, refused only for duplicate
    points (a pair <= eta) and distances that are not finite."""
    if not coords:
        raise MetricError("empty point cloud")
    dim = len(coords[0])
    for i, c in enumerate(coords):
        if len(c) != dim:
            raise MetricError(f"point {i} has dimension {len(c)}, expected {dim}")
    rows, cols = np.triu_indices(len(coords), 1)
    pairs = combinations(map(tuple, coords), 2)  # math.dist reads tuples without a copy
    upper = np.fromiter(starmap(math.dist, pairs), np.float64, len(rows))
    near = np.flatnonzero(upper <= _FLOAT_ETA)
    if len(near):
        raise MetricError(f"duplicate points {rows[near[0]]} and {cols[near[0]]}")
    m = np.zeros((len(coords),) * 2)
    m[rows, cols] = m[cols, rows] = upper
    _check_finite(m, m)
    return FiniteMetricSpace._of_kernel(m, None)


def build_from_graph(edges: Iterable[tuple]) -> FiniteMetricSpace:
    """Geodesic backend: all-pairs shortest paths of a weighted graph.

    The weights of the edges kept fix the number system: rational/integer
    ones give an exact space, float ones a float space.  A repeated edge
    keeps its last weight and a self-loop adds only its node.  Distances
    come from Floyd-Warshall on the kernel matrix of the weights, which the
    space takes as its kernel: geodesics are a metric by construction, float
    ones within gamma_{n-1} (README).  A float space is refused only for a
    distance within eta or past the float range.
    """
    edges = [(i, j, w) for i, j, w in edges]
    if not edges:
        raise MetricError("graph has no nodes")
    first, second, ws = zip(*edges)
    at, codes = _by_identity(ws, len(ws))  # distinct weight objects, read once each
    weights = [ws[k] for k in at]
    nodes = {*first, *second}
    m = len(nodes)
    lo = hi = last = np.zeros(0, dtype=np.intp)
    if consecutive := nodes == set(range(m)):  # each edge's last weight; no self-loop
        a, b = np.array(first, dtype=np.intp), np.array(second, dtype=np.intp)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        last = np.flatnonzero(lo != hi)[::-1]
        last = last[np.unique(lo[last] * m + hi[last], return_index=True)[1]]
        lo, hi = lo[last], hi[last]
    used, kept = np.unique(np.asarray(codes)[last], return_inverse=True)
    values, scale, refused, nonpositive = _kernel_values(weights, used.tolist())
    if not consecutive or refused or nonpositive:
        refused, nonpositive = set(refused), set(nonpositive)
        for i, j, k in zip(first, second, codes):  # the first bad weight, then the nodes
            if k in refused:
                raise AxiomViolation(
                    f"weight {weights[k]!r} on edge ({i},{j}) is not a finite number", (i, j))
            if k in nonpositive:
                raise MetricError(f"nonpositive weight on edge ({i},{j})")
        raise MetricError("graph nodes must be 0-based consecutive indices")
    exact = isinstance(values, list)
    if not exact and not np.isfinite(values).all():  # the first such edge, in row-major order
        e = int(np.argmax(~np.isfinite(values[kept])))
        i, j, bad = int(lo[e]), int(hi[e]), weights[used[kept[e]]]
        raise AxiomViolation(f"d({i},{j}) = {bad} is not a finite number", (i, j))
    # no edge: longer than any simple path (m - 1 edges); a float space finds
    # its edges by position, as a positive weight may round to 0.0
    w = _narrowed(values + [m * max([0, *values]) + 1]) if exact else np.append(values, math.inf)
    top = w[-1]
    g = np.full((m, m), top, dtype=w.dtype)
    g[lo, hi] = g[hi, lo] = w[kept]
    np.fill_diagonal(g, 0)
    with np.errstate(over="ignore"):  # a float path sum past the float range is inf
        for k in range(m):
            np.minimum(g, g[:, k, None] + g[None, k, :], out=g)
    if (g == top).any():  # no path joins a pair, or a float path sum overflows
        reach = g[0] < top  # node 0's reach, grown over the finite entries: every edge
        while (grown := (g[reach] < top).any(axis=0)).sum() > reach.sum():
            reach = grown
        if not reach.all():
            raise MetricError("graph is disconnected: no finite metric")
        _check_finite(g, g)
    if scale is not None:  # as FiniteMetricSpace(dist) reads it: a weight on no path leaves it
        c = math.gcd(scale, int(np.gcd.reduce(g, axis=None)))
        g, scale = g // c, scale // c
    space = FiniteMetricSpace._of_kernel(_narrowed(g), scale)
    if not exact:
        space._check_pairs()
    return space


def build_discrete(n: int) -> FiniteMetricSpace:
    """d(x,y) = 1 for x != y, 0 otherwise."""
    if n < 1:
        raise MetricError("n must be >= 1")
    return FiniteMetricSpace._of_kernel(1 - np.eye(n, dtype=np.int16), 1)


def build_segment_sample(samples: int, length=Fraction(1)) -> FiniteMetricSpace:
    """Uniform exact sample of the segment [0, length] (a float by its exact
    value): d(i, j) = |i - j| step, the step's numerator times |i - j| over
    its denominator."""
    if samples < 2:
        raise MetricError("need at least 2 samples")
    values, scale, refused, nonpositive = _kernel_values((length,))
    if refused:
        raise MetricError(f"length must be a finite number, got {length!r}")
    if nonpositive:
        raise MetricError("length must be positive")
    step = Fraction(values[0]) / ((scale or 1) * (samples - 1))
    ramp = _narrowed([j * step.numerator for j in range(samples)])  # j steps, scaled
    m = np.abs(ramp[:, None] - ramp)
    return FiniteMetricSpace._of_kernel(m, step.denominator)


def build_from_matrix(rows: Sequence[Sequence]) -> FiniteMetricSpace:
    return FiniteMetricSpace(tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# Neighborhoods and balls


def _check_points(space: FiniteMetricSpace, points: Iterable[int]) -> None:
    """Refuse indices outside 0..n-1 (negative ones would wrap around)."""
    if not all(0 <= p < space.n for p in points):
        raise MetricError("point index out of range")


def _prefix_sets(row: np.ndarray, keys: np.ndarray) -> tuple:
    """{y : row[y] <= key} per key, read off ``row`` sorted once; keys
    giving the same set share one frozenset."""
    order = np.argsort(row, kind="stable")
    ends = np.searchsorted(row[order], keys, side="right").tolist()
    sets = {k: frozenset(order[:k].tolist()) for k in set(ends)}
    return tuple(sets[k] for k in ends)


def _balls(space: FiniteMetricSpace, x: int, radii: Sequence, closed: bool = False) -> tuple:
    """The open (``closed``) balls about x: the point is refused first."""
    _check_points(space, (x,))
    return _prefix_sets(space._m[x], space._radius_keys(radii, closed))


def _neighborhoods(space: FiniteMetricSpace, a: PointSet, radii: Sequence) -> tuple:
    """A^t per t in ``radii``: the radii are refused first, even for an
    empty A, which maps to itself."""
    keys = space._radius_keys(radii)
    if not a:
        return (frozenset(),) * len(keys)
    _check_points(space, a)
    return _prefix_sets(space._m[:, list(a)].min(axis=1), keys)


def neighborhood(space: FiniteMetricSpace, a: PointSet, t) -> PointSet:
    """A^t = {x : d(x, A) < t}; the empty set maps to itself."""
    return _neighborhoods(space, a, (t,))[0]


def open_ball(space: FiniteMetricSpace, x: int, r) -> PointSet:
    """B_r(x) = {y : d(x, y) < r}."""
    return _balls(space, x, (r,))[0]


def open_balls(space: FiniteMetricSpace, x: int, radii: Sequence) -> tuple:
    """B_r(x) per r in ``radii``; radii giving one ball share its frozenset."""
    return _balls(space, x, radii)


def closed_ball(space: FiniteMetricSpace, x: int, r) -> PointSet:
    """B_r[x] = {y : d(x, y) <= r}."""
    return _balls(space, x, (r,), closed=True)[0]


# ---------------------------------------------------------------------------
# Conditions on the space


def check_condition1(space: FiniteMetricSpace) -> dict:
    """Closed-ball compactness: automatic for finite spaces."""
    return {
        "holds": True,
        "note": "finite space: every closed ball is a finite set, hence compact",
        "n": space.n,
    }


def condition2_defect(space: FiniteMetricSpace, x: int, y: int):
    """Worst violation of the two-radii separation property for a pair.

    defect(x, y) = sup{r + s : B_r(x) and B_s(y) disjoint, r, s > 0} - d(x, y),
    taking the sup over the empty set as 0 and defect(x, x) = 0, the
    kernel's 0 (balls about one center always intersect).  The property
    holds for the pair iff the defect is <= 0.

    For a fixed r the largest admissible s is min{d(y,z) : d(x,z) < r}, and
    the sup over r is attained at values present in the distance matrix, so
    a single sweep over points sorted by d(x, .) suffices.
    """
    _check_points(space, (x, y))
    return space._value(space._defects[x, y])


def condition2_report(space: FiniteMetricSpace) -> dict:
    """Full defect matrix plus the max defect and a verdict.

    The matrix equals ``condition2_defect`` at every pair; it is computed by
    one sweep per row x over the points in stable order of d(x, .), on
    planes of rows: candidates r + s from the running minimum of d(y, .)
    over the points before, taken for a chunk of points at a time (one
    gather, a running minimum, one add and one max); each unordered pair
    once.
    """
    max_defect = _max_defect(space)
    return {"defects": _table(space._defects, space._scale).tolist(),
            "max_defect": max_defect, "holds": max_defect <= 0}


def _max_defect(space: FiniteMetricSpace):
    """The largest defect: the diagonal's 0 when no defect is positive."""
    return space._value(space._defects.max())


# ---------------------------------------------------------------------------
# Wave distance between points (closed form)


def wave_distance_matrix(space: FiniteMetricSpace) -> list:
    """tau(x, y) = 2 inf{t : B_t(x) meets B_t(y)} = 2 min_z max(d(x,z), d(y,z))
    at every pair, from the (min, max) product.

    Symmetric, zero on the diagonal, and >= d(x, y); equals d(x, y) when the
    two-radii separation property holds, and 2 d(x, y) on the discrete metric.
    """
    return _tau_table(space).tolist()


def isometry_fit(space: FiniteMetricSpace) -> tuple:
    """(max |tau - d|, c) over the pairs i < j, with tau the closed form and
    c = sum tau d / sum d^2 the least-squares homothety factor (on one point,
    the kernel's 0 and None).  Sums run in row-major pair order, one term
    after another as a scalar loop adds them, on every Python version
    (``sum()`` compensates float sums from 3.12 on, so it is not used);
    exact terms, whose sum no order changes, take the narrowest dtype that
    holds n (n - 1) max d^2: tau <= 2 d, so each of the n (n - 1) / 2 terms
    tau d is at most 2 max d^2 and d^2 half that."""
    if space.n == 1:
        return space._value(space._m[0, 0]), None
    upper = _upper(space.n)
    d = space._m[upper]  # row-major pair order
    tau = 2 * space._ranks[0][space._meet_ranks[upper]]
    max_dev = space._value(np.abs(tau - d).max())
    kind = _int_dtype(space.n * (space.n - 1) * int(d.max()) ** 2) if space.exact else None
    # Python scalars, summed one after another in row-major pair order
    num = np.cumsum(np.multiply(tau, d, dtype=kind)).item(-1)
    den = np.cumsum(np.multiply(d, d, dtype=kind)).item(-1)
    # exact spaces: the scale cancels; int spaces divide as ints do
    c = num / den if space._scale is None else Fraction(num, den)
    return max_dev, c


def first_meeting(space: FiniteMetricSpace, radii: Sequence) -> np.ndarray:
    """An int array holding, per pair (x, y), the index of the first radius
    r at which the open balls B_r(x) and B_r(y) intersect, or
    ``len(radii)`` if they never do.

    The balls meet exactly when some z lies in both, i.e. when
    min_z max(d(x,z), d(y,z)) lies inside radius r; ``radii`` must increase.
    """
    keys, values = space._radius_keys(radii), space._ranks[0]
    return np.searchsorted(keys, values, side="left")[space._meet_ranks]
