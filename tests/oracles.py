"""Independent brute-force oracles and random-instance generators.

These deliberately avoid the closed forms under test: the separation
defect is maximized over an explicit radius grid with enumerated ball
disjointness, and the wave distance is found by scanning a fine radius
grid for the first ball intersection; both, like every oracle here, read
the distances as given (``space.dist``), never the kernel matrix.  The
scalar forms of the paper's objects that the package computes on its
kernel matrix (open and closed balls, neighborhoods, the pair defect, the
wave distance per pair, the distance to a set, the semigroup pair, the
pointwise order of lattice functions) are kept here as references.
"""

from __future__ import annotations

import csv
import functools
import heapq
import math
import random
from fractions import Fraction

import numpy as np

from wavemodel import formats, lattice, metric


def random_graph_space(rng: random.Random, n: int) -> metric.FiniteMetricSpace:
    """Exact geodesic space: random connected graph with rational weights;
    for n = 1 a self-loop, which adds only its node."""
    return metric.build_from_graph(random_graph_edges(rng, n) or [(0, 0, 1)])


def random_graph_edges(rng: random.Random, n: int) -> list:
    """A random spanning tree plus random extra edges, rational weights."""
    edges = []
    for j in range(1, n):
        i = rng.randrange(j)
        edges.append((i, j, Fraction(rng.randint(1, 40), rng.choice([3, 7, 11, 13]))))
    extra = rng.randrange(n)
    for _ in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append((i, j, Fraction(rng.randint(1, 40), rng.choice([3, 7, 11, 13]))))
    return edges


def random_point_space(rng: random.Random, n: int, dim: int = 2) -> metric.FiniteMetricSpace:
    coords = []
    seen = set()
    while len(coords) < n:
        c = tuple(round(rng.uniform(0, 10), 3) for _ in range(dim))
        if c not in seen:
            seen.add(c)
            coords.append(c)
    return metric.build_from_points(coords)


def random_space(rng: random.Random, n: int) -> metric.FiniteMetricSpace:
    return random_graph_space(rng, n) if rng.random() < 0.5 else random_point_space(rng, n)


def assert_metric_axioms(space: metric.FiniteMetricSpace) -> None:
    n = space.n
    eta = space.eta
    for i in range(n):
        assert abs(space.d(i, i)) <= eta
        for j in range(n):
            assert abs(space.d(i, j) - space.d(j, i)) <= eta
            if i != j:
                assert space.d(i, j) > eta
            for k in range(n):
                assert space.d(i, k) - space.d(i, j) - space.d(j, k) <= eta


_DELTA = 1e-6  # candidate offset below matrix values on tolerance backends


def defect_candidates(space: metric.FiniteMetricSpace):
    """All positive distance values plus midpoints of consecutive values.

    On backends with a comparison tolerance eta > 0, a ball whose radius
    equals a matrix value already swallows its boundary point, so the
    supremum is only approached from below; candidates slightly under each
    value are added to let the grid search reach it.
    """
    vals = sorted({space.d(i, j) for i in range(space.n) for j in range(space.n)
                   if space.d(i, j) > 0})
    mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
    cands = set(vals) | set(mids)
    if space.eta > 0:
        cands |= {v - _DELTA for v in vals if v > _DELTA}
    return sorted(cands)


def defect_oracle_resolution(space: metric.FiniteMetricSpace):
    """How far the grid search may fall short of the true supremum."""
    return 0 if space.eta == 0 else 2 * (_DELTA + space.eta)


def brute_force_condition2_defect(space: metric.FiniteMetricSpace, x: int, y: int):
    """Max r + s over an explicit candidate grid with enumerated disjointness."""
    if x == y:
        return 0
    cands = defect_candidates(space)
    by = {s: open_ball(space, y, s) for s in cands}
    best = 0
    for r in cands:
        bx = open_ball(space, x, r)
        for s in cands:
            if r + s <= best:
                continue
            if not (bx & by[s]):
                best = r + s
    return best - space.d(x, y)


def brute_force_tau(space: metric.FiniteMetricSpace, x: int, y: int, steps: int = 400):
    """2 * first radius on a fine grid where the open balls intersect."""
    hi = 2 * space.diameter() if space.n > 1 else 1
    if hi == 0:
        return 0, 0
    for k in range(1, steps + 1):
        t = Fraction(k, steps) * Fraction(hi)
        if open_ball(space, x, t) & open_ball(space, y, t):
            return 2 * t, 2 * Fraction(hi) / steps
    raise AssertionError("balls never intersected below twice the diameter")


def random_subset(rng: random.Random, n: int, allow_empty: bool = True) -> frozenset:
    while True:
        s = frozenset(i for i in range(n) if rng.random() < 0.4)
        if s or allow_empty:
            return s


def random_decreasing_chain(rng: random.Random, n: int, keep_nonempty: bool = False):
    """Random nested chain of subsets, shrinking by random removals."""
    cur = set(random_subset(rng, n, allow_empty=not keep_nonempty))
    if keep_nonempty and not cur:
        cur = {rng.randrange(n)}
    chain = [frozenset(cur)]
    while len(cur) > (1 if keep_nonempty else 0) and rng.random() < 0.8:
        cur.discard(rng.choice(sorted(cur)))
        if keep_nonempty and not cur:
            break
        chain.append(frozenset(cur))
    return chain


def intersection_nucleus(g: lattice.LatticeFunction) -> frozenset:
    """The nucleus as the paper defines it: the intersection of g over the
    whole grid (the closures are identities on a finite space)."""
    out = g.sets[0]
    for s in g.sets[1:]:
        out = out & s
    return out


def intersection_net_limit(space: metric.FiniteMetricSpace, net: lattice.DecreasingNet,
                           grid: lattice.TimeGrid) -> lattice.LatticeFunction:
    """The order limit of a decreasing net: per grid value t, the
    intersection of G^t over every member G of the (sampled) net."""
    members = net.chain
    sets = []
    for t in grid:
        cur = None
        for g in members:
            nb = neighborhood(space, g, t) if g else frozenset()
            cur = nb if cur is None else cur & nb
        sets.append(cur)
    return lattice.LatticeFunction(grid, tuple(sets))


@functools.lru_cache(maxsize=None)
def segment_sample_cached(samples: int) -> metric.FiniteMetricSpace:
    """Validation is O(n^3); share the big samples across tests."""
    return metric.build_segment_sample(samples)


def first_axiom_failure(dist, eta):
    """(message, witness) of the first failing axiom, or None.

    The scalar loops the matrix validation replaced: row by row the
    diagonal, then symmetry and positivity for j > i, then the triangle
    inequality over every (i, j, k) in lexicographic order.
    """
    n = len(dist)
    for i in range(n):
        if abs(dist[i][i]) > eta:
            return f"d({i},{i}) = {dist[i][i]} != 0", (i,)
        for j in range(i + 1, n):
            if abs(dist[i][j] - dist[j][i]) > eta:
                return f"asymmetric: d({i},{j}) != d({j},{i})", (i, j)
            if dist[i][j] <= eta:  # a float space names its rule
                rule = f"eta = {eta}" if eta else "0"
                return f"d({i},{j}) = {dist[i][j]} <= {rule} for distinct points", (i, j)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] - dist[i][j] - dist[j][k] > eta:
                    return (f"triangle inequality fails on ({i},{j},{k}): "
                            f"d({i},{k}) > d({i},{j}) + d({j},{k})", (i, j, k))
    return None


def dijkstra_distances(edges, n: int) -> list:
    """All-pairs geodesics with path sums taken outward from each source,
    the summation order of a textbook Dijkstra."""
    adj = [dict() for _ in range(n)]
    for i, j, w in edges:
        if i != j:
            adj[i][j] = adj[j][i] = w
    rows = []
    for s in range(n):
        dist = {s: 0}
        heap = [(0, s)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u].items():
                if v not in dist or d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        rows.append([dist[v] for v in range(n)])
    return rows


def first_weight_error(edges):
    """(type, message, witness) of the first refused weight, checked edge
    by edge as the old ``metric.build_from_graph`` loop did; None if none."""
    for i, j, w in edges:
        if isinstance(w, metric._NOT_NUMBERS) or metric._rational(w) is None:
            return (metric.AxiomViolation,
                    f"weight {w!r} on edge ({i},{j}) is not a finite number", (i, j))
        if w <= 0:
            return metric.MetricError, f"nonpositive weight on edge ({i},{j})", None
    return None


def random_rational_metric(rng: random.Random, n: int, denominators=(3, 7, 11, 13)):
    """Exact non-geodesic metric: d = 1 + (a rational in [0, 1)), so every
    triangle holds (1 + a <= 2 <= 1 + b + 1 + c)."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.choice(denominators)
            rows[i][j] = rows[j][i] = 1 + Fraction(rng.randrange(q), q)
    return rows


def exact_matrix_per_entry(dist) -> tuple:
    """(scaled rows, scale): every entry converted on its own, in row-major
    order, refusing the first that is no finite number.  The loop of the old
    ``metric._exact_matrix``, the reference of its per-distinct conversion;
    a ``Fraction``'s numpy parts are read by value, as Python ints."""
    flat = []
    ints = True
    for i, row in enumerate(dist):
        for j, v in enumerate(row):
            if type(v) is not int:
                ints = False
                try:
                    v = Fraction(v)
                except (ValueError, OverflowError, TypeError):
                    raise metric.AxiomViolation(
                        f"d({i},{j}) = {v} is not a finite number", (i, j)) from None
                v = Fraction(int(v.numerator), int(v.denominator))
            flat.append(v)
    scale = math.lcm(*{v.denominator for v in flat})
    scaled = [v.numerator * (scale // v.denominator) for v in flat]
    n = len(dist)
    return [scaled[i * n:(i + 1) * n] for i in range(n)], None if ints else scale


def load_points_per_field(path: str):
    """(coords, labels) of a points CSV, every field read on its own by
    ``formats._coordinate`` after the label test: the loop of the old
    ``formats.load_points_csv``, the reference of its one-pass row path."""
    coords, labels = [], []
    with open(path, newline="") as fh:
        for r, rec in enumerate(csv.reader(fh), start=1):
            if not rec or all(not f.strip() for f in rec):
                continue
            start = 0
            if formats._is_label(rec[0]):
                labels.append(rec[0].strip())
                start = 1
                if len(rec) == 1:
                    raise formats.ParseError("label with no coordinates", r, 1)
            coords.append([formats._coordinate(f, r, c)
                           for c, f in enumerate(rec[start:], start=start + 1)])
    if not coords:
        raise formats.ParseError("no points found", 1, 1)
    return coords, (labels if len(labels) == len(coords) else None)


def number(text: str, row: int, col: int):
    """A finite number, exact ('3/10', '2') where the text has no '.' or
    exponent, else a float: ``Fraction`` and ``float`` on the text, the old
    ``formats._number``, the reference of its 'p/q' path without a regex."""
    text = text.strip()
    try:
        if "/" in text or ("." not in text and "e" not in text.lower()):
            return Fraction(text)
        value = float(text)
    except (ValueError, ZeroDivisionError):
        raise formats.ParseError(f"not a number: {text!r}", row, col) from None
    if not math.isfinite(value):
        raise formats.ParseError(f"not a finite number: {text!r}", row, col)
    return value


def load_edges_by_row(path: str):
    """The `i j weight` triples of an edge list, read line by line, each
    distinct weight token parsed once (one object per token): the loop of
    the old ``formats.load_edges``, the reference of its row loop."""
    edges = []
    parsed = {}
    with open(path) as fh:
        for r, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise formats.ParseError(f"expected 'i j weight', got {len(parts)} fields",
                                         r, 1)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise formats.ParseError("endpoint indices must be integers", r, 1) from None
            if i < 0 or j < 0:
                raise formats.ParseError("indices must be nonnegative", r, 1)
            if parts[2] not in parsed:
                parsed[parts[2]] = number(parts[2], r, 3)
            edges.append((i, j, parsed[parts[2]]))
    if not edges:
        raise formats.ParseError("no edges found", 1, 1)
    return edges


def to_values(a, scale) -> list:
    """Nested lists of API values, the diagonal's too: kernel values over
    ``scale``, one ``Fraction`` per distinct value, or the values themselves
    when ``scale`` is None.  The element-wise conversion of the old
    ``metric._to_values``, the reference of ``metric._table``."""
    rows = a.tolist()
    if scale is not None:
        memo = {}
        rows = [[memo[v] if v in memo else memo.setdefault(v, Fraction(v, scale))
                 for v in row] for row in rows]
    return rows


# ---------------------------------------------------------------------------
# Scalar references of the kernel paths


def _lt(a, b, eta: float) -> bool:
    # strict "a < b"; values within eta of the threshold count as "in"
    return a < b if eta == 0 else a <= b + eta


def _le(a, b, eta: float) -> bool:
    return a <= b if eta == 0 else a <= b + eta


def open_ball(space: metric.FiniteMetricSpace, x: int, r) -> frozenset:
    """B_r(x) by one comparison per point: the reference of
    ``metric.open_ball`` and ``metric.open_balls``."""
    metric._check_points(space, (x,))
    if r <= 0:
        raise metric.MetricError(f"radius must be positive, got {r}")
    row = space.dist[x]
    eta = space.eta
    return frozenset(y for y in range(space.n) if _lt(row[y], r, eta))


def closed_ball(space: metric.FiniteMetricSpace, x: int, r) -> frozenset:
    """B_r[x] by one comparison per point: the reference of
    ``metric.closed_ball``."""
    metric._check_points(space, (x,))
    if r <= 0:
        raise metric.MetricError(f"radius must be positive, got {r}")
    row = space.dist[x]
    eta = space.eta
    return frozenset(y for y in range(space.n) if _le(row[y], r, eta))


def neighborhood(space: metric.FiniteMetricSpace, a: frozenset, t) -> frozenset:
    """A^t = {x : d(x, A) < t} by a minimum per point: the reference of
    ``metric.neighborhood``."""
    if t <= 0:
        raise metric.MetricError(f"radius must be positive, got {t}")
    if not a:
        return frozenset()
    metric._check_points(space, a)
    eta = space.eta
    dist = space.dist
    return frozenset(x for x in range(space.n)
                     if _lt(min(dist[x][p] for p in a), t, eta))


def condition2_defect(space: metric.FiniteMetricSpace, x: int, y: int):
    """The separation defect of one pair by a sweep over the points sorted
    by d(x, .): the reference of ``metric.condition2_defect`` and of the
    defect matrix.  On the diagonal it is d(x, x), the kernel's 0."""
    metric._check_points(space, (x, y))
    if x == y:
        return space.dist[x][y]
    dx = space.dist[x]
    dy = space.dist[y]
    order = sorted(range(space.n), key=dx.__getitem__)
    sup_rs = 0
    running = None  # min of dy over points strictly inside B_r(x)
    i = 0
    n = space.n
    while i < n:
        v = dx[order[i]]
        if v > 0 and running is not None and running > 0:
            cand = v + running
            if cand > sup_rs:
                sup_rs = cand
        while i < n and dx[order[i]] == v:
            w = dy[order[i]]
            if running is None or w < running:
                running = w
            i += 1
        if running == 0:
            break  # y already inside every larger ball around x
    return sup_rs - dx[y]


def meet(space: metric.FiniteMetricSpace) -> np.ndarray:
    """min_z max(d(x,z), d(y,z)), half of tau, as the kernel values of the
    space's ``_meet_ranks``: the (min, max) product on R that the tests
    compare with its references."""
    return space._ranks[0][space._meet_ranks]


def meet_on_values(space: metric.FiniteMetricSpace) -> np.ndarray:
    """min_z max(d(x,z), d(y,z)) as the (min, max) product of the kernel
    matrix itself: the reference of the product on the ranks R."""
    return metric._min_product(space._m, np.maximum)


def sweep_order(space: metric.FiniteMetricSpace) -> np.ndarray:
    """Per row x, the points in the order the defect sweep walks them: the
    stable argsort of R's rows on a float space, of the kernel's rows on an
    exact one (``FiniteMetricSpace._defects``)."""
    return np.argsort(space._m if space.exact else space._ranks[1], axis=1, kind="stable")


def tau_table_on_values(space: metric.FiniteMetricSpace) -> metric._Table:
    """tau as the table of 2 ``meet_on_values``, one value per distinct
    kernel value: the old exact ``metric._tau_table``, the reference of the
    table on R."""
    return metric._table(2 * meet_on_values(space), space._scale)


def wave_distance_points(space: metric.FiniteMetricSpace, x: int, y: int):
    """tau(x, y) = 2 min_z max(d(x,z), d(y,z)), one pair at a time: the
    reference of ``metric.wave_distance_matrix`` and ``WaveModelResult.tau``."""
    metric._check_points(space, (x, y))
    dx = space.dist[x]
    dy = space.dist[y]
    best = None
    for z in range(space.n):
        m = dx[z] if dx[z] > dy[z] else dy[z]
        if best is None or m < best:
            best = m
    return 2 * best


def extremes(space: metric.FiniteMetricSpace) -> tuple:
    """The least and the largest entry of ``space.dist`` over the pairs in
    ``np.triu_indices`` order: the reference of
    ``FiniteMetricSpace._extremes``.  One point has no pair: None, and its
    d(0, 0), the kernel's 0."""
    rows, cols = np.triu_indices(space.n, 1)
    upper = [space.dist[i][j] for i, j in zip(rows.tolist(), cols.tolist())]
    return min(upper, default=None), max(upper, default=space.dist[0][0])


def isometry_fit(space: metric.FiniteMetricSpace) -> tuple:
    """(max |tau - d|, c = sum tau d / sum d^2) by one loop over the pairs
    i < j in row-major order, adding one term at a time: the reference of
    ``metric.isometry_fit``; (d(0, 0), None) on one point.  Not ``sum()``,
    which compensates float sums from Python 3.12 on."""
    if space.n == 1:
        return space.d(0, 0), None
    pairs = [(space.d(i, j), wave_distance_points(space, i, j))
             for i in range(space.n) for j in range(i + 1, space.n)]
    num = den = 0
    for d, tau in pairs:
        num += tau * d
        den += d * d
    return max(abs(tau - d) for d, tau in pairs), num / den


# ---------------------------------------------------------------------------
# Continuum references on the line: Omega a finite union of closed intervals
# [a, b], sorted and disjoint, with d = |x - y|


def line_sample(intervals, h) -> list:
    """The points of each interval [a, b] at a, a + h, ..., b (h divides b - a)."""
    return [a + k * h for a, b in intervals for k in range(int((b - a) / h) + 1)]


def line_tau(intervals, x, y):
    """tau_Omega(x, y) = 2 min(d, d/2 + dist(m, Omega & [x, y])), m = (x + y)/2:
    for z in [x, y], max(|x - z|, |y - z|) = d/2 + |z - m|, and any z
    outside [x, y] gives at least d."""
    x, y = min(x, y), max(x, y)
    d, m = y - x, (x + y) / 2
    near = min(max(0, max(a, x) - m, m - min(b, y)) for a, b in intervals if a <= y and x <= b)
    return 2 * min(d, d / 2 + near)


def line_defect(intervals, x, y):
    """defect_Omega(x, y): the longest gap of Omega inside [x, y], or 0.
    If r + s > d, the real interval (y - s, x + r) lies in a gap, so
    r + s - d is at most the gap's length, and the sup attains it."""
    x, y = min(x, y), max(x, y)
    gaps = [a - b for (_, b), (a, _) in zip(intervals, intervals[1:]) if x <= b and a <= y]
    return max(gaps, default=0)


def set_distance(space: metric.FiniteMetricSpace, x: int, a: frozenset):
    """d(x, A) = inf over A; ``metric.INFINITY`` for the empty set."""
    metric._check_points(space, (x, *a))
    if not a:
        return metric.INFINITY
    row = space.dist[x]
    return min(row[p] for p in a)


def semigroup_defect(space: metric.FiniteMetricSpace, a: frozenset, r, s):
    """The pair ((A^r)^s, A^{r+s}) for the caller to compare.

    The triangle inequality forces (A^r)^s to be a subset of A^{r+s} on any
    metric space; equality is expected only when the two-radii separation
    property holds (geodesic-like spaces).  Strictness of the inclusion is
    therefore a witness of that property failing.
    """
    if r <= 0 or s <= 0:
        raise metric.MetricError("radii must be positive")
    if not a:
        raise metric.MetricError("A must be nonempty")
    return neighborhood(space, neighborhood(space, a, r), s), neighborhood(space, a, r + s)


def leq(f: lattice.LatticeFunction, g: lattice.LatticeFunction) -> bool:
    """The pointwise order f <= g of two functions on one grid."""
    if f.grid != g.grid:
        raise lattice.GridError("grids differ")
    return all(a <= b for a, b in zip(f.sets, g.sets))


def isotony_monotone_check(space: metric.FiniteMetricSpace, g: frozenset, h: frozenset,
                           grid: lattice.TimeGrid) -> bool:
    """G <= H must imply IG <= IH pointwise; vacuously true otherwise."""
    g, h = frozenset(g), frozenset(h)
    if not g <= h:
        return True
    return leq(lattice.isotony_apply(space, g, grid), lattice.isotony_apply(space, h, grid))
