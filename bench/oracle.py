"""Independent output oracle for the benchmark workloads.

This module never imports ``wavemodel``: it recomputes every checked value
from the workload's own input with numpy and the standard library only.

* Exact workloads are checked in integers.  Distances are scaled by the
  LCM of their denominators, so the geodesics (Floyd-Warshall), the closed
  form ``tau(x, y) = 2 min_z max(d(x, z), d(y, z))``, the Condition-2 defect
  sweep and the verdict are integer computations, compared with the report
  bit for bit.  Grid brackets are checked for containment of the exact tau
  with ``Fraction`` (their denominators are powers of two up to 2**60).
* The float workload (``points``) is checked within ``FLOAT_TOL``.

Every ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

#: Absolute tolerance for float reports: the CLI's default ``eta``.  Inputs
#: are points of the unit square, so distances are below 1.5 and a value
#: computed here differs from the report's by a few ulp at most.
FLOAT_TOL = 1e-9

_MAX_PROBLEMS = 5


# ---------------------------------------------------------------------------
# Distances from the workload inputs


def segment_distances(samples: int, length: Fraction):
    """Integer distances of the uniform sample of [0, length], and the scale.

    d(i, j) = |i - j| * length / (samples - 1) = D[i, j] / scale exactly.
    """
    step = Fraction(length) / (samples - 1)
    idx = np.arange(samples, dtype=np.int64)
    return np.abs(idx[:, None] - idx[None, :]) * step.numerator, step.denominator


def read_edges(path):
    """Parse an ``i j weight`` edge list into (i, j, Fraction) triples."""
    edges = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                i, j, w = line.split()
                edges.append((int(i), int(j), Fraction(w)))
    return edges


def graph_distances(edges):
    """Integer geodesic distances by Floyd-Warshall, and the scale.

    Weights are scaled by the LCM of their denominators; the graph must be
    connected with nodes 0..n-1.
    """
    scale = 1
    for _, _, w in edges:
        scale = math.lcm(scale, w.denominator)
    n = 1 + max(max(i, j) for i, j, _ in edges)
    total = sum(int(w * scale) for _, _, w in edges)
    unreachable = total + 1
    if 2 * unreachable >= 2 ** 62:
        raise ValueError("scaled edge weights overflow int64")
    d = np.full((n, n), unreachable, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j, w in edges:
        v = int(w * scale)
        if v < d[i, j]:
            d[i, j] = d[j, i] = v
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    if (d >= unreachable).any():
        raise ValueError("graph is disconnected")
    return d, scale


def read_points(path):
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh) if row])


def point_distances(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


# ---------------------------------------------------------------------------
# Closed forms


def tau_closed_form(d):
    """tau(x, y) = 2 min_z max(d(x, z), d(y, z)), all pairs at once."""
    return 2 * np.maximum(d[:, None, :], d[None, :, :]).min(axis=2)


def condition2_defects(d):
    """defect(x, y) = sup{r + s : B_r(x), B_s(y) disjoint} - d(x, y).

    Sweep: for a radius r only the open ball B_r(x) = {z : d(x, z) < r}
    matters, and the largest s with B_s(y) disjoint from it is
    min{d(y, z) : z in B_r(x)}, admissible when positive.  The sup over r is
    attained at a positive value of row x.  Points sorted by d(x, .) make
    every ball a prefix, so a running minimum over the sorted columns gives
    that s for every y and every r at once.  The sup over the empty set is 0.
    """
    n = len(d)
    out = np.zeros_like(d)
    for x in range(n):
        order = np.argsort(d[x], kind="stable")
        dx_sorted = d[x][order]
        prefix_min = np.minimum.accumulate(d[:, order], axis=1)
        radii = np.unique(dx_sorted[dx_sorted > 0])
        inside = np.searchsorted(dx_sorted, radii, side="left")
        s_max = prefix_min[:, inside - 1]
        cand = np.where(s_max > 0, radii[None, :] + s_max, 0)
        out[x] = cand.max(axis=1, initial=0) - d[x]
        out[x, x] = 0
    return out


def condition2_defects_by_definition(d):
    """The same defect from the definition: try every (r, s) radius pair.

    O(n^5); the self-test compares it with the sweep on small spaces.
    """
    n = len(d)
    out = np.zeros_like(d)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            best = 0
            for r in np.unique(d[x][d[x] > 0]):
                for s in np.unique(d[y][d[y] > 0]):
                    if not ((d[x] < r) & (d[y] < s)).any():
                        best = max(best, r + s)
            out[x, y] = best - d[x, y]
    return out


def verdict(max_defect, min_positive):
    if max_defect <= 0:
        return "holds"
    if max_defect <= 2 * min_positive:
        return "holds within sample tolerance"
    return "fails"


def min_positive(d):
    return d[d > 0].min()


# ---------------------------------------------------------------------------
# Report parsing


def _exact(value) -> Fraction:
    """A report's exact number: an int or a 'p/q' string, never a float."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact number: {value!r}")
    return Fraction(value)


def _scaled(rows, scale: int):
    """An exact report matrix as int64 values times ``scale``."""
    out = []
    for row in rows:
        out_row = []
        for v in row:
            q = _exact(v) * scale
            if q.denominator != 1:
                raise ValueError(f"{v!r} is not a multiple of 1/{scale}")
            out_row.append(q.numerator)
        out.append(out_row)
    return np.array(out, dtype=np.int64)


def _mismatches(name, got, want, tol=None):
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = (np.abs(got - want) > tol) if tol is not None else (got != want)
    return [f"{name}[{i}][{j}] = {got[i, j]}, expected {want[i, j]}"
            for i, j in np.argwhere(bad)[:_MAX_PROBLEMS]]


def _differs(got, want, tol=None) -> bool:
    if tol is None:
        return got != want
    return abs(float(got) - float(want)) > tol * (1 + abs(float(want)))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def load_csv(path):
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


# ---------------------------------------------------------------------------
# Report checks


def _check_model_report(report, d, scale, tol, with_brackets):
    """Shared checks of a ``tau``/``isometry`` JSON report against d.

    ``scale`` is the integer scale of an exact d, ``None`` for floats.
    """
    n = len(d)
    exact = scale is not None
    problems = []
    if report.get("n") != n:
        return [f"n = {report.get('n')}, expected {n}"]

    number = _exact if exact else float
    try:
        got_d = _scaled(report["d"], scale) if exact else np.array(report["d"], float)
        got_tau = _scaled(report["tau"], scale) if exact else np.array(report["tau"], float)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable matrix: {exc}"]
    problems += _mismatches("d", got_d, d, tol)
    tau = tau_closed_form(d)
    problems += _mismatches("tau", got_tau, tau, tol)

    iu = np.triu_indices(n, 1)
    dev = np.abs(tau - d)[iu].max() if n > 1 else 0
    defect = condition2_defects(d).max()
    if exact:
        # Python ints: the sums of products may exceed int64.
        num = sum(int(a) * int(b) for a, b in zip(tau[iu], d[iu]))
        den = sum(int(b) * int(b) for b in d[iu])
        homothety = Fraction(num, den) if den else None
        dev, defect = Fraction(int(dev), scale), Fraction(int(defect), scale)
        spacing = Fraction(int(min_positive(d)), scale)
    else:
        homothety = float((tau[iu] * d[iu]).sum() / (d[iu] ** 2).sum())
        spacing = float(min_positive(d))
    for key, want in (("max_abs_tau_minus_d", dev), ("homothety_c", homothety),
                      ("max_defect", defect), ("min_positive_distance", spacing)):
        try:
            got = number(report[key])
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"{key}: unreadable ({exc})")
            continue
        if _differs(got, want, tol):
            problems.append(f"{key} = {report[key]}, expected {want}")
    if report.get("atom_count") != n or report.get("warnings"):
        problems.append(f"atom_count = {report.get('atom_count')}, expected {n} "
                        f"singleton atoms; warnings {report.get('warnings')}")
    explained = "discrepancy_cause" in report
    if explained != (dev > 0 and defect > 0):
        problems.append("discrepancy_cause present iff tau != d and the max "
                        f"defect is positive; got present={explained}")
    if with_brackets:
        problems += _check_brackets(report.get("tau_brackets"), got_tau, scale)
    return problems[:_MAX_PROBLEMS]


def _check_brackets(brackets, tau_scaled, scale):
    """Every off-diagonal bracket (lower, upper) holds the exact tau."""
    n = len(tau_scaled)
    if not isinstance(brackets, list) or len(brackets) != n:
        return ["tau_brackets missing or of the wrong size"]
    problems = []
    for i in range(n):
        for j in range(n):
            lower, upper = brackets[i][j]
            if i == j:
                if (lower, upper) != (0, 0):
                    problems.append(f"tau_brackets[{i}][{i}] = {brackets[i][i]}")
                continue
            t = Fraction(int(tau_scaled[i, j]), scale)
            if not (_exact(lower) <= t and (upper == "inf" or t < _exact(upper))):
                problems.append(f"tau_brackets[{i}][{j}] = {brackets[i][j]} "
                                f"does not hold tau = {t}")
            if len(problems) >= _MAX_PROBLEMS:
                return problems
    return problems


def check_segment_tau(out_path, samples: int, length: Fraction):
    """``tau --backend segment`` JSON report with brackets, exactly."""
    d, scale = segment_distances(samples, length)
    return _check_model_report(load_json(out_path), d, scale, None, True)


def check_points_isometry(out_path, points_path):
    """``isometry --backend points`` JSON report within FLOAT_TOL."""
    d = point_distances(read_points(points_path))
    return _check_model_report(load_json(out_path), d, None, FLOAT_TOL, False)


def check_graph_defects_csv(out_path, edges_path):
    """``conditions --format csv`` on a graph: the defect matrix, exactly."""
    d, scale = graph_distances(read_edges(edges_path))
    try:
        got = _scaled(load_csv(out_path), scale)
    except ValueError as exc:
        return [f"unreadable defect matrix: {exc}"]
    return _mismatches("defects", got, condition2_defects(d))


def check_graph_conditions_json(out_path, edges_path):
    """``conditions --format json`` on a graph: defects, max and verdict."""
    d, scale = graph_distances(read_edges(edges_path))
    report = load_json(out_path)
    defects = condition2_defects(d)
    try:
        got = _scaled(report["condition2_defects"], scale)
    except (KeyError, ValueError) as exc:
        return [f"unreadable defect matrix: {exc}"]
    problems = _mismatches("defects", got, defects)
    max_defect = Fraction(int(defects.max()), scale)
    want = verdict(max_defect, Fraction(int(min_positive(d)), scale))
    if _exact(report.get("max_defect")) != max_defect:
        problems.append(f"max_defect = {report.get('max_defect')}, expected {max_defect}")
    if report.get("verdict") != want:
        problems.append(f"verdict = {report.get('verdict')!r}, expected {want!r}")
    return problems


# ---------------------------------------------------------------------------


def self_test(seed: int = 0) -> list:
    """Cross-check the defect sweep against the (r, s) definition.

    Runs on small random integer graph metrics, a discrete metric and small
    float point sets; returns a list of problems.
    """
    rng = np.random.default_rng(seed)
    problems = []
    spaces = [np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64)]
    for _ in range(4):
        n = int(rng.integers(3, 8))
        edges = [(k, k + 1, Fraction(int(rng.integers(1, 7)))) for k in range(n - 1)]
        edges += [(int(a), int(b), Fraction(int(rng.integers(1, 7))))
                  for a, b in rng.integers(0, n, size=(n, 2)) if a != b]
        spaces.append(graph_distances(edges)[0])
    for _ in range(3):
        spaces.append(point_distances(rng.random((int(rng.integers(3, 8)), 2))))
    for k, d in enumerate(spaces):
        if not np.array_equal(condition2_defects(d), condition2_defects_by_definition(d)):
            problems.append(f"defect sweep disagrees with the definition on space {k}")
    if not np.array_equal(tau_closed_form(spaces[0]), 2 * spaces[0]):
        problems.append("tau on the discrete metric is not 2 d")
    return problems
