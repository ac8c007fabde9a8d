"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the layers' public functions at the module attributes the
CLI and ``lattice.wave_model`` call them through, from this file only; the
package itself is not changed.  While installed, every wrapped call records
a span ``(op, id, parent, name, start, end)`` in memory; counting wrappers
only increment a counter.  Spans are written to a file when the run ends.

A layer's self time is the time its spans cover minus the part covered by
their child spans.  Per operation the self times of all spans add up to the
``cli`` span; the harness's own time around ``cli.main`` is the
unattributed remainder.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

from wavemodel import cli, formats, lattice, metric

#: Span name -> per-layer metric name.  The two container spans report only
#: the time none of their child spans covers.
LAYER_METRICS = {
    "formats.load": "formats.load_s",
    "metric.build": "metric.build_s",
    "metric.validate": "metric.validate_s",
    "lattice.grid": "lattice.grid_s",
    "lattice.balls": "lattice.balls_s",
    "lattice.nuclei": "lattice.nuclei_s",
    "metric.tau": "metric.tau_s",
    "lattice.brackets": "lattice.brackets_s",
    "metric.defects": "metric.defects_s",
    "lattice.wave_model": "lattice.wave_model.self_s",
    "cli.emit": "cli.emit_s",
    "cli": "cli.self_s",
}

#: Per-operation counts and their units.
COUNT_METRICS = {
    "metric.n": "count", "metric.distinct_distances": "count",
    "metric.triangle_triples": "count", "lattice.ball_evals": "count",
    "metric.defect_calls": "count", "lattice.bracket_calls": "count",
    "formats.input_bytes": "bytes", "cli.output_bytes": "bytes",
}

# the builders and loaders of the benchmark's three backends
_BUILDERS = ("build_from_points", "build_from_graph", "build_segment_sample")
_LOADERS = ("load_points_csv", "load_edges")


class Tracer:
    """Span and counter recorder; one operation at a time, one thread."""

    def __init__(self):
        self.spans = []  # (op, id, parent, name, start, end), in end order
        self.per_op = []  # one dict of layer times and counts per traced op
        self._stack = []
        self._next_id = 0
        self._op = None
        self._first_span = 0
        self._counts = Counter()
        self._seen = defaultdict(list)  # objects kept for the post-op counts
        self._saved = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, keep=None):
        """Wrap ``fn`` in a span.  ``keep`` names a list in ``_seen`` that
        receives the call's result, or for ``"space"`` the instance that
        ``__post_init__`` (which returns None) validated."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self._op, sid, parent, name, start, end))
            if keep is not None:
                self._seen[keep].append(args[0] if keep == "space" else result)
            return result
        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _targets(self):
        span, count = self._span, self._count
        yield cli, "main", span("cli", cli.main)
        yield cli, "emit", span("cli.emit", cli.emit)
        for name in _LOADERS:
            yield formats, name, span("formats.load", getattr(formats, name))
        for name in _BUILDERS:
            yield metric, name, span("metric.build", getattr(metric, name))
        yield (metric.FiniteMetricSpace, "__post_init__",
               span("metric.validate", metric.FiniteMetricSpace.__post_init__, "space"))
        yield metric, "condition2_report", span(
            "metric.defects", metric.condition2_report, "defects")
        yield metric, "condition2_defect", count(
            "metric.defect_calls", metric.condition2_defect)
        yield lattice, "default_grid", span("lattice.grid", lattice.default_grid)
        yield lattice, "check_grid_admissible", span(
            "lattice.grid", lattice.check_grid_admissible)
        yield lattice, "wave_model", span("lattice.wave_model", lattice.wave_model, "model")
        yield lattice, "b_star_lower", span("lattice.balls", lattice.b_star_lower)
        yield lattice, "open_ball", count("lattice.ball_evals", lattice.open_ball)
        yield lattice, "nucleus", span("lattice.nuclei", lattice.nucleus, "nucleus")
        yield lattice, "wave_distance_matrix", span("metric.tau", lattice.wave_distance_matrix)
        yield lattice, "wave_distance_classes", count(
            "lattice.bracket_calls",
            span("lattice.brackets", lattice.wave_distance_classes))
        yield lattice, "condition2_report", span(
            "metric.defects", lattice.condition2_report, "defects")

    def install(self):
        for owner, attr, wrapper in self._targets():
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- operations -------------------------------------------------------

    def start_op(self, op):
        self._op = op
        self._first_span = len(self.spans)
        self._counts.clear()
        self._seen.clear()

    def finish_op(self, wall_s, speed, input_bytes, output_bytes):
        """Derive the op's per-layer self times and counts (untimed).

        Times are multiplied by ``speed``, the op's factor to reference speed.
        """
        spans = self.spans[self._first_span:]
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            child_time[parent] += end - start
        row = dict.fromkeys(LAYER_METRICS.values(), 0.0)
        for _, sid, _, name, start, end in spans:
            row[LAYER_METRICS[name]] += (end - start - child_time[sid]) * speed
        row["trace.unattributed_s"] = wall_s * speed - sum(row.values())
        row["trace.wall_s"] = wall_s * speed
        row.update(self._op_counts(input_bytes, output_bytes))
        self.per_op.append(row)
        self._seen.clear()

    def _op_counts(self, input_bytes, output_bytes):
        counts = {
            "formats.input_bytes": input_bytes,
            "cli.output_bytes": output_bytes,
            "lattice.ball_evals": self._counts["lattice.ball_evals"],
            "metric.defect_calls": self._counts["metric.defect_calls"],
            "lattice.bracket_calls": self._counts["lattice.bracket_calls"],
            "metric.n": 0, "metric.distinct_distances": 0,
            "metric.triangle_triples": 0,
        }
        for space in self._seen["space"]:
            n = space.n
            counts["metric.n"] += n
            counts["metric.distinct_distances"] += len(
                {space.dist[i][j] for i in range(n) for j in range(i + 1, n)})
            # an accepted space has had every ordered triple checked
            counts["metric.triangle_triples"] += n ** 3
        nuclei = self._seen["nucleus"]
        counts["nuclei"] = len(nuclei)
        counts["singleton_nuclei"] = sum(len(c) == 1 for c in nuclei)
        counts["bracket_pairs"] = counts["bracket_hits"] = 0
        for model in self._seen["model"]:
            if model.brackets is None:
                continue
            n = len(model.tau)
            for i in range(n):
                for j in range(i + 1, n):
                    lower, upper = model.brackets[i][j]
                    t = model.tau[i][j]
                    counts["bracket_pairs"] += 1
                    counts["bracket_hits"] += lower <= t < upper
        counts["defect_pairs"] = counts["positive_defects"] = 0
        for report in self._seen["defects"]:
            rows = report["defects"]
            counts["defect_pairs"] += len(rows) * (len(rows) - 1)
            counts["positive_defects"] += sum(
                v > 0 for i, row in enumerate(rows) for j, v in enumerate(row) if i != j)
        return counts

    def write_spans(self, path):
        """Write every span held in memory as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

