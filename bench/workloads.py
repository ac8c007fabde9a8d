"""The benchmark's workloads: seeded inputs, CLI argv and the oracle check.

Each workload makes the input of operation ``k`` from ``(seed, k)`` alone,
so the same seed gives the same inputs and no two operations of a run share
one.  ``size`` is the full size of a timed run; ``small`` is the size of the
fresh-interpreter set-up operation and of the smoke test.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle


@dataclass
class Case:
    """One operation: its argv, files and what the oracle needs."""

    argv: list
    out: str
    input: str | None  # the input file, if the command reads one
    check: object  # () -> list of problems

    def remove_files(self):
        for f in (self.input, self.out):
            if f and os.path.exists(f):
                os.remove(f)


class SegmentTau:
    name = "segment-tau"
    why = ("tau --backend segment --samples 45, own rational length per op: "
           "the paper's isometry case on exact Fractions; every layer runs, "
           "validation and defects lead")
    size, small = 45, 7

    def sizes(self, n):
        return {"samples": n, "length": "p/q with p, q uniform in [100, 999]"}

    def make(self, rng: random.Random, workdir: str, k, n: int) -> Case:
        length = Fraction(rng.randint(100, 999), rng.randint(100, 999))
        out = os.path.join(workdir, f"tau-{k}.json")
        argv = ["tau", "--backend", "segment", "--samples", str(n),
                "--length", str(length), "--out", out]
        return Case(argv, out, None,
                    lambda: oracle.check_segment_tau(out, n, length))


class PointsIsometry:
    name = "points-isometry"
    why = ("isometry --backend points, 100 uniform 2-D points per op: the float "
           "eta path; lattice balls and the largest report (0.5 MB) dominate, "
           "brackets do no work")
    size, small = 100, 8

    def sizes(self, n):
        return {"points": n, "dimension": 2, "coordinates": "uniform in [0, 1)"}

    def make(self, rng, workdir, k, n) -> Case:
        src = os.path.join(workdir, f"pts-{k}.csv")
        out = os.path.join(workdir, f"isometry-{k}.json")
        with open(src, "w") as fh:
            for _ in range(n):
                fh.write(f"{rng.random():.17g},{rng.random():.17g}\n")
        argv = ["isometry", "--backend", "points", "--input", src, "--out", out]
        return Case(argv, out, src,
                    lambda: oracle.check_points_isometry(out, src))


class GraphConditions:
    name = "graph-conditions"
    why = ("conditions --backend graph --format csv, 50 nodes and 149 rational "
           "edges per op: ingest, Dijkstra, validation, defects; no lattice or "
           "tau code runs")
    size, small = 50, 8
    denominators = (1, 2, 3, 4, 6)

    def __init__(self, fmt="csv"):
        self.fmt = fmt

    def sizes(self, n):
        return {"nodes": n, "edges": 3 * n - 1,
                "weights": "p/q, q in {1,2,3,4,6}, p uniform in [q, 6q]"}

    def write_edges(self, rng, path, n):
        """A random spanning path plus 2n further distinct random edges."""
        order = list(range(n))
        rng.shuffle(order)
        pairs = {tuple(sorted(p)) for p in zip(order, order[1:])}
        while len(pairs) < 3 * n - 1:
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        with open(path, "w") as fh:
            for i, j in sorted(pairs):
                q = rng.choice(self.denominators)
                fh.write(f"{i} {j} {Fraction(rng.randint(q, 6 * q), q)}\n")

    def make(self, rng, workdir, k, n) -> Case:
        src = os.path.join(workdir, f"edges-{k}.txt")
        out = os.path.join(workdir, f"conditions-{k}.{self.fmt}")
        self.write_edges(rng, src, n)
        argv = ["conditions", "--backend", "graph", "--input", src,
                "--format", self.fmt, "--out", out]
        check = (oracle.check_graph_defects_csv if self.fmt == "csv"
                 else oracle.check_graph_conditions_json)
        return Case(argv, out, src, lambda: check(out, src))


WORKLOADS = {w.name: w for w in (SegmentTau(), PointsIsometry(), GraphConditions())}


def rng_for(workload: str, seed: int, k) -> random.Random:
    """The generator of one operation's input, fixed by (workload, seed, k)."""
    return random.Random(f"{workload}/{seed}/{k}")
