"""Benchmark of the wavemodel command line, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload segment-tau --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --smoke

One closed loop with one client: a single process and thread calls
``wavemodel.cli.main(argv)`` in-process, one operation after the other,
each writing its report to a file that the independent oracle
(``oracle.py``, which never imports wavemodel) then checks.  Every
operation gets its own input, made from ``(workload, seed, k)`` before its
timing starts.  The package is imported from ``src/`` of the checkout this
script lives in; without it the script exits with an error and no result.

Times are taken at reference speed.  The machine this runs on is shared,
and its speed drifts by 20 % or more between half-minute runs, moving the
raw medians with it.  So a fixed pure-Python reference loop, which never
changes with the program, runs right before and right after every timed
call, and the call's wall time is multiplied by ``REF_S`` over the mean of
the two reference times.  The raw medians are printed beside the results.

``--trace 0`` reports the end-to-end metrics:

* ``report_s``: median time of one operation;
* ``report_s.tail``: the highest percentile with at least 10 operations
  beyond it (the percentile and sample count are printed with it);
* ``setup_s``: median time of a fresh interpreter that imports
  ``wavemodel.cli`` and completes one small operation of the workload's
  command, over SETUP_REPS interpreters;
* ``peak_rss_mb``: the benchmark process's ``ru_maxrss``.

The error rate (failed over attempted operations) is printed by name and
carried by ``attempted`` and ``failed`` in the result line.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of ``tracing.py`` from the traced ones, plus the tracing
overhead.  The last stdout line is the JSON result; the lines before it
describe the run (workload, why, input sizes, seed, versions, host).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle
from workloads import WORKLOADS, GraphConditions, rng_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 7
TAIL_BEYOND = 10  # operations beyond the reported tail percentile
OVERRUN_S = 8  # a run stops this long after --seconds even with too few ops
ENTRY = "import sys; from wavemodel.cli import main; sys.exit(main())"
#: The reference loop's wall time on the machine that recorded BASELINE.json
#: (Intel Xeon, 2 vCPUs, Python 3.11.7); reported times are scaled to it.
REF_S = 0.025


def import_package():
    """Import wavemodel from this checkout's src/, never from elsewhere."""
    package = SRC / "wavemodel"
    if not (package / "cli.py").is_file():
        sys.exit(f"bench: no wavemodel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wavemodel.cli
    if Path(wavemodel.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: wavemodel was imported from {wavemodel.cli.__file__}")


def reference_loop() -> float:
    """Wall time of fixed work like the program's: a Fraction triangle sweep
    as in validation and defects, then float ball membership into frozensets
    as in the float backend's balls."""
    start = perf_counter()
    step, n = Fraction(113, 308), 18
    d = [[abs(i - j) * step for j in range(n)] for i in range(n)]
    for i in range(n):
        di = d[i]
        for j in range(n):
            dij, dj = di[j], d[j]
            for k in range(n):
                if di[k] - dij - dj[k] > 0:
                    raise AssertionError("reference loop: triangle fails")
    row = [(i * 7919 % 997) / 997 for i in range(200)]
    for r in range(1, 41):
        frozenset(y for y in range(200) if row[y] < r / 40)
    return perf_counter() - start


def host_info() -> dict:
    import networkx
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "networkx": networkx.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


class Runner:
    """Runs and checks operations of one workload; counts failures.

    A timed operation yields ``(wall, speed)``: its wall time and the factor
    that scales it to reference speed.
    """

    def __init__(self, workload, seed: int, tracer=None):
        from wavemodel import cli
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def case(self, k, n):
        return self.workload.make(rng_for(self.workload.name, self.seed, k),
                                  str(WORK), k, n)

    def _fail(self, k, problems):
        self.failures.append((k, problems))
        print(f"bench: operation {k} failed: {problems[0]}", file=sys.stderr)

    def _check(self, k, case) -> bool:
        try:
            problems = case.check()
        except Exception:
            problems = ["oracle could not read the report:\n" + traceback.format_exc()]
        if problems:
            self._fail(k, problems)
        return not problems

    def run(self, k, n, traced=False, keep_files=False):
        """One in-process operation: ``((wall, speed) or None, case)``."""
        case = self.case(k, n)
        self.attempted += 1
        gc.collect()  # garbage of earlier operations is not this one's cost
        tracer = self.tracer if traced else None
        before = reference_loop()
        if tracer:
            tracer.install()
            tracer.start_op(k)
        start = perf_counter()
        try:
            code = self.cli.main(case.argv)
        except Exception:
            code = traceback.format_exc()
        finally:
            wall = perf_counter() - start
            if tracer:
                tracer.uninstall()
        speed = 2 * REF_S / (before + reference_loop())
        if code != 0:
            self._fail(k, [f"exit {code}"])
        ok = code == 0 and self._check(k, case)
        if ok and tracer:
            tracer.finish_op(wall, speed,
                             os.path.getsize(case.input) if case.input else 0,
                             os.path.getsize(case.out))
        if not keep_files:
            case.remove_files()
        return ((wall, speed) if ok else None), case

    def setup_times(self, reps=SETUP_REPS):
        """``(wall, speed)`` of fresh interpreters running one small operation."""
        paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        times = []
        for rep in range(reps):
            k = f"setup{rep}"
            case = self.case(k, self.workload.small)
            self.attempted += 1
            before = reference_loop()
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-c", ENTRY, *case.argv],
                                  cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
            wall = perf_counter() - start
            times.append((wall, 2 * REF_S / (before + reference_loop())))
            if proc.returncode != 0:
                self._fail(k, [f"exit {proc.returncode}: {proc.stderr.strip()}"])
            else:
                self._check(k, case)
            case.remove_files()
        return times


def measure(runner, seconds, with_trace):
    """The closed loop: operations until ``seconds`` pass, each timed alone.

    With tracing every second operation is traced.  The loop runs on until
    it has 2 * TAIL_BEYOND + 1 untraced operations, so that the tail is at
    least the median, or TAIL_BEYOND + 1 of each kind when tracing, but
    never more than OVERRUN_S past ``seconds``.
    """
    need_plain = TAIL_BEYOND + 1 if with_trace else 2 * TAIL_BEYOND + 1
    need_traced = TAIL_BEYOND + 1 if with_trace else 0
    runner.run("warmup", runner.workload.size)
    plain, traced = [], []
    start = perf_counter()
    k = 0
    while True:
        elapsed = perf_counter() - start
        enough = len(plain) >= need_plain and len(traced) >= need_traced
        if elapsed >= seconds + OVERRUN_S or (elapsed >= seconds and enough):
            break
        use_trace = with_trace and k % 2 == 1
        timing, _ = runner.run(k, runner.workload.size, traced=use_trace)
        if timing is not None:
            (traced if use_trace else plain).append(timing)
        k += 1
    return plain, traced


def scaled(timings):
    return [wall * speed for wall, speed in timings]


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND beyond."""
    ordered = sorted(times)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(plain, setup, peak_rss_mb):
    metrics = {}
    if plain:
        times = scaled(plain)
        tail_s, pct = tail(times)
        metrics["report_s"] = (statistics.median(times), "s")
        metrics["report_s.tail"] = (tail_s, "s")
        print(f"bench: report_s.tail is p{pct:.1f} of {len(times)} untraced operations")
        print(f"bench: raw median wall {statistics.median(w for w, _ in plain):.6f} s, "
              f"median speed factor {statistics.median(s for _, s in plain):.4f}")
    metrics["setup_s"] = (statistics.median(scaled(setup)), "s")
    print(f"bench: setup raw median wall {statistics.median(w for w, _ in setup):.6f} s "
          f"over {len(setup)} interpreters")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


_RATIOS = {"lattice.bracket_hit_ratio": ("bracket_hits", "bracket_pairs"),
           "lattice.singleton_nuclei_ratio": ("singleton_nuclei", "nuclei"),
           "metric.defect_positive_ratio": ("positive_defects", "defect_pairs")}


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics: medians over traced operations, pooled ratios."""
    from tracing import COUNT_METRICS, LAYER_METRICS
    rows = tracer.per_op

    def med(key):
        return statistics.median(row[key] for row in rows)

    out = {name: (med(name), "s")
           for name in [*LAYER_METRICS.values(), "trace.unattributed_s"]}
    out.update((name, (med(name), unit)) for name, unit in COUNT_METRICS.items())
    for name, (num, den) in _RATIOS.items():
        base = sum(r[den] for r in rows)
        out[name] = (sum(r[num] for r in rows) / base if base else 0.0, "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(scaled(traced)) / statistics.median(scaled(plain)), "ratio")
    return out


def print_layers(tracer, layers):
    rows = tracer.per_op
    wall = statistics.median(r["trace.wall_s"] for r in rows)
    print(f"bench: per-layer medians over {len(rows)} traced operations "
          f"(median traced time {wall:.6f} s)")
    for name, (value, unit) in layers.items():
        share = f"  {100 * value / wall:5.1f} % of the op" if unit == "s" else ""
        print(f"bench:   {name:32s} {value:.6g} {unit}{share}")
    residual = [(r["cli.self_s"] + r["lattice.wave_model.self_s"]
                 + abs(r["trace.unattributed_s"])) / r["trace.wall_s"] for r in rows]
    print("bench: cli.self_s + lattice.wave_model.self_s + |trace.unattributed_s|: "
          f"median {100 * statistics.median(residual):.2f} %, "
          f"max {100 * max(residual):.2f} % of an op's time")
    for name, (num, den) in _RATIOS.items():
        print(f"bench:   {name} = {sum(r[num] for r in rows)} / "
              f"{sum(r[den] for r in rows)} (0 when the base is empty)")


def bench(args):
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    runner = Runner(workload, args.seed, tracer)
    WORK.mkdir(exist_ok=True)
    context = {"workload": workload.name, "why": workload.why, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "inputs": workload.sizes(workload.size),
               "setup_inputs": workload.sizes(workload.small),
               "loop": "closed, one client, in-process cli.main", **host_info()}
    print("bench-context " + json.dumps(context))

    setup = runner.setup_times()
    plain, traced = measure(runner, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(plain, setup, peak_rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"bench: {name} {value:.6f} {unit}")
    attempted, failed = runner.attempted, len(runner.failures)
    print(f"bench: error_rate {failed / attempted:.6f} "
          f"({failed} failed of {attempted} attempted operations)")
    if tracer is not None:
        metrics = {}
        if traced and plain:
            metrics = layer_metrics(tracer, plain, traced)
            print_layers(tracer, metrics)
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"bench: {len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and bool(plain) and (tracer is None or bool(traced)),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


# ---------------------------------------------------------------------------


def shift_one_entry(case):
    """Rewrite the case's report with one tau (or defect) entry moved by one
    spacing, the minimum positive distance; the oracle must reject it."""
    if case.out.endswith(".csv"):
        d, scale = oracle.graph_distances(oracle.read_edges(case.input))
        rows = oracle.load_csv(case.out)
        rows[0][1] = str(Fraction(rows[0][1]) + Fraction(int(oracle.min_positive(d)), scale))
        with open(case.out, "w") as fh:
            fh.write("\n".join(",".join(r) for r in rows) + "\n")
        return
    report = oracle.load_json(case.out)
    rows = report["tau" if "tau" in report else "condition2_defects"]
    spacing = report["min_positive_distance"]
    if isinstance(spacing, float):
        rows[0][1] += spacing
    else:
        rows[0][1] = str(Fraction(rows[0][1]) + Fraction(spacing))
    with open(case.out, "w") as fh:
        json.dump(report, fh)


def smoke(seed):
    """Quick self-test: tiny inputs, one traced operation per workload.

    Each report must pass the oracle, the trace must account for the
    operation, and the oracle must reject the report once one entry is
    shifted.  ``conditions --format json`` is added for the verdict.
    """
    from tracing import Tracer
    WORK.mkdir(exist_ok=True)
    problems = [f"oracle self-test: {p}" for p in oracle.self_test(seed)]
    attempted = failed = 0
    for workload in [*WORKLOADS.values(), GraphConditions(fmt="json")]:
        label = f"{workload.name} --format {getattr(workload, 'fmt', 'json')}"
        tracer = Tracer()
        runner = Runner(workload, seed, tracer)
        timing, case = runner.run(0, workload.small, traced=True, keep_files=True)
        if timing is not None:
            if not 0 <= tracer.per_op[0]["trace.unattributed_s"] < 0.5 * timing[0]:
                problems.append(f"{label}: the trace does not account for the op")
            shift_one_entry(case)
            if not case.check():
                problems.append(f"{label}: the oracle accepted a shifted entry")
        case.remove_files()
        attempted += runner.attempted
        failed += len(runner.failures)
        print(f"bench: smoke {label}: {'ok' if timing is not None else 'FAILED'}")
    for p in problems:
        print(f"bench: smoke problem: {p}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=26)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one operation per workload, oracle on")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    import_package()
    return smoke(args.seed) if args.smoke else bench(args)


if __name__ == "__main__":
    sys.exit(main())
