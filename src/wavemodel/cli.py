"""Command-line front end: ingestion, dispatch, report emission.

Every number in a report is taken verbatim from a core-module operation;
this layer only arranges them.  Exit codes: 0 success, 1 metric-axiom
validation failure, 2 ingestion/parse error, 3 configuration refused,
4 the report could not be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache, partial
from typing import Iterable, Iterator

import numpy as np

from . import formats, interval1d, lattice, metric, segment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INGEST = 2
EXIT_CONFIG = 3
EXIT_OUTPUT = 4


class ConfigError(ValueError):
    pass


class OutputError(Exception):
    """Writing the report (to a file or to stdout) failed."""


def jsonable(obj):
    """Flatten Fractions, infinities and matrix tables (once per value) into
    what ``json`` and ``csv`` write: csv reports, and the tests' reference."""
    if isinstance(obj, metric._Table):
        values = np.fromiter(map(jsonable, obj.values), dtype=object, count=len(obj.values))
        return values[obj.codes].tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return "inf" if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


_quote = json.encoder.encode_basestring_ascii


def encode_report(report) -> Iterator[str]:
    """The parts of ``json.dumps(jsonable(report), indent=2, sort_keys=True)
    + "\\n"``, byte for byte, without the copy and the pure-Python encoder.

    The parts come as they are made, so the text is never held whole.  A
    scalar is one part, and so is each item's separator and key.  A matrix
    table (``metric._Table``) formats each of its values once, at the
    indent of its cells, and is one part per row.  Values must be dict (str keys),
    list, tuple, str, int, float, bool, None, Fraction or a table.
    """
    yield from _parts(report, "")
    yield "\n"


def _token(v) -> str | None:
    """The token of a scalar, as ``json.dumps(jsonable(v))`` writes it;
    None for anything else."""
    t = type(v)
    if t is Fraction:  # digits, a sign and a slash: nothing to escape
        return '"' + str(v) + '"'
    if isinstance(v, float):  # as json writes a float subclass (numpy's too)
        return '"inf"' if math.isinf(v) else "NaN" if v != v else float.__repr__(v)
    if t is int:
        return repr(v)
    if t is str:
        return _quote(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    return None


def _cell_tokens(values, cell: str) -> list:
    """The text of each table value at the indent ``cell``: finite floats and
    ints in one ``repr`` pass, and a pair of scalars (a grid bracket) from
    the tokens of its ends, each end object formatted once."""
    if {float, int}.issuperset(map(type, values)):
        tokens = list(map(repr, values))
        if "n" not in "".join(tokens):  # in "inf" and "nan", in no finite repr
            return tokens
    ends = {id(e): e for x in values if type(x) is tuple for e in x}
    ends = {k: _token(e) for k, e in ends.items()}
    pairs = [[ends[id(e)] for e in x] if type(x) is tuple else () for x in values]
    return [f"[\n{cell}  {p[0]},\n{cell}  {p[1]}\n{cell}]" if len(p) == 2 and None not in p
            else _token(x) or "".join(_parts(x, cell)) for x, p in zip(values, pairs)]


def _parts(v, indent: str) -> Iterator[str]:
    """The parts of ``v``, its lines after the first indented by ``indent``."""
    token = _token(v)
    if token is not None:
        yield token
        return
    t = type(v)
    inner = indent + "  "
    if t is metric._Table:
        cell = inner + "  "
        tokens = np.array(_cell_tokens(v.values, cell), dtype=object)
        head, sep = "[\n" + inner + "[\n" + cell, ",\n" + cell
        for row in tokens[v.codes].tolist():
            yield head + sep.join(row)
            head = "\n" + inner + "],\n" + inner + "[\n" + cell
        yield "\n" + inner + "]\n" + indent + "]"
        return
    if t is dict:
        items, ends = [(_quote(k) + ": ", v[k]) for k in sorted(v)], "{}"
    elif t is list or t is tuple:
        items, ends = [("", x) for x in v], "[]"
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not items:
        yield ends
        return
    sep = ends[0] + "\n" + inner
    for key, x in items:
        yield sep + key
        yield from _parts(x, inner)
        sep = ",\n" + inner
    yield "\n" + indent + ends[1]


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"not a rational number: {text!r}") from None


def parse_grid_spec(spec: str) -> lattice.TimeGrid:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ConfigError("grid spec must be min,max,count,law")
    lo, hi = _parse_rational(parts[0]), _parse_rational(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"grid count must be an integer: {parts[2]!r}") from None
    return lattice.make_grid(lo, hi, count, parts[3].strip())


#: The space flags each backend reads besides ``--backend``.
_BACKEND_FLAGS = {
    "points": ("input",),
    "graph": ("input",),
    "matrix": ("input",),
    "discrete": ("n",),
    "segment": ("samples", "length"),
}
_SPACE_FLAGS = ("backend", "input", "n", "samples", "length")


def _refuse_unread(args, names, reader: str) -> None:
    """Refuse the flags among ``names`` that were given but ``reader`` ignores."""
    unread = [f"--{name}" for name in names if getattr(args, name) is not None]
    if unread:
        raise ConfigError(f"{reader} does not read {', '.join(unread)}")


def build_space(args) -> metric.FiniteMetricSpace:
    backend = args.backend or "segment"
    _refuse_unread(args, [f for f in _SPACE_FLAGS[1:] if f not in _BACKEND_FLAGS[backend]],
                   f"--backend {backend}")
    try:  # out-of-range flag values are a refused configuration
        if backend == "discrete":
            if args.n is None:
                raise ConfigError("--backend discrete requires --n")
            return metric.build_discrete(args.n)
        if backend == "segment":
            if args.samples is None:
                raise ConfigError("--backend segment requires --samples")
            return metric.build_segment_sample(args.samples,
                                               _parse_rational(args.length or "1"))
    except metric.MetricError as exc:
        raise ConfigError(exc) from None
    if not args.input:
        raise ConfigError(f"--backend {backend} requires --input")
    if backend == "points":
        return metric.build_from_points(formats.load_points_csv(args.input)[0])
    if backend == "graph":
        return metric.build_from_graph(formats.load_edges(args.input))
    return metric.build_from_matrix(formats.load_matrix_csv(args.input))


def resolve_grid(args, space) -> lattice.TimeGrid:
    grid = parse_grid_spec(args.grid) if args.grid else lattice.default_grid(space)
    if not space.exact:
        lattice.check_float_range(grid.values)
    return grid


def _unit_point(args, reader: str) -> Fraction:
    """``--x``, which ``reader`` requires, as a rational inside (0, 1)."""
    if args.x is None:
        raise ConfigError(f"{reader} requires --x")
    x = _parse_rational(args.x)
    if not 0 < x < 1:
        raise ConfigError(f"--x must lie strictly inside (0, 1), got {x}")
    return x


def _write(parts: Iterable[str], path: str | None) -> None:
    """Write the text ``parts`` one at a time to ``path``, or to stdout when
    it is None, so that a report is never held whole.  A failed write
    raises ``OutputError``.  The parts are made while the file is open: if
    making one raises (``encode_report`` meets a value it cannot write),
    ``path`` is left holding the parts before it."""
    try:
        if path is not None:
            with open(path, "w", newline="", buffering=1 << 16) as fh:
                fh.writelines(parts)
            return
        out = sys.stdout
        if out is None:
            raise OutputError("stdout is closed")
        if not hasattr(out, "buffer"):  # a text-only stream, such as io.StringIO
            out.writelines(parts)
            out.flush()
            return
        out.flush()
        for part in parts:
            data = memoryview(part.encode(out.encoding, out.errors))
            while data:
                # a blocking write that the reader cuts off by closing the
                # pipe returns short, without an error; the next write raises
                data = data[out.buffer.write(data):]
        out.buffer.flush()
    except OSError as exc:
        raise OutputError(exc) from None


def emit(report: dict, args) -> None:
    """Write the report: JSON, or with ``--format csv`` one key/value row per
    key (a command's table alone is written by ``_csv_table``)."""
    if args.format != "csv":
        _write(encode_report(report), args.out)
    else:
        buf = io.StringIO()
        csv.writer(buf).writerows([k, json.dumps(v)] for k, v in jsonable(report).items())
        _write((buf.getvalue(),), args.out)


def _csv_table(table: metric._Table) -> str:
    """The text of ``csv.writer(...).writerows(table.tolist())`` for a table
    of ints, floats and Fractions, which ``csv`` writes unquoted as ``str``
    does: each distinct value's field made once, and the rows joined from
    the codes."""
    rows = np.array(list(map(str, table.values)), dtype=object)[table.codes].tolist()
    return "".join([",".join(row) + "\r\n" for row in rows])


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    try:
        space = build_space(args)
    except metric.AxiomViolation as exc:
        emit({"valid": False, "error": str(exc), "witness": list(exc.witness)}, args)
        return EXIT_VALIDATION
    emit({"valid": True, "n": space.n, "exact": space.exact,
          "min_positive_distance": space.min_positive_distance()}, args)
    return EXIT_OK


def _verdict(space, max_defect) -> str:
    if max_defect <= 0:
        return "holds"
    if max_defect <= 2 * space.min_positive_distance():
        return "holds within sample tolerance"
    return "fails"


def cmd_conditions(args) -> int:
    space = build_space(args)
    table = metric._table(space._defects, space._scale)
    if args.format == "csv":  # the table alone: no verdict, no other key
        _write((_csv_table(table),), args.out)
        return EXIT_OK
    max_defect = metric._max_defect(space)
    report = {
        "condition1": metric.check_condition1(space),
        "condition2_defects": table,
        "max_defect": max_defect,
        "verdict": _verdict(space, max_defect),
        "min_positive_distance": space.min_positive_distance(),
    }
    emit(report, args)
    return EXIT_OK


def cmd_wave_model(args, with_brackets: bool) -> int:
    """``tau`` (with the grid brackets) and ``isometry`` (without)."""
    space = build_space(args)
    grid = resolve_grid(args, space)
    if args.format == "csv":  # the tau table alone, on a grid wave_model would take
        lattice.check_grid_admissible(space, grid)
        _write((_csv_table(metric._tau_table(space)),), args.out)
        return EXIT_OK
    result = lattice.wave_model(space, grid, include_brackets=with_brackets)
    report = {
        "n": space.n,
        "tau": result.tau_table,
        "d": metric._dist_table(space),
        "max_abs_tau_minus_d": result.max_abs_tau_minus_d,
        "homothety_c": result.homothety_c,
        "condition1": result.condition1,
        "max_defect": result.max_defect,
        "atom_count": len(set(result.atoms)),
        "warnings": list(result.warnings),
        "min_positive_distance": space.min_positive_distance(),
    }
    if with_brackets:
        report["tau_brackets"] = result.bracket_table
    max_defect = result.max_defect
    if result.max_abs_tau_minus_d > 0 and max_defect > 0:
        report["discrepancy_cause"] = (
            "two-radii separation (Condition 2) fails: max defect "
            f"{max_defect}; tau need not equal d")
    emit(report, args)
    return EXIT_OK


def cmd_segment_demo(args) -> int:
    x = _unit_point(args, "segment-demo")
    chain = segment.segment_example(x)
    report = segment.verify_four_chain(x)
    traces = io.StringIO()
    w = csv.writer(traces)
    w.writerow(["t", "function", "set"])
    w.writerows([str(t), f.name, str(f.evaluate(t))]
                for t in report.probes for f in chain.functions())
    outdir = args.out or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise OutputError(exc) from None
    _write((json.dumps([f.to_json() for f in chain.functions()], indent=2),),
           os.path.join(outdir, "four_functions.json"))
    _write((json.dumps(report.to_json(), indent=2),),
           os.path.join(outdir, "chain_report.json"))
    _write((traces.getvalue(),), os.path.join(outdir, "traces.csv"))
    print(f"wrote four_functions.json, chain_report.json, traces.csv to {outdir}",
          file=sys.stderr)
    if report.merged_exception:
        print("note: x = 1/2, the two exceptional radii merge", file=sys.stderr)
    return EXIT_OK if report.all_pass else EXIT_VALIDATION


def cmd_nucleus_demo(args) -> int:
    # one subparser serves every net; refuse the flags the chosen net ignores
    if args.net in ("left-window", "right-window"):
        _refuse_unread(args, (*_SPACE_FLAGS, "grid", "center"), f"--net {args.net}")
        x = _unit_point(args, f"--net {args.net}")
        fam = (interval1d.AffineIntervalFamily.left_window(1, x)
               if args.net == "left-window"
               else interval1d.AffineIntervalFamily.right_window(1, x))
        probes = [Fraction(k, 8) for k in range(1, 12)]
        core = interval1d.iv_family_core(fam)
        trace = []
        for t in probes:
            g_t = interval1d.iv_net_limit(fam, t)
            core_t = interval1d.iv_neighborhood(core, t)
            upper = interval1d.iv_interior(interval1d.iv_closure(core_t))
            trace.append({"t": t, "limit": str(g_t),
                          "lower_ok": core_t.is_subset(g_t),
                          "upper_ok": g_t.is_subset(upper)})
        emit({"net": args.net, "x": x, "nucleus": str(core),
              "sandwich": trace}, args)
        return EXIT_OK
    _refuse_unread(args, ("x",), "--net shrinking-ball")
    if args.center is None:
        raise ConfigError("--net shrinking-ball requires --center")
    space = build_space(args)
    if not 0 <= args.center < space.n:
        raise ConfigError(f"--center {args.center} out of range")
    grid = resolve_grid(args, space)
    eps0 = (Fraction(space.diameter()) if space.n > 1 else Fraction(1))
    try:
        net = lattice.DecreasingNet.from_family(
            lambda e: metric.open_ball(space, args.center, e), eps0=eps0)
        g = lattice.net_limit(space, net, grid)
    except lattice.NetError as exc:
        emit({"error": f"non-stabilizing net: {exc}"}, args)
        return EXIT_VALIDATION
    core = lattice.nucleus(g)
    records = lattice.sandwich_check(space, g)
    emit({"net": "shrinking-ball", "center": args.center,
          "nucleus": sorted(core),
          "limit_function": g.to_json(),
          "sandwich": [{"t": r.t, "lower_ok": r.lower_ok,
                        "upper_ok": r.upper_ok} for r in records]}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding only the flags that command reads.
    Built once per process: parsing leaves the parser as it was."""
    space = argparse.ArgumentParser(add_help=False)
    # None marks a flag not given (refused where the backend or net ignores it)
    space.add_argument("--backend", help="default: segment", choices=list(_BACKEND_FLAGS))
    space.add_argument("--input", help="input file for points, graph and matrix")
    space.add_argument("--n", type=int, help="point count for --backend discrete")
    space.add_argument("--samples", type=int, help="sample count for --backend segment")
    space.add_argument("--length",
                       help="segment length as a rational, e.g. 3/2 (default: 1)")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", help="time grid spec: min,max,count,law")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", default="json", choices=["json", "csv"])
    report.add_argument("--out", help="report file (default: stdout)")
    demo = argparse.ArgumentParser(add_help=False)
    demo.add_argument("--x", help="rational point of (0,1)")
    demo.add_argument("--out", help="output directory (default: .)")
    net = argparse.ArgumentParser(add_help=False)
    net.add_argument("--net", default="shrinking-ball",
                     choices=["shrinking-ball", "left-window", "right-window"])
    net.add_argument("--x", help="rational point of (0,1) for the window nets")
    net.add_argument("--center", type=int, help="center index for the shrinking-ball net")

    p = argparse.ArgumentParser(
        prog="wavemodel",
        description="Metric neighborhoods, nuclei, atoms and the wave distance "
                    "on finite and 1-D metric backends.")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {
        "validate": (cmd_validate, [space, report]),
        "conditions": (cmd_conditions, [space, report]),
        "tau": (partial(cmd_wave_model, with_brackets=True), [space, grid, report]),
        "isometry": (partial(cmd_wave_model, with_brackets=False), [space, grid, report]),
        "segment-demo": (cmd_segment_demo, [demo]),
        "nucleus-demo": (cmd_nucleus_demo, [net, space, grid, report]),
    }
    for name, (fn, parents) in commands.items():
        sub.add_parser(name, parents=parents).set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except metric.AxiomViolation as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigError, lattice.GridError, interval1d.IntervalError) as exc:
        print(f"configuration refused: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (formats.ParseError, OSError, metric.MetricError) as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST


if __name__ == "__main__":
    sys.exit(main())
