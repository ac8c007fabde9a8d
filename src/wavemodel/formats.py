"""Input parsing: point-cloud CSV, edge lists, distance-matrix CSV.

Every parse error reports the row and column where it occurred.  Non-finite
values (nan, inf, floats that overflow) are parse errors.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction


class ParseError(ValueError):
    """Malformed input file; carries 1-based row/column positions."""

    def __init__(self, message: str, row: int, col: int):
        super().__init__(f"row {row}, col {col}: {message}")
        self.row = row
        self.col = col


def _number(text: str, row: int, col: int):
    """Parse a finite number, preferring exact rationals ('3/10', '2') over floats."""
    text = text.strip()
    try:
        if text.isascii() and text.replace("/", "", 1).isdigit():  # 'p' or 'p/q', no regex
            p, slash, q = text.partition("/")
            return Fraction(int(p), int(q)) if slash else Fraction(int(p))
        if "/" in text or ("." not in text and "e" not in text.lower()):
            return Fraction(text)
        value = float(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a number: {text!r}", row, col) from None
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {text!r}", row, col)
    return value


def _parser():
    """``_number`` that parses each distinct token once: repeated tokens
    give the same object, which the space's ingest then converts once."""
    parsed = {}

    def parse(text: str, row: int, col: int):
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = _number(text, row, col)
        return value

    return parse


def _coordinate(text: str, row: int, col: int) -> float:
    try:
        return float(_number(text, row, col))
    except OverflowError:
        raise ParseError(f"not a finite float: {text!r}", row, col) from None


def _is_label(text: str) -> bool:
    """A field that does not parse as a number, not even as nan or inf."""
    for parse in (float, Fraction):
        try:
            parse(text.strip())
            return False
        except (ValueError, ZeroDivisionError):
            pass
    return True


def _float_row(rec: list) -> list | None:
    """The fields of a row that holds no label, each read by one ``float``
    pass, where that gives ``_coordinate``'s values: every value finite and
    nonzero (``_number`` reads '-0' as 0.0, ``float`` as -0.0) and no '_'
    (``Fraction`` reads none before Python 3.11).  None for any other row."""
    try:
        row = list(map(float, rec))
    except ValueError:
        return None
    # a finite sum has no inf or nan among its terms
    if row and 0.0 not in row and math.isfinite(sum(row)) and "_" not in "".join(rec):
        return row
    return None


def load_points_csv(path: str):
    """One point per row; a non-numeric first field is taken as the label."""
    coords, labels = [], []
    with open(path, newline="") as fh:
        for r, rec in enumerate(csv.reader(fh), start=1):
            row = _float_row(rec)
            if row is not None:
                coords.append(row)
                continue
            if not rec or all(not f.strip() for f in rec):
                continue
            fields = [f for f in rec]
            start = 0
            if _is_label(fields[0]):
                labels.append(fields[0].strip())
                start = 1
                if len(fields) == 1:
                    raise ParseError("label with no coordinates", r, 1)
            row = [_coordinate(f, r, c) for c, f in
                   enumerate(fields[start:], start=start + 1)]
            coords.append(row)
    if not coords:
        raise ParseError("no points found", 1, 1)
    return coords, (labels if len(labels) == len(coords) else None)


def load_edges(path: str):
    """Whitespace-separated `i j weight` triples, 0-based indices; blank
    lines and lines that start with '#' are skipped.  Each distinct weight
    token is parsed once, to one object that every edge with it holds."""
    first, second, codes, weights = _edge_columns(path)
    return list(zip(first, second, map(weights.__getitem__, codes)))


def _edge_columns(path: str) -> tuple:
    """``load_edges`` as columns (first, second, codes, weights): the
    endpoints, and per edge the code of its weight among the distinct
    weight objects, one per distinct token in order of first use.  The file
    is read and each line split once, the endpoints parsed by one ``int``
    pass.  A file with no edge or with an error is read row by row, which
    raises its first error."""
    with open(path) as fh:
        rows = [(r, parts) for r, parts in enumerate(map(str.split, fh.read().split("\n")), 1)
                if parts and not parts[0].startswith("#")]
    try:
        if any(len(parts) != 3 for _, parts in rows):
            raise ValueError
        first, second, tokens = zip(*(parts for _, parts in rows))
        i, j = list(map(int, first)), list(map(int, second))
        if min(i) < 0 or min(j) < 0:
            raise ValueError
        code = {t: k for k, t in enumerate(dict.fromkeys(tokens))}
        weights = [_number(t, 0, 0) for t in code]
    except ValueError:  # ParseError included: the row loop raises it in place
        return _edges_by_row(rows)
    return i, j, list(map(code.__getitem__, tokens)), weights


def _edges_by_row(rows) -> tuple:
    """The columns of the split ``rows``, read one row after another,
    raising the first error with its row."""
    first, second, codes, code, weights = [], [], [], {}, []
    for r, parts in rows:
        if len(parts) != 3:
            raise ParseError(f"expected 'i j weight', got {len(parts)} fields", r, 1)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("endpoint indices must be integers", r, 1) from None
        if i < 0 or j < 0:
            raise ParseError("indices must be nonnegative", r, 1)
        if parts[2] not in code:
            code[parts[2]] = len(weights)
            weights.append(_number(parts[2], r, 3))
        first.append(i)
        second.append(j)
        codes.append(code[parts[2]])
    if not codes:
        raise ParseError("no edges found", 1, 1)
    return first, second, codes, weights


def load_matrix_csv(path: str):
    """n x n distance matrix, one row per line."""
    rows = []
    number = _parser()
    with open(path, newline="") as fh:
        for r, rec in enumerate(csv.reader(fh), start=1):
            if not rec or all(not f.strip() for f in rec):
                continue
            rows.append([number(f, r, c) for c, f in enumerate(rec, start=1)])
    if not rows:
        raise ParseError("no matrix rows found", 1, 1)
    n = len(rows)
    for r, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ParseError(f"matrix is not square: row has {len(row)} of {n} entries",
                             r, len(row))
    return rows
