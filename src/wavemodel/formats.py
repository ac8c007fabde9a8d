"""Input parsing: point-cloud CSV, edge lists, distance-matrix CSV.

Every parse error reports the row and column where it occurred.  Files are
read as UTF-8, with or without a byte-order mark; a byte that does not
decode is a parse error.  Non-finite values (nan, inf, floats that
overflow) are parse errors.  The edge and matrix loaders parse each
distinct number token once, to one object.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from fractions import Fraction


class ParseError(ValueError):
    """Malformed input file; carries 1-based row/column positions."""

    def __init__(self, message: str, row: int, col: int):
        super().__init__(f"row {row}, col {col}: {message}")
        self.row = row
        self.col = col


@contextmanager
def _text(path: str, sep: str | None):
    """``path`` open as UTF-8 text, a leading byte-order mark dropped, lines
    untranslated.  A byte that does not decode is a ``ParseError`` at its
    row and at its field, the fields split on ``sep`` (None: whitespace)."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:  # the file's first bad byte
            # "?" stands for the bad byte, so the last line and field hold it
            lines = (data[:exc.start] + b"?").splitlines()
            raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x}", len(lines),
                             len(lines[-1].decode("utf-8").split(sep))) from None
        raise


def _number(text: str, row: int, col: int):
    """Parse a finite number, preferring exact rationals ('3/10', '2') over floats;
    '_' is refused on every Python (``Fraction`` reads '1_0' from 3.11 on)."""
    text = text.strip()
    try:
        if "_" in text:
            raise ValueError(text)
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


def _integer(text: str) -> int:
    """An integer token, read by ``int`` with '_' refused as ``_number`` does."""
    if "_" in text:
        raise ValueError(text)
    return int(text)


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
    """A field that does not parse as a number, not even as nan or inf, nor
    with its '_' dropped: '1_0/3' is a number that ``_number`` refuses."""
    for parse in (float, Fraction):
        try:
            parse(text.strip().replace("_", ""))
            return False
        except (ValueError, ZeroDivisionError):
            pass
    return True


def _float_row(rec: list) -> list | None:
    """The fields of a row that holds no label, each read by one ``float``
    pass, where that gives ``_coordinate``'s values: every value finite and
    nonzero (``_number`` reads '-0' as 0.0, ``float`` as -0.0) and no '_'
    (which ``_number`` refuses).  None for any other row."""
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
    with _text(path, ",") as fh:
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
    edges = []
    number = _parser()
    with _text(path, None) as fh:
        for r, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 3:
                raise ParseError(f"expected 'i j weight', got {len(parts)} fields", r, 1)
            try:
                i, j = _integer(parts[0]), _integer(parts[1])
            except ValueError:
                raise ParseError("endpoint indices must be integers", r, 1) from None
            if i < 0 or j < 0:
                raise ParseError("indices must be nonnegative", r, 1)
            edges.append((i, j, number(parts[2], r, 3)))
    if not edges:
        raise ParseError("no edges found", 1, 1)
    return edges


def load_matrix_csv(path: str):
    """n x n distance matrix, one row per line."""
    rows = []
    number = _parser()
    with _text(path, ",") as fh:
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
