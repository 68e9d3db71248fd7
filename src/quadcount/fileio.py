"""Text formats shared by the CLI and the library.

Grid sets CSV: one line per set, `A: v1,v2,...` through `D:`, values given
as integers, decimals, or `p/q`; `#` lines are comments.  Point CSV: one
`x,y` or `x,y,z` row per point, as many columns as the reader asks for;
integer or `p/q` values make the file exact, any decimal or scientific value
makes it float (emitted with 17 significant digits so it round-trips).  Both
read an integer as an `int` and any other exact value as a `Fraction`, the
form `polynomials.exact` stores.  No value takes `_` digit separators, which
Python's own number parsers accept or refuse by version.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import PointSet2, PointSet3
from .zerocount import GridSets

__all__ = [
    "parse_value",
    "format_value",
    "sets_from_csv",
    "sets_to_csv",
    "points_from_csv",
    "points_to_csv",
]

_SET_LABELS = ("A", "B", "C", "D")


def parse_value(text: str) -> int | Fraction | float:
    """int for integer text, Fraction for p/q text, float for decimal text."""
    text = text.strip()
    if not text:
        raise ValueError("empty value")
    try:
        # text with "_" goes to _exact_value, which refuses it
        if "_" not in text and ("." in text or "e" in text.lower()):
            return float(text)
        return _exact_value(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"invalid value {text!r}") from None


def _exact_value(text: str) -> int | Fraction:
    # int and float take "1_0", and Fraction does from Python 3.11 on: refuse
    # "_" here, so that every version reads the same values
    if "_" in text:
        raise ValueError(text)
    return int(text) if text.lstrip("+-").isdigit() else Fraction(text)


def format_value(value) -> str:
    if isinstance(value, (int, Fraction)):
        return str(value)
    return format(float(value), ".17g")


def sets_from_csv(text: str) -> GridSets:
    found: dict[str, list[int | Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, sep, rest = line.partition(":")
        label = label.strip().upper()
        if not sep or label not in _SET_LABELS:
            raise ValueError(f"line {lineno}: expected 'A: v1,v2,...' through 'D:'")
        if label in found:
            raise ValueError(f"line {lineno}: duplicate set {label}")
        found[label] = values = []
        try:
            for part in filter(None, map(str.strip, rest.split(","))):
                # integer text as an int; Fraction parses p/q and decimals exactly
                values.append(_exact_value(part))
        except ZeroDivisionError:
            raise ValueError(f"line {lineno}: zero denominator in {line!r}") from None
        except ValueError:
            raise ValueError(f"line {lineno}: invalid value {part!r}") from None
    missing = [l for l in _SET_LABELS if l not in found]
    if missing:
        raise ValueError(f"missing sets: {', '.join(missing)}")
    return GridSets.from_values(*(found[l] for l in _SET_LABELS))


def sets_to_csv(sets: GridSets) -> str:
    lines = []
    for label, values in zip(_SET_LABELS, sets.sets):
        lines.append(f"{label}: " + ",".join(format_value(v) for v in values))
    return "\n".join(lines) + "\n"


def points_from_csv(text: str, dimension: int) -> PointSet2 | PointSet3:
    """Parse rows of `dimension` (2 or 3) values into a PointSet2 or PointSet3."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [parse_value(p) for p in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if len(values) != dimension:
            raise ValueError(f"line {lineno}: expected {dimension} columns, got {len(values)}")
        rows.append(values)
    if not rows:
        raise ValueError("no points found")
    return (PointSet2 if dimension == 2 else PointSet3).from_rows(rows)


def points_to_csv(points: PointSet2 | PointSet3) -> str:
    return "\n".join(",".join(format_value(v) for v in row) for row in points.points) + "\n"
