"""Text formats shared by the CLI and the library.

Grid sets CSV: one line per set, `A: v1,v2,...` through `D:`, values given
as integers, decimals, or `p/q`; `#` lines are comments.  Point CSV: one
`x,y[,z]` row per point; integer or `p/q` values make the file exact, any
decimal or scientific value makes it float (emitted with 17 significant
digits so it round-trips).
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


def parse_value(text: str) -> Fraction | float:
    """Exact Fraction for integer or p/q text, float for decimal text."""
    text = text.strip()
    if not text:
        raise ValueError("empty value")
    try:
        if "." in text or "e" in text.lower():
            return float(text)
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"invalid value {text!r}") from None


def format_value(value) -> str:
    if isinstance(value, (int, Fraction)):
        return str(value)
    return format(float(value), ".17g")


def sets_from_csv(text: str) -> GridSets:
    found: dict[str, list[Fraction]] = {}
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
                # Fraction parses integers, p/q, and decimal notation exactly
                values.append(Fraction(part))
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


def points_from_csv(text: str, dimension: int | None = None):
    """Parse point rows; returns PointSet2 or PointSet3 by column count."""
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [parse_value(p) for p in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(f"line {lineno}: expected {width} columns, got {len(values)}")
        rows.append(values)
    if not rows:
        raise ValueError("no points found")
    if dimension is not None and width != dimension:
        raise ValueError(f"expected {dimension}-column points, got {width}")
    if width == 2:
        return PointSet2.from_rows(rows)
    if width == 3:
        return PointSet3.from_rows(rows)
    raise ValueError(f"expected 2 or 3 columns, got {width}")


def points_to_csv(points: PointSet2 | PointSet3) -> str:
    return "\n".join(",".join(format_value(v) for v in row) for row in points.points) + "\n"
