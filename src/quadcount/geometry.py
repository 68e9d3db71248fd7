"""Counting coplanar quadruples, collinear triples, and four-point circles.

Exact inputs (integer or Fraction coordinates) are counted by hashing flats
in pivot form.  Each axis is first scaled by the lcm of its coordinate
denominators: a diagonal linear map preserves every incidence counted here
and leaves only integers.  Then, for each point P_i, only the flats through
P_i and the points after it are hashed:

- a line through P_i is keyed by the primitive, sign-normalized direction
  P_j - P_i, and l is its number of later points;
- a plane through P_i is keyed by the primitive, sign-normalized cross
  product of two of those line directions, m is its number of later points,
  and c is the sum of C(l, 3) over its lines.

Every key passes through P_i, so it needs no offset term, and each subset
is counted once, at its smallest index, so lines need no correction.  The
keys live in int64 numpy arrays when 8 span^2 < 2^62, where span is the
largest absolute integer coordinate: pivot differences stay below 2 span,
so every cross product fits.  Past that bound the same code runs on
dtype=object arrays of Python ints.  No float enters an exact count.

Float inputs (the numeric elliptic construction) only get the quadruple-at-
a-time determinant test with a dimensionally normalized tolerance; float
counts are validated against the exact index oracle, never trusted alone.
Their reports carry the margin the tolerance had to fall into: the largest
normalized |det| accepted and the smallest rejected.  `check_margin`
refuses a float count whose margin has collapsed.

Counts are reported unordered; reports carry the x24 / x6 ordered
equivalents, exact for proper tuples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import ClassVar, Iterable, Sequence

from .polynomials import clear_denominators
from .stages import Stages

__all__ = [
    "PointSet2",
    "PointSet3",
    "CountReport",
    "coplanar_naive",
    "check_margin",
    "coplanar_fast",
    "collinear_triples",
    "four_point_circles",
    "concyclic_quadruples_naive",
]

_EXACT_TYPES = (int, Fraction)
# keys fit int64 when 8 span^2 stays below this (see the module docstring)
_INT64_BOUND = 2**62
# a float count needs its largest accepted |det| / scale at least this factor
# below its smallest rejected one
_MARGIN_FACTOR = 100


@dataclass(frozen=True)
class _PointSet:
    """Finite list of points, exact (Fraction) or float coordinates."""

    points: tuple[tuple, ...]
    kind: str
    dimension: ClassVar[int]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]):
        pts = [tuple(row) for row in rows]
        for p in pts:
            if len(p) != cls.dimension:
                raise ValueError(f"expected {cls.dimension} coordinates, got {len(p)}")
        if all(isinstance(v, _EXACT_TYPES) for p in pts for v in p):
            return cls(tuple(tuple(Fraction(v) for v in p) for p in pts), "exact")
        return cls(tuple(tuple(float(v) for v in p) for p in pts), "float")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class PointSet3(_PointSet):
    """Finite list of 3D points, exact (Fraction) or float coordinates."""

    dimension = 3


class PointSet2(_PointSet):
    """Finite list of 2D points, exact (Fraction) or float coordinates."""

    dimension = 2


@dataclass
class CountReport:
    count: int
    method: str
    tuple_size: int
    elapsed: float
    circles: int | None = None
    degeneracy: dict[str, int] = field(default_factory=dict)
    # float coplanarity only: {"max_accepted": ..., "min_rejected": ...} of
    # |det| / scale, each None when no quadruple fell on that side
    margin: dict[str, float | None] | None = None
    # exact hashing only: {"lines": ..., "planes": ..., "kernel": ...}
    hashing: dict[str, int | str] | None = None
    # exact hashing only: seconds per stage, {"import_numpy": ...}
    stages: dict[str, float] | None = None

    @property
    def ordered_count(self) -> int:
        return self.count * math.factorial(self.tuple_size)

    def to_json(self) -> dict:
        out = {
            "count": self.count,
            "ordered_count": self.ordered_count,
            "method": self.method,
            "tuple_size": self.tuple_size,
            "elapsed_s": self.elapsed,
            "degeneracy": self.degeneracy,
        }
        if self.circles is not None:
            out["circles"] = self.circles
        if self.margin is not None:
            out.update(self.margin)
        if self.hashing is not None:
            out.update(self.hashing)
        if self.stages is not None:
            out["stages"] = self.stages
        return out


def _require_distinct(points: Sequence[tuple]) -> None:
    if len(set(points)) != len(points):
        raise ValueError("duplicate points")


def _integerize(points: Sequence[tuple]) -> list[tuple[int, ...]]:
    """Scale each axis by the lcm of its denominators; incidences survive."""
    return list(zip(*(clear_denominators(axis)[1] for axis in zip(*points))))


def _det3(u, v, w) -> float | int:
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def coplanar_naive(points: PointSet3, tol: float = 1e-7) -> CountReport:
    """Count coplanar 4-subsets by testing the 4x4 determinant of every one.

    Exact inputs test det == 0 exactly; float inputs test |det| / scale < tol,
    with scale the product of the three largest pairwise distances of the
    quadruple (a volume-scale normalization).  Float reports also carry the
    margin: the largest |det| / scale accepted and the smallest rejected.
    """
    _require_distinct(points.points)
    start = time.perf_counter()
    count = 0
    margin = None
    if points.kind == "exact":
        pts = _integerize(points.points)
        for a, b, c, d in combinations(pts, 4):
            u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
            v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
            w = (d[0] - a[0], d[1] - a[1], d[2] - a[2])
            if _det3(u, v, w) == 0:
                count += 1
    else:
        pts = points.points
        max_accepted, min_rejected = 0.0, math.inf
        dist = math.dist
        for a, b, c, d in combinations(pts, 4):
            u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
            v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
            w = (d[0] - a[0], d[1] - a[1], d[2] - a[2])
            det = _det3(u, v, w)
            dists = sorted((dist(a, b), dist(a, c), dist(a, d),
                            dist(b, c), dist(b, d), dist(c, d)))
            ratio = abs(det) / (dists[5] * dists[4] * dists[3])
            if ratio < tol:
                count += 1
                if ratio > max_accepted:
                    max_accepted = ratio
            elif ratio < min_rejected:
                min_rejected = ratio
        margin = {"max_accepted": max_accepted if count else None,
                  "min_rejected": min_rejected if min_rejected < math.inf else None}
    return CountReport(count, "naive", 4, time.perf_counter() - start, margin=margin)


def check_margin(report: CountReport) -> CountReport:
    """Return `report` unless it is a float count whose margin collapsed.

    A float count is refused, with ValueError, once the largest accepted
    |det| / scale comes within a factor 100 of the smallest rejected one:
    no tolerance then separates coplanar quadruples from rounding noise.
    On the torsion construction this happens from n = 48 on.
    """
    if report.margin is not None:
        hi, lo = report.margin["max_accepted"], report.margin["min_rejected"]
        if hi is not None and lo is not None and _MARGIN_FACTOR * hi > lo:
            raise ValueError(
                f"float coplanarity margin collapsed: accepted |det|/scale up to "
                f"{hi:.2e}, rejected from {lo:.2e}"
            )
    return report


@dataclass
class _Flats:
    """Lines and planes through each pivot and its later points, summed over pivots."""

    kernel: str
    lines: int = 0          # (pivot, line) pairs
    planes: int = 0         # (pivot, plane) pairs
    max_line: int = 0       # most points on one line, 0 when there is no line
    max_plane: int = 0      # most points on one plane, 0 when there is no plane
    line_pairs: int = 0     # sum of C(l, 2): collinear triples
    line_triples: int = 0   # sum of C(l, 3): collinear quadruples
    plane_triples: int = 0  # sum of C(m, 3) - c: coplanar, not collinear, quadruples
    planes_of_3: int = 0    # planes with m == 3

    def counters(self) -> dict[str, int | str]:
        return {"lines": self.lines, "planes": self.planes, "kernel": self.kernel}


def _pivot_flats(
    pts: Sequence[tuple[int, ...]], stages: Stages, skip_vertical: bool = False
) -> _Flats:
    """Hash the lines, and for 3D points the planes, through each point P_i
    and the points after it; `skip_vertical` drops planes whose normal has
    third component 0.

    Equal keys are grouped by a lexsort and a run split.  Per pivot this
    holds O(n^2) line pairs; m and c are accumulated over the distinct
    (plane, line) pairs.  The numpy import is timed as the "import_numpy"
    stage: the first hashing call of a process pays it.
    """
    with stages.timed("import_numpy"):
        import numpy as np

    def primitive(rows):
        rows = rows // np.gcd.reduce(rows, axis=1)[:, None]
        lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
        return rows * np.where(lead < 0, -1, 1)[:, None]

    def runs(keys):
        """(group of each row, distinct rows, group sizes) of equal rows."""
        order = np.lexsort(keys.T)
        ordered = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        group = np.empty(len(keys), dtype=np.intp)
        group[order] = np.cumsum(first) - 1
        return group, ordered[first], np.diff(np.append(np.flatnonzero(first), len(keys)))

    span = max((abs(v) for p in pts for v in p), default=0)
    flats = _Flats("int64" if 8 * span * span < _INT64_BOUND else "int")
    coords = np.array(pts, dtype=np.int64 if flats.kernel == "int64" else object)
    for i in range(len(pts) - 1):
        _, dirs, l = runs(primitive(coords[i + 1:] - coords[i]))
        l3 = l * (l - 1) * (l - 2) // 6
        flats.lines += len(l)
        flats.max_line = max(flats.max_line, int(l.max()) + 1)
        flats.line_pairs += int((l * (l - 1) // 2).sum())
        flats.line_triples += int(l3.sum())
        if coords.shape[1] != 3:
            continue
        a, b = np.triu_indices(len(l), 1)
        u, v = dirs[a], dirs[b]
        normals = primitive(np.stack([u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                                      u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                                      u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]], axis=1))
        if skip_vertical:
            keep = normals[:, 2] != 0
            a, b, normals = a[keep], b[keep], normals[keep]
        if not len(normals):
            continue
        plane, _, sizes = runs(normals)
        # a plane's lines are its first line and the lines paired with it
        first = np.full(len(sizes), len(l))
        np.minimum.at(first, plane, a)
        other = a == first[plane]
        m, c = l[first], l3[first]
        np.add.at(m, plane[other], l[b[other]])
        np.add.at(c, plane[other], l3[b[other]])
        flats.planes += len(m)
        flats.max_plane = max(flats.max_plane, int(m.max()) + 1)
        flats.plane_triples += int((m * (m - 1) * (m - 2) // 6 - c).sum())
        flats.planes_of_3 += int((m == 3).sum())
    return flats


def _exact_points(points, name: str) -> tuple[tuple, ...]:
    if points.kind != "exact":
        raise ValueError(f"{name} requires exact coordinates")
    _require_distinct(points.points)
    return points.points


def coplanar_fast(points: PointSet3) -> CountReport:
    """Same count as exact `coplanar_naive`, by hashing flats in pivot form.

    Three later points are coplanar with P_i exactly when they lie on one
    line through P_i or span one plane through it, never both.  So the
    coplanar 4-subsets whose smallest index is i number
    sum_lines C(l, 3) + sum_planes (C(m, 3) - c), and four collinear points
    are counted once without a line correction.  O(n^3 log n) time, O(n^2)
    memory per pivot.
    """
    pts = _exact_points(points, "coplanar_fast")
    start = time.perf_counter()
    stages = Stages()
    flats = _pivot_flats(_integerize(pts), stages)
    return CountReport(
        flats.line_triples + flats.plane_triples,
        "fast",
        4,
        time.perf_counter() - start,
        degeneracy={"max_points_per_plane": flats.max_plane,
                    "max_points_per_line": flats.max_line},
        hashing=flats.counters(),
        stages=stages.seconds,
    )


def collinear_triples(points: PointSet2) -> CountReport:
    """Count collinear 3-subsets as sum C(l, 2) over the lines through each
    point and its later points (pivot form, lines only)."""
    pts = _exact_points(points, "collinear_triples")
    start = time.perf_counter()
    stages = Stages()
    flats = _pivot_flats(_integerize(pts), stages)
    return CountReport(
        flats.line_pairs, "line-hash", 3, time.perf_counter() - start,
        degeneracy={"max_points_per_line": flats.max_line},
        hashing=flats.counters(),
        stages=stages.seconds,
    )


def four_point_circles(points: PointSet2) -> CountReport:
    """Circles through >= 4 points, counted on the paraboloid lift.

    Lifting (x, y) to (x, y, x^2 + y^2) turns circles into non-vertical
    plane sections; vertical planes encode lines and are skipped.  No three
    lifted points are collinear (a line meets the paraboloid twice), so in
    pivot form every l is 1, c is 0, and the concyclic 4-subsets number
    sum C(m, 3).  A circle through M >= 4 points has exactly 3 later points
    at exactly one of its members, so the circles are the planes with
    m == 3.
    """
    pts = _exact_points(points, "four_point_circles")
    start = time.perf_counter()
    stages = Stages()
    flats = _pivot_flats(_integerize([(x, y, x * x + y * y) for x, y in pts]), stages,
                         skip_vertical=True)
    return CountReport(
        flats.plane_triples,
        "lift-hash",
        4,
        time.perf_counter() - start,
        circles=flats.planes_of_3,
        degeneracy={"max_points_per_circle": flats.max_plane},
        hashing=flats.counters(),
        stages=stages.seconds,
    )


def concyclic_quadruples_naive(points: PointSet2) -> CountReport:
    """Independent oracle for concyclic 4-subsets via the circle determinant.

    A quadruple is concyclic-or-collinear exactly when the 4x4 determinant
    with rows (x^2 + y^2, x, y, 1) vanishes; all-collinear quadruples are
    excluded to match the circle counter.
    """
    if points.kind != "exact":
        raise ValueError("concyclic oracle requires exact coordinates")
    _require_distinct(points.points)
    start = time.perf_counter()
    pts = points.points
    count = 0
    for quad in combinations(pts, 4):
        rows = [(x * x + y * y, x, y) for x, y in quad]
        a = rows[0]
        u = tuple(rows[1][i] - a[i] for i in range(3))
        v = tuple(rows[2][i] - a[i] for i in range(3))
        w = tuple(rows[3][i] - a[i] for i in range(3))
        if _det3(u, v, w) != 0:
            continue
        (x1, y1), (x2, y2), (x3, y3), (x4, y4) = quad
        cross1 = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        cross2 = (x2 - x1) * (y4 - y1) - (y2 - y1) * (x4 - x1)
        if cross1 == 0 and cross2 == 0:
            continue  # degenerate circle: all four on one line
        count += 1
    return CountReport(count, "det-oracle", 4, time.perf_counter() - start)
