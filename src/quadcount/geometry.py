"""Counting coplanar quadruples, collinear triples, and four-point circles.

Exact inputs (integer or Fraction coordinates) use canonical hashing of
planes and lines: a plane is keyed by its primitive integer normal vector
and offset, a line by its primitive direction and moment, so coincident
flats collide in a dictionary.  Before hashing, each axis is scaled by the
lcm of its coordinate denominators; a diagonal linear map preserves every
incidence being counted, and it moves all arithmetic to machine-assisted
big integers.

Float inputs (the numeric elliptic construction) only get the quadruple-at-
a-time determinant test with a dimensionally normalized tolerance; float
counts are validated against the exact index oracle, never trusted alone.
Their reports carry the margin the tolerance had to fall into: the largest
normalized |det| accepted and the smallest rejected.

Counts are reported unordered; reports carry the x24 / x6 ordered
equivalents, exact for proper tuples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .polynomials import clear_denominators

__all__ = [
    "PointSet2",
    "PointSet3",
    "CountReport",
    "coplanar_naive",
    "coplanar_fast",
    "collinear_triples",
    "four_point_circles",
    "concyclic_quadruples_naive",
]

_EXACT_TYPES = (int, Fraction)


def _classify_rows(rows: Iterable[Sequence]) -> tuple[tuple, str]:
    pts = []
    exact = True
    for row in rows:
        row = tuple(row)
        if not all(isinstance(v, _EXACT_TYPES) for v in row):
            exact = False
        pts.append(row)
    if exact:
        pts = [tuple(Fraction(v) for v in row) for row in pts]
    else:
        pts = [tuple(float(v) for v in row) for row in pts]
    return tuple(pts), ("exact" if exact else "float")


@dataclass(frozen=True)
class PointSet3:
    """Finite list of 3D points, exact (Fraction) or float coordinates."""

    points: tuple[tuple, ...]
    kind: str

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> PointSet3:
        pts, kind = _classify_rows(rows)
        for p in pts:
            if len(p) != 3:
                raise ValueError(f"expected 3 coordinates, got {len(p)}")
        return cls(pts, kind)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class PointSet2:
    """Finite list of 2D points, exact (Fraction) or float coordinates."""

    points: tuple[tuple, ...]
    kind: str

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> PointSet2:
        pts, kind = _classify_rows(rows)
        for p in pts:
            if len(p) != 2:
                raise ValueError(f"expected 2 coordinates, got {len(p)}")
        return cls(pts, kind)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


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
        return out


def _require_distinct(points: Sequence[tuple]) -> None:
    if len(set(points)) != len(points):
        raise ValueError("duplicate points")


def _integerize(points: Sequence[tuple]) -> list[tuple[int, ...]]:
    """Scale each axis by the lcm of its denominators; incidences survive."""
    return list(zip(*(clear_denominators(axis)[1] for axis in zip(*points))))


def _plane_key(p: tuple[int, int, int], q: tuple[int, int, int], r: tuple[int, int, int]):
    """Canonical (n1, n2, n3, n0) for the plane n.X = n0, or None if collinear."""
    u = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
    v = (r[0] - p[0], r[1] - p[1], r[2] - p[2])
    n1 = u[1] * v[2] - u[2] * v[1]
    n2 = u[2] * v[0] - u[0] * v[2]
    n3 = u[0] * v[1] - u[1] * v[0]
    if n1 == 0 and n2 == 0 and n3 == 0:
        return None
    n0 = n1 * p[0] + n2 * p[1] + n3 * p[2]
    g = math.gcd(n1, n2, n3, n0)
    n1, n2, n3, n0 = n1 // g, n2 // g, n3 // g, n0 // g
    for lead in (n1, n2, n3):
        if lead != 0:
            if lead < 0:
                n1, n2, n3, n0 = -n1, -n2, -n3, -n0
            break
    return (n1, n2, n3, n0)


def _line_key_3d(p: tuple[int, int, int], q: tuple[int, int, int]):
    """Canonical (direction, moment) for the line through two integer points."""
    d = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
    g = math.gcd(*d)
    d = (d[0] // g, d[1] // g, d[2] // g)
    for lead in d:
        if lead != 0:
            if lead < 0:
                d = (-d[0], -d[1], -d[2])
            break
    m = (
        p[1] * d[2] - p[2] * d[1],
        p[2] * d[0] - p[0] * d[2],
        p[0] * d[1] - p[1] * d[0],
    )
    return d + m


def _line_key_2d(p: tuple[int, int], q: tuple[int, int]):
    """Canonical (a, b, c) for the line a*x + b*y = c through two points."""
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = a * p[0] + b * p[1]
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a, b, c)


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


def coplanar_fast(points: PointSet3) -> CountReport:
    """Same count as exact `coplanar_naive`, via canonical plane hashing.

    Non-collinear triples are hashed to their plane; a plane with m points
    contributes C(m, 4).  All-collinear 4-subsets would be counted once per
    hashed plane through their line, so lines with >= 4 points get a
    correction: subtract (pi - 1) * C(l, 4) when pi >= 1 planes contain the
    line, add C(l, 4) when no hashed plane does (the whole set is on one
    line).  Expected O(n^3).
    """
    if points.kind != "exact":
        raise ValueError("coplanar_fast requires exact coordinates")
    _require_distinct(points.points)
    start = time.perf_counter()
    pts = _integerize(points.points)
    n = len(pts)

    planes: dict[tuple, set[int]] = {}
    for i, j, k in combinations(range(n), 3):
        key = _plane_key(pts[i], pts[j], pts[k])
        if key is None:
            continue
        planes.setdefault(key, set()).update((i, j, k))
    total = sum(math.comb(len(idx), 4) for idx in planes.values())

    lines: dict[tuple, set[int]] = {}
    for i, j in combinations(range(n), 2):
        lines.setdefault(_line_key_3d(pts[i], pts[j]), set()).update((i, j))
    max_line = max((len(idx) for idx in lines.values()), default=0)
    for idx in lines.values():
        l = len(idx)
        if l < 4:
            continue
        members = sorted(idx)
        p, q = pts[members[0]], pts[members[1]]
        through = {
            _plane_key(p, q, pts[r]) for r in range(n) if r not in idx
        }
        pi = len(through)
        if pi == 0:
            total += math.comb(l, 4)
        else:
            total -= (pi - 1) * math.comb(l, 4)

    max_plane = max((len(idx) for idx in planes.values()), default=0)
    return CountReport(
        total,
        "fast",
        4,
        time.perf_counter() - start,
        degeneracy={"max_points_per_plane": max_plane, "max_points_per_line": max_line},
    )


def collinear_triples(points: PointSet2) -> CountReport:
    """Count collinear 3-subsets via canonical line hashing over pairs."""
    if points.kind != "exact":
        raise ValueError("collinear_triples requires exact coordinates")
    _require_distinct(points.points)
    start = time.perf_counter()
    pts = _integerize(points.points)
    lines: dict[tuple, set[int]] = {}
    for i, j in combinations(range(len(pts)), 2):
        lines.setdefault(_line_key_2d(pts[i], pts[j]), set()).update((i, j))
    count = sum(math.comb(len(idx), 3) for idx in lines.values())
    max_line = max((len(idx) for idx in lines.values()), default=0)
    return CountReport(
        count, "line-hash", 3, time.perf_counter() - start,
        degeneracy={"max_points_per_line": max_line},
    )


def four_point_circles(points: PointSet2) -> CountReport:
    """Circles through >= 4 points, counted on the paraboloid lift.

    Lifting (x, y) to (x, y, x^2 + y^2) turns circles into non-vertical
    plane sections; vertical planes encode lines and are skipped.  No three
    lifted points are collinear (a line meets the paraboloid twice), so
    plane hashing needs no collinearity corrections here.  Returns both the
    number of distinct circles and the number of concyclic 4-subsets.
    """
    if points.kind != "exact":
        raise ValueError("four_point_circles requires exact coordinates")
    _require_distinct(points.points)
    start = time.perf_counter()
    lifted = [(x, y, x * x + y * y) for x, y in points.points]
    pts = _integerize(lifted)
    planes: dict[tuple, set[int]] = {}
    for i, j, k in combinations(range(len(pts)), 3):
        key = _plane_key(pts[i], pts[j], pts[k])
        if key is None or key[2] == 0:
            continue  # vertical plane: the three source points are collinear
        planes.setdefault(key, set()).update((i, j, k))
    circles = sum(1 for idx in planes.values() if len(idx) >= 4)
    quadruples = sum(math.comb(len(idx), 4) for idx in planes.values())
    max_circle = max((len(idx) for idx in planes.values()), default=0)
    return CountReport(
        quadruples,
        "lift-hash",
        4,
        time.perf_counter() - start,
        circles=circles,
        degeneracy={"max_points_per_circle": max_circle},
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
