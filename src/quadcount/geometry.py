"""Counting coplanar quadruples, collinear triples, and four-point circles.

Exact inputs (integer or Fraction coordinates) are counted by hashing flats
in pivot form.  Each axis is first scaled by the lcm of its coordinate
denominators: a diagonal linear map preserves every incidence counted here
and leaves only integers.  Then, for each point P_i, only the flats through
P_i and the points after it are hashed:

- a line through P_i is keyed by the primitive, sign-normalized direction
  P_j - P_i, and l is its number of later points;
- a plane through P_i is keyed by the primitive, sign-normalized cross
  product of two of those line directions, and the pairs of lines that
  hash to it are counted.  A plane of k lines is met by C(k, 2) pairs, which
  gives k; its number of later points m and the sum c of C(l, 3) over its
  lines come from the pairs that touch a line with l >= 2.

Every key passes through P_i, so it needs no offset term, and each subset
is counted once, at its smallest index, so lines need no correction.  The
keys are tuples of Python ints counted in plain dicts, so one path serves
every coordinate size.  No float enters an exact count.

Both exact determinant oracles run one scan over integer points:
`coplanar_naive` on the points, `concyclic_quadruples_naive` on their
paraboloid lift with vertical planes skipped, as `four_point_circles` does.

Float inputs (the numeric elliptic construction) only get the quadruple-at-
a-time determinant test with a dimensionally normalized tolerance, by
default `TORSION_COPLANAR_TOL`; float counts are validated against the exact
index oracle, never trusted alone.
Their reports carry the margin the tolerance had to fall into: the largest
normalized |det| accepted and the smallest rejected.  The scan refuses, with
ValueError, as soon as that margin collapses.

A point set refuses repeated points when it is made, so no counter meets
one.  Counts are reported unordered; reports carry the x24 / x6 ordered
equivalents, exact for proper tuples.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, isqrt
from typing import Iterable, NamedTuple, Sequence

from .polynomials import Frozen, clear_denominators

__all__ = [
    "TORSION_COPLANAR_TOL",
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

# `coplanar_naive`'s float-mode tolerance, validated against the index oracle
# for the torsion sets of `constructions` up to n = 32 (coordinates from the
# R_F arc map): truly coplanar quadruples stay below 1e-15 of the
# distance-product scale, the nearest non-coplanar ones above 1e-10.  From
# n = 48 on, some non-coplanar quadruples fall below it (8.9e-13 at n = 48);
# `coplanar_naive` reports the accepted/rejected margin that exposes this.
TORSION_COPLANAR_TOL = 1e-12

# a float count needs its largest accepted |det| / scale at least this factor
# below its smallest rejected one; the torsion construction misses it from
# n = 48 on
_MARGIN_FACTOR = 100


class _PointSet(Frozen):
    """Finite list of distinct points, exact (Fraction) or finite float
    coordinates; a repeated point raises ValueError.

    A `Frozen` record, equal when the class, points and kind are equal."""

    __slots__ = ("points", "kind")
    _fields = ("points", "kind")
    dimension: int

    def __init__(self, points: tuple[tuple, ...], kind: str) -> None:
        if len(set(points)) != len(points):
            raise ValueError("duplicate points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "kind", kind)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]):
        pts = [tuple(row) for row in rows]
        for p in pts:
            if len(p) != cls.dimension:
                raise ValueError(f"expected {cls.dimension} coordinates, got {len(p)}")
        if all(isinstance(v, _EXACT_TYPES) for p in pts for v in p):
            return cls(tuple(tuple(Fraction(v) for v in p) for p in pts), "exact")
        try:
            floats = tuple(tuple(float(v) for v in p) for p in pts)
        except OverflowError as exc:
            raise ValueError(f"coordinate out of float range: {exc}") from None
        if not all(math.isfinite(v) for p in floats for v in p):
            raise ValueError("float coordinates must be finite")
        return cls(floats, "float")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class PointSet3(_PointSet):
    """Finite list of 3D points, exact (Fraction) or float coordinates."""

    __slots__ = ()
    dimension = 3


class PointSet2(_PointSet):
    """Finite list of 2D points, exact (Fraction) or float coordinates."""

    __slots__ = ()
    dimension = 2


class CountReport(NamedTuple):
    count: int
    method: str
    tuple_size: int
    elapsed: float
    circles: int | None = None
    # the JSON reports None as {}
    degeneracy: dict[str, int] | None = None
    # float coplanarity only: {"max_accepted": ..., "min_rejected": ...} of
    # |det| / scale, each None when no quadruple fell on that side, and
    # "near_threshold", the quadruples with tol / 100 <= |det| / scale < 100 tol
    margin: dict[str, float | None] | None = None
    # exact hashing only: {"lines": ..., "planes": ...}
    hashing: dict[str, int] | None = None

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
            "degeneracy": self.degeneracy or {},
        }
        if self.circles is not None:
            out["circles"] = self.circles
        if self.margin is not None:
            out.update(self.margin)
        if self.hashing is not None:
            out.update(self.hashing)
        return out


def _integerize(points: Sequence[tuple]) -> list[tuple[int, ...]]:
    """Scale each axis by the lcm of its denominators; incidences survive."""
    return list(zip(*(clear_denominators(axis)[1] for axis in zip(*points))))


def _plane_scan(pts: Sequence[tuple[int, int, int]], skip_vertical: bool = False) -> int:
    """Coplanar 4-subsets of integer 3D points: per triple (a, b, c) the
    normal n = (b - a) x (c - a) is computed once and the later points d with
    n . d == n . a are counted; `skip_vertical` skips normals with nz == 0."""
    count = 0
    size = len(pts)
    for i, (ax, ay, az) in enumerate(pts):
        for j in range(i + 1, size):
            bx, by, bz = pts[j]
            ux, uy, uz = bx - ax, by - ay, bz - az
            for k in range(j + 1, size):
                cx, cy, cz = pts[k]
                vx, vy, vz = cx - ax, cy - ay, cz - az
                nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
                if skip_vertical and not nz:
                    continue
                offset = nx * ax + ny * ay + nz * az
                count += [nx * x + ny * y + nz * z for x, y, z in pts[k + 1:]].count(offset)
    return count


def coplanar_naive(points: PointSet3, tol: float = TORSION_COPLANAR_TOL) -> CountReport:
    """Count coplanar 4-subsets by testing the 4x4 determinant of every one.

    Exact inputs test det == 0 exactly; float inputs test |det| / scale < tol,
    with scale the product of the three largest pairwise distances of the
    quadruple (a volume-scale normalization), and tol must be finite and
    positive.  Float reports also carry the margin: the largest
    |det| / scale accepted and the smallest rejected, and `near_threshold`,
    the number of quadruples within a factor 100 of tol on either side.
    The scan raises ValueError as soon as the largest accepted comes within
    a factor 100 of the smallest rejected: no tolerance then separates
    coplanar quadruples from rounding noise.  The two bounds only move toward
    each other, so this is the verdict a full scan would give.

    Exact inputs run `_plane_scan` on the integerized points.  Float inputs
    compute the part of the determinant fixed by a triple once, keep the
    order of operations of the 3x3 determinant of (b - a, c - a, d - a), and
    read the six distances from one table, so counts and margins match the
    quadruple-at-a-time loop bit for bit.
    """
    start = time.perf_counter()
    count = 0
    margin = None
    size = len(points.points)
    if points.kind == "exact":
        count = _plane_scan(_integerize(points.points))
    else:
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
        pts = points.points
        dist = [[math.dist(p, q) for q in pts] for p in pts]
        max_accepted, min_rejected, near = 0.0, math.inf, 0
        near_low, near_high = tol / _MARGIN_FACTOR, tol * _MARGIN_FACTOR
        for i, (a0, a1, a2) in enumerate(pts):
            da = dist[i]
            for j in range(i + 1, size):
                b0, b1, b2 = pts[j]
                u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
                db, dab = dist[j], da[j]
                for k in range(j + 1, size):
                    c0, c1, c2 = pts[k]
                    v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
                    dc, dac, dbc = dist[k], da[k], db[k]
                    for m in range(k + 1, size):
                        d0, d1, d2 = pts[m]
                        w0, w1, w2 = d0 - a0, d1 - a1, d2 - a2
                        # the 3x3 determinant of (u, v, w), inlined
                        det = (u0 * (v1 * w2 - v2 * w1)
                               - u1 * (v0 * w2 - v2 * w0)
                               + u2 * (v0 * w1 - v1 * w0))
                        dists = sorted((dab, dac, da[m], dbc, db[m], dc[m]))
                        ratio = abs(det) / (dists[5] * dists[4] * dists[3])
                        if ratio < tol:
                            count += 1
                            if ratio >= near_low:
                                near += 1
                            if ratio <= max_accepted:
                                continue
                            max_accepted = ratio
                        else:
                            if ratio < near_high:
                                near += 1
                            if ratio >= min_rejected:
                                continue
                            min_rejected = ratio
                        if _MARGIN_FACTOR * max_accepted > min_rejected:
                            raise ValueError(
                                f"float coplanarity margin collapsed: accepted |det|/scale "
                                f"up to {max_accepted:.2e}, rejected from {min_rejected:.2e}")
        margin = {"max_accepted": max_accepted if count else None,
                  "min_rejected": min_rejected if min_rejected < math.inf else None,
                  "near_threshold": near}
    return CountReport(count, "naive", 4, time.perf_counter() - start, margin=margin)


class _Flats(NamedTuple):
    """Lines and planes through each pivot and its later points, summed over pivots."""

    lines: int = 0          # (pivot, line) pairs
    planes: int = 0         # (pivot, plane) pairs
    max_line: int = 0       # most points on one line, 0 when there is no line
    max_plane: int = 0      # most points on one plane, 0 when there is no plane
    line_pairs: int = 0     # sum of C(l, 2): collinear triples
    line_triples: int = 0   # sum of C(l, 3): collinear quadruples
    plane_triples: int = 0  # sum of C(m, 3) - c: coplanar, not collinear, quadruples
    planes_of_3: int = 0    # planes with m == 3

    def counters(self) -> dict[str, int]:
        return {"lines": self.lines, "planes": self.planes}


def _pivot_flats(pts: Sequence[tuple[int, ...]], skip_vertical: bool = False) -> _Flats:
    """Hash the lines, and for 3D points the planes, through each point P_i
    and the points after it; `skip_vertical` drops planes whose normal has
    third component 0.

    Lines are keyed by direction in one Counter per pivot.  Every pair of
    lines is keyed by its primitive normal, and one Counter per pivot counts
    the pairs of each plane: p = C(k, 2) pairs give k = (1 + isqrt(1 + 8p)) // 2
    lines.  Only pairs that touch a line with l >= 2 also sum (l - 1) and
    C(l, 3) of both lines, which over a plane come to (k - 1)(m - k) and
    (k - 1) c.  At a pivot with no such line m = k and c = 0, so each
    distinct pair count is decoded once.  Per pivot this holds O(n^2) keys.
    """
    n_lines = n_planes = max_line = max_plane = 0
    line_pairs = line_triples = plane_triples = planes_of_3 = 0
    for i in range(len(pts) - 1):
        # one loop per dimension: unpacking the coordinates by name is much
        # faster than a generic tuple(v // g for v in d)
        directions: list[tuple[int, ...]] = []
        if len(pts[i]) == 2:
            px, py = pts[i]
            for x, y in pts[i + 1:]:
                dx, dy = x - px, y - py
                g = gcd(dx, dy)
                if dx < 0 or (not dx and dy < 0):
                    g = -g
                directions.append((dx // g, dy // g))
        else:
            px, py, pz = pts[i]
            for x, y, z in pts[i + 1:]:
                dx, dy, dz = x - px, y - py, z - pz
                g = gcd(dx, dy, dz)
                if dx < 0 or (not dx and (dy < 0 or (not dy and dz < 0))):
                    g = -g
                directions.append((dx // g, dy // g, dz // g))
        lines = Counter(directions)
        ls = lines.values()
        top = max(ls)
        n_lines += len(ls)
        max_line = max(max_line, top + 1)
        line_pairs += sum(map(comb, ls, repeat(2)))
        line_triples += sum(map(comb, ls, repeat(3)))
        if len(pts[i]) != 3:
            continue
        dirs = list(lines.items())
        normals: list[tuple[int, int, int]] = []
        # plane -> sums, over its pairs that touch a line with l >= 2, of
        # (la - 1) + (lb - 1) and of C(la, 3) + C(lb, 3)
        long_sums: dict[tuple[int, int, int], tuple[int, int]] = {}
        for a, ((ux, uy, uz), la) in enumerate(dirs):
            for (vx, vy, vz), lb in dirs[a + 1:]:
                nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
                if skip_vertical and not nz:
                    continue
                g = gcd(nx, ny, nz)
                if nx < 0 or (not nx and (ny < 0 or (not ny and nz < 0))):
                    g = -g
                key = (nx // g, ny // g, nz // g)
                normals.append(key)
                if la > 1 or lb > 1:
                    dm, dc = long_sums.get(key, (0, 0))
                    long_sums[key] = (dm + la + lb - 2, dc + comb(la, 3) + comb(lb, 3))
        pairs = Counter(normals)
        n_planes += len(pairs)
        if top == 1:
            # every m is k and every c is 0: decode each pair count once
            for p, planes in Counter(pairs.values()).items():
                k = (1 + isqrt(1 + 8 * p)) // 2
                plane_triples += planes * comb(k, 3)
                if k == 3:
                    planes_of_3 += planes
                if k >= max_plane:
                    max_plane = k + 1
            continue
        for key, p in pairs.items():
            k = (1 + isqrt(1 + 8 * p)) // 2
            dm, dc = long_sums.get(key, (0, 0))
            m = k + dm // (k - 1)
            plane_triples += comb(m, 3) - dc // (k - 1)
            planes_of_3 += m == 3
            if m >= max_plane:
                max_plane = m + 1
    return _Flats(n_lines, n_planes, max_line, max_plane,
                  line_pairs, line_triples, plane_triples, planes_of_3)


def _exact_points(points, name: str) -> tuple[tuple, ...]:
    if points.kind != "exact":
        raise ValueError(f"{name} requires exact coordinates")
    return points.points


def coplanar_fast(points: PointSet3) -> CountReport:
    """Same count as exact `coplanar_naive`, by hashing flats in pivot form.

    Three later points are coplanar with P_i exactly when they lie on one
    line through P_i or span one plane through it, never both.  So the
    coplanar 4-subsets whose smallest index is i number
    sum_lines C(l, 3) + sum_planes (C(m, 3) - c), and four collinear points
    are counted once without a line correction.  O(n^3) dict operations,
    O(n^2) memory per pivot.
    """
    pts = _exact_points(points, "coplanar_fast")
    start = time.perf_counter()
    flats = _pivot_flats(_integerize(pts))
    return CountReport(
        flats.line_triples + flats.plane_triples,
        "fast",
        4,
        time.perf_counter() - start,
        degeneracy={"max_points_per_plane": flats.max_plane,
                    "max_points_per_line": flats.max_line},
        hashing=flats.counters(),
    )


def collinear_triples(points: PointSet2) -> CountReport:
    """Count collinear 3-subsets as sum C(l, 2) over the lines through each
    point and its later points (pivot form, lines only)."""
    pts = _exact_points(points, "collinear_triples")
    start = time.perf_counter()
    flats = _pivot_flats(_integerize(pts))
    return CountReport(
        flats.line_pairs, "line-hash", 3, time.perf_counter() - start,
        degeneracy={"max_points_per_line": flats.max_line},
        hashing=flats.counters(),
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
    flats = _pivot_flats(_integerize([(x, y, x * x + y * y) for x, y in pts]),
                         skip_vertical=True)
    return CountReport(
        flats.plane_triples,
        "lift-hash",
        4,
        time.perf_counter() - start,
        circles=flats.planes_of_3,
        degeneracy={"max_points_per_circle": flats.max_plane},
        hashing=flats.counters(),
    )


def concyclic_quadruples_naive(points: PointSet2) -> CountReport:
    """Oracle for concyclic 4-subsets via the circle determinant.

    The 4x4 determinant with rows (x^2 + y^2, x, y, 1) is the coplanarity
    determinant of the lift (x, y, x^2 + y^2), so this is `coplanar_naive`'s
    exact scan on the lift.  A triple collinear in the plane has a vertical
    lifted normal, and a fourth point shares its plane only when all four
    are collinear: skipping those triples excludes exactly the collinear
    quadruples, which lie on no circle.
    """
    pts = _exact_points(points, "concyclic_quadruples_naive")
    start = time.perf_counter()
    count = _plane_scan(_integerize([(x, y, x * x + y * y) for x, y in pts]),
                        skip_vertical=True)
    return CountReport(count, "det-oracle", 4, time.perf_counter() - start)
