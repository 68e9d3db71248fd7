"""Counting coplanar quadruples, collinear triples, and four-point circles.

Exact inputs (integer or Fraction coordinates) are counted by hashing flats
in pivot form.  Each axis is first scaled by the lcm of its coordinate
denominators: a diagonal linear map preserves every incidence counted here
and leaves only integers.  Then, for each point P_i, only the flats through
P_i and the points after it are hashed:

- a line through P_i is keyed by the primitive, sign-normalized direction
  P_j - P_i, and l is its number of later points;
- each such line a keys every later line b by the plane span(a, b): the
  primitive 2D vector of b projected along a.  A plane of k lines shows up
  as groups of k - 1, ..., 1 lines at its first k - 1 lines, and from the
  group sizes and the sums M of their l come the planes, their number of
  later points m, and their C(m, 3) - c triples, c the sum of C(l, 3) over
  their lines.

Every key passes through P_i, so it needs no offset term, and each subset
is counted once, at its smallest index, so lines need no correction.  The
keys are tuples of Python ints counted in `Counter`s, so one path serves
every coordinate size.  No float enters an exact count.  The pivots of the
hashing kernel and of the exact determinant scan are interleaved across
the CPUs the process may run on, one forked child per extra CPU, once the
input is large enough to pay for the fork; the counts do not depend on
the split, and the reports give the `workers` used.

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

import contextlib
import marshal
import math
import os
import time
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import comb, gcd
from typing import BinaryIO, Iterable, NamedTuple, Sequence

from .polynomials import Frozen, clear_denominators, exact

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

# `_fan_out` forks once a kernel has this many steps (pivot triples, or
# pairs in 2D) per extra share: a fork and its reap cost about 2 ms, the
# time of some 3000 triples of `_pivot_flats`
_FORK_MIN_STEPS = 20_000


class _PointSet(Frozen):
    """Finite list of distinct points, `exact` or finite float coordinates;
    a repeated point raises ValueError.

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
            return cls(tuple(tuple(map(exact, p)) for p in pts), "exact")
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
    """Finite list of 3D points, `exact` or float coordinates."""

    __slots__ = ()
    dimension = 3


class PointSet2(_PointSet):
    """Finite list of 2D points, `exact` or float coordinates."""

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
    # exact hashing only: {"lines": ..., "planes": ..., "workers": ...}
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


def _fan_out(work, steps: int) -> list[tuple[int, ...]]:
    """The tuples of ints `work(start, step)` returns for each share of the
    pivots i = start (mod step), the caller's own share first.

    Once `steps` (the kernel's pivot triples, or pairs) reaches
    `_FORK_MIN_STEPS`, each CPU this process may run on beyond the first
    forks one child for a share, up to one per `_FORK_MIN_STEPS` steps;
    otherwise, or without `os.fork` and `os.sched_getaffinity`, the one
    share runs in process.  A child writes nothing to stdout, sends its
    tuple through a pipe with `marshal` and ends in `os._exit`.  A share that
    exits non-zero raises RuntimeError, a fork that fails raises its
    OSError, and on any exit every child left is killed and reaped.
    """
    shares = 1
    if steps >= _FORK_MIN_STEPS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        shares = min(len(os.sched_getaffinity(0)), max(2, steps // max(_FORK_MIN_STEPS, 1)))
    children: list[tuple[int, int, BinaryIO]] = []  # (start, pid, pipe) until reaped
    try:
        for start in range(1, shares):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps(work(start, shares)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((start, pid, open(read, "rb")))
        parts = [work(0, shares)]
        while children:
            start, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status:
                raise RuntimeError(f"pivot share {start} of {shares} (pid {pid}) "
                                   f"exited with status {status}")
            parts.append(marshal.loads(data))
        return parts
    finally:
        if children:
            # only this exit needs `signal`, which costs every CLI job about
            # 1 ms to import
            import signal
        for _, pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _plane_scan(pts: Sequence[tuple[int, int, int]], skip_vertical: bool = False) -> int:
    """Coplanar 4-subsets of integer 3D points: per triple (a, b, c) the
    normal n = (b - a) x (c - a) is computed once and the later points d with
    n . d == n . a are counted; `skip_vertical` skips normals with nz == 0.
    The pivots a are split across CPUs by `_fan_out`."""
    size = len(pts)

    def work(start: int, step: int) -> tuple[int]:
        count = 0
        for i in range(start, size, step):
            ax, ay, az = pts[i]
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
        return (count,)

    return sum(part[0] for part in _fan_out(work, comb(size, 3)))


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
    workers: int = 1        # processes that hashed the pivots

    @classmethod
    def combine(cls, parts: Sequence[tuple[int, ...]]) -> _Flats:
        """The flats of all pivots from those of each share: maxima of the
        max_ fields, sums of the rest."""
        fields = [max(col) if name.startswith("max_") else sum(col)
                  for name, col in zip(cls._fields, zip(*parts))]
        return cls(*fields, workers=len(parts))

    def counters(self) -> dict[str, int]:
        return {"lines": self.lines, "planes": self.planes, "workers": self.workers}


def _pivot_flats(pts: Sequence[tuple[int, ...]], skip_vertical: bool = False) -> _Flats:
    """Hash the lines, and for 3D points the planes, through each point P_i
    and the points after it; `skip_vertical` drops planes whose normal has
    third component 0.

    Lines are keyed by direction in one Counter per pivot; l is a line's
    number of later points.  Each line a then keys every later line b by the
    plane span(a, b): the primitive 2D vector of b projected along a.  For
    a = (ux, uy, uz) with ux != 0 that is (ux vy - vx uy, ux vz - vx uz),
    whose first entry is the normal's z; other lines project along y or z.

    A plane of k lines a_1 < ... < a_k shows up as one group at each of its
    first k - 1 lines, of k - 1, ..., 1 lines.  With M the sum of l over a
    group at line a:
    - the planes are the groups of one line;
    - the group holds C(la + M, 3) - C(la, 3) - C(M, 3) of its plane's
      C(m, 3) - c triples, and m is la + M at the plane's first line;
    - a group of two or more lines has the next group's la + M as its M, so
      the planes with m == 3 are the groups with la + M == 3 less the groups
      of two or more lines with M == 3.
    Lines are taken longest first, so after a line with la == 1 every line
    has l == 1, and its groups are decoded by their size alone.

    The pivots are split across CPUs by `_fan_out`; a process holds O(n)
    keys at a time.
    """
    size = len(pts)
    space = bool(pts) and len(pts[0]) == 3

    def work(start: int, step: int) -> tuple[int, ...]:
        n_lines = n_planes = max_line = max_plane = 0
        line_pairs = line_triples = plane_triples = planes_of_3 = 0
        # group size -> groups, over the lines with la == 1
        unit_groups: Counter[int] = Counter()
        for i in range(start, size - 1, step):
            # one loop per dimension: unpacking the coordinates by name is much
            # faster than a generic tuple(v // g for v in d)
            directions: list[tuple[int, ...]] = []
            if not space:
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
            n_lines += len(ls)
            max_line = max(max_line, max(ls) + 1)
            line_pairs += sum(map(comb, ls, repeat(2)))
            line_triples += sum(map(comb, ls, repeat(3)))
            if not space:
                continue
            by_length = lines.most_common()
            xyz = [u for u, _ in by_length]
            # the directions with their coordinates rotated, for the lines a
            # with ux == 0: the projection then runs along y, or along z
            yxz = [(y, x, z) for x, y, z in xyz]
            zxy = [(z, x, y) for x, y, z in xyz]
            for a, ((ux, uy, uz), la) in enumerate(by_length):
                if ux:
                    rows, ua, ub, uc = xyz, ux, uy, uz
                elif uy:
                    rows, ua, ub, uc = yxz, uy, ux, uz
                elif skip_vertical:
                    continue  # every plane through a vertical line is vertical
                else:
                    rows, ua, ub, uc = zxy, uz, ux, uy
                keys = []
                for va, vb, vc in rows[a + 1:]:
                    p, q = ua * vb - va * ub, ua * vc - va * uc
                    g = gcd(p, q)
                    if p < 0 or (not p and q < 0):
                        g = -g
                    keys.append((p // g, q // g))
                groups = Counter(keys)
                if skip_vertical:
                    # p is +-nz, so the vertical plane through a is (0, 1)
                    del groups[(0, 1)]
                if la == 1:
                    unit_groups.update(groups.values())
                    continue
                # the longer lines after a add l - 1 each to their group's M
                extra: Counter[tuple[int, int]] = Counter()
                for key, (_, lb) in zip(keys, by_length[a + 1:]):
                    if lb == 1:
                        break
                    extra[key] += lb - 1
                for key, s in groups.items():
                    m = s + extra[key]
                    t = la + m
                    plane_triples += comb(t, 3) - comb(la, 3) - comb(m, 3)
                    n_planes += s == 1
                    planes_of_3 += (t == 3) - (s >= 2 and m == 3)
                    max_plane = max(max_plane, t + 1)
        # a group of s lines with l == 1 after a line with la == 1: M = s
        for s, count in unit_groups.items():
            plane_triples += count * comb(s, 2)
            max_plane = max(max_plane, s + 2)
        n_planes += unit_groups[1]
        planes_of_3 += unit_groups[2] - unit_groups[3]
        return (n_lines, n_planes, max_line, max_plane,
                line_pairs, line_triples, plane_triples, planes_of_3)

    return _Flats.combine(_fan_out(work, comb(size, 3 if space else 2)))


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
    O(n) keys held at a time per process.
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
