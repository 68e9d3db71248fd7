import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from _generators import random_mixed_point_instance as random_mixed_instance
from quadcount import geometry
from quadcount.constructions import (
    embed_quartic,
    make_curve,
    moment_curve_points,
    torsion_points,
)
from quadcount.geometry import (
    TORSION_COPLANAR_TOL,
    PointSet2,
    PointSet3,
    collinear_triples,
    concyclic_quadruples_naive,
    coplanar_fast,
    coplanar_naive,
    four_point_circles,
)


def pts3(rows):
    return PointSet3.from_rows(rows)


def pts2(rows):
    return PointSet2.from_rows(rows)


def _det3(u, v, w):
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def coplanar_reference(points, tol):
    """coplanar_naive's count and margin by one determinant per quadruple:
    the quadruple-at-a-time loop, kept as the reference for the hoisted scan.
    A float scan stops at the first quadruple after which the largest
    accepted ratio is within a factor 100 of the smallest rejected one, and
    returns None for the count with the margin as it stood then.  A full
    float scan also counts the quadruples with tol / 100 <= ratio < 100 tol."""
    count = near = 0
    max_accepted, min_rejected = 0.0, math.inf
    dist = math.dist
    for a, b, c, d in combinations(points.points, 4):
        u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
        w = (d[0] - a[0], d[1] - a[1], d[2] - a[2])
        det = _det3(u, v, w)
        if points.kind == "exact":
            count += det == 0
            continue
        dists = sorted((dist(a, b), dist(a, c), dist(a, d),
                        dist(b, c), dist(b, d), dist(c, d)))
        ratio = abs(det) / (dists[5] * dists[4] * dists[3])
        near += tol / 100 <= ratio < 100 * tol
        if ratio < tol:
            count += 1
            if ratio > max_accepted:
                max_accepted = ratio
        elif ratio < min_rejected:
            min_rejected = ratio
        if 100 * max_accepted > min_rejected:
            return None, {"max_accepted": max_accepted, "min_rejected": min_rejected}
    if points.kind == "exact":
        return count, None
    return count, {"max_accepted": max_accepted if count else None,
                   "min_rejected": min_rejected if min_rejected < math.inf else None,
                   "near_threshold": near}


class TestCoplanarNaive:
    @pytest.mark.parametrize("n", [32, 48])
    def test_float_scan_matches_reference_bit_for_bit_on_torsion(self, n):
        cfg = make_curve()
        points = embed_quartic(cfg, torsion_points(cfg, n)[1:])
        count, margin = coplanar_reference(points, TORSION_COPLANAR_TOL)
        # the margin holds at n = 32 and collapses at n = 48
        assert (count is None) == (n == 48)
        if count is None:
            # the scan stops where the reference does, with the same bounds
            bounds = (f"up to {margin['max_accepted']:.2e}, "
                      f"rejected from {margin['min_rejected']:.2e}")
            with pytest.raises(ValueError, match="margin collapsed") as refused:
                coplanar_naive(points, tol=TORSION_COPLANAR_TOL)
            assert str(refused.value).endswith(bounds)
            return
        report = coplanar_naive(points, tol=TORSION_COPLANAR_TOL)
        # == on floats: the hoisted scan must round exactly as the reference
        assert (report.count, report.margin) == (count, margin)

    @pytest.mark.parametrize("seed", range(4))
    def test_float_scan_matches_reference_bit_for_bit_on_random_sets(self, seed):
        # half the points on a tilted plane, so both margin sides are populated
        rng = random.Random(seed)
        rows = [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(12)]
        for _ in range(12):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            rows.append((x, y, 0.3 * x - 0.7 * y + 0.1))
        points = PointSet3.from_rows(rows)
        report = coplanar_naive(points, tol=1e-9)
        assert report.count > 0
        assert (report.count, report.margin) == coplanar_reference(points, 1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_scan_matches_reference_on_integer_and_fraction_sets(self, seed):
        rng = random.Random(seed)
        ints = {(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(22)}
        fracs = {tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
                 for _ in range(22)}
        for rows in (sorted(ints), sorted(fracs)):
            points = pts3(rows)
            assert points.kind == "exact"
            count = coplanar_naive(points).count
            assert count > 0
            assert (count, None) == coplanar_reference(points, None)

    def test_square_plus_apex(self):
        points = pts3([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)])
        assert coplanar_naive(points).count == 1

    def test_five_generic_points_in_a_plane(self):
        points = pts3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0), (5, 1, 0)])
        assert coplanar_naive(points).count == 5

    def test_moment_curve_has_none(self):
        assert coplanar_naive(moment_curve_points(10)).count == 0

    def test_duplicates_rejected(self):
        # a point set refuses a repeated point when it is made, exact or
        # float, so no counter ever meets one
        for cls, rows in [
            (PointSet3, [(0, 0, 0), (Fraction(1, 2), 1, 1), (0, 0, 0), (2, 0, 1)]),
            (PointSet3, [(0.0, 0.0, 0.0), (0.5, 1.0, 1.0), (0.0, 0.0, 0.0), (2.0, 0.0, 1.0)]),
            (PointSet2, [(0, 0), (Fraction(1, 2), 1), (1, 2), (Fraction(2, 4), 1)]),
            (PointSet2, [(0.0, 0.0), (0.5, 1.0), (1.0, 2.0), (0.5, 1.0)]),
        ]:
            with pytest.raises(ValueError, match="^duplicate points$"):
                cls.from_rows(rows)

    def test_float_mode_tolerance(self):
        points = PointSet3.from_rows(
            [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.25, 0.6, 1e-12), (0.3, 0.2, 0.9)]
        )
        assert points.kind == "float"
        assert coplanar_naive(points, tol=1e-7).count == 1

    def test_float_margin_is_wide_on_torsion_32(self):
        cfg = make_curve()
        report = coplanar_naive(embed_quartic(cfg, torsion_points(cfg, 32)[1:]),
                                tol=TORSION_COPLANAR_TOL)
        out = report.to_json()
        assert out["max_accepted"] < 1e-15
        assert out["min_rejected"] > 1e-10
        assert out["near_threshold"] == 0

    def test_near_threshold_on_torsion_32(self):
        # at tol = 1e-11 the nearest non-coplanar quadruples, from 1.25e-10,
        # fall within a factor 100 of tol; no coplanar one does
        cfg = make_curve()
        points = embed_quartic(cfg, torsion_points(cfg, 32)[1:])
        report = coplanar_naive(points, tol=1e-11)
        assert report.margin["near_threshold"] == 46
        assert (report.count, report.margin) == coplanar_reference(points, 1e-11)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf],
                             ids=["nan", "-1", "0", "inf"])
    def test_float_tol_must_be_finite_and_positive(self, tol):
        points = PointSet3.from_rows(
            [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.25, 0.6, 1e-12), (0.3, 0.2, 0.9)]
        )
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            coplanar_naive(points, tol=tol)

    def test_float_scan_refuses_within_a_factor_100(self):
        # one near-coplanar quadruple, |det|/scale about h / 2, and four
        # others from about 0.405
        def points(h):
            return PointSet3.from_rows([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                        (1.0, 1.0, h), (0.3, 0.6, 1.0)])

        report = coplanar_naive(points(0.0080), tol=0.01)
        hi, lo = report.margin["max_accepted"], report.margin["min_rejected"]
        assert report.count == 1 and 100 < lo / hi < 102
        count, margin = coplanar_reference(points(0.0082), 0.01)
        assert count is None and 98 < margin["min_rejected"] / margin["max_accepted"] < 100
        with pytest.raises(ValueError, match="margin collapsed"):
            coplanar_naive(points(0.0082), tol=0.01)
        # with one side empty there is nothing to collapse
        assert coplanar_naive(points(0.0082), tol=1.0).margin["min_rejected"] is None
        assert coplanar_naive(points(0.0082), tol=1e-6).margin["max_accepted"] is None

    def test_exact_report_has_no_margin(self):
        report = coplanar_naive(pts3([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)]))
        out = report.to_json()
        assert not {"max_accepted", "min_rejected", "near_threshold"} & set(out)

    def test_ordered_count_factor(self):
        points = pts3([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)])
        report = coplanar_naive(points)
        assert report.ordered_count == report.count * 24


class TestCoplanarFast:
    def test_line_with_generic_satellites(self):
        # 4 collinear points plus 2 off-line: the collinear quadruple counts once
        rows = [(i, 0, 0) for i in range(4)] + [(0, 1, 5), (2, 3, 1)]
        points = pts3(rows)
        assert coplanar_fast(points).count == coplanar_naive(points).count

    def test_integer_grid_matches_naive(self):
        rows = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        points = pts3(rows)
        assert coplanar_fast(points).count == coplanar_naive(points).count

    def test_all_points_on_one_line(self):
        points = pts3([(i, 2 * i, -i) for i in range(6)])
        report = coplanar_fast(points)
        assert report.count == coplanar_naive(points).count == 15  # C(6, 4)

    def test_float_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            coplanar_fast(PointSet3.from_rows([(0.5, 0.1, 0.2), (1.0, 0.0, 0.0),
                                               (0.0, 1.0, 0.0), (1.0, 1.0, 1.0)]))

    def test_rational_coordinates(self):
        rows = [
            (Fraction(1, 2), Fraction(1, 3), 0),
            (Fraction(3, 2), Fraction(1, 3), 0),
            (Fraction(1, 2), Fraction(4, 3), 0),
            (Fraction(5, 2), Fraction(7, 3), 0),
            (1, 2, 3),
        ]
        points = pts3(rows)
        assert coplanar_fast(points).count == coplanar_naive(points).count == 1


class TestFastNaiveEquivalence:
    def test_200_seeded_mixed_instances(self):
        rng = np.random.default_rng(20240819)
        done = 0
        while done < 200:
            points = random_mixed_instance(rng)
            if points is None:
                continue
            assert coplanar_fast(points).count == coplanar_naive(points).count, points
            done += 1

    def test_invariant_under_rational_rigid_motion(self):
        rng = np.random.default_rng(4)
        # rational rotation from two Pythagorean triples, plus a shift
        rot = [
            [Fraction(3, 5), Fraction(4, 5), 0],
            [Fraction(-4, 5), Fraction(3, 5), 0],
            [0, 0, 1],
        ]
        tilt = [
            [1, 0, 0],
            [0, Fraction(5, 13), Fraction(12, 13)],
            [0, Fraction(-12, 13), Fraction(5, 13)],
        ]
        for _ in range(20):
            points = random_mixed_instance(rng)
            if points is None:
                continue
            moved = []
            for p in points.points:
                q = [sum(rot[i][j] * p[j] for j in range(3)) for i in range(3)]
                q = [sum(tilt[i][j] * q[j] for j in range(3)) + Fraction(i, 7) for i in range(3)]
                moved.append(tuple(q))
            if len(set(moved)) != len(moved):
                continue
            assert coplanar_fast(pts3(moved)).count == coplanar_fast(points).count


class TestCollinearTriples:
    def test_three_on_a_line(self):
        assert collinear_triples(pts2([(0, 0), (1, 1), (2, 2)])).count == 1

    def test_general_position(self):
        assert collinear_triples(pts2([(0, 0), (1, 0), (0, 1), (3, 5)])).count == 0

    def test_n_on_a_line(self):
        n = 7
        points = pts2([(i, 3 * i + 1) for i in range(n)])
        assert collinear_triples(points).count == 35  # C(7, 3)

    def test_moment_curve_projection_has_none(self):
        mom = moment_curve_points(25)
        shadow = pts2([(p[0], p[1]) for p in mom.points])
        assert collinear_triples(shadow).count == 0


class TestFourPointCircles:
    def test_four_on_the_unit_circle(self):
        points = pts2([(1, 0), (0, 1), (-1, 0), (0, -1)])
        report = four_point_circles(points)
        assert (report.circles, report.count) == (1, 1)

    def test_five_cocircular(self):
        points = pts2([(1, 0), (0, 1), (-1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5))])
        report = four_point_circles(points)
        assert (report.circles, report.count) == (1, 5)

    def test_collinear_points_make_no_circles(self):
        points = pts2([(i, 2 * i + 1) for i in range(6)])
        report = four_point_circles(points)
        assert (report.circles, report.count) == (0, 0)

    def test_matches_determinant_oracle_on_random_instances(self):
        rng = np.random.default_rng(20240820)
        done = 0
        while done < 100:
            n = int(rng.integers(4, 11))
            rows = list(
                dict.fromkeys(
                    (int(a), int(b)) for a, b in rng.integers(-5, 6, size=(n, 2))
                )
            )
            if len(rows) < 4:
                continue
            points = pts2(rows)
            assert four_point_circles(points).count == concyclic_quadruples_naive(points).count
            done += 1
        # 20-40 distinct rational points with small numerators and
        # denominators, so that some quadruples are concyclic and many
        # triples collinear
        total = 0
        for n in range(20, 41, 4):
            rows: dict[tuple[Fraction, Fraction], None] = {}
            while len(rows) < n:
                a, b, q, r = (int(v) for v in rng.integers((-5, -5, 1, 1), (6, 6, 4, 4)))
                rows[(Fraction(a, q), Fraction(b, r))] = None
            points = pts2(list(rows))
            count = concyclic_quadruples_naive(points).count
            assert four_point_circles(points).count == count
            total += count
        assert total > 0

    def test_cocircular_cluster_matches_oracle(self):
        # many points on one circle: x^2 + y^2 = 25
        circle = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (0, -5)]
        extra = [(1, 1), (2, 0)]
        points = pts2(circle + extra)
        report = four_point_circles(points)
        assert report.count == concyclic_quadruples_naive(points).count
        assert report.circles >= 1
        assert report.degeneracy["max_points_per_circle"] == 8


# -- pivot hashing against direct oracles, on small and huge coordinates ----------


def _cross2(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _collinear3(p, q, r):
    u = [b - a for a, b in zip(p, q)]
    v = [c - a for a, c in zip(p, r)]
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(p)) for j in range(i + 1, len(p)))


def _coplanar4(p, q, r, s):
    u, v, w = ([b - a for a, b in zip(p, x)] for x in (q, r, s))
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0])) == 0


def _concyclic4(p, q, r, s):
    lift = lambda a: (a[0], a[1], a[0] ** 2 + a[1] ** 2)
    return _coplanar4(lift(p), lift(q), lift(r), lift(s))


def _max_line(pts):
    return max((sum(_collinear3(p, q, r) for r in pts if r not in (p, q)) + 2
                for p, q in combinations(pts, 2)), default=0)


def _max_plane(pts):
    return max((sum(_coplanar4(p, q, r, s) for s in pts if s not in (p, q, r)) + 3
                for p, q, r in combinations(pts, 3) if not _collinear3(p, q, r)), default=0)


def _circles(pts):
    """(circles through >= 4 points, most points on one circle), by member sets."""
    members = {frozenset([p, q, r, *(s for s in pts if s not in (p, q, r)
                                     and _concyclic4(p, q, r, s))])
               for p, q, r in combinations(pts, 3) if _cross2(p, q, r) != 0}
    return sum(len(m) >= 4 for m in members), max(map(len, members), default=0)


def _pivot_lines(pts):
    """(pivot, line) pairs, lines through a point and a later one, told apart by member sets."""
    return sum(len({frozenset(r for r in pts[i + 1:] if _collinear3(p, q, r))
                    for q in pts[i + 1:]})
               for i, p in enumerate(pts))


def _pivot_planes(pts, on_flat=_coplanar4, degenerate=_collinear3):
    """(pivot, flat) pairs, flats through a point and two later ones, told
    apart by member sets; `on_flat(p, q, r, s)` puts s on the flat of
    p, q, r, and `degenerate(p, q, r)` triples span none."""
    return sum(len({frozenset(s for s in pts[i + 1:] if on_flat(p, q, r, s))
                    for q, r in combinations(pts[i + 1:], 2) if not degenerate(p, q, r)})
               for i, p in enumerate(pts))


def _ints(points):
    """The points scaled by one common factor to integers (incidences survive)."""
    scale = math.lcm(*(v.denominator for p in points for v in p))
    return [tuple(int(v * scale) for v in p) for p in points]


def _check_space(rows):
    points = pts3(rows)
    report = coplanar_fast(points)
    assert report.count == coplanar_naive(points).count
    ints = _ints(points)
    assert report.degeneracy == {"max_points_per_plane": _max_plane(ints),
                                 "max_points_per_line": _max_line(ints)}
    # these sets are far below the split threshold: one process hashes them
    assert report.hashing == {"lines": _pivot_lines(ints), "planes": _pivot_planes(ints),
                              "workers": 1}


def _check_plane(rows):
    points = pts2(rows)
    circles = four_point_circles(points)
    assert circles.count == concyclic_quadruples_naive(points).count
    ints = _ints(points)
    expected_circles, max_circle = _circles(ints)
    assert circles.circles == expected_circles
    assert circles.degeneracy == {"max_points_per_circle": max_circle}
    # the circle counter's lines and planes are those of the lifted points;
    # its planes are the circles through a pivot and two later points
    lifted = [(x, y, x * x + y * y) for x, y in ints]
    assert circles.hashing == {
        "lines": _pivot_lines(lifted),
        "planes": _pivot_planes(ints, _concyclic4, lambda p, q, r: _cross2(p, q, r) == 0),
        "workers": 1}
    lines = collinear_triples(points)
    assert lines.count == sum(_cross2(*t) == 0 for t in combinations(ints, 3))
    assert lines.degeneracy == {"max_points_per_line": _max_line(ints)}
    assert lines.hashing == {"lines": _pivot_lines(ints), "planes": 0, "workers": 1}


def _random_rows(rng, dim, box, denominators=(1,)):
    rows = {tuple(Fraction(rng.randint(-box, box), rng.choice(denominators)) for _ in range(dim))
            for _ in range(rng.randint(4, 10))}
    return sorted(rows)


# moved and stretched copies of a set: coordinates past 2^40, and (scaled)
# pivot differences past 2^31 with cross products past 2^62
_TRANSFORMS = [
    pytest.param(lambda v: v, id="as-is"),
    pytest.param(lambda v: v + 2**40, id="shifted"),
    pytest.param(lambda v: v * 2**31 - 7, id="scaled"),
]


class TestPivotKernels:
    @pytest.mark.parametrize("move", _TRANSFORMS)
    def test_random_space_sets(self, move):
        rng = random.Random(5150)
        for _ in range(30):
            rows = _random_rows(rng, 3, rng.choice((1, 2, 4)), rng.choice(((1,), (1, 2, 3))))
            _check_space([tuple(map(move, p)) for p in rows])

    @pytest.mark.parametrize("move", _TRANSFORMS)
    def test_random_plane_sets(self, move):
        rng = random.Random(5151)
        for _ in range(30):
            rows = _random_rows(rng, 2, rng.choice((2, 3, 6)), rng.choice(((1,), (1, 2, 5))))
            _check_plane([tuple(map(move, p)) for p in rows])

    @pytest.mark.parametrize("move", _TRANSFORMS)
    def test_lattices_with_long_lines(self, move):
        cube = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        _check_space([tuple(map(move, p)) for p in cube[:12]])
        line = [(i, 2 * i, -i) for i in range(6)] + [(0, 1, 5), (2, 3, 1)]
        _check_space([tuple(map(move, p)) for p in line])
        # lines of 4 points along x, 3 along y, and planes of 12, 8 and 6 points
        slab = [(x, y, z) for x in range(4) for y in range(3) for z in range(2)]
        _check_space([tuple(map(move, p)) for p in slab])
        grid = [(Fraction(x, 2), Fraction(y, 3)) for x in range(3) for y in range(4)]
        _check_plane([tuple(map(move, p)) for p in grid])

    def test_moment_curve_past_the_bound(self):
        # coordinates past 2^40; the keys come from pivot differences, which
        # the shift leaves as they are
        shifted = pts3([(t + 2**40, t * t + 2**40, t ** 3 + 2**40) for t in range(1, 13)])
        report = coplanar_fast(shifted)
        assert report.count == coplanar_naive(shifted).count == 0

    def test_tall_square_pyramid(self):
        rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2**30)]
        assert coplanar_fast(pts3(rows)).count == 1

    def test_report_counts_lines_and_planes(self):
        out = coplanar_fast(pts3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])).to_json()
        # pivot 0 sees 3 lines and 3 planes, pivot 1 sees 2 lines and 1 plane
        assert (out["lines"], out["planes"]) == (6, 4)
        assert "kernel" not in out and "stages" not in out
        out = collinear_triples(pts2([(0, 0), (1, 1), (2, 2)])).to_json()
        assert (out["lines"], out["planes"]) == (2, 0)


# -- the pivot kernels split across processes ----------------------------------


def _split_then_serial(monkeypatch, call):
    """(call() with every kernel split into three forked shares, call() in
    one process), whatever the machine's CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(geometry, "_FORK_MIN_STEPS", 0)
    split = call()
    monkeypatch.setattr(geometry, "_FORK_MIN_STEPS", math.inf)
    return split, call()


def _kernels(rows, skip_vertical=False):
    """Every `_Flats` field and the `_plane_scan` count of exact rows."""
    ints = geometry._integerize(pts3(rows).points if rows and len(rows[0]) == 3
                                else pts2(rows).points)
    flats = geometry._pivot_flats(ints, skip_vertical)
    scan = geometry._plane_scan(ints, skip_vertical) if ints and len(ints[0]) == 3 else None
    return flats, scan


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")
class TestSplitKernels:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def check(self, monkeypatch, rows, skip_vertical=False):
        (flats, scan), (serial, serial_scan) = _split_then_serial(
            monkeypatch, lambda: _kernels(rows, skip_vertical))
        assert flats._replace(workers=1) == serial and scan == serial_scan
        assert flats.workers > 1 and serial.workers == 1

    @pytest.mark.parametrize("move", _TRANSFORMS)
    def test_integer_and_rational_space_sets(self, monkeypatch, move):
        rng = random.Random(7070)
        for _ in range(20):
            rows = _random_rows(rng, 3, rng.choice((1, 2, 5, 30)), rng.choice(((1,), (1, 2, 3))))
            self.check(monkeypatch, [tuple(map(move, p)) for p in rows])

    @pytest.mark.parametrize("move", _TRANSFORMS)
    def test_plane_sets_and_their_lifted_circles(self, monkeypatch, move):
        rng = random.Random(7171)
        for _ in range(20):
            rows = _random_rows(rng, 2, rng.choice((2, 3, 6)), rng.choice(((1,), (1, 2, 5))))
            moved = [tuple(map(move, p)) for p in rows]
            self.check(monkeypatch, moved)
            self.check(monkeypatch, [(x, y, x * x + y * y) for x, y in moved], skip_vertical=True)

    def test_lattices_with_long_lines(self, monkeypatch):
        for k in (3, 4):
            cube = [(x, y, z) for x in range(k) for y in range(k) for z in range(k)]
            self.check(monkeypatch, cube)
            self.check(monkeypatch, cube, skip_vertical=True)
        self.check(monkeypatch, [(x, y) for x in range(9) for y in range(9)])

    @pytest.mark.parametrize("size", range(4))
    def test_zero_to_three_points(self, monkeypatch, size):
        self.check(monkeypatch, [(0, 0, 0), (1, 2, 3), (1, 0, 0)][:size])
        self.check(monkeypatch, [(0, 0), (1, 2), (1, 0)][:size])

    def test_skip_vertical_on_long_lines_keeps_the_recorded_counts(self, monkeypatch):
        # 31 points of {0..3}^3, many on lines of 3 or 4: a kernel that drops
        # the vertical planes from a line's keys before pairing them with the
        # later lines' l reads plane_triples 1915 here
        rng = random.Random(0)
        rows: set[tuple[int, ...]] = set()
        while len(rows) < 31:
            rows.add(tuple(rng.randint(0, 3) for _ in range(3)))
        rows = sorted(rows)
        split, serial = _split_then_serial(
            monkeypatch, lambda: geometry._pivot_flats(rows, skip_vertical=True))
        # every field as the single-level kernel (one normal per line pair) gave
        recorded = (426, 1807, 4, 11, 43, 4, 1900, 314)
        assert split[:8] == serial[:8] == recorded
        self.check(monkeypatch, rows, skip_vertical=True)

    def test_reports_give_the_workers_and_the_same_results(self, monkeypatch):
        cube = pts3([(x, y, z) for x in range(4) for y in range(4) for z in range(3)])
        grid = pts2([(x, y) for x in range(7) for y in range(6)])
        for counter, points in ((coplanar_fast, cube), (coplanar_naive, cube),
                                (four_point_circles, grid), (collinear_triples, grid),
                                (concyclic_quadruples_naive, grid)):
            split, serial = _split_then_serial(monkeypatch, lambda: counter(points).to_json())
            if "workers" in serial:
                assert (split["workers"], serial["workers"]) == (3, 1)
            for report in (split, serial):
                del report["elapsed_s"]
                report.pop("workers", None)
            assert split == serial

    def test_a_failing_own_share_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

        def work(start, step):
            if start == 0:
                raise ZeroDivisionError("own share")
            time.sleep(60)
            return (start,)

        began = time.perf_counter()
        with pytest.raises(ZeroDivisionError, match="own share"):
            geometry._fan_out(work, 10**6)
        assert time.perf_counter() - began < 30

    def test_a_failing_child_is_named_and_the_others_are_reaped(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

        def work(start, step):
            if start == 1:
                raise ValueError("share 1")
            if start == 2:
                time.sleep(60)
            return (start,)

        began = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"pivot share 1 of 3 \(pid \d+\) exited with status 1"):
            geometry._fan_out(work, 10**6)
        assert time.perf_counter() - began < 30

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open fds in /proc")
    def test_a_failed_fork_leaves_no_child_and_no_pipe(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        fork = os.fork
        forks = []

        def fork_once():
            forks.append(None)
            if len(forks) > 1:
                raise BlockingIOError("no process to spare")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="no process to spare"):
            geometry._fan_out(lambda start, step: (start,), 10**6)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_in_process_below_the_threshold_and_on_one_cpu(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        work = lambda start, step: (start, step)
        assert geometry._fan_out(work, geometry._FORK_MIN_STEPS - 1) == [(0, 1)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert geometry._fan_out(work, 10**9) == [(0, 1)]

    def test_children_write_nothing_to_stdout(self):
        # a child that left through the interpreter's exit would run the
        # atexit handler, or go on with the caller's code, and print again
        code = (
            "import atexit, os\n"
            "from quadcount import geometry\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "atexit.register(print, 'exit')\n"
            "print(geometry._fan_out(lambda start, step: (start, -2**200 * step), 10**6))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        big = -2**200 * 3
        assert out.stdout == f"[(0, {big}), (1, {big}), (2, {big})]\nexit\n"
        assert out.stderr == ""


ROOT = Path(__file__).resolve().parents[1]


def _hashing_bench():
    spec = importlib.util.spec_from_file_location("hashing_bench", ROOT / "bench" / "hashing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hashing_bench_record_is_reproduced():
    # every result BENCH_hashing.json records next to a timing, on the same inputs
    bench = _hashing_bench()
    record = json.loads((ROOT / "BENCH_hashing.json").read_text())
    rows = record["runs"]["change"]["rows"]
    assert [row["input"] for row in rows] == [name for name, _, _ in bench.inputs()]
    for row, (name, kind, points) in zip(rows, bench.inputs()):
        pointset = (PointSet3 if kind == "coplanar" else PointSet2).from_rows(points)
        report = getattr(geometry, bench.COUNTERS[kind])(pointset)
        assert bench.result(report.to_json()) == bench.result(row), name


class TestSmallInputs:
    @pytest.mark.parametrize("rows,plane,line", [
        ([], 0, 0),
        ([(0, 0, 0)], 0, 0),
        ([(0, 0, 0), (1, 2, 3)], 0, 2),
        ([(0, 0, 0), (1, 2, 3), (2, 4, 6)], 0, 3),
        ([(0, 0, 0), (1, 2, 3), (1, 0, 0)], 3, 2),
    ])
    def test_coplanar_fast(self, rows, plane, line):
        report = coplanar_fast(pts3(rows))
        assert report.count == 0
        assert report.degeneracy == {"max_points_per_plane": plane, "max_points_per_line": line}

    @pytest.mark.parametrize("rows,circle,line", [
        ([], 0, 0),
        ([(0, 0)], 0, 0),
        ([(0, 0), (1, 2)], 0, 2),
        ([(0, 0), (1, 2), (2, 4)], 0, 3),
        ([(0, 0), (1, 2), (1, 0)], 3, 2),
    ])
    def test_circles_and_lines(self, rows, circle, line):
        circles = four_point_circles(pts2(rows))
        assert (circles.count, circles.circles) == (0, 0)
        assert circles.degeneracy == {"max_points_per_circle": circle}
        lines = collinear_triples(pts2(rows))
        assert lines.count == (1 if line == 3 else 0)
        assert lines.degeneracy == {"max_points_per_line": line}
