from fractions import Fraction

import numpy as np
import pytest

from _generators import random_mixed_point_instance as random_mixed_instance
from quadcount.constructions import (
    TORSION_COPLANAR_TOL,
    embed_quartic,
    make_curve,
    moment_curve_points,
    torsion_points,
)
from quadcount.geometry import (
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


class TestCoplanarNaive:
    def test_square_plus_apex(self):
        points = pts3([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)])
        assert coplanar_naive(points).count == 1

    def test_five_generic_points_in_a_plane(self):
        points = pts3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0), (5, 1, 0)])
        assert coplanar_naive(points).count == 5

    def test_moment_curve_has_none(self):
        assert coplanar_naive(moment_curve_points(10)).count == 0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            coplanar_naive(pts3([(0, 0, 0), (0, 0, 0), (1, 1, 1), (2, 0, 1)]))

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

    def test_exact_report_has_no_margin(self):
        report = coplanar_naive(pts3([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)]))
        out = report.to_json()
        assert "max_accepted" not in out and "min_rejected" not in out

    def test_ordered_count_factor(self):
        points = pts3([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)])
        report = coplanar_naive(points)
        assert report.ordered_count == report.count * 24


class TestCoplanarFast:
    def test_line_with_generic_satellites(self):
        # 4 collinear points plus 2 off-line exercises the correction path
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

    def test_cocircular_cluster_matches_oracle(self):
        # many points on one circle: x^2 + y^2 = 25
        circle = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (0, -5)]
        extra = [(1, 1), (2, 0)]
        points = pts2(circle + extra)
        report = four_point_circles(points)
        assert report.count == concyclic_quadruples_naive(points).count
        assert report.circles >= 1
        assert report.degeneracy["max_points_per_circle"] == 8
