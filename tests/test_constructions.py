import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from _generators import zero_sum_subsets
from quadcount.constructions import (
    ANGLE_TOL,
    IDENTITY,
    ON_CURVE_TOL,
    CurvePoint,
    _rf,
    angle,
    ap_grid,
    coplanar_index_oracle,
    embed_quartic,
    group_add,
    group_neg,
    make_curve,
    moment_curve_points,
    on_curve,
    point_at_angle,
    torsion_points,
)
from quadcount.geometry import TORSION_COPLANAR_TOL, coplanar_naive
from quadcount.zerocount import count_naive


@pytest.fixture(scope="module")
def cfg():
    return make_curve()  # y^2 = x^3 + x + 1


def _coplanar_index_brute(n):
    # O(n^4) cross-check for the oracle: 4-subsets of 1..n-1 summing to 0 mod n
    return sum(1 for quad in combinations(range(1, n), 4) if sum(quad) % n == 0)


def random_point(cfg, rng):
    return point_at_angle(cfg, float(rng.uniform(0.02, 0.98)))


class TestApGrid:
    def test_additive_small(self):
        grid = ap_grid("additive", 3)
        assert [float(v) for v in grid.sets.sets[0]] == [1, 2, 3]
        assert [float(v) for v in grid.sets.sets[3]] == list(range(-9, -2))
        assert grid.expected == 27
        assert count_naive(grid.poly, grid.sets).count == 27

    def test_additive_n1(self):
        grid = ap_grid("additive", 1)
        assert grid.expected == 1
        assert count_naive(grid.poly, grid.sets).count == 1

    def test_multiplicative_small(self):
        grid = ap_grid("multiplicative", 3)
        assert grid.expected == 27
        assert count_naive(grid.poly, grid.sets).count == 27

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            ap_grid("additive", 0)


class TestCurveBasics:
    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            make_curve(Fraction(-3), Fraction(2))  # 4a^3 + 27b^2 = 0

    def test_rejects_two_component_curve(self):
        with pytest.raises(ValueError):
            make_curve(Fraction(-2), Fraction(0))

    def test_identity_laws(self, cfg):
        p = point_at_angle(cfg, 0.3)
        assert group_add(cfg, p, IDENTITY) == p
        assert group_add(cfg, IDENTITY, p) == p

    def test_inverse_law(self, cfg):
        p = point_at_angle(cfg, 0.3)
        assert group_add(cfg, p, group_neg(p)).infinity

    def test_two_torsion_doubles_to_identity(self, cfg):
        two = CurvePoint(cfg.root, 0.0)
        assert on_curve(cfg, two)
        assert group_add(cfg, two, two).infinity

    def test_on_curve_tolerance(self, cfg):
        # the residual y^2 - (x^3 + a*x + b) may reach ON_CURVE_TOL * (1 + |x|^3)
        p = point_at_angle(cfg, 0.3)
        scale = ON_CURVE_TOL * (1.0 + abs(p.x) ** 3)
        assert on_curve(cfg, CurvePoint(p.x, math.sqrt(p.y ** 2 + 0.5 * scale)))
        assert not on_curve(cfg, CurvePoint(p.x, math.sqrt(p.y ** 2 + 2.0 * scale)))

    def test_off_curve_rejected(self, cfg):
        with pytest.raises(ValueError, match="not on the curve"):
            group_add(cfg, CurvePoint(1.0, 1.0), IDENTITY)

    def test_closure_within_tolerance(self, cfg):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = group_add(cfg, random_point(cfg, rng), random_point(cfg, rng))
            if not r.infinity:
                assert abs(r.y ** 2 - (r.x ** 3 + float(cfg.a) * r.x + float(cfg.b))) \
                    <= 1e-8 * (1 + abs(r.x) ** 3)

    def test_associativity_residual(self, cfg):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q, r = (random_point(cfg, rng) for _ in range(3))
            lhs = group_add(cfg, group_add(cfg, p, q), r)
            rhs = group_add(cfg, p, group_add(cfg, q, r))
            assert not (lhs.infinity ^ rhs.infinity)
            if not lhs.infinity:
                scale = 1 + max(abs(lhs.x), abs(lhs.y))
                assert math.hypot(lhs.x - rhs.x, lhs.y - rhs.y) < 1e-7 * scale


class TestCarlsonNumerics:
    """The arc map runs on Carlson's R_F, a safeguarded Newton inversion and
    Cardano's root; these pin each piece to closed forms or fixed values."""

    def test_rf_closed_forms(self):
        for x in (0.25, 1.0, 7.0):
            assert _rf(x, x, x).real == pytest.approx(x ** -0.5, rel=1e-15)
        for y in (0.5, 1.0, 9.0):
            assert _rf(0.0, y, y).real == pytest.approx(math.pi / (2 * math.sqrt(y)), rel=1e-15)

    def test_rf_carlson_test_values(self):
        # test values from Carlson (1995): R_F(0, 1, 2) and the lemniscate R_F(i, -i, 0)
        assert _rf(0.0, 1.0, 2.0).real == pytest.approx(1.3110287771460599, rel=1e-15)
        value = _rf(1j, -1j, 0.0)
        assert value.real == pytest.approx(1.8540746773013719, rel=1e-15)
        assert abs(value.imag) < 1e-16

    def test_rf_nonconvergence_raises(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            _rf(float("nan"), 1.0, 2.0)

    def test_period_matches_reference(self, cfg):
        # the period y^2 = x^3 + x + 1 had under adaptive quadrature
        assert cfg.period == pytest.approx(7.499885956188686, rel=1e-13)

    def test_two_torsion_angle_is_exactly_half(self, cfg):
        assert angle(cfg, CurvePoint(cfg.root, 0.0)) == 0.5

    def test_round_trip_within_angle_tol(self, cfg):
        rng = np.random.default_rng(41)
        thetas = [1e-6, 0.5 - 1e-9, 0.5 + 1e-9] + [float(t) for t in rng.uniform(0, 1, 50)]
        for theta in thetas:
            delta = abs(angle(cfg, point_at_angle(cfg, theta)) - theta)
            assert min(delta, 1 - delta) <= ANGLE_TOL, theta

    def test_cardano_root_residual(self):
        for a, b in ((-1, 1), (2, -3), (Fraction(1, 3), Fraction(7, 5))):
            curve = make_curve(Fraction(a), Fraction(b))
            e0, af, bf = curve.root, float(curve.a), float(curve.b)
            scale = abs(e0) ** 3 + abs(af * e0) + abs(bf)
            assert abs(e0 ** 3 + af * e0 + bf) < 1e-14 * scale, (a, b)


class TestAngle:
    def test_identity_angle(self, cfg):
        assert angle(cfg, IDENTITY) == 0.0

    def test_reflection_symmetry(self, cfg):
        p = point_at_angle(cfg, 0.2)
        assert angle(cfg, group_neg(p)) == pytest.approx(1 - angle(cfg, p), abs=1e-9)

    def test_two_torsion_is_half(self, cfg):
        assert angle(cfg, CurvePoint(cfg.root, 0.0)) == pytest.approx(0.5, abs=1e-9)

    def test_additivity(self, cfg):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p, q = random_point(cfg, rng), random_point(cfg, rng)
            total = (angle(cfg, p) + angle(cfg, q)) % 1.0
            got = angle(cfg, group_add(cfg, p, q))
            delta = abs(got - total)
            assert min(delta, 1 - delta) < 1e-6


class TestTorsion:
    def test_two_torsion_structure(self, cfg):
        pts = torsion_points(cfg, 2)
        assert pts[0].infinity
        assert pts[1].x == pytest.approx(cfg.root, abs=1e-9)
        assert pts[1].y == pytest.approx(0.0, abs=1e-9)

    def test_subgroup_nesting(self, cfg):
        pts = torsion_points(cfg, 4)
        assert pts[2].y == pytest.approx(0.0, abs=1e-9)  # the 2-torsion point

    def test_five_torsion_spacing(self, cfg):
        pts = torsion_points(cfg, 5)
        angles = [angle(cfg, p) for p in pts]
        diffs = [angles[k + 1] - angles[k] for k in range(4)]
        assert all(abs(d - 0.2) < 1e-6 for d in diffs)

    def test_repeated_addition_returns_to_identity(self, cfg):
        for n in (2, 3, 5, 8, 16, 32, 64, 128):
            p1 = point_at_angle(cfg, 1.0 / n)
            acc = p1
            for _ in range(n - 1):
                acc = group_add(cfg, acc, p1)
            theta = angle(cfg, acc)
            assert min(theta, 1 - theta) < 1e-5, n


class TestEmbedding:
    def test_explicit_image(self, cfg):
        p = point_at_angle(cfg, 0.25)
        emb = embed_quartic(cfg, [p])
        x, y, w = emb.points[0]
        assert (x, y) == (p.x, p.y)
        assert w == x * x

    def test_identity_must_be_stripped(self, cfg):
        with pytest.raises(ValueError, match="strip"):
            embed_quartic(cfg, [IDENTITY])

    def test_quadric_residuals(self, cfg):
        emb = embed_quartic(cfg, torsion_points(cfg, 16)[1:])
        a, b = float(cfg.a), float(cfg.b)
        for x, y, w in emb.points:
            scale = 1 + abs(x) ** 2
            assert abs(w - x * x) <= 1e-8 * scale
            assert abs(y * y - (x * w + a * x + b)) <= 1e-8 * (1 + abs(x) ** 3)

    def test_group_sum_zero_iff_coplanar(self, cfg):
        n = 11
        pts = torsion_points(cfg, n)
        emb_all = embed_quartic(cfg, pts[1:])
        coords = {k: emb_all.points[k - 1] for k in range(1, n)}

        def normalized_det(ks):
            a, b, c, d = (coords[k] for k in ks)
            u = tuple(b[i] - a[i] for i in range(3))
            v = tuple(c[i] - a[i] for i in range(3))
            w = tuple(d[i] - a[i] for i in range(3))
            det = (u[0] * (v[1] * w[2] - v[2] * w[1])
                   - u[1] * (v[0] * w[2] - v[2] * w[0])
                   + u[2] * (v[0] * w[1] - v[1] * w[0]))
            scale = (math.sqrt(sum(t * t for t in u)) * math.sqrt(sum(t * t for t in v))
                     * math.sqrt(sum(t * t for t in w)))
            return abs(det) / scale

        assert normalized_det([1, 2, 3, 5]) < 1e-7   # 1+2+3+5 = 11
        assert normalized_det([1, 2, 3, 4]) > 1e-7   # 10, not divisible


class TestIndexOracle:
    def test_n5_single_subset(self):
        assert coplanar_index_oracle(5) == 1

    def test_small_values_match_brute_force(self):
        for n in range(5, 61):
            assert coplanar_index_oracle(n) == _coplanar_index_brute(n)

    def test_closed_form_at_benchmark_sizes(self):
        # zero-sum 4-subsets of Z_n minus {0}: M4 = N4 - N3 + N2
        for n, count in ((128, 80755), (256, 672147), (384, 2298461),
                         (1000, 41251581), (1024, 44303955)):
            closed = (zero_sum_subsets(n, 4) - zero_sum_subsets(n, 3)
                      + zero_sum_subsets(n, 2))
            assert coplanar_index_oracle(n) == closed == count

    def test_n6_and_n8_brute(self):
        assert coplanar_index_oracle(6) == _coplanar_index_brute(6)
        assert coplanar_index_oracle(8) == _coplanar_index_brute(8)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            coplanar_index_oracle(4)

    def test_geometric_counts_match_oracle(self, cfg):
        for n in (8, 12, 16):
            emb = embed_quartic(cfg, torsion_points(cfg, n)[1:])
            geo = coplanar_naive(emb, tol=TORSION_COPLANAR_TOL).count
            assert geo == coplanar_index_oracle(n)


class TestMomentCurve:
    def test_exact_rows(self):
        pts = moment_curve_points(4, Fraction(1, 2))
        assert pts.kind == "exact"
        assert pts.points[1] == (1, 1, 1)
        assert pts.points[2] == (Fraction(3, 2), Fraction(9, 4), Fraction(27, 8))

    def test_no_coplanar_quadruples(self):
        assert coplanar_naive(moment_curve_points(4)).count == 0
        assert coplanar_naive(moment_curve_points(12)).count == 0
