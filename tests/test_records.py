"""Value semantics of the record types: equality, hashing, immutability,
validation, repr, and defaults that are never shared between instances;
and the package's exports."""

import contextlib
import pickle
import random
from fractions import Fraction

import pytest

import quadcount
from quadcount import constructions, geometry, harness, polynomials, separability, zerocount
from quadcount.constructions import (
    ANGLE_TOL, IDENTITY, CurvePoint, EllipticConfig, ap_grid, make_curve, moment_curve_points,
)
from quadcount.fileio import points_from_csv, sets_from_csv
from quadcount.geometry import CountReport, PointSet2, PointSet3
from quadcount.harness import ExperimentSeries, SeriesRow
from quadcount.polynomials import VARS, Polynomial, parse_poly
from quadcount.separability import FormVerdict
from quadcount.zerocount import GridSets, ZeroCountReport


def assert_value_record(a, same, other, field):
    """`a` equals and hashes like `same`, differs from `other`, rejects
    assignment to `field` and to a new attribute, and survives pickling."""
    assert a == same and hash(a) == hash(same)
    assert a != other
    assert len({a, same, other}) == 2
    for name in (field, "undeclared"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert getattr(a, field) == getattr(same, field)
    assert pickle.loads(pickle.dumps(a)) == a


class TestGridSets:
    def test_value_semantics(self):
        a = GridSets.from_values([1, 2], [3], [4], [5, 6])
        assert_value_record(a, GridSets.from_values([1, 2], [3], [4], [5, 6]),
                            GridSets.from_values([1, 2], [3], [4], [5]), "sets")
        with pytest.raises(AttributeError):
            del a.sets
        assert a.sizes == (2, 1, 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="expected 4 sets, got 3"):
            GridSets(((Fraction(1),),) * 3)
        with pytest.raises(ValueError, match="set #2 contains repeated values"):
            GridSets.from_values([1], [2], [3, 3], [4])

    def test_repr(self):
        assert repr(GridSets.from_values([1], [2], [3], [4])) == (
            "GridSets(sets=((1,), (2,), (3,), (4,)))"
        )


def test_containers_store_an_int_exactly_when_integral():
    rng = random.Random(34)

    def draws(n):
        # distinct values, integral and not, given as ints, Fractions and floats
        out = {}
        while len(out) < n:
            v = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                            rng.randint(-18, 18) / 2])
            out.setdefault(Fraction(v), v)
        return list(out.values())

    def text(v):
        return f"{v.numerator}/{v.denominator}" if rng.random() < 0.5 else str(v)

    stored = []
    for _ in range(20):
        sets = [draws(rng.randint(1, 5)) for _ in range(4)]
        stored += GridSets.from_values(*sets).sets
        exact_sets = [[Fraction(v) for v in vs] for vs in sets]
        csv = "".join(f"{label}: {','.join(map(text, vs))}\n"
                      for label, vs in zip("ABCD", exact_sets))
        stored += sets_from_csv(csv).sets
        for cls in (PointSet2, PointSet3):
            rows = list(dict.fromkeys(
                tuple(rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
                      for _ in range(cls.dimension))
                for _ in range(rng.randint(1, 6))))
            for points in (cls.from_rows(rows),
                           points_from_csv("\n".join(",".join(text(Fraction(v)) for v in row)
                                                      for row in rows))):
                assert points.kind == "exact"
                stored += points.points
    for n in (1, 4):
        for spacing in (1, Fraction(1, 2), Fraction(2), 3):
            stored += moment_curve_points(n, spacing).points
        for kind in ("additive", "multiplicative"):
            stored += ap_grid(kind, n).sets.sets
    values = [v for group in stored for v in group]
    assert len(values) > 500
    for v in values:
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), v


class TestPolynomial:
    def test_value_semantics(self):
        p = parse_poly("x*y - s*t", VARS)
        hash(p)  # cache the hash before the assignments are tried
        assert_value_record(p, parse_poly("-t*s + y*x", VARS), parse_poly("x*y + s*t", VARS),
                            "vars")
        with pytest.raises(AttributeError):
            p.terms = {}
        with pytest.raises(AttributeError):
            del p.vars
        assert p.vars == VARS and p in {parse_poly("x*y - s*t", VARS)}

    def test_equal_polynomials_hash_equal(self):
        x, y, s, t = (Polynomial.variable(VARS, v) for v in VARS)
        built = (x + s) * (y - t) - x * y + s * t - s * y
        parsed = parse_poly("s*y - x*t - s*y", VARS)
        direct = Polynomial(VARS, {(1, 0, 0, 1): Fraction(-1)})
        assert built == parsed == direct
        assert hash(built) == hash(parsed) == hash(direct)
        assert len({built, parsed, direct}) == 1
        # the hash is cached, so a polynomial renamed after hashing would
        # equal one it does not hash like
        with contextlib.suppress(AttributeError):
            direct.vars = ("a", "b", "c", "d")
        for other in (built, parse_poly("-a*d", "abcd")):
            assert (direct == other) == (hash(direct) == hash(other)) == (other in {direct})


class TestPointSets:
    def test_value_semantics(self):
        rows = [(0, 0, 0), (1, 2, 3)]
        a = PointSet3.from_rows(rows)
        assert_value_record(a, PointSet3.from_rows(rows), PointSet3.from_rows(rows[:1]), "points")
        for field in ("kind", "dimension"):
            with pytest.raises(AttributeError):
                setattr(a, field, None)
        assert len(a) == 2 and list(a) == [(0, 0, 0), (1, 2, 3)]

    def test_class_takes_part_in_equality(self):
        # the same points and kind in another class are another value
        assert PointSet2((), "exact") != PointSet3((), "exact")
        assert PointSet2((), "exact") == PointSet2((), "exact")

    def test_repr(self):
        assert repr(PointSet2.from_rows([(0.5, 1.0)])) == (
            "PointSet2(points=((0.5, 1.0),), kind='float')"
        )

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan"), 1e400],
                             ids=["inf", "-inf", "nan", "1e400"])
    def test_non_finite_float_coordinate_is_refused(self, bad):
        # inf / inf is NaN, which the float scan neither accepts nor rejects
        with pytest.raises(ValueError, match="float coordinates must be finite"):
            PointSet3.from_rows([(0.0, 0.0, 0.0), (1.0, bad, 0.0)])

    def test_exact_coordinate_past_the_float_range_is_refused(self):
        # a Fraction mixed into float rows is converted, and 10^400 overflows
        with pytest.raises(ValueError, match="coordinate out of float range"):
            PointSet2.from_rows([(Fraction(10) ** 400, 0.5)])


class TestCurveRecords:
    def test_curve_point(self):
        assert_value_record(CurvePoint(1.0, 2.0), CurvePoint(1.0, 2.0), CurvePoint(1.0, -2.0), "y")
        assert IDENTITY == CurvePoint(infinity=True) and IDENTITY != CurvePoint()
        assert repr(IDENTITY) == "O"
        assert repr(CurvePoint(1.5, -2.0)) == "(1.5, -2.0)"

    def test_elliptic_config(self):
        cfg = make_curve()
        assert_value_record(cfg, make_curve(), make_curve(Fraction(2)), "period")
        assert ANGLE_TOL == 1e-9
        assert cfg == EllipticConfig(cfg.a, cfg.b, cfg.period, cfg.root)


def test_series_row():
    assert_value_record(SeriesRow(8, 3, 1.5), SeriesRow(8, 3, 1.5), SeriesRow(8, 4, 1.5), "count")
    assert (SeriesRow(8, 3, 1.5).n, SeriesRow(8, 3, 1.5).count) == (8, 3)


def test_reports_share_no_default_container():
    # defaults left out are fresh in every report's JSON, never one shared
    # dict that a caller could change for the next report
    reports = [
        (lambda: CountReport(1, "naive", 4, 0.0), "degeneracy"),
        (lambda: ZeroCountReport(0, "naive", 0, 0.0, (1, 1, 1, 1)), "stages"),
        (lambda: ExperimentSeries("e", [], None, None, None, None), "stages"),
        (lambda: FormVerdict("degenerate", None), "stages"),
    ]
    for build, key in reports:
        first, second = build().to_json(), build().to_json()
        assert first[key] == second[key] == {}
        assert first[key] is not second[key]
        first[key]["x"] = 1
        assert build().to_json()[key] == {}


def test_zero_count_report_counters():
    # each route's counter is in its own JSON only
    base = ZeroCountReport(5, "naive", 0, 0.0, (1, 1, 1, 1))
    assert set(base.to_json()) == {"count", "method", "degenerate_fibers", "elapsed_s",
                                   "sizes", "stages"}
    naive = base._replace(distinct_fibers=3).to_json()
    assert naive["distinct_fibers"] == 3 and "slice_degrees" not in naive
    fiber = base._replace(method="fiber", slice_degrees=(2, 0, 1)).to_json()
    assert fiber["slice_degrees"] == [2, 0, 1] and "distinct_fibers" not in fiber


def test_package_exports_what_each_layer_declares():
    layers = (polynomials, zerocount, geometry, constructions, separability, harness)
    joined = [name for layer in layers for name in layer.__all__]
    assert quadcount.__all__ == joined
    assert len(set(joined)) == len(joined)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(quadcount, name) is getattr(layer, name)
