import math

import pytest

import quadcount.constructions
from quadcount.harness import EXPERIMENTS, extrapolated_exponent, fit_slope, run_series


class TestFitSlope:
    def test_exact_cubic(self):
        slope, intercept, residual = fit_slope([(2, 8), (4, 64), (8, 512)])
        assert slope == pytest.approx(3.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_exact_quadratic_two_points(self):
        slope, _, _ = fit_slope([(2, 4), (4, 16)])
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_intercept_recovers_constant(self):
        # count = 7 * n^2
        slope, intercept, _ = fit_slope([(3, 63), (9, 567), (27, 5103)])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert math.exp(intercept) == pytest.approx(7.0, rel=1e-10)

    def test_zero_counts_excluded(self):
        slope, _, _ = fit_slope([(2, 8), (3, 0), (4, 64), (8, 512)])
        assert slope == pytest.approx(3.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_slope([(4, 16)])

    def test_degenerate_all_n_equal(self):
        with pytest.raises(ValueError):
            fit_slope([(4, 16), (4, 17)])


class TestExtrapolatedExponent:
    def test_doublings_give_twice_the_last_slope_less_the_one_before(self):
        points = [(16, 87), (32, 987), (64, 9315), (128, 80755)]
        s01, s12 = (math.log2(c1 / c0) for (_, c0), (_, c1) in zip(points[1:], points[2:]))
        assert extrapolated_exponent(points) == pytest.approx(2 * s12 - s01, abs=1e-12)

    def test_cancels_a_one_over_n_term_on_any_spacing(self):
        # log c = a log n + b/n exactly, so only rounding is left
        for ns in ((8, 16, 32), (8, 16, 24), (100, 150, 225), (128, 256, 384), (90, 91, 300)):
            for a, b in ((3, -10), (8 / 3, -10), (2, 5)):
                points = [(n, n ** a * math.exp(b / n)) for n in ns]
                assert extrapolated_exponent(points) == pytest.approx(a, abs=1e-9)

    def test_only_the_last_three_positive_points_count(self):
        points = [(2, 1), (4, 64), (5, 0), (8, 512), (16, 4096)]
        assert extrapolated_exponent(points) == pytest.approx(3.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3 points"):
            extrapolated_exponent([(4, 16), (8, 64), (16, 0)])

    def test_n_must_increase(self):
        with pytest.raises(ValueError, match="increase strictly"):
            extrapolated_exponent([(4, 16), (8, 64), (8, 65)])


class TestRunSeries:
    def test_additive_grid_is_exactly_cubic(self):
        series = run_series("ap-additive-zeros", [4, 8, 16, 32])
        assert [r.count for r in series.rows] == [64, 512, 4096, 32768]
        assert series.slope == pytest.approx(3.0, abs=1e-12)
        assert series.exponent == pytest.approx(3.0, abs=1e-12)

    def test_moment_curve_slope_undefined(self):
        series = run_series("moment-coplanar", [4, 8, 16])
        assert all(r.count == 0 for r in series.rows)
        assert series.slope is None and series.exponent is None

    @pytest.mark.parametrize("ns,defined", [([1, 2, 3], False), ([1, 2, 3, 4], True)])
    def test_exponent_is_defined_exactly_when_the_slope_is(self, ns, defined):
        # the zero count at n = 1 is left out, so [1, 2, 3] leaves two rows to fit
        series = run_series("nonspecial-grid-zeros", ns)
        assert [r.count for r in series.rows] == [0, 1, 4, 9][:len(ns)]
        assert (series.slope is not None) == (series.exponent is not None) == defined

    def test_elliptic_oracle_and_geometry_agree(self):
        oracle = run_series("elliptic-oracle", [8, 12, 16])
        geom = run_series("elliptic-coplanar", [8, 12, 16])
        assert [r.count for r in oracle.rows] == [r.count for r in geom.rows]

    def test_collapsed_float_margin_raises(self):
        # at n = 48 the scan stops at a wrongly accepted |det|/scale of
        # 8.85e-13, within a factor 3 of the smallest rejected one so far
        with pytest.raises(ValueError, match="margin collapsed"):
            run_series("elliptic-coplanar", [16, 32, 48])

    def test_deterministic(self):
        # everything except wall-clock timings must be bit-identical
        a = run_series("ap-additive-zeros", [4, 8, 16])
        b = run_series("ap-additive-zeros", [4, 8, 16])
        strip = lambda s: {**s.to_json(), "rows": [(r.n, r.count) for r in s.rows],
                           "stages": sorted(s.stages)}
        assert strip(a) == strip(b)

    def test_unknown_experiment_rejected(self):
        # the old generator and counter names are not experiments
        for name in ("ap-additive", "fiber", "torsion-index", "index-oracle", ""):
            with pytest.raises(ValueError, match=f"unknown experiment {name!r}"):
                run_series(name, [4, 8, 16])

    def test_oracle_is_called_through_its_module(self, monkeypatch):
        # a wrapper on the module attribute, as a tracer installs, sees the call
        calls = []
        original = quadcount.constructions.coplanar_index_oracle

        def patched(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(quadcount.constructions, "coplanar_index_oracle", patched)
        series = run_series("elliptic-oracle", [8, 12, 16])
        assert calls == [8, 12, 16]
        assert [r.count for r in series.rows] == [original(n) for n in (8, 12, 16)]

    def test_n_list_validation(self):
        with pytest.raises(ValueError):
            run_series("ap-additive-zeros", [4, 8])
        with pytest.raises(ValueError):
            run_series("ap-additive-zeros", [4, 8, 8])

    def test_csv_footer_carries_slope(self):
        series = run_series("ap-additive-zeros", [2, 4, 8])
        lines = series.to_csv().strip().splitlines()
        assert lines[0] == "n,count,elapsed_ms"
        assert lines[-2].startswith("exponent,3.0000")
        assert lines[-1].startswith("slope,3.0000")

    def test_csv_reports_undefined_estimates(self):
        lines = run_series("moment-coplanar", [4, 8, 16]).to_csv().strip().splitlines()
        assert lines[-2:] == ["exponent,undefined,", "slope,undefined,"]

    def test_experiment_registry_names_resolve(self):
        for name, (build, count) in EXPERIMENTS.items():
            assert isinstance(name, str) and callable(build) and callable(count)
