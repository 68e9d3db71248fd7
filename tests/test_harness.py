import math

import pytest

import quadcount.constructions
from quadcount.harness import EXPERIMENTS, fit_slope, run_series


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


class TestRunSeries:
    def test_additive_grid_is_exactly_cubic(self):
        series = run_series("ap-additive-zeros", [4, 8, 16, 32])
        assert [r.count for r in series.rows] == [64, 512, 4096, 32768]
        assert series.slope == pytest.approx(3.0, abs=1e-12)

    def test_moment_curve_slope_undefined(self):
        series = run_series("moment-coplanar", [4, 8, 16])
        assert all(r.count == 0 for r in series.rows)
        assert series.slope is None

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
        assert lines[-1].startswith("slope,3.0000")

    def test_experiment_registry_names_resolve(self):
        for name, (build, count) in EXPERIMENTS.items():
            assert isinstance(name, str) and callable(build) and callable(count)
