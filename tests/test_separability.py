import math
from fractions import Fraction

import numpy as np
import pytest

from quadcount.polynomials import Polynomial, parse_poly
from quadcount.separability import (
    G_VANISH,
    RATIO_PASS,
    DegenerateSurfaceError,
    _FloatForm,
    _horner,
    _real_roots,
    classify,
    g_sample,
    popular_components,
    ratio_test,
)

V4 = ("x", "y", "s", "t")


def P(text):
    return parse_poly(text, V4)


class TestRatioTest:
    def test_fully_additive_ratio_is_constant(self):
        spread = ratio_test(P("x+y+s+t"), ("s", "t"), trials=20, seed=3)
        assert spread < 1e-10

    def test_multiplicative_identity_on_surface(self):
        # on t = x*y*s the ratio F_s/F_t = -x*y = -t/s, independent of x
        spread = ratio_test(P("t - x*y*s"), ("s", "t"), trials=20, seed=3)
        assert spread < 1e-10

    def test_affine_mix_fails_decisively(self):
        # F_s/F_t = -y = -(t-x)/s varies with x along the fiber
        spread = ratio_test(P("t - (x + y*s)"), ("s", "t"), trials=20, seed=3)
        assert spread > 1e-2

    def test_decisive_failure_across_seeds(self):
        hits = sum(
            ratio_test(P("t - (x + y*s)"), ("s", "t"), trials=10, seed=seed) > 1e-2
            for seed in range(40)
        )
        assert hits >= 38  # >= 95% of seeds

    def test_solved_variable_cannot_be_tested(self):
        with pytest.raises(ValueError):
            ratio_test(P("x+y+s+t"), ("y", "t"), trials=5, seed=0)

    def test_unsolvable_surface_errors(self):
        # no dependence on the solved variable
        with pytest.raises(DegenerateSurfaceError):
            ratio_test(P("x + s + t"), ("s", "t"), trials=5, seed=1)
        with pytest.raises(DegenerateSurfaceError):
            g_sample(P("x + s + t"), trials=5, seed=1)


class TestGSample:
    def test_additive_vanishes_exactly(self):
        assert g_sample(P("x+y+s+t"), trials=20, seed=9) == 0.0

    def test_affine_mix_bounded_away_from_zero(self):
        assert g_sample(P("t - (x + y*s)"), trials=20, seed=9) > 1e-4

    def test_multiplicative_vanishes(self):
        assert g_sample(P("t - x*y*s"), trials=20, seed=9) < 1e-10


class TestPopularComponents:
    def test_constant_sum_parameters_share_a_line(self):
        params = [(1, 2), (2, 1), (0, 3)]
        scan = popular_components(P("x+y+s+t"), params)
        assert len(scan.components) == 1
        component, multiplicity = scan.components[0]
        assert multiplicity == 3
        assert str(component) == "x + y + 3"
        assert scan.popular == [(component, 3)]  # threshold is delta^2 = 1

    def test_distinct_affine_slices_share_nothing(self):
        params = [(1, 1), (2, 5), (3, -2), (-1, 4)]
        scan = popular_components(P("t - (x + y*s)"), params)
        assert scan.components == []
        assert scan.popular == []

    def test_constant_product_parameters(self):
        params = [(1, 6), (2, 3), (6, 1)]
        scan = popular_components(P("x*y - s*t"), params)
        assert len(scan.components) == 1
        component, multiplicity = scan.components[0]
        assert multiplicity == 3
        assert str(component) == "x*y - 6"

    def test_vanishing_slices_reported_separately(self):
        scan = popular_components(P("s*x + t*y"), [(0, 0), (1, 0), (0, 1)])
        assert scan.degenerate_params == [(Fraction(0), Fraction(0))]

    def test_too_few_usable_slices(self):
        with pytest.raises(ValueError):
            popular_components(P("s*x + t*y"), [(0, 0), (1, 0)])

    def test_invariant_under_rescaling(self):
        params = [(1, 2), (2, 1), (0, 3), (4, -1)]
        base = popular_components(P("x+y+s+t"), params)
        scaled = popular_components(Fraction(-3, 7) * P("x+y+s+t"), params)
        assert base.components == scaled.components


class TestClassify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x+y+s+t", "special"),
            ("x*y - s*t", "special"),
            ("t - x*y*s", "special"),
            ("t - (x + y*s)", "non-special"),
        ],
    )
    def test_benchmark_classifications(self, text, expected):
        assert classify(P(text), seed=1729).classification == expected

    def test_deterministic_for_fixed_seed(self):
        a = classify(P("t - x*y*s"), seed=7)
        b = classify(P("t - x*y*s"), seed=7)
        assert a.classification == b.classification
        assert a.ratio_spreads == b.ratio_spreads
        assert a.g_max == b.g_max

    def test_special_verdicts_tight_across_seeds(self):
        for seed in (0, 1, 2):
            for text in ("x+y+s+t", "x*y - s*t"):
                verdict = classify(P(text), seed=seed, trials=20)
                assert all(v < 1e-10 for v in verdict.ratio_spreads.values())
                assert verdict.g_max < 1e-10

    def test_degenerate_surface_is_inconclusive(self):
        verdict = classify(P("x + s + t"), seed=0, trials=5)
        assert verdict.classification == "inconclusive"
        assert verdict.notes

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_is_an_error(self, trials):
        # zero walks give zero spreads, which would read as "special"
        poly = P("t - (x + y*s)")
        with pytest.raises(ValueError, match="trials must be >= 1"):
            classify(poly, seed=1729, trials=trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            ratio_test(poly, ("s", "t"), trials=trials, seed=0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            g_sample(poly, trials=trials, seed=0)


# -- the float kernel ----------------------------------------------------------


def random_poly(rng, nvars):
    terms = {}
    for _ in range(int(rng.integers(1, 9))):
        exp = tuple(int(e) for e in rng.integers(0, 4, size=nvars))
        terms[exp] = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 9)))
    return Polynomial(V4[:nvars], terms)


class TestFloatForm:
    def test_matches_exact_evaluation(self):
        # the error bound of a float sum scales with the sum of |terms|, so
        # that is the reference magnitude, not the (possibly cancelled) value
        rng = np.random.default_rng(2024)
        for _ in range(200):
            nvars = int(rng.integers(3, 5))
            poly = random_poly(rng, nvars)
            form = _FloatForm(poly)
            for _ in range(5):
                point = tuple(rng.uniform(-2.0, 2.0, size=nvars).tolist())
                exact = poly.evaluate([Fraction(v) for v in point])
                scale = sum(abs(c) * math.prod(abs(Fraction(v)) ** e for v, e in zip(point, exp))
                            for exp, c in poly.terms.items())
                assert abs(Fraction(form(point)) - exact) <= Fraction(1e-12) * scale

    def test_zero_polynomial_is_zero(self):
        assert _FloatForm(Polynomial(V4, {}))((1.0, 2.0, 3.0, 4.0)) == 0.0


# -- real roots of the slice -----------------------------------------------------


def polished(coeffs, starts):
    # Newton as `_Surface` polishes a root, then the same near-duplicate rule
    dcoeffs = [j * c for j, c in enumerate(coeffs)][1:]
    out = []
    for y in starts:
        for _ in range(80):
            g = _horner(coeffs, y)
            if abs(g) < 1e-12:
                break
            y -= g / _horner(dcoeffs, y)
        if abs(_horner(coeffs, y)) < 1e-12 and all(abs(y - p) > 1e-9 * (1 + abs(y)) for p in out):
            out.append(y)
    return sorted(out)


def np_real_roots(coeffs):
    return [float(r.real) for r in np.roots(coeffs[::-1])
            if abs(r.imag) <= 1e-8 * (1.0 + abs(r))]


class TestRealRoots:
    def test_matches_np_roots_after_polish(self):
        rng = np.random.default_rng(11)
        for degree in range(1, 7):
            for _ in range(300):
                coeffs = rng.uniform(-2.0, 2.0, size=degree + 1).tolist()
                ours, theirs = _real_roots(coeffs), np_real_roots(coeffs)
                assert ours == sorted(ours)
                a, b = polished(coeffs, ours), polished(coeffs, theirs)
                assert len(a) == len(b), coeffs
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_products_of_known_roots(self):
        for roots in ([0.5], [-1.0, 3.0], [-1.5, 0.25, 2.0], [-1.0, -0.5, 0.5, 1.0, 1.5, 1.75]):
            coeffs = [1.0]
            for r in roots:  # multiply by (y - r), lowest power first
                coeffs = [a - r * b for a, b in zip([0.0] + coeffs, coeffs + [0.0])]
            assert _real_roots(coeffs) == pytest.approx(roots, rel=1e-12)

    def test_double_and_missing_roots(self):
        assert _real_roots([1.0, -2.0, 1.0]) == [1.0, 1.0]   # (y - 1)^2
        # a complex pair counts as a double root while |imag| <= 1e-8 (1 + |r|)
        assert _real_roots([1.0 + 2**-52, -2.0, 1.0]) == [1.0]  # |imag| 1.5e-8
        assert _real_roots([1.0 + 2**-40, -2.0, 1.0]) == []     # |imag| 9.5e-7
        assert _real_roots([1.0, 0.0, 1.0]) == []              # y^2 + 1
        assert _real_roots([0.0, 0.0, 1.0]) == [0.0]           # y^2
        assert _real_roots([2.0, 0.0, 0.0, 1.0, 0.0, 1.0]) == pytest.approx(
            np_real_roots([2.0, 0.0, 0.0, 1.0, 0.0, 1.0]))    # y^5 + y^3 + 2
        assert _real_roots([1.0, 0.0, 0.0, 0.0, 1.0]) == []    # y^4 + 1
        # (y + 1)^2 (y - 2): the double root is a critical point, found once
        assert _real_roots([-2.0, -3.0, 0.0, 1.0]) == [-1.0, 2.0]


# -- verdicts of the benchmark polynomials at the CLI's default seed -----------

# (classification, ratio spreads, g_max), None where the sampler stopped first
PINNED = {
    "x*y - s*t": ("special", {"h1": 0.0, "h2": 6.2e-15, "h3": 9.1e-16}, 0.0),
    "t - (x + y*s)": ("non-special",
                      {"h1": 6.979261335863966, "h2": 42.14922249624455, "h3": 0.0},
                      0.6435649345175893),
    "x^2 + y^3 + s + t^2": ("special", {"h1": 0.0, "h2": 0.0, "h3": 0.0}, 0.0),
    "(x+y)^2 + s - t": ("non-special",
                        {"h1": 0.0, "h2": 2.472752606242819, "h3": 3.73047131905585}, 0.0),
    "x + y + s + t": ("special", {"h1": 0.0, "h2": 0.0, "h3": 0.0}, 0.0),
    "x + s + t": ("inconclusive", {}, None),
    "x*s - t": ("inconclusive", {}, None),
    "x^2 + y^2 + s^2 + t^2 - 1": ("inconclusive", {"h1": 0.0, "h2": 0.0, "h3": 0.0}, None),
}


def assert_pinned(value, pinned, floor):
    if pinned > 1e-6:
        assert value == pytest.approx(pinned, rel=1e-9)
    else:
        assert value < floor


@pytest.mark.parametrize("text", PINNED)
def test_benchmark_verdicts_are_pinned(text):
    classification, spreads, g_max = PINNED[text]
    verdict = classify(P(text), seed=1729)
    assert verdict.classification == classification
    assert verdict.ratio_spreads.keys() == spreads.keys()
    for label, pinned in spreads.items():
        assert_pinned(verdict.ratio_spreads[label], pinned, RATIO_PASS)
    if g_max is None:
        assert math.isnan(verdict.g_max)
    else:
        assert_pinned(verdict.g_max, g_max, G_VANISH)


# -- stage timings and sampler counters in the verdict -------------------------


class TestVerdictReport:
    def test_stages_and_sampler_account_for_every_attempt(self):
        out = classify(P("t - (x + y*s)"), seed=5, trials=20).to_json()
        assert set(out["stages"]) == {"h1", "h2", "h3", "g_sample", "popular"}
        assert all(v >= 0.0 for v in out["stages"].values())
        rejections = out["sampler"]["rejections"]
        assert set(rejections) == {"no_real_root", "residual", "gradient_floor",
                                   "continuation", "close_pair"}
        # three ratio tests and the G sampler, 20 accepted draws each
        assert out["sampler"]["attempts"] - sum(rejections.values()) == 4 * 20

    def test_sampler_failure_says_why(self):
        out = classify(P("x^2 + y^2 + s^2 + t^2 - 1"), seed=1729).to_json()
        assert out["classification"] == "inconclusive"
        assert out["sampler"]["rejections"]["no_real_root"] > 30 * 50
        assert "g_sample" in out["stages"] and "popular" in out["stages"]

    def test_unsolvable_surface_reports_no_attempts(self):
        out = classify(P("x + s + t"), seed=0, trials=5).to_json()
        assert out["sampler"]["attempts"] == 0
        assert set(out["stages"]) == {"h1", "popular"}
