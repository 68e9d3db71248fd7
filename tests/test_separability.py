import importlib.util
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import _ratio_oracle
from _ratio_oracle import (
    _REJECTIONS,
    RATIO_FAIL,
    RATIO_PASS,
    DegenerateSurfaceError,
    _FloatForm,
    ratio_test,
)
from quadcount import separability
from quadcount.constructions import coplanar_index_oracle
from quadcount.polynomials import Polynomial, parse_poly
from quadcount.separability import certify, classify, popular_components

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

    @pytest.mark.parametrize("poly, message", [
        (parse_poly("x + y + s", ("x", "y", "s")), "polynomial in 4 variables"),
        (Polynomial.zero(V4), "nonzero polynomial"),
    ], ids=["three-variables", "zero"])
    def test_requires_the_detectors_surface(self, poly, message):
        with pytest.raises(ValueError, match=f"detector requires a {message}"):
            popular_components(poly, [(1, 2), (2, 1)])

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
        assert classify(P(text)).classification == expected

    def test_deterministic_for_fixed_seed(self):
        # the verdict has no seed; the oracle's spreads are fixed by theirs
        a, b = classify(P("t - x*y*s")), classify(P("t - x*y*s"))
        assert (a.classification, a.certificate) == (b.classification, b.certificate)
        assert (ratio_test(P("t - (x + y*s)"), ("s", "t"), trials=10, seed=7)
                == ratio_test(P("t - (x + y*s)"), ("s", "t"), trials=10, seed=7))

    def test_special_verdicts_tight_across_seeds(self):
        for text in ("x+y+s+t", "x*y - s*t"):
            assert classify(P(text)).certificate == {"h1": True, "h2": True, "h3": True}
            for seed in (0, 1, 2):
                for pair in PAIRS.values():
                    assert ratio_test(P(text), pair, trials=20, seed=seed) < 1e-10

    def test_degenerate_surface_is_degenerate(self):
        verdict = classify(P("x + s + t"))
        assert verdict.classification == "degenerate"
        assert verdict.certificate is None
        with pytest.raises(DegenerateSurfaceError, match="does not involve 'y'"):
            ratio_test(P("x + s + t"), PAIRS["h1"], trials=5, seed=0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_is_an_error(self, trials):
        # zero walks give zero spreads, which would read as a pass
        with pytest.raises(ValueError, match="trials must be >= 1"):
            ratio_test(P("t - (x + y*s)"), ("s", "t"), trials=trials, seed=0)

    def test_verdict_never_runs_the_sampler(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(_ratio_oracle, "ratio_test", refuse)
        monkeypatch.setattr(_ratio_oracle, "_Surface", refuse)
        assert not hasattr(separability, "ratio_test")
        assert classify(P("t - (x + y*s)")).classification == "non-special"
        assert classify(P("x^2 + y^2 + s^2 + t^2 + 1")).classification == "special"


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_is_an_error(self, seed):
        # random.Random(-7) draws the stream of Random(7)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ratio_test(P("t - (x + y*s)"), ("s", "t"), trials=5, seed=seed)

    def test_seed_reaches_the_stream(self):
        poly = P("t - (x + y*s)")
        for pair in (PAIRS["h1"], PAIRS["h2"]):
            a, b = (ratio_test(poly, pair, trials=10, seed=seed) for seed in (3, 4))
            assert a != b


# -- the exact certificate -----------------------------------------------------

T, F = True, False
# the three ratio tests, keyed as `certify` keys them
PAIRS = {"h1": ("s", "t"), "h2": ("s", "x"), "h3": ("t", "x")}

# (h1, h2, h3): whether F_s/F_t, F_s/F_x and F_t/F_x are constant along the
# surface in the free variable; None where F involves fewer than 4 variables
CERTIFIED = {
    # the benchmark polynomials
    "x*y - s*t": (T, T, T),
    "t - (x + y*s)": (F, F, T),            # F_s/F_t = -y; F_t/F_x = -1
    "x^2 + y^3 + s + t^2": (T, T, T),
    "(x+y)^2 + s - t": (T, F, F),          # F_s/F_t = -1; F_x = 2(x + y)
    "x + y + s + t": (T, T, T),
    "x + s + t": None,
    "x*s - t": None,
    "x^2 + y^2 + s^2 + t^2 - 1": (T, T, T),
    # further cases
    "x*y*s*t - 1": (T, T, T),
    "x^2*y + s + t": (T, F, F),            # F_s/F_x = 1/(2xy), y = -(s + t)/x^2
    "(x+y)^3 + s^2 - t": (T, F, F),        # F_s/F_t = -2s
    "x*y + s*t + x*s": (F, F, T),          # F_t/F_x = s/(y + s) = -x/t
    "y^2 - x^3 - s - t": (T, T, T),
    "t - x*y*s": (T, T, T),
    "(y - x)*(y - s)*(y - t) - 1/10": (F, F, F),
}


class TestCertify:
    @pytest.mark.parametrize("text", CERTIFIED)
    def test_expected_booleans(self, text):
        expected = CERTIFIED[text]
        got = certify(P(text))
        assert got == (None if expected is None else dict(zip(("h1", "h2", "h3"), expected)))

    def test_rescaling_and_variable_names_do_not_matter(self):
        poly = Fraction(-3, 7) * P("x*y + s*t + x*s")
        assert certify(poly) == {"h1": False, "h2": False, "h3": True}
        renamed = parse_poly("a*b + c*d + a*c", ("a", "b", "c", "d"))
        assert certify(renamed) == certify(P("x*y + s*t + x*s"))

    def test_degenerate_in_any_variable(self):
        for text in ("y + s + t", "x*y - s", "x + y*t", "(x + y)^2 - s"):
            assert certify(P(text)) is None
            assert classify(P(text)).classification == "degenerate"

    def test_requires_a_nonzero_polynomial_in_four_variables(self):
        with pytest.raises(ValueError, match="4 variables"):
            certify(parse_poly("x + y + s", ("x", "y", "s")))
        with pytest.raises(ValueError, match="nonzero"):
            certify(P("x - x"))

    def test_reducible_input_is_flagged_not_hidden(self):
        # each component is special, so F divides every N; the oracle's walks
        # cross from one sheet to the other and see the ratio jump
        text = "(x + y + s + t)*(x*y - s*t)"
        assert certify(P(text)) == {"h1": True, "h2": True, "h3": True}
        assert classify(P(text)).classification == "special"
        for pair in PAIRS.values():
            assert ratio_test(P(text), pair, seed=1729) >= RATIO_PASS

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampler_agrees_with_certificate(self, seed):
        for text, expected in CERTIFIED.items():
            if expected is None:
                continue
            assert certify(P(text)) == dict(zip(PAIRS, expected))
            for (label, pair), holds in zip(PAIRS.items(), expected):
                try:
                    spread = ratio_test(P(text), pair, seed=seed)
                except DegenerateSurfaceError:
                    # the box [-2, 2]^3 rarely meets the ball
                    assert text == "x^2 + y^2 + s^2 + t^2 - 1", (text, label)
                    continue
                assert spread < RATIO_PASS if holds else spread > RATIO_FAIL, (text, label)


# -- the squarefree guard ------------------------------------------------------

G = "(x^2 + y^2 + s*t + x*s + y*t + 1)"
REPEATED = {
    # G certifies non-special, but G^2 divides every N: it certified special
    f"{G}^2": "x",
    "(x + y + s + t)^2*(x*y - s*t)": "x",
    "s^2*(x + y + t)": "s",
    # at the first guard point y = 2, so u is the zero polynomial, whose
    # gcd with u' is 0: only the rule "u keeps F's degree in v" refuses it
    "(y - 2)*x^2*(s + t)": "x",
}


class TestSquarefreeGuard:
    @pytest.mark.parametrize("text", REPEATED)
    def test_repeated_factor_is_refused(self, text):
        message = f"F is not squarefree in '{REPEATED[text]}': "
        with pytest.raises(ValueError, match=message):
            classify(P(text))

    def test_squared_g_certified_special(self):
        # why the guard exists: the certificate alone is fooled by G^2
        assert certify(P(G)) == {"h1": False, "h2": False, "h3": False}
        assert certify(P(f"{G}^2")) == {"h1": True, "h2": True, "h3": True}

    def test_variables_of_degree_below_two_run_no_guard(self, monkeypatch):
        # a repeated factor G^2 with G in v gives F degree at least 2 in v, so
        # F of degree 1 in every variable is decided without one gcd
        def no_gcd(a, b):
            raise AssertionError(f"the guard ran gcd({a}, {b})")

        monkeypatch.setattr(separability, "gcd", no_gcd)
        assert classify(P("x*y - s*t")).classification == "special"
        assert classify(P("t - (x + y*s)")).classification == "non-special"

    @pytest.mark.parametrize("text", [*CERTIFIED, "x^2 - (y - 2)*s*t", "y^2 - 4*x - s + t"])
    def test_squarefree_input_keeps_its_verdict(self, text):
        # at y = 2 the specialization of x^2 - (y - 2)*s*t in x is x^2, so
        # guard points that all shared y = 2 would refuse this squarefree F;
        # every guard point lies in the plane 4x + s - t = 0, where each
        # y-slice of y^2 - 4*x - s + t is y^2, so only the exact gcd keeps it
        verdict = classify(P(text))
        assert verdict.certificate == certify(P(text))
        assert set(verdict.stages) == {"squarefree", "certify"}
        if text == "y^2 - 4*x - s + t":
            assert verdict.classification == "special"


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


# -- verdicts of the benchmark polynomials, with the oracle's spreads ---------

# (classification, ratio spreads at walk seeds drawn from Random(1729) in the
# order h1, h2, h3); a spread is missing where the sampler ran out of walks
PINNED = {
    "x*y - s*t": ("special", {"h1": 0.0, "h2": 9.7e-16, "h3": 1.5e-14}),
    "t - (x + y*s)": ("non-special",
                      {"h1": 19.52390161839507, "h2": 107.72915819310322, "h3": 0.0}),
    "x^2 + y^3 + s + t^2": ("special", {"h1": 0.0, "h2": 0.0, "h3": 0.0}),
    "(x+y)^2 + s - t": ("non-special",
                        {"h1": 0.0, "h2": 2.26377308538824, "h3": 6.111666850278181}),
    "x + y + s + t": ("special", {"h1": 0.0, "h2": 0.0, "h3": 0.0}),
    "x + s + t": ("degenerate", {}),
    "x*s - t": ("degenerate", {}),
    # the box [-2, 2]^3 rarely meets the ball: h3 completes 43 of 50 walks
    "x^2 + y^2 + s^2 + t^2 - 1": ("special", {"h1": 0.0, "h2": 0.0}),
}


def assert_pinned(value, pinned, floor):
    if pinned > 1e-6:
        assert value == pytest.approx(pinned, rel=1e-9)
    else:
        assert value < floor


@pytest.mark.parametrize("text", PINNED)
def test_benchmark_verdicts_are_pinned(text):
    classification, spreads = PINNED[text]
    assert classify(P(text)).classification == classification
    seeds = random.Random(1729)
    for label, pair in PAIRS.items():
        seed = seeds.getrandbits(32)
        if label in spreads:
            assert_pinned(ratio_test(P(text), pair, seed=seed), spreads[label], RATIO_PASS)
        elif spreads:
            with pytest.raises(DegenerateSurfaceError, match="completed only 43/50"):
                ratio_test(P(text), pair, seed=seed)


# -- the verdict's stage timings and the oracle's counters ---------------------


class TestVerdictReport:
    def test_stages_and_sampler_account_for_every_attempt(self):
        out = classify(P("t - (x + y*s)")).to_json()
        assert set(out) == {"classification", "certificate", "stages"}
        assert set(out["stages"]) == {"squarefree", "certify"}
        assert all(v >= 0.0 for v in out["stages"].values())
        assert out["certificate"] == {"h1": False, "h2": False, "h3": True}
        counts = Counter()
        for pair in PAIRS.values():
            ratio_test(P("t - (x + y*s)"), pair, trials=20, seed=5, counts=counts)
        rejections = sum(counts.get(r, 0) for r in _REJECTIONS)
        # three ratio tests, 20 accepted walks each
        assert counts["attempts"] - rejections == 3 * 20

    def test_sampler_failure_says_why(self):
        # F = 0 has no real point: the walks never start; the certificate decides
        poly = P("x^2 + y^2 + s^2 + t^2 + 1")
        assert classify(poly).classification == "special"
        counts = Counter()
        with pytest.raises(DegenerateSurfaceError, match="completed only 0/50 fiber walks"):
            ratio_test(poly, PAIRS["h1"], seed=1729, counts=counts)
        assert counts == {"attempts": 40 * 50, "no_real_root": 40 * 50}

    def test_unsolvable_surface_reports_no_attempts(self):
        counts = Counter()
        with pytest.raises(DegenerateSurfaceError):
            ratio_test(P("x + s + t"), PAIRS["h1"], trials=5, seed=0, counts=counts)
        assert counts == {}


ROOT = Path(__file__).resolve().parents[1]


def _detector_bench():
    path = ROOT / "bench" / "detector_oracle.py"
    spec = importlib.util.spec_from_file_location("detector_oracle_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_detector_bench_record_is_reproduced():
    # every verdict, certificate and oracle count BENCH_detector_oracle.json
    # records next to a timing, on the same inputs
    bench = _detector_bench()
    record = json.loads((ROOT / "BENCH_detector_oracle.json").read_text())
    rows = record["runs"]["change"]["rows"]
    polys = [row for row in rows if "n" not in row]
    oracle = [row for row in rows if "n" in row]
    assert [row["input"] for row in polys] == [*bench.workloads.VERDICTS, *bench.CURVES]
    assert [row["n"] for row in oracle] == list(bench.ORACLE_NS)
    for row in polys:
        name = row["input"]
        poly = bench.circle_polynomial(bench.CURVES[name]) if name in bench.CURVES else P(name)
        assert bench.result(classify(poly).to_json()) == bench.result(row), name
    for row in oracle:
        assert coplanar_index_oracle(row["n"]) == row["count"], row["n"]


def test_bench_driver_compares_only_the_fields_the_baseline_reports():
    added_fields = _detector_bench()._driver.added_fields
    base = {"classification": "special", "certificate": {"h1": True}}
    change = {"classification": "special", "certificate": {"h1": True, "h2": False},
              "route": "exact"}
    assert added_fields(base, change) == ["route", "certificate.h2"]
    assert added_fields(base, base) == []
    for other, field in [({**change, "classification": "non-special"}, "classification"),
                         ({**change, "certificate": {"h1": False}}, "certificate.h1"),
                         ({"classification": "special"}, "certificate")]:
        with pytest.raises(ValueError, match=f"^{field}$"):
            added_fields(base, other)
