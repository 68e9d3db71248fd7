"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 3b measures the growth exponent of the torsion construction's
coplanar-quadruple counts over n in {16, 32, 64, 128} by
`harness.extrapolated_exponent`, the first-order Richardson extrapolation
of the last two doubling slopes, 2*s(64->128) - s(32->64).  The exact
count is C(n-1, 4)/n + O(1) = n^3/24 * (1 - 10/n + O(n^-2)); the 1/n deficit puts
every finite-range slope above 3 (the least-squares slope on this range is
3.2813), and the extrapolation cancels it (2.9934).
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from _generators import (
    random_grid_instance,
    random_mixed_point_instance,
    solved_last,
    zero_sum_subsets,
)
from _ratio_oracle import ratio_test
from quadcount.constructions import (
    angle,
    coplanar_index_oracle,
    embed_quartic,
    group_add,
    make_curve,
    moment_curve_points,
    point_at_angle,
    torsion_points,
)
from quadcount.geometry import (
    TORSION_COPLANAR_TOL,
    PointSet2,
    concyclic_quadruples_naive,
    coplanar_fast,
    coplanar_naive,
    four_point_circles,
)
from quadcount.harness import extrapolated_exponent, fit_slope
from quadcount.polynomials import parse_poly
from quadcount.separability import classify, popular_components
from quadcount.zerocount import GridSets, count_fiber, count_naive

DEFAULT_SEED = 1729
V4 = ("x", "y", "s", "t")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_zero_count_exactness():
    """20^3 additive witness: both methods exact, fiber under a second."""
    poly = parse_poly("x + y + s + t", V4)
    sets = GridSets.from_values(
        list(range(1, 21)), list(range(1, 21)), list(range(1, 21)),
        list(range(-60, -2)),
    )
    naive = count_naive(poly, sets)
    fiber = count_fiber(poly, sets)
    ok = naive.count == 8000 and fiber.count == 8000 and fiber.elapsed < 1.0
    report("1 (zero-count exactness)", ok,
           f"naive={naive.count} fiber={fiber.count} fiber_time={fiber.elapsed:.3f}s")
    assert naive.count == 8000
    assert fiber.count == 8000
    assert fiber.elapsed < 1.0


def test_criterion_2_oracle_equivalence_counting():
    """fast=naive on 200 point instances; fiber=naive on 100 grid instances."""
    rng = np.random.default_rng(DEFAULT_SEED)
    done = 0
    while done < 200:
        points = random_mixed_point_instance(rng)
        if points is None:
            continue
        assert coplanar_fast(points).count == coplanar_naive(points).count, points
        done += 1
    rng = np.random.default_rng(DEFAULT_SEED + 1)
    for i in range(100):
        poly, sets = random_grid_instance(rng)
        # the fiber route solves the variable moved last
        solved = int(rng.integers(4))
        assert count_fiber(*solved_last(poly, sets, solved)).count == \
            count_naive(poly, sets).count, (i, str(poly))
    report("2 (oracle equivalence)", True,
           "coplanar fast=naive on 200 instances; fiber=naive on 100 instances")


def test_criterion_3a_elliptic_geometric_counts_match_oracle():
    """Float-mode geometric counts equal the index oracle for n up to 32."""
    start = time.perf_counter()
    cfg = make_curve()
    results = []
    for n in (8, 12, 16, 24, 32):
        emb = embed_quartic(cfg, torsion_points(cfg, n)[1:])
        geo = coplanar_naive(emb, tol=TORSION_COPLANAR_TOL).count
        results.append((n, geo, coplanar_index_oracle(n)))
    elapsed = time.perf_counter() - start
    ok = all(g == o for _, g, o in results) and elapsed < 300
    report("3a (elliptic geometric = oracle)", ok,
           f"{[(n, g, o) for n, g, o in results]} in {elapsed:.1f}s")
    for n, g, o in results:
        assert g == o, f"n={n}: geometric {g} != oracle {o}"
    assert elapsed < 300


def test_criterion_3b_elliptic_oracle_slope():
    """Growth exponent of oracle counts over {16, 32, 64, 128} within 3.0 +/- 0.1.

    The counts must equal the closed form for zero-sum 4-subsets of
    Z_n minus {0}, M4 = N4 - N3 + N2.  The exponent (2.9934) is the
    Richardson extrapolation of the doubling slopes, which cancels the
    (1 - 10/n) deficit; the least-squares slope (3.2813) is printed but not
    asserted.
    A synthetic n^(8/3) (1 - 10/n) series must land outside the band.
    """
    ns = (16, 32, 64, 128)
    start = time.perf_counter()
    counts = [(n, coplanar_index_oracle(n)) for n in ns]
    elapsed = time.perf_counter() - start
    closed = [
        (n, zero_sum_subsets(n, 4) - zero_sum_subsets(n, 3)
         + zero_sum_subsets(n, 2))
        for n in ns
    ]
    exponent = extrapolated_exponent(counts)
    lsq_slope, _, _ = fit_slope(counts)
    control = extrapolated_exponent(
        [(n, n ** (8 / 3) * (1 - 10 / n)) for n in ns]
    )
    ok = (abs(exponent - 3.0) <= 0.1 and counts == closed
          and abs(control - 3.0) > 0.1 and elapsed < 300)
    report("3b (elliptic oracle exponent 3.0+/-0.1)", ok,
           f"extrapolated={exponent:.4f} least-squares={lsq_slope:.4f} "
           f"counts={counts} (closed form agrees: {counts == closed}) "
           f"n^(8/3) control={control:.4f} in {elapsed:.1f}s")
    assert counts == closed, f"oracle {counts} != closed form {closed}"
    assert elapsed < 300
    assert abs(exponent - 3.0) <= 0.1, (
        f"extrapolated exponent {exponent:.4f} outside 3.0 +/- 0.1 "
        f"(counts {counts}, least-squares slope {lsq_slope:.4f})"
    )
    assert abs(control - 3.0) > 0.1, (
        f"n^(8/3) control gives {control:.4f}, inside 3.0 +/- 0.1"
    )


def test_criterion_4_moment_curve_control():
    """Degree-3 control curve spans no coplanar quadruples, quickly."""
    start = time.perf_counter()
    points = moment_curve_points(100)
    count = coplanar_fast(points).count
    elapsed = time.perf_counter() - start
    ok = count == 0 and elapsed < 10.0
    report("4 (moment-curve control)", ok, f"count={count} in {elapsed:.2f}s")
    assert count == 0
    assert elapsed < 10.0


def test_criterion_5_detector_classifications():
    """Benchmark classifications, exact and deterministic; the sampler, run
    as the oracle at the h1 walk seed of Random(DEFAULT_SEED), sees t - (x +
    y*s) fail decisively."""
    expectations = {
        "x + y + s + t": "special",
        "x*y - s*t": "special",
        "t - x*y*s": "special",
        "t - (x + y*s)": "non-special",
    }
    outcomes = {}
    for text, expected in expectations.items():
        verdict = classify(parse_poly(text, V4))
        outcomes[text] = verdict
        assert verdict.classification == expected, (text, verdict)
    nonspecial = outcomes["t - (x + y*s)"]
    again = classify(parse_poly("t - (x + y*s)", V4))
    assert again.certificate == nonspecial.certificate
    h1_seed = random.Random(DEFAULT_SEED).getrandbits(32)
    spread = ratio_test(parse_poly("t - (x + y*s)", V4), ("s", "t"), seed=h1_seed)
    assert spread > 1e-2
    report("5 (detector classifications)", True,
           "; ".join(f"{t} -> {v.classification}" for t, v in outcomes.items())
           + f"; h1 spread {spread:.3f}")


def test_criterion_6_popular_curve_detection():
    """Constant-sum parameters share one popular component; generic none."""
    rng = np.random.default_rng(DEFAULT_SEED)
    params = []
    while len(params) < 10:
        c = Fraction(int(rng.integers(-8, 9)), 4)
        if all(c != p[0] for p in params):
            params.append((c, 5 - c))  # c + d = 5 throughout
    scan = popular_components(parse_poly("x + y + s + t", V4), params)
    assert len(scan.popular) == 1
    component, multiplicity = scan.popular[0]
    assert multiplicity == 10
    assert str(component) == "x + y + 5"

    generic = []
    while len(generic) < 10:
        c = Fraction(int(rng.integers(-8, 9)), 4)
        d = Fraction(int(rng.integers(-8, 9)), 4)
        if (c, d) not in generic and all(c != g[0] for g in generic):
            generic.append((c, d))
    scan2 = popular_components(parse_poly("t - (x + y*s)", V4), generic)
    assert scan2.popular == []
    report("6 (popular components)", True,
           f"constant-sum: {str(component)!r} x{multiplicity}; generic: none")


def test_criterion_7_circles():
    """Cocircular and collinear fixtures plus the determinant cross-check."""
    five = PointSet2.from_rows(
        [(1, 0), (0, 1), (-1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5))]
    )
    r5 = four_point_circles(five)
    assert (r5.circles, r5.count) == (1, 5)
    line = PointSet2.from_rows([(i, 2 * i + 1) for i in range(6)])
    assert four_point_circles(line).circles == 0

    rng = np.random.default_rng(DEFAULT_SEED)
    done = 0
    while done < 100:
        n = int(rng.integers(4, 11))
        rows = list(dict.fromkeys(
            (int(a), int(b)) for a, b in rng.integers(-5, 6, size=(n, 2))
        ))
        if len(rows) < 4:
            continue
        points = PointSet2.from_rows(rows)
        assert four_point_circles(points).count == \
            concyclic_quadruples_naive(points).count
        done += 1
    report("7 (four-point circles)", True,
           "5 cocircular -> (1 circle, 5 quadruples); 6 collinear -> 0; "
           "hash = determinant oracle on 100 instances")


def test_criterion_8_group_law_numerics():
    """Angle additivity, associativity, and full-torsion closure bounds."""
    cfg = make_curve()
    rng = np.random.default_rng(DEFAULT_SEED)

    worst_add = 0.0
    for _ in range(200):
        p = point_at_angle(cfg, float(rng.uniform(0.02, 0.98)))
        q = point_at_angle(cfg, float(rng.uniform(0.02, 0.98)))
        total = (angle(cfg, p) + angle(cfg, q)) % 1.0
        got = angle(cfg, group_add(cfg, p, q))
        delta = abs(got - total)
        worst_add = max(worst_add, min(delta, 1.0 - delta))
    assert worst_add < 1e-6

    worst_assoc = 0.0
    for _ in range(100):
        p, q, r = (point_at_angle(cfg, float(rng.uniform(0.02, 0.98))) for _ in range(3))
        lhs = group_add(cfg, group_add(cfg, p, q), r)
        rhs = group_add(cfg, p, group_add(cfg, q, r))
        assert not (lhs.infinity ^ rhs.infinity)
        if not lhs.infinity:
            scale = 1.0 + max(abs(lhs.x), abs(lhs.y))
            worst_assoc = max(worst_assoc, math.hypot(lhs.x - rhs.x, lhs.y - rhs.y) / scale)
    assert worst_assoc < 1e-7

    worst_cycle = 0.0
    for n in range(2, 129):
        p1 = point_at_angle(cfg, 1.0 / n)
        acc = p1
        for _ in range(n - 1):
            acc = group_add(cfg, acc, p1)
        theta = angle(cfg, acc)
        worst_cycle = max(worst_cycle, min(theta, 1.0 - theta))
    assert worst_cycle < 1e-5

    report("8 (group-law numerics)", True,
           f"additivity<{worst_add:.2e} associativity<{worst_assoc:.2e} "
           f"n*P1 cycle<{worst_cycle:.2e} for all n<=128")


def test_criterion_9_nonspecial_growth_trend():
    """Balanced grids for t-(x+y*s): slope under 8/3 + 0.1, counts exact."""
    poly = parse_poly("t - (x + y*s)", V4)
    rows = []
    for n in (8, 16, 32, 64):
        values = [Fraction(i) for i in range(1, n + 1)]
        sets = GridSets.from_values(values, values, values, values)
        fiber = count_fiber(poly, sets).count
        naive = count_naive(poly, sets).count
        assert fiber == naive, f"n={n}: fiber {fiber} != naive {naive}"
        rows.append((n, fiber))
    slope, _, _ = fit_slope(rows)
    bound = 8.0 / 3.0 + 0.1
    ok = slope < bound
    report("9 (non-special growth)", ok,
           f"counts={rows} slope={slope:.4f} < {bound:.4f}")
    assert slope < bound
