import importlib.util
import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from _generators import permuted, solved_last
from _generators import random_grid_instance as random_instance
from quadcount.fileio import sets_from_csv
from quadcount.polynomials import Polynomial, parse_poly
from quadcount.zerocount import GridSets, count_fiber, count_naive

V4 = ("x", "y", "s", "t")


def P(text):
    return parse_poly(text, V4)


def brute_force(poly, sets):
    # independent of both counters: full Cartesian product, direct evaluation
    return sum(
        1
        for quad in product(*sets.sets)
        if poly.evaluate(list(quad)) == 0
    )


def grid(*ranges):
    return GridSets.from_values(*(list(r) for r in ranges))


class TestCountNaive:
    def test_triples_summing_to_one(self):
        sets = grid([0, 1], [0, 1], [0, 1], [-1])
        assert count_naive(P("x+y+s+t"), sets).count == 3

    def test_product_collisions(self):
        sets = grid([1, 2], [1, 2], [1, 2], [1, 2])
        # product multiset (1,2,2,4) collides with itself: 1 + 4 + 1
        assert count_naive(P("x*y-s*t"), sets).count == 6

    def test_empty_set(self):
        sets = grid([1, 2], [1, 2], [1, 2], [])
        assert count_naive(P("x+y+s+t"), sets).count == 0

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            count_naive(parse_poly("x+y", ("x", "y")), grid([1], [1], [1], [1]))

    def test_fractional_grid(self):
        sets = grid(
            [Fraction(1, 2), 1], [Fraction(1, 2), 1], [Fraction(1, 2), 1], [Fraction(-1), -2]
        )
        report = count_naive(P("x+y+s+t"), sets)
        assert report.count == brute_force(P("x+y+s+t"), sets)


class TestDistinctFibers:
    """`count_naive` tallies equal coefficient vectors in the last variable
    and evaluates each distinct one at every d."""

    def test_last_variable_absent(self):
        # every vector is (a - b,): 5 distinct values, zero when a = b
        poly = P("x - y")
        sets = grid([1, 2, 3], [1, 2, 3], [1, 2], [5, 6, 7, 8])
        report = count_naive(poly, sets)
        assert report.count == brute_force(poly, sets) == 3 * 2 * 4
        assert report.distinct_fibers == 5

    def test_heavy_multiplicity(self):
        # 27000 fibers share the 59 vectors (-(a + b), 1)
        poly = P("t - x - y")
        values = range(1, 31)
        sets = grid(values, values, values, range(2, 41))
        expected = sum(1 for a in values for b in values if a + b <= 40) * 30
        report = count_naive(poly, sets)
        assert report.count == expected
        assert report.distinct_fibers == 59

    def test_empty_last_sets(self):
        poly = P("t^2 - x*y")
        report = count_naive(poly, grid([1, 2], [1, 4], [3], []))
        assert report.count == 0
        # (-a*b, 0, 1) for a*b in {1, 4, 2, 8}
        assert report.distinct_fibers == 4
        # and an empty C leaves no vector to evaluate
        assert count_naive(poly, grid([1, 2], [1, 4], [], [1, 2])).distinct_fibers == 0

    def test_all_zero_vectors_are_degenerate_fibers(self):
        # the vector (s - x, x - y) vanishes where x = y = s: 18 fibers
        poly = P("x*t - y*t - x + s")
        values = range(1, 19)
        sets = grid(values, values, values, values)
        naive, fiber = count_naive(poly, sets), count_fiber(poly, sets)
        assert (naive.count, naive.degenerate_fibers) == (fiber.count, fiber.degenerate_fibers)
        assert (naive.count, naive.degenerate_fibers) == (1156, 18)

    def test_never_uses_the_coefficient_profile(self, monkeypatch):
        # the ground truth shares no code with the fiber route's profile
        poly = P("t^2 - x*y - s")
        sets = grid([1, 2, 3], [1, 2], [0, 1, 2], [-3, -2, -1, 0, 1, 2, 3])
        expected = brute_force(poly, sets)

        def refuse(self, name):
            raise AssertionError("coefficients_in called")

        monkeypatch.setattr(Polynomial, "coefficients_in", refuse)
        with pytest.raises(AssertionError, match="coefficients_in called"):
            count_fiber(poly, sets)
        assert count_naive(poly, sets).count == expected > 0


class TestCountFiber:
    def test_every_triple_absorbed(self):
        sets = grid(range(1, 6), range(1, 6), range(1, 6), range(-15, -2))
        assert count_fiber(P("x+y+s+t"), sets).count == 125

    def test_affine_fiber_against_enumeration(self):
        sets = grid(range(1, 5), range(1, 5), range(1, 5), range(1, 5))
        # count of (a, b, c) with a + b*c in [1, 4]; enumerated directly
        expected = sum(
            1
            for a in range(1, 5)
            for b in range(1, 5)
            for c in range(1, 5)
            if 1 <= a + b * c <= 4
        )
        assert expected == 9
        report = count_fiber(P("t - (x + y*s)"), sets)
        assert report.count == expected
        assert count_naive(P("t - (x + y*s)"), sets).count == expected

    def test_empty_solve_set(self):
        sets = grid([1, 2], [1, 2], [1, 2], [])
        assert count_fiber(P("x+y+s+t"), sets).count == 0

    def test_degenerate_fibers_count_full_lines(self):
        # at y = 0, s = 0 the slice of y*t + s*x vanishes identically in t
        poly = P("y*t + s*x")
        sets = grid([1], [1, 2], [3], [0, 1])
        report = count_fiber(poly, sets)
        assert report.count == brute_force(poly, sets)
        assert report.degenerate_fibers == 0  # y=0 requires s=0 too; not hit here
        sets0 = grid([1], [0, 2], [0], [0, 1])
        report0 = count_fiber(poly, sets0)
        assert report0.count == brute_force(poly, sets0)
        assert report0.degenerate_fibers == 1

    def test_quadratic_fiber_exact_roots(self):
        # degree 2 in the solve variable: roots from the discriminant
        sets = grid([1, 2, 3], [1, 2], [1, 2, 3], [-4, -1, 0, 1, 2, 4])
        poly = P("t^2 - x*y - s")
        report = count_fiber(poly, sets)
        assert report.count == brute_force(poly, sets)
        assert report.slice_degrees == (0, 0, 18)

    def test_cubic_fiber_scan_path(self):
        # degree 3 in the solve variable exercises the Horner candidate scan
        sets = grid([1, 2, 3], [1, 2, 4], [-1, 0, 1, 2], [-2, -1, 0, 1, 2, 3])
        poly = P("t^3 - x*y - s")
        report = count_fiber(poly, sets)
        assert report.count == brute_force(poly, sets) > 0
        assert report.slice_degrees == (0, 0, 0, 36)


class TestQuadraticSlices:
    """The exact degree-2 path of `count_fiber`, each case against the brute
    force."""

    def test_double_root_counted_once(self):
        # the slice (t - x)^2 - s is a perfect square at s = 0
        poly = P("t^2 - 2*x*t + x^2 - s")
        sets = grid([1, 2, 3], [7], [0, 1], range(-5, 6))
        # s = 0: one double root per x; s = 1: roots x +- 1, all in D
        assert count_fiber(poly, sets).count == brute_force(poly, sets) == 3 + 6

    def test_negative_leading_coefficient(self):
        poly = P("-2*t^2 + x*t + y*s")
        sets = grid(range(-4, 5), range(-3, 4), [1, 2, 3], range(-6, 7))
        report = count_fiber(poly, sets)
        assert report.count == brute_force(poly, sets) > 0
        assert report.slice_degrees[2] == 9 * 7 * 3

    def test_negative_discriminant(self):
        # t^2 + x*y + s > 0 for positive x, y, s: no real root
        poly = P("t^2 + x*y + s")
        sets = grid([1, 2], [1, 3], [1, 2], range(-5, 6))
        assert count_fiber(poly, sets).count == brute_force(poly, sets) == 0

    def test_discriminant_not_a_perfect_square(self):
        # t^2 - (x + y + s) with x + y + s in {2, 3, 5, 6}: isqrt(disc)
        # would give a false root in D if the square check were skipped
        poly = P("t^2 - x - y - s")
        sets = grid([1, 2], [0], [1, 4], range(-4, 5))
        assert count_fiber(poly, sets).count == brute_force(poly, sets) == 0
        # s = 7 adds x + y + s = 8, not a square, and 9, with roots +-3
        wider = grid([1, 2], [0], [1, 4, 7], range(-4, 5))
        assert count_fiber(poly, wider).count == brute_force(poly, wider) == 2

    def test_integer_roots_outside_the_candidates(self):
        # roots +-1, +-2, +-4 are integers, none of them in D
        poly = P("t^2 - x*y")
        sets = grid([1, 4], [1, 4], [0, 5], [-3, 3, 5])
        assert count_fiber(poly, sets).count == brute_force(poly, sets) == 0


class TestEquivalenceAndProperties:
    def test_fiber_matches_naive_on_random_instances(self):
        rng = np.random.default_rng(20240818)
        for i in range(100):
            poly, sets = random_instance(rng)
            naive = count_naive(poly, sets)
            # the fiber route solves whichever variable is moved last
            solved = int(rng.integers(4))
            got = count_fiber(*solved_last(poly, sets, solved))
            assert got.count == naive.count, (i, str(poly), sets.sizes, solved)
            # both routes see the same fibers on the same grid
            assert count_fiber(poly, sets).degenerate_fibers == naive.degenerate_fibers, i

    def test_monotone_in_each_set(self):
        poly = P("x*y - s*t")
        base = grid([1, 2], [1, 3], [2, 3], [1, 2])
        base_count = count_naive(poly, base).count
        for i in range(4):
            enlarged = [list(s) for s in base.sets]
            enlarged[i].append(Fraction(6))
            bigger = GridSets.from_values(*enlarged)
            assert count_naive(poly, bigger).count >= base_count

    def test_balanced_additive_witness(self):
        for n in (1, 2, 3, 5, 8):
            sets = grid(range(1, n + 1), range(1, n + 1), range(1, n + 1), range(-3 * n, -2))
            assert count_fiber(P("x+y+s+t"), sets).count == n ** 3

    def test_variable_relabeling_symmetry(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            poly, sets = random_instance(rng)
            expected = count_naive(poly, sets).count
            assert count_naive(*permuted(poly, sets, rng.permutation(4))).count == expected


class TestOneFiberFrame:
    """Both routes fiber over (a, b, c) in A x B x C and treat D alone, so
    permuting x, y, s with A, B, C changes no reported field."""

    def test_permuting_x_y_s_keeps_every_report_field(self):
        rng = np.random.default_rng(20261022)
        for i in range(50):
            poly, sets = random_instance(rng, (1, 2, 3) if i % 2 else None)
            fiber, naive = count_fiber(poly, sets), count_naive(poly, sets)
            assert (fiber.count, fiber.degenerate_fibers) == \
                (naive.count, naive.degenerate_fibers), (i, str(poly))
            order = [*rng.permutation(3).tolist(), 3]
            moved = permuted(poly, sets, order)
            fiber2, naive2 = count_fiber(*moved), count_naive(*moved)
            assert (fiber2.count, fiber2.degenerate_fibers, fiber2.slice_degrees) == \
                (fiber.count, fiber.degenerate_fibers, fiber.slice_degrees), (i, order)
            assert (naive2.count, naive2.degenerate_fibers, naive2.distinct_fibers) == \
                (naive.count, naive.degenerate_fibers, naive.distinct_fibers), (i, order)


class TestRationalGrids:
    """Non-integer coefficients and sets: both routes count after clearing
    denominators, and must agree with the Fraction brute force."""

    def check_all_routes(self, poly, sets):
        # the fiber route solves each variable in turn, moved last
        expected = brute_force(poly, sets)
        assert count_naive(poly, sets).count == expected
        for solved in range(4):
            report = count_fiber(*solved_last(poly, sets, solved))
            assert report.count == expected, V4[solved]
            # every fiber has a slice degree or is degenerate
            fibers = math.prod(n for i, n in enumerate(sets.sizes) if i != solved)
            assert sum(report.slice_degrees) + report.degenerate_fibers == fibers
        return expected

    def test_degree_one_fibers(self):
        poly = P("1/3*x*y - 5/2*s*t + 7/4")
        sets = grid(
            [Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2), 3, Fraction(-3, 2)],
            [Fraction(7, 2), Fraction(7, 6), Fraction(-7, 4), 7, Fraction(1, 3)],
            [Fraction(1, 5), Fraction(7, 10), 1, Fraction(-1, 2), Fraction(1, 4)],
            [Fraction(1, 3), Fraction(7, 6), 1, Fraction(2, 3), Fraction(-5, 9)],
        )
        assert self.check_all_routes(poly, sets) > 0

    def test_degree_two_fibers(self):
        poly = P("3/2*t^2 - 1/6*x*y - 1/4*s")
        sets = grid(
            [Fraction(1, 2), 1, Fraction(3, 2), 3, Fraction(-3, 4)],
            [Fraction(1, 3), 3, Fraction(-1, 2), 6],
            [Fraction(-1, 3), Fraction(2, 3), 2, Fraction(-2, 5)],
            [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), 1, -1],
        )
        assert self.check_all_routes(poly, sets) > 0

    def test_quadratic_roots_integral_only_after_clearing(self):
        # 3t^2 - t - x = 0 has t = (1 +- sqrt(1 + 12x)) / 6: x = 2/3 gives
        # t = 2/3 or -1/3, x = 2 gives t = 1 or -2/3, so 2*c2 = 6 divides
        # only after the grid is scaled
        poly = P("3*t^2 - t - x - y*s")
        sets = grid(
            [Fraction(2, 3), 2, 0, Fraction(1, 4)],
            [0, 1],
            [0, Fraction(1, 2)],
            [Fraction(-1, 3), Fraction(2, 3), 1, Fraction(1, 3), Fraction(-2, 3)],
        )
        assert self.check_all_routes(poly, sets) > 0

    def test_vanishing_fibers(self):
        # with x moved last, the slice (2/3*s)*x - 1/4*t*y in x vanishes at
        # s = 0, t*y = 0
        poly = P("2/3*s*x - 1/4*t*y")
        sets = grid(
            [Fraction(3, 8), Fraction(-1, 2), 0, Fraction(9, 4)],
            [0, Fraction(1, 2), Fraction(4, 3)],
            [0, Fraction(1, 3), Fraction(-5, 6)],
            [0, Fraction(1, 7), Fraction(2, 3)],
        )
        expected = self.check_all_routes(poly, sets)
        report = count_fiber(*solved_last(poly, sets, 0))
        # s = 0 with y = 0 (3 values of t) or t = 0 (2 more values of y)
        assert report.degenerate_fibers == 5
        assert report.count == expected

    def test_random_rational_instances(self):
        rng = np.random.default_rng(20240820)
        denominators = (1, 2, 3, 4, 6)
        for i in range(40):
            terms = {}
            for _ in range(int(rng.integers(2, 6))):
                exp = tuple(int(e) for e in rng.integers(0, 3, size=4))
                terms[exp] = Fraction(int(rng.integers(-4, 5)), int(rng.choice(denominators)))
            poly = Polynomial(V4, terms)
            values = []
            for _ in range(4):
                pool = {
                    Fraction(int(rng.integers(-6, 7)), int(rng.choice(denominators)))
                    for _ in range(int(rng.integers(1, 6)))
                }
                values.append(sorted(pool))
            self.check_all_routes(poly, GridSets.from_values(*values))


ROOT = Path(__file__).resolve().parents[1]


def _zerocount_bench():
    spec = importlib.util.spec_from_file_location("zerocount_bench", ROOT / "bench" / "zerocount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_zerocount_bench_record_is_reproduced():
    # the count and degenerate_fibers BENCH_zerocount.json records for each of
    # the benchmark's 13 count jobs, on the same inputs
    bench = _zerocount_bench()
    record = json.loads((ROOT / "BENCH_zerocount.json").read_text())
    rows = {row["input"]: row for row in record["runs"]["change"]["rows"] if row["reference"]}
    specs = [spec for spec in bench.inputs() if spec.get("reference")]
    assert list(rows) == [spec["input"] for spec in specs] and len(specs) == 13
    for spec in specs:
        count = count_naive if spec["method"] == "naive" else count_fiber
        report = count(P(spec["poly"]), sets_from_csv(spec["sets"]))
        assert bench.result(report.to_json()) == bench.result(rows[spec["input"]]), spec["input"]
