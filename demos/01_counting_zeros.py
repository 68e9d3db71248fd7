"""Counting zeros of a 4-variable polynomial on a product of four sets.

Two independent routes to the same exact number, and the progression grids
that push the count to exactly n^3 for additively structured polynomials.
"""

from fractions import Fraction

from quadcount import GridSets, ap_grid, count_fiber, count_naive, parse_poly

VARS = ("x", "y", "s", "t")

# A polynomial and a small grid, counted both ways.
poly = parse_poly("x*y - s*t", VARS)
sets = GridSets.from_values([1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3, 4, 6, 9])
naive = count_naive(poly, sets)
fiber = count_fiber(poly, sets)
print(f"F = {poly} on sizes {sets.sizes}")
print(f"  naive count: {naive.count}   ({naive.elapsed * 1e3:.2f} ms)")
print(f"  fiber count: {fiber.count}   ({fiber.elapsed * 1e3:.2f} ms)")
assert naive.count == fiber.count

# Rational values are exact: 1/2 is a honest grid element, not a float.
half_sets = GridSets.from_values(
    [Fraction(1, 2), 1], [Fraction(1, 2), 1], [Fraction(1, 2), 1], [Fraction(-3, 2), -2, -3]
)
additive = parse_poly("x + y + s + t", VARS)
print(f"\nF = {additive} on a rational grid: {count_naive(additive, half_sets).count} zeros")

# The additive progression grid absorbs every triple sum: exactly n^3 zeros.
print("\nprogression grids (count computed by the index-sum oracle, then verified):")
for n in (2, 4, 8):
    grid = ap_grid("additive", n)
    verified = count_fiber(grid.poly, grid.sets).count
    print(f"  additive  n={n}: expected {grid.expected:5d}  counted {verified:5d}")
    assert grid.expected == verified == n ** 3

# Same story multiplicatively, with geometric progressions.
grid = ap_grid("multiplicative", 3)
print(f"  multiplicative n=3: expected {grid.expected}  counted "
      f"{count_naive(grid.poly, grid.sets).count}  (F = {grid.poly})")

# A degenerate fiber: where the slice vanishes identically, the whole
# candidate set counts at once.
degen = parse_poly("s*t + x*y", VARS)
dsets = GridSets.from_values([0], [1], [0, 2], [0, 1])
report = count_fiber(degen, dsets)
print(f"\nF = {degen}: {report.count} zeros, {report.degenerate_fibers} degenerate fiber(s)")
