"""The growth dichotomy, measured.

Additively structured polynomials admit grids with exactly n^3 zeros
(log-log slope 3.000); a generic polynomial on balanced grids grows
measurably slower.  The same split shows up geometrically: torsion points
on a degree-4 space curve pile up cubically many coplanar quadruples, while
the degree-3 moment curve never produces any.

Each series reports two estimates of the exponent: the least-squares
`slope` of log(count) against log(n), and the extrapolated `exponent`, the
first-order Richardson extrapolation of the last two log-log slopes
(`quadcount.extrapolated_exponent`).  A count with a 1/n deficit, such as
the torsion count n^3/24 (1 - 10/n + ...), lifts every finite-range slope
above its exponent; the extrapolation cancels the 1/n term, so `exponent`
sits below `slope` there.
"""

from quadcount import run_series


def show(series, counts_only=False):
    for row in series.rows:
        timing = "" if counts_only else f"  ({row.elapsed_ms:.1f} ms)"
        print(f"  n={row.n:3d}  count={row.count:7d}{timing}")


print("zeros of x+y+s+t on its progression grids (exactly n^3):")
series = run_series("ap-additive-zeros", [4, 8, 16, 32])
show(series)
print(f"  fitted slope: {series.slope:.6f}  residual: {series.residual:.2e}  "
      f"extrapolated exponent: {series.exponent:.6f}")

print("\nzeros of t - (x + y*s) on balanced grids {1..n}^4:")
series = run_series("nonspecial-grid-zeros", [8, 16, 32, 64])
show(series)
print(f"  fitted slope: {series.slope:.4f}  extrapolated exponent: {series.exponent:.4f}"
      f"  (both below 8/3 + 0.1 = {8 / 3 + 0.1:.4f})")

print("\ncoplanar quadruples of the embedded torsion subgroup (index oracle):")
series = run_series("elliptic-oracle", [16, 32, 64, 128])
show(series)
print(f"  fitted slope: {series.slope:.4f}  extrapolated exponent: {series.exponent:.4f}")
print("  note: the unordered proper count is (n-1)(n-2)(n-3)(n-4)/24n + O(1);")
print("  its 1/n deficit steepens the fitted slope at this range; the")
print("  extrapolation 2*s(64->128) - s(32->64) of the doubling slopes")
print("  cancels it.  Over larger n the fitted slope approaches 3:")
series = run_series("elliptic-oracle", [128, 192, 256, 384])
show(series, counts_only=True)
print(f"  slope over n in 128..384: {series.slope:.4f} -> 3 from above as n grows;"
      f"  extrapolated exponent: {series.exponent:.4f}")

print("\ncoplanar quadruples on the moment curve (degree-3 control):")
series = run_series("moment-coplanar", [16, 32, 64])
show(series, counts_only=True)
print(f"  slope: {'undefined (all counts zero)' if series.slope is None else series.slope}")
