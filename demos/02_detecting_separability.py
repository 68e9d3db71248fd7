"""Detecting additively separable structure in a quadrivariate polynomial.

A polynomial whose zero surface is locally f1(x) + f2(y) + f3(s) + f4(t) = 0
admits grids with ~n^3 zeros; anything else provably cannot reach that rate.
The detector tests whether ratios of partial derivatives depend only on the
coordinates they should.  The verdict is exact, by polynomial division (the
certificate), after a proof that F has no repeated factor.  The popular-curve
scan is exact too: it finds plane curves shared by many parameter slices.
"""

from quadcount import certify, classify, parse_poly, popular_components

VARS = ("x", "y", "s", "t")

print("exact classifications:")
for text in ("x + y + s + t", "x*y - s*t", "t - x*y*s", "t - (x + y*s)"):
    verdict = classify(parse_poly(text, VARS))
    holds = "".join("T" if ok else "F" for ok in verdict.certificate.values())
    print(f"  {text:16s} -> {verdict.classification:12s} [certificate {holds}]")

# The exact criterion: F divides the derivative of the ratio along the
# surface (times F_y F_t^2) for t - x*y*s, not for t - (x + y*s).  On the
# surface of t - (x + y*s), F_s/F_t = -y = -(t-x)/s moves when x moves with
# (s, t) frozen; on that of t - x*y*s, F_s/F_t = -x*y = -t/s does not.
for text in ("t - (x + y*s)", "t - x*y*s"):
    print(f"certificate for {text}: {certify(parse_poly(text, VARS))}")
# A polynomial that ignores a variable has no certificate: degenerate.
print(f"certificate for x + s + t: {certify(parse_poly('x + s + t', VARS))}")

# A repeated factor would fool the certificate, so the detector refuses it.
try:
    classify(parse_poly("(x + y + s + t)^2*(x*y - s*t)", VARS))
except ValueError as exc:
    print(f"(x + y + s + t)^2*(x*y - s*t) refused: {exc}")

# Slices F(x, y, c, d) sharing a whole plane-curve component.
# With c + d constant, every slice of x+y+s+t is the same line.
params = [(c, 5 - c) for c in range(10)]
scan = popular_components(parse_poly("x + y + s + t", VARS), params)
for component, multiplicity in scan.popular:
    print(f"popular component of x+y+s+t over c+d=5 params: "
          f"{component} (divides {multiplicity}/10 slices, threshold {scan.threshold})")
