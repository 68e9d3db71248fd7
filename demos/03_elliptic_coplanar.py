"""A space curve of degree four whose points pile up coplanar quadruples.

The real points of y^2 = x^3 + x + 1 form a circle group; embedding
(x, y) -> (x, y, x^2) lands on an intersection of two quadrics where four
points are coplanar exactly when their group sum is the identity.  Taking
the n-element subgroup therefore yields ~n^3/24 coplanar quadruples, and
the count is predicted exactly by index sums mod n.
"""

from quadcount import (
    angle,
    coplanar_index_oracle,
    coplanar_naive,
    embed_quartic,
    group_add,
    make_curve,
    point_at_angle,
    torsion_points,
)

cfg = make_curve()  # y^2 = x^3 + x + 1, one real component
print(f"curve y^2 = x^3 + {cfg.a}*x + {cfg.b}: real period {cfg.period:.6f}, "
      f"2-torsion at x = {cfg.root:.6f}")

# The angle map is the group isomorphism onto R/Z.
p = point_at_angle(cfg, 0.15)
q = point_at_angle(cfg, 0.27)
r = group_add(cfg, p, q)
print(f"angle(p)+angle(q) = {angle(cfg, p) + angle(cfg, q):.9f}  "
      f"angle(p+q) = {angle(cfg, r):.9f}")

# The n-element subgroup sits at angles k/n; adding the generator n times
# walks back to the identity.
n = 10
pts = torsion_points(cfg, n)
print(f"\n{n}-element subgroup angles:", [round(angle(cfg, pt), 4) for pt in pts])
acc = pts[1]
for _ in range(n - 1):
    acc = group_add(cfg, acc, pts[1])
print(f"generator added {n} times -> angle {angle(cfg, acc):.2e} (identity)")

# Embedded in space, group sums of zero become coplanar quadruples, counted
# geometrically (floats, at the default tolerance TORSION_COPLANAR_TOL) and
# arithmetically (index sums).
print("\n n | geometric count | index oracle")
for n in (8, 12, 16, 24, 32):
    embedded = embed_quartic(cfg, torsion_points(cfg, n)[1:])  # identity stripped
    geometric = coplanar_naive(embedded).count
    oracle = coplanar_index_oracle(n)
    marker = "" if geometric == oracle else "  <-- MISMATCH"
    print(f"{n:3d} | {geometric:15d} | {oracle:12d}{marker}")
