"""Generators for extremal and control configurations.

Progression grids realize exactly n^3 zeros of the additive polynomial
x + y + s + t (and of its multiplicative twin x*y*s*t - 1): the first three
sets index an arithmetic (resp. geometric) progression and the fourth
absorbs every triple sum (resp. product).

The space-curve construction uses the smooth cubic y^2 = x^3 + a*x + b with
one real component, whose real points form a circle group.  Mapping a point
to its normalized arc parameter

    theta(P) = (1/Omega) * integral_x(P)^inf dt / sqrt(t^3 + a*t + b)

(reflected to 1 - theta for y < 0) identifies the group with R/Z, so the
n-element subgroup sits at theta = k/n.  Embedding (x, y) -> (x, y, x^2)
lands on the intersection of the quadrics w = x^2 and y^2 = x*w + a*x + b, a
space curve of degree four on which four affine points are coplanar exactly
when their group sum is the identity: planes pull back to the function space
spanned by {1, x, y, x^2}, whose members have divisor sum zero.  The
subgroup therefore spans coplanar quadruples indexed by 4-subsets of
{1..n-1} with index sum divisible by n, which `coplanar_index_oracle`
counts exactly.

The arc integral is an elliptic integral of the first kind in Carlson's
symmetric form,

    integral_x^inf dt / sqrt(t^3 + a*t + b) = 2 * R_F(x - e0, x - e1, x - e2)

with e0 the real root of the cubic (Cardano's formula) and e1, e2 its
complex-conjugate pair (B. C. Carlson, "Numerical computation of real or
complex elliptic integrals", Numer. Algorithms 10 (1995); DLMF 19.36).
R_F is evaluated by duplication in complex arithmetic, and the angle map is
inverted by Newton's method in u = sqrt(x - e0), safeguarded by bisection.

Torsion coordinates are floats with stated tolerances: exact rational
torsion on these curves is bounded by a small constant, so large subgroups
are necessarily numeric.

The moment curve (t, t^2, t^3) is the degree-3 control: a plane meets it in
at most three points, so it spans no coplanar quadruples at all.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .geometry import PointSet3
from .polynomials import VARS, Polynomial, parse_poly
from .zerocount import GridSets

__all__ = [
    "ANGLE_TOL",
    "ON_CURVE_TOL",
    "ApGrid",
    "ap_grid",
    "EllipticConfig",
    "make_curve",
    "CurvePoint",
    "IDENTITY",
    "on_curve",
    "group_add",
    "group_neg",
    "angle",
    "point_at_angle",
    "torsion_points",
    "embed_quartic",
    "coplanar_index_oracle",
    "moment_curve_points",
]

# largest accepted error of `point_at_angle`'s inversion of the angle map
ANGLE_TOL = 1e-9

# largest accepted |y^2 - (x^3 + a*x + b)| in `on_curve`, relative to 1 + |x|^3
ON_CURVE_TOL = 1e-9


class ApGrid(NamedTuple):
    """A grid construction with its matched polynomial and exact zero count."""

    kind: str
    sets: GridSets
    poly: Polynomial
    expected: int


def ap_grid(kind: str, n: int) -> ApGrid:
    """Progression grids realizing exactly n^3 zeros.

    additive:        A = B = C = {1..n}, D = {-3n..-3}, F = x + y + s + t;
    multiplicative:  A = B = C = {2^1..2^n}, D = {2^-3n..2^-3},
                     F = x*y*s*t - 1.

    The expected count is n^3 by index arithmetic: the indices of any
    (x, y, s) in [1, n]^3 sum to some m in [3, 3n], and D holds exactly one
    t, the one of index m, that completes a zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "additive":
        poly = parse_poly("x + y + s + t", VARS)
        abc = range(1, n + 1)
        d = range(-3 * n, -2)
    elif kind == "multiplicative":
        poly = parse_poly("x*y*s*t - 1", VARS)
        abc = [Fraction(2) ** i for i in range(1, n + 1)]
        d = [Fraction(2) ** (-m) for m in range(3 * n, 2, -1)]
    else:
        raise ValueError(f"unknown grid kind {kind!r}")
    sets = GridSets.from_values(abc, abc, abc, d)
    return ApGrid(kind, sets, poly, n ** 3)


# -- elliptic construction ----------------------------------------------------


class EllipticConfig(NamedTuple):
    """Curve y^2 = x^3 + a*x + b with one real component.

    `period` is twice the arc integral from the real root of the cubic to
    infinity; `root` is that real root.
    """

    a: Fraction
    b: Fraction
    period: float
    root: float


class CurvePoint(NamedTuple):
    x: float = 0.0
    y: float = 0.0
    infinity: bool = False

    def __repr__(self) -> str:
        return "O" if self.infinity else f"({self.x!r}, {self.y!r})"


IDENTITY = CurvePoint(infinity=True)


def _cubic(cfg: EllipticConfig, x: float) -> float:
    return x * x * x + float(cfg.a) * x + float(cfg.b)


def make_curve(a=Fraction(1), b=Fraction(1)) -> EllipticConfig:
    """Validate the curve; compute its real root and its real period."""
    a, b = Fraction(a), Fraction(b)
    disc = 4 * a ** 3 + 27 * b ** 2
    if disc == 0:
        raise ValueError("singular curve: 4a^3 + 27b^2 = 0")
    if disc < 0:
        raise ValueError("curve has two real components; a single component is required")
    af, bf = float(a), float(b)
    # Cardano: e0 = u + v with u^3, v^3 = -b/2 -+ sqrt(disc/108) and u*v = -a/3;
    # take u from the root of larger magnitude so that no cancellation occurs
    w = -bf / 2 - math.copysign(math.sqrt(float(disc / 108)), bf)
    u = math.copysign(abs(w) ** (1.0 / 3.0), w)
    e0 = u - af / (3 * u)
    for _ in range(60):  # Newton polish of the root
        f = e0 ** 3 + af * e0 + bf
        df = 3 * e0 ** 2 + af
        if df == 0:
            break
        step = f / df
        e0 -= step
        if abs(step) < 1e-16 * (1 + abs(e0)):
            break
    period = 2.0 * _arc_integral(af, e0, 0.0)
    return EllipticConfig(a, b, period, e0)


def _rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_F(x, y, z) = 1/2 integral_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    Duplication (DLMF 19.36.1): each step shrinks the spread of the
    arguments around their mean fourfold; once it is below 1e-3 of the mean,
    the series through fifth order is exact to rounding.  Valid for arguments off
    the negative real axis with at most one zero, and for a conjugate pair
    next to a non-negative real one.
    """
    for _ in range(60):
        mu = (x + y + z) / 3
        if max(abs(mu - x), abs(mu - y), abs(mu - z)) < 1e-3 * abs(mu):
            dx, dy = 1 - x / mu, 1 - y / mu
            dz = -dx - dy
            e2 = dx * dy - dz * dz
            e3 = dx * dy * dz
            return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / cmath.sqrt(mu)
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    raise RuntimeError(f"R_F duplication did not converge for ({x}, {y}, {z})")


def _arc_integral(a: float, e0: float, d: float) -> float:
    """integral_(e0+d)^inf dt / sqrt(t^3 + a*t + b) for a one-root cubic.

    Equals 2 * R_F(d, x - e1, x - e2) at x = e0 + d, where e1, e2 =
    -e0/2 +- i*sqrt(3*e0^2/4 + a) are the complex roots of the cubic.  The
    offset d >= 0 from the real root is passed directly rather than as x:
    next to the branch point x - e0 would lose all its digits to rounding.
    """
    pair = complex(d + 1.5 * e0, math.sqrt(0.75 * e0 * e0 + a))
    return 2.0 * _rf(d, pair, pair.conjugate()).real


def _quadratic_factor(cfg: EllipticConfig, x: float) -> float:
    """q(x) = (x^3 + a*x + b) / (x - root) = x^2 + root*x + root^2 + a > 0."""
    e0 = cfg.root
    return x * x + e0 * x + e0 * e0 + float(cfg.a)


def on_curve(cfg: EllipticConfig, p: CurvePoint) -> bool:
    if p.infinity:
        return True
    return abs(p.y * p.y - _cubic(cfg, p.x)) <= ON_CURVE_TOL * (1.0 + abs(p.x) ** 3)


def group_neg(p: CurvePoint) -> CurvePoint:
    return p if p.infinity else CurvePoint(p.x, -p.y)


def _project_to_curve(cfg: EllipticConfig, x: float, y: float) -> CurvePoint:
    # Newton steps on the constraint y^2 - cubic(x) = 0 along its gradient;
    # keeps rounding error from accumulating over repeated additions.
    a = float(cfg.a)
    for _ in range(3):
        r = y * y - _cubic(cfg, x)
        gx = -(3.0 * x * x + a)
        gy = 2.0 * y
        norm2 = gx * gx + gy * gy
        if norm2 == 0.0 or abs(r) < 1e-15 * (1.0 + abs(x) ** 3):
            break
        x -= r * gx / norm2
        y -= r * gy / norm2
    return CurvePoint(x, y)


def group_add(cfg: EllipticConfig, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition with the point at infinity as identity."""
    for pt in (p, q):
        if not on_curve(cfg, pt):
            raise ValueError(f"point {pt!r} is not on the curve within tolerance")
    if p.infinity:
        return q
    if q.infinity:
        return p
    scale = 1.0 + max(abs(p.x), abs(q.x), abs(p.y), abs(q.y))
    eps = 1e-9 * scale
    if abs(p.x - q.x) <= eps:
        if abs(p.y + q.y) <= abs(p.y - q.y):
            return IDENTITY  # q is (numerically) the inverse of p
        slope = (3.0 * p.x * p.x + float(cfg.a)) / (2.0 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return _project_to_curve(cfg, x3, y3)


def angle(cfg: EllipticConfig, p: CurvePoint) -> float:
    """Normalized arc parameter in [0, 1); additive under the group law."""
    if p.infinity:
        return 0.0
    if not on_curve(cfg, p):
        raise ValueError(f"point {p!r} is not on the curve within tolerance")
    # x - root = y^2 / q(x) on the curve, to full relative precision even
    # where x itself cannot resolve the distance from the branch point
    d = p.y * p.y / _quadratic_factor(cfg, p.x)
    theta = _arc_integral(float(cfg.a), cfg.root, d) / cfg.period
    theta = min(max(theta, 0.0), 0.5)
    if p.y < 0:
        theta = 1.0 - theta
    return theta % 1.0


def point_at_angle(cfg: EllipticConfig, theta: float) -> CurvePoint:
    """Invert the angle map; theta = 0 gives the identity.

    Solves I(u) = theta * period for u = sqrt(x - root), where I(u) is the
    arc integral from root + u^2.  In u the integral is smooth and strictly
    decreasing, dI/du = -2 / sqrt(q(root + u^2)) with q the cubic divided
    by (x - root), so Newton converges fast; steps that leave the current
    bracket are replaced by bisection.
    """
    theta = theta % 1.0
    if theta < 1e-15 or 1.0 - theta < 1e-15:
        return IDENTITY
    if theta > 0.5:
        return group_neg(point_at_angle(cfg, 1.0 - theta))
    target = theta * cfg.period
    a, e0 = float(cfg.a), cfg.root

    def residual(u: float) -> float:
        return _arc_integral(a, e0, u * u) - target

    if residual(0.0) <= 0.0:
        return CurvePoint(e0, 0.0)
    lo, hi = 0.0, 1.0
    for _ in range(200):  # doubling bracket: residual(lo) > 0 >= residual(hi)
        if residual(hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError("angle inversion failed to bracket the target")
    u = hi
    for _ in range(200):
        f = residual(u)
        if f == 0.0:
            break
        if f > 0.0:
            lo = u
        else:
            hi = u
        nxt = u + 0.5 * f * math.sqrt(_quadratic_factor(cfg, e0 + u * u))  # u - f / (dI/du)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - u) <= 4e-16 * nxt
        u = nxt
        if done:
            break
    else:
        raise RuntimeError("angle inversion did not converge")
    x = e0 + u * u
    pt = CurvePoint(x, u * math.sqrt(_quadratic_factor(cfg, x)))
    if abs(angle(cfg, pt) - theta) > ANGLE_TOL:
        raise RuntimeError("angle inversion missed the requested tolerance")
    return pt


def torsion_points(cfg: EllipticConfig, n: int) -> list[CurvePoint]:
    """The n points at angles k/n, k = 0..n-1; index 0 is the identity."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return [IDENTITY] + [point_at_angle(cfg, k / n) for k in range(1, n)]


def embed_quartic(cfg: EllipticConfig, points: Sequence[CurvePoint]) -> PointSet3:
    """Map affine curve points into space via (x, y) -> (x, y, x^2).

    The image lies on the quadrics w = x^2 and y^2 = x*w + a*x + b; four of
    its points are coplanar exactly when their group sum is the identity.
    The identity itself has no affine image and must be stripped first.
    """
    rows = []
    for p in points:
        if p.infinity:
            raise ValueError("strip the identity before embedding")
        if not on_curve(cfg, p):
            raise ValueError(f"point {p!r} is not on the curve within tolerance")
        rows.append((p.x, p.y, p.x * p.x))
    return PointSet3.from_rows(rows)


def coplanar_index_oracle(n: int) -> int:
    """4-subsets of {1..n-1} with pairwise-distinct entries summing to 0 mod n.

    Ground truth for the coplanar count of the embedded torsion construction.
    O(n): with i the smallest entry, the other three j < k < l sum to
    S = n - i, 2n - i or 3n - i.  For each j the largest is l = S - j - k,
    and k runs from max(j + 1, S - j - (n - 1)) to (S - j - 1) // 2.  That
    count is linear in j apart from the halving, on each side of
    m = ceil((S - n) / 2), where the two lower bounds cross, so each side
    sums in closed form over the j that leave it positive.
    """
    if n < 5:
        raise ValueError("n must be >= 5")
    count = 0
    for i in range(1, n - 3):
        for s in (n - i, 2 * n - i, 3 * n - i):
            m = (s - n + 1) // 2
            # j >= m: k from j + 1, positive while j <= (s - 3) // 3
            a, b = max(i + 1, m), (s - 3) // 3
            if a <= b:
                count += _halves(s - 1 - a) - _halves(s - 2 - b) - _span(a, b)
            # j < m: k from s - j - (n - 1), positive while j >= s - 2n + 3
            a, b = max(i + 1, s - 2 * n + 3), m - 1
            if a <= b:
                count += (_halves(s - 1 - a) - _halves(s - 2 - b) + _span(a, b)
                          + (n - s) * (b - a + 1))
    return count


def _halves(t: int) -> int:
    # sum of u // 2 for u = 0..t, for t >= -1
    return (t // 2) * ((t + 1) // 2)


def _span(a: int, b: int) -> int:
    # sum of j for j = a..b
    return (a + b) * (b - a + 1) // 2


def moment_curve_points(n: int, spacing: Fraction | int = 1) -> PointSet3:
    """Exact points (t, t^2, t^3) for t = spacing, 2*spacing, ..., n*spacing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spacing = Fraction(spacing)
    rows = []
    for i in range(1, n + 1):
        t = i * spacing
        rows.append((t, t * t, t * t * t))
    return PointSet3.from_rows(rows)
