"""Detection of additively separable structure in a quadrivariate polynomial.

A polynomial F(x, y, s, t) is *special* when, away from a bad set, the
relation F = 0 is locally equivalent to f1(x) + f2(y) + f3(s) + f4(t) = 0
for invertible analytic fi.  Such polynomials admit product sets with a
cubic number of zeros; all others provably cannot.

Writing the surface locally as y = y(x, s, t), separability forces each of

    F_s/F_t   (as a function of s, t),
    F_s/F_x   (as a function of s, x),
    F_t/F_x   (as a function of t, x),

restricted to the surface, to be independent of the remaining free
coordinate.  Two routes test these three ratio conditions, and they share
no code:

- `certify` decides them exactly.  With y solved, (u, v) the frozen pair
  and w the free variable, the derivative of F_u/F_v along the surface,
  times F_y F_v^2, is

      N = F_y (F_v dF_u/dw - F_u dF_v/dw) - F_w (F_v dF_u/dy - F_u dF_v/dy),

  so the condition holds on F = 0 iff F divides N.  It runs on exact
  rational polynomials: no float, no seed, no sampling.
- `ratio_test` estimates them: it walks fibers of the real surface and
  measures the spread of the ratio against explicit float tolerances.

`classify` runs the exact route alone: it proves F squarefree, then takes
its verdict from the certificate.  `ratio_test` is the independent oracle
that tests compare the certificate against; no verdict runs it.

Limits: the certificate decides the same three ratio conditions that the
sampler estimates, which is necessary for the paper's special form but not
a proof of it.  "F divides N" is equivalent to N vanishing on F = 0 only
when F is squarefree, so `classify` refuses F unless `_require_squarefree`
proves, at fixed integer points, that no repeated factor exists; it also
refuses a squarefree F if every guard point gives a specialization with a
double root.  A squarefree reducible F is still judged one component at a
time, so a union of special surfaces certifies special.

The thresholds below are fixed module constants that only `ratio_test`
reads, so its spreads depend on F, the pair, the seed and the number of
trials.  `popular_components` is an exact library scan for plane-curve
components shared by parameter slices; `classify` does not call it.

The module runs on Python floats, ints and Fractions and never loads
numpy.  `ratio_test` draws its frozen pair, base point and root pick from
`random.Random(seed)`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .polynomials import Polynomial, bivariate_gcd, try_divide, univariate_gcd
from .stages import Stages


__all__ = [
    "SAMPLING_BOX",
    "RESIDUAL_TOL",
    "GRADIENT_FLOOR",
    "RATIO_PASS",
    "RATIO_FAIL",
    "DegenerateSurfaceError",
    "FormVerdict",
    "PopularScan",
    "certify",
    "ratio_test",
    "popular_components",
    "classify",
]

# Fixed detector constants (documented contract).
SAMPLING_BOX = 2.0        # coordinates are drawn from [-SAMPLING_BOX, SAMPLING_BOX]
RESIDUAL_TOL = 1e-12      # |F| at an accepted surface point
GRADIENT_FLOOR = 1e-8     # minimum |partial derivative| at a regular sample
RATIO_PASS = 1e-6         # ratio spread below this passes the independence test
RATIO_FAIL = 1e-2         # ratio spread above this is a decisive failure
_POSITIONS = 5            # points per fiber walk in the ratio test
# where the squarefree guard specializes the other three variables: each
# coordinate takes a new value at every point, so a factor in one of them,
# such as y - 2, vanishes at one point at most
_GUARD_POINTS = tuple((2 + 3 * k, -3 - 5 * k, 5 + 7 * k) for k in range(12))

# Why a fiber walk was abandoned: the slice had no real root Newton could
# polish, a walked point left the surface, a gradient component fell below
# the floor, or Newton continuation lost the fiber.
_REJECTIONS = ("no_real_root", "residual", "gradient_floor", "continuation")


class DegenerateSurfaceError(RuntimeError):
    """The sampler could not produce enough regular surface points."""


class PopularScan(NamedTuple):
    """Shared slice components with the number of slices each divides."""

    components: list[tuple[Polynomial, int]]
    popular: list[tuple[Polynomial, int]]
    degenerate_params: list[tuple[Fraction, Fraction]]
    threshold: int


class FormVerdict(NamedTuple):
    """Detector output: special | non-special | degenerate.

    `certificate` is what `certify` returned, one boolean per ratio test or
    None.  `stages` holds the seconds spent proving F squarefree and in
    `certify`; the JSON reports a None `stages` as {}.
    """

    classification: str
    certificate: dict[str, bool] | None
    stages: dict[str, float] | None = None

    def to_json(self) -> dict:
        return {
            "classification": self.classification,
            "certificate": self.certificate,
            "stages": self.stages or {},
        }


class _FloatForm:
    """Float view of an exact polynomial: `(coeff, factors)` terms, where
    `factors` lists `(variable index, exponent)` for the nonzero exponents.

    Evaluation runs on Python floats; the detector calls it a dozen times
    per surface point, on 3 or 4 coordinates, where array set-up would cost
    more than the arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, poly: Polynomial):
        self.terms = [
            (float(c), tuple((i, e) for i, e in enumerate(exps) if e))
            for exps, c in sorted(poly.terms.items())
        ]

    def __call__(self, point: Sequence[float]) -> float:
        total = 0.0
        for coeff, factors in self.terms:
            monomial = 1.0
            for i, e in factors:
                monomial *= point[i] if e == 1 else point[i] ** e
            total += coeff * monomial
        return total


def _horner(coeffs: Sequence[float], y: float) -> float:
    # coefficients lowest power first
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _real_roots(coeffs: Sequence[float]) -> list[float]:
    """Real roots, ascending, of the polynomial with `coeffs` (lowest power
    first, nonzero leading coefficient, degree >= 1).

    Degrees 1 and 2 use the closed form.  The quadratic counts a complex
    pair whose imaginary part is at most 1e-8 (1 + |r|) as a double root at
    its real part, the rule under which `np.roots`, an eigenvalue solver
    that reports near-double roots with a small imaginary part, kept them.
    Higher degrees find the real critical points by recursion on the
    derivative; between consecutive ones, and out to the Cauchy bound, the
    polynomial is monotone, so each bracket whose ends differ in sign holds
    one root, found by bisection to the float resolution.
    """
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            re, im = -b / (2.0 * a), math.sqrt(-disc) / (2.0 * abs(a))
            return [re] if im <= 1e-8 * (1.0 + math.hypot(re, im)) else []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        return [0.0] if q == 0.0 else sorted((q / a, c / q))
    bound = 1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])
    critical = _real_roots([j * c for j, c in enumerate(coeffs)][1:])
    edges = [-bound, *(r for r in critical if -bound < r < bound), bound]
    values = [_horner(coeffs, e) for e in edges]
    roots: list[float] = []
    for k in range(len(edges) - 1):
        lo, hi, plo = edges[k], edges[k + 1], values[k]
        if plo == 0.0:
            roots.append(lo)
        elif plo * values[k + 1] < 0.0:
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                pm = _horner(coeffs, mid)
                if pm == 0.0:
                    lo = hi = mid
                elif (pm < 0.0) == (plo < 0.0):
                    lo, plo = mid, pm
                else:
                    hi = mid
            roots.append(lo)
    return roots


class _Surface:
    """Float-side solver for y on the surface F(x, y, s, t) = 0.

    The second declared variable is the solved one; the univariate slice in
    it is rebuilt from a coefficient profile precomputed over the other
    three variables.  Points are tuples of Python floats, and the per-point
    path (slice, `_real_roots`, Newton, gradient) is plain Python.
    """

    def __init__(self, poly: Polynomial):
        _require_surface(poly)
        self.f = _FloatForm(poly)
        self.grads = tuple(_FloatForm(poly.partial(v)) for v in poly.vars)
        profile = poly.coefficients_in(poly.vars[1])
        if len(profile) == 1:
            raise DegenerateSurfaceError(
                f"F does not involve {poly.vars[1]!r}: no solvable fiber"
            )
        self.profile = [_FloatForm(p) for p in profile]

    def slice_coeffs(self, x: float, s: float, t: float) -> list[float]:
        pt = (x, s, t)
        return [form(pt) for form in self.profile]

    def newton_y(self, x: float, s: float, t: float, y0: float) -> float | None:
        return self._newton(self.slice_coeffs(x, s, t), y0)

    def _newton(self, coeffs: list[float], y: float) -> float | None:
        dcoeffs = [j * c for j, c in enumerate(coeffs)][1:]
        for _ in range(80):
            g = _horner(coeffs, y)
            if abs(g) < RESIDUAL_TOL:
                return y
            dg = _horner(dcoeffs, y)
            if dg == 0.0 or not math.isfinite(dg):
                return None
            y -= g / dg
            if not math.isfinite(y):
                return None
        return y if abs(_horner(coeffs, y)) < RESIDUAL_TOL else None

    def solve_y(self, x: float, s: float, t: float) -> list[float]:
        """All real solutions of the univariate slice, polished by Newton."""
        coeffs = self.slice_coeffs(x, s, t)
        scale = max((abs(c) for c in coeffs), default=0.0)
        if scale == 0.0:
            return []
        trimmed = list(coeffs)
        while trimmed and abs(trimmed[-1]) < 1e-13 * scale:
            trimmed.pop()
        if len(trimmed) < 2:
            return []
        out: list[float] = []
        for r in _real_roots(trimmed):
            y = self._newton(coeffs, r)
            if y is None:
                continue
            if all(abs(y - prev) > 1e-9 * (1.0 + abs(y)) for prev in out):
                out.append(y)
        out.sort()
        return out

    def gradient(self, point: Sequence[float]) -> tuple[float, ...]:
        return tuple(g(point) for g in self.grads)

    def regular(self, grad: Sequence[float]) -> bool:
        return all(abs(g) >= GRADIENT_FLOOR for g in grad)


def _require_surface(poly: Polynomial) -> None:
    if len(poly.vars) != 4:
        raise ValueError("detector requires a polynomial in 4 variables")
    if poly.is_zero:
        raise ValueError("detector requires a nonzero polynomial")


def _median(values: Sequence[float]) -> float:
    # statistics.median without its import: the mean of the middle pair, as
    # (lo + hi) / 2, for an even count
    data = sorted(values)
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else (data[mid - 1] + data[mid]) / 2


def _require_trials(trials: int) -> None:
    # zero walks would report a zero spread, which reads as a pass
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _require_seed(seed: int) -> None:
    # random.Random(-n) draws the same stream as Random(n)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def ratio_test(
    poly: Polynomial,
    pair: tuple[str, str],
    trials: int = 50,
    seed: int = 0,
    stages: Stages | None = None,
) -> float:
    """Max relative spread of F_num/F_den along fibers of the surface.

    The two `pair` variables are held fixed per trial, the remaining free
    variable walks along the fiber (the solved variable is re-solved by
    Newton continuation at each step), and the ratio of the two partial
    derivatives is recorded at every position.  For a separable polynomial
    the ratio is a function of the frozen pair only, so its spread along the
    fiber vanishes up to solver noise.  Each walk counts one "attempts" in
    `stages`, and each abandoned one its reason (see `_REJECTIONS`).
    """
    _require_trials(trials)
    _require_seed(seed)
    surf = _Surface(poly)
    tally = (stages if stages is not None else Stages()).count
    names = poly.vars
    solved = names[1]
    num_var, den_var = pair
    if solved in pair:
        raise ValueError(f"{solved!r} is the solved variable; it cannot appear in the test pair")
    free_candidates = [v for v in names if v != solved and v not in pair]
    if len(free_candidates) != 1:
        raise ValueError(f"pair {pair} does not leave exactly one free variable")
    free = free_candidates[0]
    num_idx = names.index(num_var)
    den_idx = names.index(den_var)

    rng = random.Random(seed)
    step = SAMPLING_BOX / (2.0 * (_POSITIONS - 1))
    max_spread = 0.0
    successes = 0
    budget = 40 * trials
    while successes < trials and budget > 0:
        budget -= 1
        tally("attempts")
        frozen_vals = {v: rng.uniform(-SAMPLING_BOX, SAMPLING_BOX) for v in pair}
        base = rng.uniform(-SAMPLING_BOX, SAMPLING_BOX - step * (_POSITIONS - 1))

        def slice_args(free_val: float) -> tuple[float, float, float]:
            c = dict(frozen_vals)
            c[free] = free_val
            return (c[names[0]], c[names[2]], c[names[3]])

        roots = surf.solve_y(*slice_args(base))
        if not roots:
            tally("no_real_root")
            continue
        y = roots[rng.randrange(len(roots))]
        ratios: list[float] = []
        rejected = None
        for k in range(_POSITIONS):
            free_val = base + k * step
            if k > 0:
                y = surf.newton_y(*slice_args(free_val), y)
                if y is None:
                    rejected = "continuation"
                    break
            coords = dict(frozen_vals)
            coords[free] = free_val
            coords[solved] = y
            pt = tuple(coords[v] for v in names)
            if abs(surf.f(pt)) >= RESIDUAL_TOL:
                rejected = "residual"
                break
            grad = surf.gradient(pt)
            if not surf.regular(grad):
                rejected = "gradient_floor"
                break
            ratios.append(grad[num_idx] / grad[den_idx])
        if rejected is not None:
            tally(rejected)
            continue
        spread = (max(ratios) - min(ratios)) / (abs(_median(ratios)) + 1e-12)
        max_spread = max(max_spread, spread)
        successes += 1
    if successes < trials:
        raise DegenerateSurfaceError(
            f"ratio test completed only {successes}/{trials} fiber walks"
        )
    return max_spread


def popular_components(
    poly: Polynomial,
    params: Sequence[tuple[Fraction | int, Fraction | int]],
) -> PopularScan:
    """Exact scan for plane-curve components shared by parameter slices.

    Each (c, d) fixes the last two variables, giving a bivariate slice in the
    first two.  Pairwise GCDs of the slices propose candidate components;
    each candidate is then charged with the number of slices it divides.  A
    component dividing more than deg(F)^2 slices is flagged popular.
    Parameters whose slice vanishes identically are set aside.
    """
    if len(poly.vars) != 4:
        raise ValueError("expected a polynomial in 4 variables")
    vc, vd = poly.vars[2], poly.vars[3]
    slices: list[Polynomial] = []
    degenerate: list[tuple[Fraction, Fraction]] = []
    for c, d in params:
        c, d = Fraction(c), Fraction(d)
        sl = poly.specialize({vc: c, vd: d})
        if sl.is_zero:
            degenerate.append((c, d))
        else:
            slices.append(sl)
    if len(slices) < 2:
        raise ValueError(f"need at least 2 non-degenerate slices, got {len(slices)}")
    candidates: dict[Polynomial, None] = {}
    for i in range(len(slices)):
        for j in range(i + 1, len(slices)):
            g = bivariate_gcd(slices[i], slices[j])
            if g.total_degree > 0:
                candidates.setdefault(g)
    components: list[tuple[Polynomial, int]] = []
    for cand in candidates:
        mult = sum(1 for sl in slices if try_divide(sl, cand) is not None)
        components.append((cand, mult))
    components.sort(key=lambda pm: (-pm[1], str(pm[0])))
    threshold = poly.total_degree ** 2
    popular = [(p, m) for p, m in components if m > threshold]
    return PopularScan(components, popular, degenerate, threshold)


def _ratio_pairs(names: tuple[str, ...]) -> dict[str, tuple[str, str]]:
    # the three independence tests over the coordinate splits that keep the
    # solved variable in place
    return {
        "h1": (names[2], names[3]),
        "h2": (names[2], names[0]),
        "h3": (names[3], names[0]),
    }


def certify(poly: Polynomial) -> dict[str, bool] | None:
    """Exact verdict on each ratio test: whether F_u/F_v is constant in the
    free variable along the surface, keyed like `ratio_test`'s pairs.

    With the second declared variable y solved, (u, v) the pair and w the
    free variable, the condition holds iff F divides
    N = F_y (F_v dF_u/dw - F_u dF_v/dw) - F_w (F_v dF_u/dy - F_u dF_v/dy),
    which assumes F squarefree (see the module docstring).  Returns None
    when F involves fewer than four variables.
    """
    _require_surface(poly)
    names = poly.vars
    if any(poly.degree_in(v) == 0 for v in names):
        return None
    grad = {v: poly.partial(v) for v in names}
    solved = names[1]
    fy = grad[solved]
    out: dict[str, bool] = {}
    for label, (u, v) in _ratio_pairs(names).items():
        w = next(a for a in names if a not in (solved, u, v))
        fu, fv = grad[u], grad[v]
        drift = (fy * (fv * fu.partial(w) - fu * fv.partial(w))
                 - grad[w] * (fv * fu.partial(solved) - fu * fv.partial(solved)))
        out[label] = try_divide(drift, poly) is not None
    return out


def _require_squarefree(poly: Polynomial) -> None:
    """Raise ValueError unless F provably has no repeated factor.

    For each variable v that F involves, the other three are set to each of
    `_GUARD_POINTS` in turn, giving a univariate `Polynomial` u in v; a point
    where u's degree falls below F's degree in v (the leading coefficient
    vanishes there) is skipped.  One point where gcd(u, u') == 1 proves that
    no repeated factor of F involves v.  If F = G^2 H with G involving v,
    every such point leaves a repeated factor in u, so none succeeds.
    """
    _require_surface(poly)
    for v in poly.vars:
        degree = poly.degree_in(v)
        if degree == 0:
            continue
        others = [w for w in poly.vars if w != v]
        for point in _GUARD_POINTS:
            u = poly.specialize(dict(zip(others, point)))
            if (u.degree_in(v) == degree
                    and univariate_gcd(u, u.partial(v)).total_degree == 0):
                break
        else:
            raise ValueError(f"cannot prove F squarefree in {v!r}: a repeated factor "
                             f"would make the certificate unreliable")


def classify(poly: Polynomial) -> FormVerdict:
    """Decide the form of F exactly: prove it squarefree, then `certify`.

    special       -- the certificate holds on all three ratio tests;
    non-special   -- it fails on at least one;
    degenerate    -- F involves fewer than four variables (no certificate).

    F with a possible repeated factor raises ValueError (see
    `_require_squarefree`).
    """
    stages = Stages()
    with stages.timed("squarefree"):
        _require_squarefree(poly)
    with stages.timed("certify"):
        certificate = certify(poly)
    if certificate is None:
        classification = "degenerate"
    else:
        classification = "special" if all(certificate.values()) else "non-special"
    return FormVerdict(classification, certificate, stages.seconds)
