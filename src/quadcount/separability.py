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
coordinate.  `certify` decides these three ratio conditions exactly.  With
y solved, (u, v) the frozen pair and w the free variable, the derivative of
F_u/F_v along the surface, times F_y F_v^2, is

    N = F_y (F_v dF_u/dw - F_u dF_v/dw) - F_w (F_v dF_u/dy - F_u dF_v/dy),

so the condition holds on F = 0 iff F divides N.  It runs on exact rational
polynomials: no float, no seed, no sampling.  `classify` proves F
squarefree, then takes its verdict from the certificate.  The tests check
the certificate against an independent route that shares no code with it:
a float sampler that walks fibers of the real surface and measures the
spread of each ratio (`tests/_ratio_oracle.py`).

Limits: the certificate decides three ratio conditions, which is necessary
for the paper's special form but not a proof of it.  "F divides N" is
equivalent to N vanishing on F = 0 only when F is squarefree, so `classify`
refuses F when `_require_squarefree` finds a repeated factor.  That proof
runs at fixed integer points first.  They all lie on one line, so a
squarefree F can have a double root at every one of them (y^2 - 4*x - s + t
does: the line lies in the plane 4x + s - t = 0); then the exact gcd of F
and its partial derivative decides.  A squarefree reducible F is still
judged one component at a time, so a union of special surfaces certifies
special.

`popular_components` is an exact library scan for plane-curve components
shared by parameter slices, the paper's popular-curve step; `classify` does
not call it.  The module runs on ints and Fractions alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .polynomials import Polynomial, gcd, try_divide
from .stages import Stages


__all__ = ["FormVerdict", "PopularScan", "certify", "popular_components", "classify"]

# where the squarefree guard specializes the other three variables: each
# coordinate takes a new value at every point, so a factor in one of them,
# such as y - 2, vanishes at one point at most
_GUARD_POINTS = tuple((2 + 3 * k, -3 - 5 * k, 5 + 7 * k) for k in range(12))


class PopularScan(NamedTuple):
    """Shared slice components with the number of slices each divides."""

    components: list[tuple[Polynomial, int]]
    popular: list[tuple[Polynomial, int]]
    degenerate_params: list[tuple[Fraction | int, Fraction | int]]
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


def _require_surface(poly: Polynomial) -> None:
    if len(poly.vars) != 4:
        raise ValueError("detector requires a polynomial in 4 variables")
    if poly.is_zero:
        raise ValueError("detector requires a nonzero polynomial")


def popular_components(
    poly: Polynomial,
    params: Sequence[tuple[Fraction | int, Fraction | int]],
) -> PopularScan:
    """Exact scan for plane-curve components shared by parameter slices.

    Each (c, d) fixes the last two variables, giving a bivariate slice in the
    first two.  Pairwise GCDs of the slices propose candidate components;
    each candidate is then charged with the number of slices it divides.  A
    component dividing more than deg(F)^2 slices is flagged popular.
    Parameters whose slice vanishes identically are set aside.  F must be a
    nonzero polynomial in 4 variables, as for the detector.
    """
    _require_surface(poly)
    vc, vd = poly.vars[2], poly.vars[3]
    slices: list[Polynomial] = []
    degenerate: list[tuple[Fraction | int, Fraction | int]] = []
    for c, d in params:
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
            g = gcd(slices[i], slices[j])
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
    free variable along the surface, keyed like `_ratio_pairs`.

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
    """Raise ValueError if F has a repeated factor.

    A repeated factor G^2 with G in v gives F degree at least 2 in v, so only
    such v are checked.  The other three variables are set to each of
    `_GUARD_POINTS` in turn, giving a `Polynomial` u in v alone; a point where
    u's degree falls below F's degree in v is skipped.  One point where
    `gcd(u, u')` is 1 proves that no repeated factor of F involves v; if
    F = G^2 H with G involving v, no point does.  Then `gcd(F, F_v)` decides:
    it involves v exactly when a repeated factor of F does.  A squarefree F
    reaches it only if u has a double root at every guard point.
    """
    _require_surface(poly)
    for v in poly.vars:
        degree = poly.degree_in(v)
        if degree < 2:
            continue
        others = [w for w in poly.vars if w != v]
        for point in _GUARD_POINTS:
            u = poly.specialize(dict(zip(others, point)))
            if (u.degree_in(v) == degree
                    and gcd(u, u.partial(v)).total_degree == 0):
                break
        else:
            if gcd(poly, poly.partial(v)).degree_in(v) > 0:
                raise ValueError(f"F is not squarefree in {v!r}: a repeated factor would "
                                 f"make the certificate unreliable")


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
