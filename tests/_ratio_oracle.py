"""The float fiber sampler: the oracle that tests check `certify` against.

`ratio_test` estimates one of the three ratio conditions that
`quadcount.separability.certify` decides exactly.  It walks fibers of the
real surface F = 0 and measures the spread of F_u/F_v as the free variable
moves with the pair (u, v) frozen.  It shares no code with the certificate:
it runs on Python floats, finds slice roots with `np.roots` and draws its
frozen pair, base point and root pick from `random.Random(seed)`.

The thresholds are fixed module constants, so a spread depends on F, the
pair, the seed and the number of trials alone.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from typing import Sequence

import numpy as np

from quadcount.polynomials import Polynomial

SAMPLING_BOX = 2.0        # coordinates are drawn from [-SAMPLING_BOX, SAMPLING_BOX]
RESIDUAL_TOL = 1e-12      # |F| at an accepted surface point
GRADIENT_FLOOR = 1e-8     # minimum |partial derivative| at a regular sample
RATIO_PASS = 1e-6         # ratio spread below this passes the independence test
RATIO_FAIL = 1e-2         # ratio spread above this is a decisive failure
_POSITIONS = 5            # points per fiber walk

# Why a fiber walk was abandoned: the slice had no real root Newton could
# polish, a walked point left the surface, a gradient component fell below
# the floor, or Newton continuation lost the fiber.
_REJECTIONS = ("no_real_root", "residual", "gradient_floor", "continuation")


class DegenerateSurfaceError(RuntimeError):
    """The sampler could not produce enough regular surface points."""


class _FloatForm:
    """Float view of an exact polynomial: `(coeff, factors)` terms, where
    `factors` lists `(variable index, exponent)` for the nonzero exponents."""

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


class _Surface:
    """Float-side solver for y, the second declared variable, on F = 0.

    The univariate slice in y is rebuilt from a coefficient profile
    precomputed over the other three variables.
    """

    def __init__(self, poly: Polynomial):
        if len(poly.vars) != 4:
            raise ValueError("detector requires a polynomial in 4 variables")
        if poly.is_zero:
            raise ValueError("detector requires a nonzero polynomial")
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

    def newton(self, coeffs: list[float], y: float) -> float | None:
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
        """All real solutions of the univariate slice, polished by Newton.

        Coefficients below 1e-13 of the largest are trimmed from the top.  A
        complex pair from `np.roots` with |imag| <= 1e-8 (1 + |r|) counts as
        a double root at its real part.
        """
        coeffs = self.slice_coeffs(x, s, t)
        scale = max(abs(c) for c in coeffs)
        if scale == 0.0:
            return []
        trimmed = list(coeffs)
        while trimmed and abs(trimmed[-1]) < 1e-13 * scale:
            trimmed.pop()
        if len(trimmed) < 2:
            return []
        out: list[float] = []
        for r in np.roots(trimmed[::-1]):
            if abs(r.imag) > 1e-8 * (1.0 + abs(r)):
                continue
            y = self.newton(coeffs, float(r.real))
            if y is not None and all(abs(y - prev) > 1e-9 * (1.0 + abs(y)) for prev in out):
                out.append(y)
        out.sort()
        return out


def ratio_test(
    poly: Polynomial,
    pair: tuple[str, str],
    trials: int = 50,
    seed: int = 0,
    counts: Counter | None = None,
) -> float:
    """Max relative spread of F_num/F_den along fibers of the surface.

    The two `pair` variables are held fixed per trial, the remaining free
    variable walks along the fiber (the solved variable is re-solved by
    Newton continuation at each step), and the ratio of the two partial
    derivatives is recorded at every position.  For a separable polynomial
    the ratio is a function of the frozen pair only, so its spread along the
    fiber vanishes up to solver noise.  Each walk adds one "attempts" to
    `counts`, and each abandoned one its reason (see `_REJECTIONS`).
    """
    # zero walks would report a zero spread, which reads as a pass
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # random.Random(-n) draws the same stream as Random(n)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    surf = _Surface(poly)
    counts = Counter() if counts is None else counts
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
        counts["attempts"] += 1
        frozen_vals = {v: rng.uniform(-SAMPLING_BOX, SAMPLING_BOX) for v in pair}
        base = rng.uniform(-SAMPLING_BOX, SAMPLING_BOX - step * (_POSITIONS - 1))

        def slice_args(free_val: float) -> tuple[float, float, float]:
            c = dict(frozen_vals)
            c[free] = free_val
            return (c[names[0]], c[names[2]], c[names[3]])

        roots = surf.solve_y(*slice_args(base))
        if not roots:
            counts["no_real_root"] += 1
            continue
        y = roots[rng.randrange(len(roots))]
        ratios: list[float] = []
        rejected = None
        for k in range(_POSITIONS):
            free_val = base + k * step
            if k > 0:
                y = surf.newton(surf.slice_coeffs(*slice_args(free_val)), y)
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
            grad = tuple(g(pt) for g in surf.grads)
            if any(abs(g) < GRADIENT_FLOOR for g in grad):
                rejected = "gradient_floor"
                break
            ratios.append(grad[num_idx] / grad[den_idx])
        if rejected is not None:
            counts[rejected] += 1
            continue
        spread = (max(ratios) - min(ratios)) / (abs(statistics.median(ratios)) + 1e-12)
        max_spread = max(max_spread, spread)
        successes += 1
    if successes < trials:
        raise DegenerateSurfaceError(
            f"ratio test completed only {successes}/{trials} fiber walks"
        )
    return max_spread
