"""Counting zeros of a quadrivariate polynomial on a product of four sets.

Two routes to the same number.  `count_naive` builds, for every (a, b, c),
the coefficient vector of F in the last variable, tallies equal vectors, and
evaluates each distinct vector at every d: no root is ever solved for.
`count_fiber` fixes three coordinates and solves the remaining univariate
slice exactly (degree 1 by division, degree 2 by an integer square root of
the discriminant) against a hashed candidate set, scanning the candidates
only from degree 3 up.  The two share no counting code and must agree
exactly; the naive route is the ground truth.

Both routes first clear denominators.  Set i is scaled by the lcm L_i of its
denominators, and F is replaced by G(X) = m * F(X_1/L_1, ..., X_4/L_4), where
m is the lcm of the coefficient denominators of F(X/L).  The map
a -> (L_1 a_1, ..., L_4 a_4) is a bijection of A x B x C x D onto the scaled
grid, and F(a) = 0 exactly when G(L a) = 0, so every zero survives and all
counting arithmetic runs on Python ints.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import compress
from operator import add, not_
from typing import NamedTuple, Sequence

from .polynomials import Frozen, Polynomial, clear_denominators, exact
from .stages import Stages

__all__ = ["GridSets", "ZeroCountReport", "count_naive", "count_fiber"]


class GridSets(Frozen):
    """Four finite sets of `exact` values, bound to a polynomial's variables
    in declared order.  Sizes may differ; values within a set are distinct.

    A `Frozen` record: equal when the sets are equal.
    """

    __slots__ = ("sets",)
    _fields = ("sets",)

    def __init__(self, sets: tuple[tuple[Fraction | int, ...], ...]) -> None:
        if len(sets) != 4:
            raise ValueError(f"expected 4 sets, got {len(sets)}")
        for i, values in enumerate(sets):
            if len(set(values)) != len(values):
                raise ValueError(f"set #{i} contains repeated values")
        object.__setattr__(self, "sets", sets)

    @classmethod
    def from_values(cls, a: Sequence, b: Sequence, c: Sequence, d: Sequence) -> GridSets:
        return cls(tuple(tuple(map(exact, vs)) for vs in (a, b, c, d)))

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return tuple(len(s) for s in self.sets)  # type: ignore[return-value]


class ZeroCountReport(NamedTuple):
    """`stages` holds the seconds spent clearing denominators, building the
    power tables (naive) or the coefficient profile (fiber), and counting;
    the JSON reports None as {}.

    `degenerate_fibers` counts the fibers whose slice in the solved variable
    (the last one, for a naive report) vanishes identically.  A fiber report
    also gives `slice_degrees`, the number of fibers whose trimmed slice has
    degree k at index k, and a naive report `distinct_fibers`, the number of
    distinct coefficient vectors it evaluated.  The JSON leaves out
    whichever is None."""

    count: int
    method: str
    degenerate_fibers: int
    elapsed: float
    sizes: tuple[int, int, int, int]
    stages: dict[str, float] | None = None
    slice_degrees: tuple[int, ...] | None = None
    distinct_fibers: int | None = None

    def to_json(self) -> dict:
        out = {
            "count": self.count,
            "method": self.method,
            "degenerate_fibers": self.degenerate_fibers,
            "elapsed_s": self.elapsed,
            "sizes": list(self.sizes),
            "stages": self.stages or {},
        }
        if self.slice_degrees is not None:
            out["slice_degrees"] = list(self.slice_degrees)
        if self.distinct_fibers is not None:
            out["distinct_fibers"] = self.distinct_fibers
        return out


def _cleared(poly: Polynomial, sets: GridSets) -> tuple[Polynomial, list[list[int]]]:
    """The integer polynomial G and the scaled sets of the module docstring."""
    if len(poly.vars) != 4:
        raise ValueError(f"expected a polynomial in 4 variables, got {len(poly.vars)}")
    scales, int_sets = zip(*(clear_denominators(values) for values in sets.sets))
    _, coeffs = clear_denominators(
        Fraction(c, math.prod(scale ** e for scale, e in zip(scales, exp)))
        for exp, c in poly.terms.items()
    )
    return Polynomial(poly.vars, dict(zip(poly.terms, coeffs))), list(int_sets)


def count_naive(poly: Polynomial, sets: GridSets) -> ZeroCountReport:
    """Exact |{(a,b,c,d) in A x B x C x D : poly(a,b,c,d) = 0}| by evaluating
    F at every quadruple, once per distinct fiber.

    Each (a, b, c) gives the coefficient vector of F(a, b, c, t) in the last
    variable t, built a whole C column at a time from the term table.  Equal
    vectors have the same zeros, so they are tallied, and every distinct
    vector is evaluated at each d and counted with its multiplicity: |A||B|
    column builds plus (distinct fibers) * |D| evaluations."""
    start = time.perf_counter()
    stages = Stages()
    with stages.timed("clear_denominators"):
        g, int_sets = _cleared(poly, sets)
    with stages.timed("power_tables"):
        degrees = [g.degree_in(name) for name in g.vars]
        # powers[i][j][e] = (j-th value of set i) ** e for A and B;
        # c_columns[e] = every c ** e; d_powers[j] = d_j ** 1, d_j ** 2, ...
        powers = [
            [[v ** e for e in range(deg + 1)] for v in values]
            for deg, values in zip(degrees[:2], int_sets)
        ]
        c_columns = [[c ** e for c in int_sets[2]] for e in range(degrees[2] + 1)]
        d_powers = [[d ** e for e in range(1, degrees[3] + 1)] for d in int_sets[3]]
        terms = [(c, *exp) for exp, c in g.terms.items()]
    fibers: Counter[tuple[int, ...]] = Counter()
    zero_c = [0] * len(int_sets[2])
    count = 0
    with stages.timed("count"):
        for pa in powers[0]:
            ta = [(k * pa[e0], e1, e2, e3) for k, e0, e1, e2, e3 in terms]
            for pb in powers[1]:
                # cols[e3][j]: the coefficient of t^e3 at the j-th c
                cols = [zero_c] * (degrees[3] + 1)
                for k, e1, e2, e3 in ta:
                    cols[e3] = map(add, cols[e3], map((k * pb[e1]).__mul__, c_columns[e2]))
                fibers.update(zip(*cols))
        # columns[e][i]: the coefficient of t^e in the i-th distinct vector
        # (one empty column when C is empty)
        columns = list(zip(*fibers)) or [()]
        multiplicities = list(fibers.values())
        for row in d_powers:
            values = columns[0]
            for p, column in zip(row, columns[1:]):
                values = map(add, values, map(p.__mul__, column))
            count += sum(compress(multiplicities, map(not_, values)))
    degenerate = fibers[(0,) * (degrees[3] + 1)]  # fibers with the all-zero vector
    return ZeroCountReport(count, "naive", degenerate, time.perf_counter() - start, sets.sizes,
                           stages.seconds, distinct_fibers=len(fibers))


def _bind(terms: list[tuple[int, ...]], value: int) -> list[tuple[int, ...]]:
    # substitute `value` for the leading variable of each (coeff, e, *rest)
    # term and merge the terms that then coincide
    out: dict[tuple[int, ...], int] = {}
    for k, e, *rest in terms:
        key = tuple(rest)
        out[key] = out.get(key, 0) + k * value ** e
    return [(k, *rest) for rest, k in out.items() if k]


def count_fiber(
    poly: Polynomial, sets: GridSets, solve_var: str | None = None
) -> ZeroCountReport:
    """Same count as `count_naive`, solving one coordinate per fiber.

    The coefficients of F in the solved variable are bound to the first two
    loop coordinates term by term, then evaluated as whole columns over the
    third.  Each slice is trimmed of vanishing top coefficients.  Degree-1
    slices are solved by exact division; a degree-2 slice has integer roots
    only when its discriminant is a perfect square, and then they are
    (-c1 +- isqrt(disc)) / (2 c2), a double root counted once.  The roots are
    looked up in a hash of the candidate set.  Slices of degree 3 and up scan
    the candidates by Horner, and identically vanishing slices contribute
    the whole candidate set.
    """
    if solve_var is None:
        solve_var = poly.vars[-1]
    if solve_var not in poly.vars:
        raise ValueError(f"undeclared variable {solve_var!r}")
    start = time.perf_counter()
    stages = Stages()
    with stages.timed("clear_denominators"):
        g, int_sets = _cleared(poly, sets)
    solve_idx = g.vars.index(solve_var)
    s1, s2, s3 = (int_sets[i] for i in range(4) if i != solve_idx)
    solve_values = int_sets[solve_idx]
    candidates = set(solve_values)
    with stages.timed("profile"):
        # profile[k]: the (coeff, e1, e2, e3) terms of the coefficient of solve_var^k
        profile = [
            [(c, *exp) for exp, c in p.terms.items()] for p in g.coefficients_in(solve_var)
        ]
        # c_columns[e] = every value of the third loop coordinate ** e
        c_degree = max((term[-1] for terms in profile for term in terms), default=0)
        c_columns = [[c ** e for c in s3] for e in range(c_degree + 1)]
    top = len(profile) - 1
    zero_c = [0] * len(s3)
    count = degenerate = 0
    by_degree = [0] * (top + 1)
    with stages.timed("count"):
        for a in s1:
            pa = [_bind(terms, a) for terms in profile]
            for b in s2:
                cols = []
                for terms in pa:
                    col = zero_c
                    for k, e in _bind(terms, b):
                        col = map(add, col, map(k.__mul__, c_columns[e]))
                    cols.append(col)
                for co in zip(*cols):
                    deg = top
                    while deg >= 0 and not co[deg]:
                        deg -= 1
                    if deg < 0:
                        # the fiber is a full line through the candidate set
                        count += len(solve_values)
                        degenerate += 1
                        continue
                    by_degree[deg] += 1
                    if deg == 1:
                        root, rem = divmod(-co[0], co[1])
                        if not rem and root in candidates:
                            count += 1
                    elif deg == 2:
                        c0, c1, c2 = co[:3]
                        disc = c1 * c1 - 4 * c2 * c0
                        if disc < 0:
                            continue
                        r = math.isqrt(disc)
                        if r * r != disc:
                            continue
                        root, rem = divmod(r - c1, 2 * c2)
                        if not rem and root in candidates:
                            count += 1
                        if r:
                            root, rem = divmod(-r - c1, 2 * c2)
                            if not rem and root in candidates:
                                count += 1
                    elif deg > 2:
                        coeffs = co[deg::-1]
                        for v in solve_values:
                            acc = 0
                            for k in coeffs:
                                acc = acc * v + k
                            if acc == 0:
                                count += 1
    return ZeroCountReport(count, "fiber", degenerate, time.perf_counter() - start, sets.sizes,
                           stages.seconds, slice_degrees=tuple(by_degree))
