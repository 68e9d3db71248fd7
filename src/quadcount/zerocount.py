"""Counting zeros of a quadrivariate polynomial on a product of four sets.

Two routes to the same number: `count_naive` evaluates F at every quadruple
of the Cartesian product, `count_fiber` fixes three coordinates and solves
the remaining univariate slice against a hashed candidate set.  The two
share no counting code and must agree exactly; the naive route is the
ground truth.

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
from fractions import Fraction
from operator import add
from typing import NamedTuple, Sequence

from .polynomials import Polynomial, clear_denominators
from .stages import Stages

__all__ = ["GridSets", "ZeroCountReport", "count_naive", "count_fiber"]


class GridSets:
    """Four finite sets of exact rationals, bound to a polynomial's variables
    in declared order.  Sizes may differ; values within a set are distinct.

    Immutable: assigning an attribute raises AttributeError.  Equal when the
    sets are equal.
    """

    __slots__ = ("sets",)

    def __init__(self, sets: tuple[tuple[Fraction, ...], ...]) -> None:
        if len(sets) != 4:
            raise ValueError(f"expected 4 sets, got {len(sets)}")
        for i, values in enumerate(sets):
            if len(set(values)) != len(values):
                raise ValueError(f"set #{i} contains repeated values")
        object.__setattr__(self, "sets", sets)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GridSets, (self.sets,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sets == other.sets

    def __hash__(self) -> int:
        return hash((self.sets,))

    def __repr__(self) -> str:
        return f"GridSets(sets={self.sets!r})"

    @classmethod
    def from_values(cls, a: Sequence, b: Sequence, c: Sequence, d: Sequence) -> GridSets:
        return cls(tuple(tuple(Fraction(v) for v in vs) for vs in (a, b, c, d)))

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return tuple(len(s) for s in self.sets)  # type: ignore[return-value]

    def product_size(self) -> int:
        n = 1
        for s in self.sets:
            n *= len(s)
        return n


class ZeroCountReport(NamedTuple):
    """`stages` holds the seconds spent clearing denominators, building the
    power tables (naive) or the coefficient profile (fiber), and counting;
    the JSON reports None as {}."""

    count: int
    method: str
    degenerate_fibers: int
    elapsed: float
    sizes: tuple[int, int, int, int]
    stages: dict[str, float] | None = None

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "method": self.method,
            "degenerate_fibers": self.degenerate_fibers,
            "elapsed_s": self.elapsed,
            "sizes": list(self.sizes),
            "stages": self.stages or {},
        }


def _cleared(poly: Polynomial, sets: GridSets) -> tuple[Polynomial, list[list[int]]]:
    """The integer polynomial G and the scaled sets of the module docstring."""
    if len(poly.vars) != 4:
        raise ValueError(f"expected a polynomial in 4 variables, got {len(poly.vars)}")
    scales, int_sets = zip(*(clear_denominators(values) for values in sets.sets))
    _, coeffs = clear_denominators(
        c / math.prod(scale ** e for scale, e in zip(scales, exp))
        for exp, c in poly.terms.items()
    )
    return Polynomial(poly.vars, dict(zip(poly.terms, coeffs))), list(int_sets)


def count_naive(poly: Polynomial, sets: GridSets) -> ZeroCountReport:
    """Exact |{(a,b,c,d) in A x B x C x D : poly(a,b,c,d) = 0}| by evaluating
    F at every quadruple.  Theta(|A||B||C||D|) point evaluations."""
    start = time.perf_counter()
    stages = Stages()
    with stages.timed("clear_denominators"):
        g, int_sets = _cleared(poly, sets)
    with stages.timed("power_tables"):
        degrees = [g.degree_in(name) for name in g.vars]
        # powers[i][j][e] = (j-th value of set i) ** e; d_columns[e] = every d ** e
        powers = [
            [[v ** e for e in range(deg + 1)] for v in values]
            for deg, values in zip(degrees[:3], int_sets)
        ]
        d_columns = [[d ** e for d in int_sets[3]] for e in range(degrees[3] + 1)]
        terms = [(int(c), *exp) for exp, c in g.terms.items()]
    count = 0
    with stages.timed("count"):
        for pa in powers[0]:
            ta = [(k * pa[e0], e1, e2, e3) for k, e0, e1, e2, e3 in terms]
            for pb in powers[1]:
                tb = [(k * pb[e1], e2, e3) for k, e1, e2, e3 in ta]
                for pc in powers[2]:
                    values = [0] * len(int_sets[3])
                    for k, e2, e3 in tb:
                        values = map(add, values, map((k * pc[e2]).__mul__, d_columns[e3]))
                    count += list(values).count(0)
    return ZeroCountReport(count, "naive", 0, time.perf_counter() - start, sets.sizes,
                           stages.seconds)


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

    The coefficients of F in the solved variable are evaluated incrementally
    over the three loop coordinates.  Degree-1 slices are solved exactly and
    looked up in a hash of the candidate set, higher-degree slices scan the
    candidates by Horner, and identically vanishing slices contribute the
    whole candidate set.
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
            [(int(c), *exp) for exp, c in p.terms.items()] for p in g.coefficients_in(solve_var)
        ]
    count = 0
    degenerate = 0
    with stages.timed("count"):
        for a in s1:
            pa = [_bind(terms, a) for terms in profile]
            for b in s2:
                pb = [_bind(terms, b) for terms in pa]
                for c in s3:
                    coeffs = [sum(k * c ** e for k, e in terms) for terms in pb]
                    while coeffs and coeffs[-1] == 0:
                        coeffs.pop()
                    if not coeffs:
                        # the fiber is a full line through the candidate set
                        count += len(solve_values)
                        degenerate += 1
                    elif len(coeffs) == 2:
                        root, rem = divmod(-coeffs[0], coeffs[1])
                        if rem == 0 and root in candidates:
                            count += 1
                    elif len(coeffs) > 2:
                        for v in solve_values:
                            acc = 0
                            for co in reversed(coeffs):
                                acc = acc * v + co
                            if acc == 0:
                                count += 1
    return ZeroCountReport(count, "fiber", degenerate, time.perf_counter() - start, sets.sizes,
                           stages.seconds)
