"""Seeded random instance generators shared by unit and acceptance tests."""

import math
from fractions import Fraction

import numpy as np

from quadcount.geometry import PointSet3
from quadcount.polynomials import Polynomial
from quadcount.zerocount import GridSets

V4 = ("x", "y", "s", "t")


def random_grid_instance(rng):
    """Small random polynomial plus four random candidate sets."""
    terms = {}
    for _ in range(int(rng.integers(2, 6))):
        exp = tuple(int(e) for e in rng.integers(0, 2, size=4))
        terms[exp] = Fraction(int(rng.integers(-4, 5)))
    poly = Polynomial(V4, terms)
    sizes = rng.integers(1, 9, size=4)
    sets = GridSets.from_values(
        *(
            rng.choice(np.arange(-6, 7), size=size, replace=False).tolist()
            for size in sizes
        )
    )
    return poly, sets


def random_mixed_point_instance(rng):
    """3D points drawn from a mixture of generic, coplanar-cluster, and
    collinear-cluster distributions; None when too few distinct points."""
    n = int(rng.integers(5, 13))
    rows = []
    style = rng.integers(3)
    coords = lambda: [int(v) for v in rng.integers(-4, 5, size=3)]
    if style >= 1:  # coplanar cluster in z = 0
        for _ in range(int(rng.integers(3, 6))):
            x, y, _ = coords()
            rows.append((x, y, 0))
    if style >= 2:  # collinear cluster
        base, step = coords(), [1, 1, 2]
        for k in range(int(rng.integers(3, 6))):
            rows.append(tuple(b + k * s for b, s in zip(base, step)))
    while len(rows) < n:
        rows.append(tuple(coords()))
    unique = list(dict.fromkeys(rows))
    if len(unique) < 4:
        return None
    return PointSet3.from_rows(unique)


def zero_sum_subsets(n, k):
    """k-subsets of Z_n summing to 0 mod n (closed form by Moebius inversion).

    N_k(n) = (1/n) sum over d | gcd(n, k) of
    (-1)^(k + k/d) phi(d) C(n/d, k/d).
    """
    def phi(d):
        return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)

    g = math.gcd(n, k)
    total = sum(
        (-1) ** (k + k // d) * phi(d) * math.comb(n // d, k // d)
        for d in range(1, g + 1) if g % d == 0
    )
    assert total % n == 0
    return total // n
