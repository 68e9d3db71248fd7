"""Growth experiments over n with log-log slope fitting.

A named experiment pairs a builder, which maps n to a configuration, with
an exact counter of that configuration.  A run sweeps n and reports two
estimates of the growth exponent from the rows with positive counts:

- `slope`, the ordinary least-squares slope of log(count) against log(n);
- `exponent`, the first-order Richardson extrapolation of the log-log
  slopes of the last three rows (`extrapolated_exponent`).

Exact counts often carry a 1/n deficit, c(n) = K n^a (1 + b/n + ...): the
torsion construction's count is n^3/24 (1 - 10/n + ...).  Every slope over
a finite range then sits above a (3.2813 for that count at n = 16..128),
while the extrapolation cancels the b/n term and reads 2.9934.  The
progression-grid and torsion constructions sit on the exponent-3 side;
generic grids and the degree-3 control curve stay measurably below it.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple, Sequence

from . import constructions, geometry, zerocount
from .polynomials import VARS, parse_poly
from .stages import Stages

__all__ = ["SeriesRow", "ExperimentSeries", "fit_slope", "extrapolated_exponent",
           "run_series", "EXPERIMENTS"]


class SeriesRow(NamedTuple):
    n: int
    count: int
    elapsed_ms: float


class ExperimentSeries(NamedTuple):
    """`experiment` is the name in `EXPERIMENTS`; `slope` is `fit_slope`'s and
    `exponent` is `extrapolated_exponent`'s estimate, both None when fewer
    than three rows have positive counts; `stages` holds the seconds each
    row spent building its configuration ("build_<n>") and counting it
    ("count_<n>"); the JSON reports None as {}."""

    experiment: str
    rows: list[SeriesRow]
    slope: float | None
    exponent: float | None
    intercept: float | None
    residual: float | None
    stages: dict[str, float] | None = None

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "rows": [[r.n, r.count, r.elapsed_ms] for r in self.rows],
            "slope": self.slope,
            "exponent": self.exponent,
            "intercept": self.intercept,
            "residual": self.residual,
            "stages": self.stages or {},
        }

    def to_csv(self) -> str:
        lines = ["n,count,elapsed_ms"]
        for r in self.rows:
            lines.append(f"{r.n},{r.count},{r.elapsed_ms:.3f}")
        for name, value in (("exponent", self.exponent), ("slope", self.slope)):
            lines.append(f"{name},{'undefined' if value is None else f'{value:.6f}'},")
        return "\n".join(lines) + "\n"


def fit_slope(points: Sequence[tuple[int, int]]) -> tuple[float, float, float]:
    """Least-squares slope, intercept, RMS residual of log(count) vs log(n).

    Points with count <= 0 are excluded; at least two must remain.
    """
    data = [(math.log(n), math.log(c)) for n, c in points if c > 0]
    if len(data) < 2:
        raise ValueError("need at least 2 points with positive counts")
    xs = [d[0] for d in data]
    ys = [d[1] for d in data]
    k = len(data)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all n equal")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residual = math.sqrt(
        sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / k
    )
    return slope, intercept, residual


def extrapolated_exponent(points: Sequence[tuple[int, int]]) -> float:
    """Growth exponent from the last three points with count > 0.

    For c(n) = K n^a (1 + b/n + O(n^-2)) the log-log slope between n_i and
    n_j is s_ij = a + b g_ij + O(n^-2), with
    g_ij = (1/n_j - 1/n_i) / ln(n_j/n_i).  Two consecutive slopes solve for
    a, cancelling the 1/n term: a = (s12 g01 - s01 g12) / (g01 - g12).
    When the n double this is 2 s12 - s01.  The n must increase strictly,
    and at least three points with count > 0 must remain.
    """
    data = [(n, c) for n, c in points if c > 0]
    if len(data) < 3:
        raise ValueError("need at least 3 points with positive counts")
    (n0, c0), (n1, c1), (n2, c2) = data[-3:]
    if not n0 < n1 < n2:
        raise ValueError("n must increase strictly")
    l01, l12 = math.log(n1 / n0), math.log(n2 / n1)
    s01, s12 = math.log(c1 / c0) / l01, math.log(c2 / c1) / l12
    g01, g12 = (1 / n1 - 1 / n0) / l01, (1 / n2 - 1 / n1) / l12
    return (s12 * g01 - s01 * g12) / (g01 - g12)


# -- experiment registry -------------------------------------------------------
#
# An experiment maps n to a configuration and that configuration to an exact
# count.  Each step calls its layer through the module attribute, at call
# time, so that a wrapper put on that attribute sees the call.


class _GridConfig(NamedTuple):
    poly: object
    sets: object


def _nonspecial_grid(n: int) -> _GridConfig:
    poly = parse_poly("t - (x + y*s)", VARS)
    values = range(1, n + 1)
    sets = zerocount.GridSets.from_values(values, values, values, values)
    return _GridConfig(poly, sets)


def _elliptic(n: int):
    cfg = constructions.make_curve()
    pts = constructions.torsion_points(cfg, n)[1:]  # strip the identity
    return constructions.embed_quartic(cfg, pts)


def _count_fiber(config) -> int:
    return zerocount.count_fiber(config.poly, config.sets).count


def _count_coplanar_naive(points) -> int:
    # the torsion construction's float points, at the default tolerance
    # validated on them (`geometry.TORSION_COPLANAR_TOL`)
    return geometry.coplanar_naive(points).count


# name -> (build: n -> configuration, count: configuration -> int)
EXPERIMENTS: dict[str, tuple[Callable, Callable]] = {
    "ap-additive-zeros": (lambda n: constructions.ap_grid("additive", n), _count_fiber),
    "ap-multiplicative-zeros": (lambda n: constructions.ap_grid("multiplicative", n),
                                _count_fiber),
    "nonspecial-grid-zeros": (_nonspecial_grid, _count_fiber),
    "elliptic-coplanar": (_elliptic, _count_coplanar_naive),
    # the index oracle counts the order-n torsion subgroup from n alone
    "elliptic-oracle": (lambda n: n, lambda n: constructions.coplanar_index_oracle(n)),
    "moment-coplanar": (lambda n: constructions.moment_curve_points(n),
                        lambda points: geometry.coplanar_fast(points).count),
}


def run_series(experiment: str, n_list: Sequence[int]) -> ExperimentSeries:
    """Build each configuration, count it, and estimate the growth exponent.

    The estimates need at least three rows with positive counts; otherwise
    the series is still returned with slope and exponent reported as
    undefined.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    n_list = list(n_list)
    # strictly increasing, so a first n >= 1 bounds them all; an n < 1 would
    # build an empty configuration and report a zero count
    if len(n_list) < 3 or n_list[0] < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing from n >= 1 with length >= 3")
    build, count_fn = EXPERIMENTS[experiment]
    rows: list[SeriesRow] = []
    stages = Stages()
    for n in n_list:
        start = time.perf_counter()
        with stages.timed(f"build_{n}"):
            config = build(n)
        with stages.timed(f"count_{n}"):
            count = count_fn(config)
        rows.append(SeriesRow(n, count, (time.perf_counter() - start) * 1000.0))
    positives = [(r.n, r.count) for r in rows if r.count > 0]
    if len(positives) >= 3:
        slope, intercept, residual = fit_slope(positives)
        exponent = extrapolated_exponent(positives)
    else:
        slope = exponent = intercept = residual = None
    return ExperimentSeries(experiment, rows, slope, exponent, intercept, residual,
                            stages.seconds)
