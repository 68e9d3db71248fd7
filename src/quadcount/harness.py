"""Growth experiments over n with log-log slope fitting.

A named experiment pairs a builder, which maps n to a configuration, with
an exact counter of that configuration.  A run sweeps n and fits
log(count) against log(n) by ordinary least squares.  The progression-grid
and torsion constructions sit on the exponent-3 side; generic grids and the
degree-3 control curve stay measurably below it.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import constructions, geometry, zerocount
from .polynomials import VARS, parse_poly
from .stages import Stages

__all__ = ["SeriesRow", "ExperimentSeries", "fit_slope", "run_series", "EXPERIMENTS"]


class SeriesRow(NamedTuple):
    n: int
    count: int
    elapsed_ms: float


class ExperimentSeries(NamedTuple):
    """`experiment` is the name in `EXPERIMENTS`; `stages` holds the seconds
    each row spent building its configuration ("build_<n>") and counting it
    ("count_<n>"); the JSON reports None as {}."""

    experiment: str
    rows: list[SeriesRow]
    slope: float | None
    intercept: float | None
    residual: float | None
    stages: dict[str, float] | None = None

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "rows": [[r.n, r.count, r.elapsed_ms] for r in self.rows],
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "stages": self.stages or {},
        }

    def to_csv(self) -> str:
        lines = ["n,count,elapsed_ms"]
        for r in self.rows:
            lines.append(f"{r.n},{r.count},{r.elapsed_ms:.3f}")
        slope = "undefined" if self.slope is None else f"{self.slope:.6f}"
        lines.append(f"slope,{slope},")
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
    values = [Fraction(i) for i in range(1, n + 1)]
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
    """Build each configuration, count it, and fit the growth exponent.

    The fit needs at least three rows with positive counts; otherwise the
    series is still returned with slope reported as undefined.
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
    else:
        slope = intercept = residual = None
    return ExperimentSeries(experiment, rows, slope, intercept, residual, stages.seconds)
