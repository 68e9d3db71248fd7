"""Growth experiments over n with log-log slope fitting.

A run pairs a configuration generator with a counter, sweeps n, and fits
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
from .polynomials import parse_poly
from .stages import Stages

__all__ = ["SeriesRow", "ExperimentSeries", "fit_slope", "run_series",
           "GENERATORS", "COUNTERS", "EXPERIMENTS"]


class SeriesRow(NamedTuple):
    n: int
    count: int
    elapsed_ms: float


class ExperimentSeries(NamedTuple):
    """`stages` holds the seconds each row spent building its configuration
    ("build_<n>") and counting it ("count_<n>"); the JSON reports None as {}."""

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


# -- generator / counter registry ----------------------------------------------
#
# A generator maps n to a configuration; a counter maps a configuration to an
# exact count.  The registry records which pairs make sense so that a
# mismatch fails fast.


class _GridConfig(NamedTuple):
    poly: object
    sets: object


def _gen_ap_additive(n: int):
    return constructions.ap_grid("additive", n)

def _gen_ap_multiplicative(n: int):
    return constructions.ap_grid("multiplicative", n)


def _gen_nonspecial_grid(n: int):
    poly = parse_poly("t - (x + y*s)", ("x", "y", "s", "t"))
    values = [Fraction(i) for i in range(1, n + 1)]
    sets = zerocount.GridSets.from_values(values, values, values, values)
    return _GridConfig(poly, sets)


def _gen_elliptic(n: int):
    cfg = constructions.make_curve()
    pts = constructions.torsion_points(cfg, n)[1:]  # strip the identity
    return constructions.embed_quartic(cfg, pts)


def _gen_moment(n: int):
    return constructions.moment_curve_points(n)


def _gen_torsion_index(n: int):
    # the index oracle counts the order-n torsion subgroup from n alone
    return n


GENERATORS: dict[str, tuple[Callable, str]] = {
    # name -> (builder, configuration family)
    "ap-additive": (_gen_ap_additive, "grid"),
    "ap-multiplicative": (_gen_ap_multiplicative, "grid"),
    "nonspecial-grid": (_gen_nonspecial_grid, "grid"),
    "elliptic": (_gen_elliptic, "points3"),
    "moment": (_gen_moment, "points3"),
    "torsion-index": (_gen_torsion_index, "index"),
}


def _count_grid_naive(config) -> int:
    return zerocount.count_naive(config.poly, config.sets).count

def _count_grid_fiber(config) -> int:
    return zerocount.count_fiber(config.poly, config.sets).count

def _count_coplanar_naive(points) -> int:
    # float points come from the torsion construction; its determinant gap
    # was measured at >= 1e-10 * scale for n <= 32, so 1e-12 separates cleanly.
    tol = constructions.TORSION_COPLANAR_TOL if points.kind == "float" else 1e-7
    return geometry.check_margin(geometry.coplanar_naive(points, tol=tol)).count

def _count_coplanar_fast(points) -> int:
    return geometry.coplanar_fast(points).count


COUNTERS: dict[str, tuple[Callable, str]] = {
    "naive": (_count_grid_naive, "grid"),
    "fiber": (_count_grid_fiber, "grid"),
    "coplanar-naive": (_count_coplanar_naive, "points3"),
    "coplanar-fast": (_count_coplanar_fast, "points3"),
    "index-oracle": (constructions.coplanar_index_oracle, "index"),
}

# Named experiments exposed on the command line.
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "ap-additive-zeros": ("ap-additive", "fiber"),
    "ap-multiplicative-zeros": ("ap-multiplicative", "fiber"),
    "nonspecial-grid-zeros": ("nonspecial-grid", "fiber"),
    "elliptic-coplanar": ("elliptic", "coplanar-naive"),
    "elliptic-oracle": ("torsion-index", "index-oracle"),
    "moment-coplanar": ("moment", "coplanar-fast"),
}


def run_series(
    generator: str,
    counter: str,
    n_list: Sequence[int],
) -> ExperimentSeries:
    """Build each configuration, count it, and fit the growth exponent.

    The fit needs at least three rows with positive counts; otherwise the
    series is still returned with slope reported as undefined.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    if counter not in COUNTERS:
        raise ValueError(f"unknown counter {counter!r}")
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing with length >= 3")
    build, family = GENERATORS[generator]
    count_fn, needs = COUNTERS[counter]
    if needs != family:
        raise ValueError(
            f"counter {counter!r} expects a {needs!r} configuration, "
            f"generator {generator!r} builds {family!r}"
        )
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
    return ExperimentSeries(f"{generator}/{counter}", rows, slope, intercept, residual,
                            stages.seconds)
