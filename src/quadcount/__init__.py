"""quadcount: exact counting of structured quadruples.

Zeros of a quadrivariate polynomial on a product of four sets, coplanar
quadruples on space curves, collinear triples, four-point circles, a
detector for additively separable polynomial structure, and a harness that
fits the growth exponents these counts exhibit.
"""

from .constructions import (
    ApGrid,
    CurvePoint,
    EllipticConfig,
    IDENTITY,
    angle,
    ap_grid,
    coplanar_index_oracle,
    embed_quartic,
    group_add,
    group_neg,
    make_curve,
    moment_curve_points,
    point_at_angle,
    torsion_points,
)
from .geometry import (
    CountReport,
    PointSet2,
    PointSet3,
    collinear_triples,
    concyclic_quadruples_naive,
    coplanar_fast,
    coplanar_naive,
    four_point_circles,
)
from .harness import ExperimentSeries, fit_slope, run_series
from .polynomials import (
    PolyParseError,
    Polynomial,
    bivariate_gcd,
    parse_poly,
    try_divide,
)
from .separability import FormVerdict, certify, classify, popular_components
from .zerocount import GridSets, ZeroCountReport, count_fiber, count_naive

__version__ = "0.1.0"

__all__ = [
    "ApGrid", "CurvePoint", "EllipticConfig", "IDENTITY", "angle", "ap_grid",
    "coplanar_index_oracle", "embed_quartic", "group_add", "group_neg",
    "make_curve", "moment_curve_points", "point_at_angle", "torsion_points",
    "CountReport", "PointSet2", "PointSet3", "collinear_triples",
    "concyclic_quadruples_naive", "coplanar_fast", "coplanar_naive",
    "four_point_circles",
    "ExperimentSeries", "fit_slope", "run_series",
    "PolyParseError", "Polynomial", "bivariate_gcd", "parse_poly", "try_divide",
    "FormVerdict", "certify", "classify", "popular_components",
    "GridSets", "ZeroCountReport", "count_fiber", "count_naive",
]
