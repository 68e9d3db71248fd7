"""Layer bench for the separability detector and the coplanar index oracle.

Runs `classify` and its certificate `certify` in process on the eight
polynomials of the `incidences-numeric` benchmark (`perfbench/workloads.py`
`VERDICTS`) and on two curve polynomials whose certificate does real work,
the two calls taking turns (`_driver.alternate`), and times one cold
`detect-special` job per polynomial, from interpreter start to exit; runs
`coplanar_index_oracle` in process at the sizes of that benchmark's
`fit-exponent --experiment elliptic-oracle` job.

The curve polynomials are those of the four-point circles on y = x^4 + x
(degree 7, 127 terms) and y = x^5 (degree 10, 256 terms): four points
(u, g(u)) lie on a circle or line exactly when their lifts
(u, g(u), u^2 + g(u)^2) are coplanar, so `det[1, u_i, g(u_i), u_i^2 +
g(u_i)^2]` over u_i in x, y, s, t vanishes, and dividing it by the
Vandermonde of x, y, s, t leaves the polynomial.  Each is built in the
script (about 0.04 s) and reaches its cold job as a file in the temporary
directory.

Every timing is written next to the verdict, certificate or count it
produced, so a speedup that changes a result shows in the same file.  The
script also exits 1 when `classify` reports another certificate than
`certify` returns alone.

    python bench/detector_oracle.py [--out PATH] [--baseline-src DIR]

Trees, repeats and checks are those of `_driver.py`.
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _driver  # noqa: E402
import workloads  # noqa: E402

VARS = ("x", "y", "s", "t")
ORACLE_NS = (128, 256, 384)
# input name -> the plane curve y = g(x), as the text of g
CURVES = {"circles on y = x^4 + x": "x^4 + x", "circles on y = x^5": "x^5"}


def result(report: dict) -> dict:
    """The fields of a row or job JSON that must not change with the timing."""
    return {key: report[key] for key in ("classification", "certificate", "count")
            if key in report}


def circle_polynomial(curve: str):
    """The polynomial in x, y, s, t that vanishes where four points of the
    curve y = g(x), g the text `curve` in x, lie on a circle or line (see the
    module docstring)."""
    from quadcount import Polynomial, parse_poly, try_divide

    g = parse_poly(curve, ("x",))
    one = Polynomial.constant(VARS, 1)
    rows = []
    for name in VARS:
        u = Polynomial.variable(VARS, name)
        gu = sum((c * u ** e for (e,), c in g.terms.items()), Polynomial.zero(VARS))
        rows.append((one, u, gu, u * u + gu * gu))
    det = Polynomial.zero(VARS)
    for perm in permutations(range(4)):
        term = one if sum(a > b for a, b in combinations(perm, 2)) % 2 == 0 else -one
        for row, col in zip(rows, perm):
            term = term * row[col]
        det = det + term
    vandermonde = one
    for a, b in combinations(VARS, 2):
        vandermonde = vandermonde * (Polynomial.variable(VARS, b) - Polynomial.variable(VARS, a))
    return try_divide(det, vandermonde)


def jobs(tmp: Path) -> list[tuple[str, list[str] | None]]:
    """(name, cold argv or None) per input: the benchmark's polynomials, the
    curve polynomials (each written to a file in `tmp`), then the oracle
    sizes.  The curve polynomials are built with the `src` next to this
    directory."""
    sys.path.insert(0, str(_driver.SRC))
    curves = []
    for i, (name, curve) in enumerate(CURVES.items()):
        path = tmp / f"curve-{i}.txt"
        path.write_text(f"{circle_polynomial(curve)}\n")
        curves.append((name, ["detect-special", f"--poly={path}"]))
    return ([(text, ["detect-special", f"--poly={text}"]) for text in workloads.VERDICTS]
            + curves + [(f"oracle n={n}", None) for n in ORACLE_NS])


def worker(name: str) -> dict:
    """The in-process row of one input."""
    from quadcount import certify, classify, coplanar_index_oracle, parse_poly

    if name.startswith("oracle n="):
        n = int(name.partition("=")[2])
        counts, seconds = _driver.repeat(lambda: coplanar_index_oracle(n))
        return {"n": n, "count": counts[0], "seconds": seconds}
    poly = circle_polynomial(CURVES[name]) if name in CURVES else parse_poly(name, VARS)
    (verdicts, seconds), (certificates, certify_seconds) = _driver.alternate(
        [(lambda: classify(poly), lambda v: result(v.to_json())),
         (lambda: certify(poly), lambda c: c)])
    verdict = result(verdicts[0].to_json())
    if certificates[0] != verdict["certificate"]:
        sys.exit(f"classify reports another certificate for {name}: {verdict['certificate']}")
    return {**verdict, "seconds": seconds, "stages": [v.stages for v in verdicts],
            "certify_seconds": certify_seconds}


def totals(rows: list[dict]) -> dict:
    """Sums of medians; the detector and cold ones over the benchmark's eight
    polynomials, the curve ones over the curve polynomials."""
    polys = [row for row in rows if row["input"] in workloads.VERDICTS]
    curves = [row for row in rows if row["input"] in CURVES]
    return {"detector_median_total_s": _driver.total(polys),
            "certify_median_total_s": _driver.total(polys, "certify_seconds"),
            "oracle_median_total_s": _driver.total([row for row in rows if "n" in row]),
            "cold_median_total_s": _driver.total(polys, "cold_seconds"),
            "curve_median_total_s": _driver.total(curves),
            "curve_cold_median_total_s": _driver.total(curves, "cold_seconds")}


def table(label: str, run: dict) -> None:
    for row in run["rows"]:
        if "n" in row:
            print(f"{label:8s} oracle n={row['n']:<4d} {row['count']:>20d} "
                  f"{median(row['seconds']):7.3f} s")
        else:
            print(f"{label:8s} {row['input']:28s} {row['classification']:13s} "
                  f"{median(row['seconds']):7.3f} s, "
                  f"certify {1000 * median(row['certify_seconds']):5.2f} ms, "
                  f"cold {median(row['cold_seconds']):.3f} s")
    print(f"{label:8s} detector {run['detector_median_total_s']:.3f} s "
          f"(certify {run['certify_median_total_s']:.4f} s), "
          f"cold {run['cold_median_total_s']:.3f} s, oracle {run['oracle_median_total_s']:.3f} s, "
          f"curves {run['curve_median_total_s']:.3f} s (cold {run['curve_cold_median_total_s']:.3f} s)")


if __name__ == "__main__":
    sys.exit(_driver.main(__file__, __doc__, out="BENCH_detector_oracle.json", jobs=jobs,
                          result=result, totals=totals, table=table, worker=worker))
