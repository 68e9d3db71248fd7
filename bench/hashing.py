"""Layer bench for exact pivot hashing: coplanar quadruples, collinear
triples and four-point circles.

Times `coplanar_fast`, `collinear_triples` and `four_point_circles` in
process on the seven hashing inputs of the `incidences-numeric` benchmark
(the random sets are drawn as `perfbench/workloads.py` draws them at seed
1), and one cold `count-*` job per input, from interpreter start to exit.
Every timing is written next to the count, `lines`, `planes`, `circles` and
degeneracy it produced, so a speedup that changes a result shows in the
same file.

    python bench/hashing.py [--out PATH] [--baseline-src DIR]

Trees, repeats and checks are those of `_driver.py`.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _driver  # noqa: E402

COUNTERS = {"coplanar": "coplanar_fast", "collinear": "collinear_triples",
            "circles": "four_point_circles"}


def inputs() -> list[tuple[str, str, list[tuple[int, ...]]]]:
    """(name, kind, integer points) of the benchmark's hashing jobs."""
    rng = random.Random("incidences-numeric:1")
    lattice: set[tuple[int, int]] = set()
    while len(lattice) < 100:
        lattice.add((rng.randint(-30, 30), rng.randint(-30, 30)))
    scattered: set[tuple[int, int]] = set()
    while len(scattered) < 200:
        scattered.add((rng.randint(-20, 20), rng.randint(-20, 20)))
    return [
        ("moment-90", "coplanar", [(t, t * t, t ** 3) for t in range(1, 91)]),
        ("moment-110", "coplanar", [(t, t * t, t ** 3) for t in range(1, 111)]),
        ("lattice-5", "coplanar",
         [(x, y, z) for x in range(5) for y in range(5) for z in range(5)]),
        ("circles-random-100", "circles", sorted(lattice)),
        ("circles-grid-10", "circles", [(x, y) for x in range(10) for y in range(10)]),
        ("collinear-grid-25", "collinear", [(x, y) for x in range(25) for y in range(25)]),
        ("collinear-random-200", "collinear", sorted(scattered)),
    ]


def result(report: dict) -> dict:
    """The fields of a report that must not change with the timing."""
    return {key: report[key] for key in ("count", "circles", "lines", "planes", "degeneracy")
            if key in report}


def jobs(tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, cold argv) per input; writes each input's points into `tmp`."""
    out = []
    for name, kind, points in inputs():
        (tmp / f"{name}.csv").write_text("".join(",".join(map(str, p)) + "\n" for p in points))
        out.append((name, [f"count-{kind}", "--points", f"{name}.csv"]))
    return out


def worker(name: str) -> dict:
    """The in-process row of one input."""
    import quadcount
    from quadcount import geometry

    kind, points = next((k, p) for n, k, p in inputs() if n == name)
    pointset = (geometry.PointSet3 if kind == "coplanar" else geometry.PointSet2).from_rows(points)
    count = getattr(quadcount, COUNTERS[kind])
    reports, seconds = _driver.repeat(lambda: count(pointset), lambda r: result(r.to_json()))
    return {"counter": COUNTERS[kind], "points": len(points), **result(reports[0].to_json()),
            "seconds": seconds}


def totals(rows: list[dict]) -> dict:
    return {"median_total_s": _driver.total(rows),
            "cold_median_total_s": _driver.total(rows, "cold_seconds")}


def table(label: str, run: dict) -> None:
    for row in run["rows"]:
        print(f"{label:8s} {row['input']:21s} {row['count']:>8d} {median(row['seconds']):7.3f} s, "
              f"cold {median(row['cold_seconds']):.3f} s")
    print(f"{label:8s} in process {run['median_total_s']:.3f} s, "
          f"cold {run['cold_median_total_s']:.3f} s")


if __name__ == "__main__":
    sys.exit(_driver.main(__file__, __doc__, out="BENCH_hashing.json", jobs=jobs, result=result,
                          totals=totals, table=table, worker=worker))
