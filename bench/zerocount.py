"""Layer bench for the exact zero counter: `count_naive` and `count_fiber`.

Times the 13 count jobs of the `zeros` benchmark at seed 1 (built by
`perfbench/workloads.py` itself, so the polynomials and grids are the
benchmark's own) and three larger inputs, in process:

- `t - (x + y*s)` on [1..64]^4, naive (criterion 9's largest grid);
- `t*x - y*s - 1` on [1..48]^4, naive (many distinct fibers);
- `x^2 + y^2 + s^2 + t^2 - x*y*s*t - 7` on [-24..23]^4, fiber (degree-2
  slices).

Every timing is written next to the count, `degenerate_fibers` and stage
seconds it produced, so a speedup that changes a result shows in the same
file; the benchmark jobs are also checked against the workload's own
integer references.

    python bench/zerocount.py [--out PATH] [--baseline-src DIR]

Trees, repeats and checks are those of `_driver.py`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _driver  # noqa: E402
import workloads  # noqa: E402

VARS = ("x", "y", "s", "t")


def _grid_text(lo: int, hi: int) -> str:
    values = ",".join(map(str, range(lo, hi + 1)))
    return "".join(f"{label}: {values}\n" for label in "ABCD")


def inputs() -> list[dict]:
    """The benchmark's count jobs at seed 1, with their references, then the
    larger inputs, which have none."""
    rows = []
    wl = workloads.build("zeros", 1)
    for job in wl.jobs:
        argv = job["argv"]
        if argv[0] != "count-zeros":
            continue
        rows.append({"input": job["name"], "poly": argv[1].partition("=")[2],
                     "sets": wl.files[argv[argv.index("--sets") + 1]],
                     "method": argv[argv.index("--method") + 1],
                     "reference": {k: v for k, v in job["check"].items() if k != "kind"}})
    rows += [
        {"input": "t-x-ys-64-naive", "poly": "t - (x + y*s)", "sets": _grid_text(1, 64),
         "method": "naive"},
        {"input": "tx-ys-1-48-naive", "poly": "t*x - y*s - 1", "sets": _grid_text(1, 48),
         "method": "naive"},
        {"input": "sphere-xyst-7-24-fiber", "poly": "x^2 + y^2 + s^2 + t^2 - x*y*s*t - 7",
         "sets": _grid_text(-24, 23), "method": "fiber"},
    ]
    return rows


def result(report: dict) -> dict:
    """The fields of a report that must not change with the timing."""
    return {key: report[key] for key in ("count", "degenerate_fibers")}


def jobs(tmp: Path) -> list[tuple[str, None]]:
    """(name, None) per input; writes each input into `tmp`, where its worker reads it."""
    out = []
    for spec in inputs():
        (tmp / f"{spec['input']}.json").write_text(json.dumps(spec))
        out.append((spec["input"], None))
    return out


def worker(name: str) -> dict:
    """The in-process row of one input; exits if it misses the workload's reference."""
    from quadcount.fileio import sets_from_csv
    from quadcount.polynomials import parse_poly
    from quadcount.zerocount import count_fiber, count_naive

    spec = json.loads(Path(f"{name}.json").read_text())
    poly = parse_poly(spec["poly"], VARS)
    sets = sets_from_csv(spec["sets"])
    count = count_naive if spec["method"] == "naive" else count_fiber
    reports, seconds = _driver.repeat(lambda: count(poly, sets), lambda r: result(r.to_json()))
    reports = [r.to_json() for r in reports]
    found, reference = result(reports[0]), spec.get("reference")
    if reference and any(found[k] != v for k, v in reference.items()):
        sys.exit(f"{name}: {found} differs from the workload reference {reference}")
    # the counters a report of this tree gives beside the count, if any
    counters = {k: reports[0][k] for k in ("slice_degrees", "distinct_fibers") if k in reports[0]}
    return {"method": spec["method"], "sizes": reports[0]["sizes"], **found, **counters,
            "stages": [r["stages"] for r in reports], "seconds": seconds, "reference": reference}


def totals(rows: list[dict]) -> dict:
    """Sums of median seconds: every input, and the benchmark's 13 jobs."""
    return {"median_total_s": _driver.total(rows),
            "zeros_jobs_median_total_s": _driver.total([r for r in rows if r["reference"]])}


def table(label: str, run: dict) -> None:
    for row in run["rows"]:
        print(f"{label:8s} {row['input']:24s} {row['count']:>9d} "
              f"{median(row['seconds']):7.3f} s")
    print(f"{label:8s} in process {run['median_total_s']:.3f} s, "
          f"zeros jobs {run['zeros_jobs_median_total_s']:.3f} s")


if __name__ == "__main__":
    sys.exit(_driver.main(__file__, __doc__, out="BENCH_zerocount.json", jobs=jobs, result=result,
                          totals=totals, table=table, worker=worker))
