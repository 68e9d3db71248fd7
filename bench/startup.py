"""Layer bench for cold start: the package import and one cold CLI job per
subcommand.

Times IMPORTS = 21 cold `import quadcount.cli` processes, as many that end
the import with `os._exit(0)` (the difference is the interpreter's
teardown, which the console entry skips), then cold `quadcount` jobs, each
from interpreter start to exit: one per subcommand, with `count-coplanar
--method naive` on both the 4^3 lattice (exact) and the order-32 torsion
set (float, tol 1e-12).  Every job's seconds are written next to the result
it produced (its JSON without the timing fields `elapsed_s`, `stages` and
the rows' `elapsed_ms`): counts, degeneracy, margins, verdicts, points.

    python bench/startup.py [--out PATH] [--baseline-src DIR]

Trees, repeats and checks are those of `_driver.py`.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _driver  # noqa: E402

IMPORTS = 21
IMPORT = "import quadcount.cli"
IMPORT_OS_EXIT = "import os, quadcount.cli; os._exit(0)"
# keys of a job's JSON that hold seconds, not results
TIMING = ("elapsed_s", "stages")


def jobs(tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of the timed jobs; writes their input files into `tmp`."""
    files = {
        "sets.csv": "A: 1,2,3,4,5,6,7,8\nB: 1,2,3,4,5,6,7,8\nC: 1,2,3,4,5,6,7,8\n"
                    "D: " + ",".join(str(-m) for m in range(24, 2, -1)) + "\n",
        "lattice-4.csv": "".join(f"{x},{y},{z}\n" for x in range(4) for y in range(4)
                                 for z in range(4)),
        "grid-10.csv": "".join(f"{x},{y}\n" for x in range(10) for y in range(10)),
    }
    for name, text in files.items():
        (tmp / name).write_text(text)
    _driver.cold({"change": _driver.SRC}, ["construct", "--kind", "elliptic", "--n", "32",
                                           "--out", "csv", "--out-path", "torsion-32.csv"],
                 tmp, times=1)
    return [
        ("count-zeros", ["count-zeros", "--poly", "x + y + s + t", "--sets", "sets.csv"]),
        ("detect-special", ["detect-special", "--poly", "x*y - s*t"]),
        ("construct", ["construct", "--kind", "elliptic", "--n", "32"]),
        ("coplanar-naive-lattice-4",
         ["count-coplanar", "--method", "naive", "--points", "lattice-4.csv"]),
        ("coplanar-naive-torsion-32",
         ["count-coplanar", "--method", "naive", "--tol", "1e-12", "--points", "torsion-32.csv"]),
        ("count-collinear", ["count-collinear", "--points", "grid-10.csv"]),
        ("count-circles", ["count-circles", "--points", "grid-10.csv"]),
        ("fit-exponent", ["fit-exponent", "--experiment", "nonspecial-grid-zeros",
                          "--ns", "4,8,12"]),
    ]


def result(report: dict) -> dict:
    """A job's JSON without the fields that hold timings."""
    out = {key: value for key, value in report.items() if key not in TIMING}
    if "rows" in out:
        out["rows"] = [row[:2] for row in out["rows"]]  # drop elapsed_ms
    return out


def headline(res: dict) -> str:
    """The count, verdict, slope or point count a job produced, for the table."""
    if "count" in res:
        return str(res["count"])
    if "classification" in res:
        return res["classification"]
    if "slope" in res:
        return "slope undefined" if res["slope"] is None else f"slope {res['slope']:.4f}"
    return f"{len(res['points'])} points"


def spread(seconds: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def imports(trees: dict[str, Path], tmp) -> dict[str, dict]:
    """Each tree's IMPORTS cold imports, plain and ended by `os._exit(0)`."""
    runs: dict[str, dict] = {label: {} for label in trees}
    for key, code in (("import", IMPORT), ("import_os_exit", IMPORT_OS_EXIT)):
        for label, done in _driver.cold(trees, [], tmp, code=code, times=IMPORTS).items():
            seconds = [s for s, _ in done]
            runs[label][key] = {**spread(seconds), "seconds": seconds}
    return runs


def totals(rows: list[dict]) -> dict:
    return {"jobs_median_total_s": _driver.total(rows, "cold_seconds")}


def table(label: str, run: dict) -> None:
    for key, text in (("import", "import quadcount.cli"), ("import_os_exit",
                                                           "... then os._exit(0)")):
        print(f"{label:8s} {text:26s} {'':>13s} {run[key]['median_s']:.3f} s "
              f"(q1 {run[key]['q1_s']:.3f}, q3 {run[key]['q3_s']:.3f})")
    for row in run["rows"]:
        times = spread(row["cold_seconds"])
        print(f"{label:8s} {row['input']:26s} {headline(row['result']):>13s} "
              f"{times['median_s']:.3f} s (q1 {times['q1_s']:.3f}, q3 {times['q3_s']:.3f})")
    print(f"{label:8s} jobs, sum of medians {run['jobs_median_total_s']:.3f} s")


if __name__ == "__main__":
    sys.exit(_driver.main(__file__, __doc__, out="BENCH_startup.json", jobs=jobs, result=result,
                          totals=totals, table=table, extra=imports))
