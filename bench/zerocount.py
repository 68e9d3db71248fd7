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

The tree timed is the `src` next to this script.  With `--baseline-src`
the same inputs are also timed on another checkout's `src`, input by input
and in alternating order, and the script exits 1 if the two trees differ in
any count or `degenerate_fibers`.  Each input runs REPEAT = 5 times in one
worker process and every timing is kept (the printed figures are medians
of 5); the results of the repeats must agree, or the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REPEAT = 5
VARS = ("x", "y", "s", "t")


def _grid_text(lo: int, hi: int) -> str:
    values = ",".join(map(str, range(lo, hi + 1)))
    return "".join(f"{label}: {values}\n" for label in "ABCD")


def inputs() -> list[dict]:
    """The benchmark's count jobs at seed 1, with their references, then the
    larger inputs, which have none."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

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


def result(row: dict) -> dict:
    """The fields of a row that must not change with the timing."""
    return {key: row[key] for key in ("count", "degenerate_fibers")}


def worker(spec_path: str) -> None:
    """Time one input in process and print its row as JSON."""
    from quadcount.fileio import sets_from_csv
    from quadcount.polynomials import parse_poly
    from quadcount.zerocount import count_fiber, count_naive

    spec = json.loads(Path(spec_path).read_text())
    poly = parse_poly(spec["poly"], VARS)
    sets = sets_from_csv(spec["sets"])
    count = count_naive if spec["method"] == "naive" else count_fiber
    reports, seconds = [], []
    for _ in range(REPEAT):
        start = time.perf_counter()
        report = count(poly, sets)
        seconds.append(time.perf_counter() - start)
        reports.append(report.to_json())
    results = [result(r) for r in reports]
    if any(r != results[0] for r in results):
        sys.exit(f"{spec['input']}: results differ between repeats: {results}")
    # the counters a report of this tree gives beside the count, if any
    counters = {k: reports[0][k] for k in ("slice_degrees", "distinct_fibers") if k in reports[0]}
    json.dump({"input": spec["input"], "method": spec["method"], "sizes": reports[0]["sizes"],
               **results[0], **counters, "stages": [r["stages"] for r in reports],
               "seconds": seconds}, sys.stdout)


def summary(rows: list[dict]) -> dict:
    """Sums of median seconds: every input, and the benchmark's 13 jobs."""
    medians = {r["input"]: statistics.median(r["seconds"]) for r in rows}
    return {"median_total_s": sum(medians.values()),
            "zeros_jobs_median_total_s": sum(medians[r["input"]] for r in rows
                                             if r["reference"] is not None)}


def measure(src: Path, spec_path: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--worker", str(spec_path)], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(proc.stderr)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_zerocount.json")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="also time this checkout's src and check it gives the same results")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    trees = {"change": SRC}
    if args.baseline_src:
        trees["baseline"] = args.baseline_src.resolve()
    rows: dict[str, list[dict]] = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for i, spec in enumerate(inputs()):
            spec_path = Path(tmp) / f"{spec['input']}.json"
            spec_path.write_text(json.dumps(spec))
            # alternate which tree goes first, so a drifting CPU favours neither
            for label in sorted(trees, reverse=bool(i % 2)):
                row = measure(trees[label], spec_path)
                reference = spec.get("reference")
                if reference and any(row[k] != v for k, v in reference.items()):
                    sys.exit(f"{spec['input']}: {result(row)} on {label} differs from the "
                             f"workload reference {reference}")
                rows[label].append({**row, "reference": reference})
    if "baseline" in rows:
        for new, old in zip(rows["change"], rows["baseline"]):
            if result(new) != result(old):
                sys.exit(f"{new['input']}: results differ: {result(old)} -> {result(new)}")
    record = {
        "machine": {"python": platform.python_version(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "repeat": REPEAT,
        "runs": {label: {**summary(rows[label]), "rows": rows[label]} for label in trees},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for label in trees:
        for row in rows[label]:
            print(f"{label:8s} {row['input']:24s} {row['count']:>9d} "
                  f"{statistics.median(row['seconds']):7.3f} s")
        totals = record["runs"][label]
        print(f"{label:8s} in process {totals['median_total_s']:.3f} s, "
              f"zeros jobs {totals['zeros_jobs_median_total_s']:.3f} s")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
