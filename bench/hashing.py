"""Layer bench for exact pivot hashing: coplanar quadruples, collinear
triples and four-point circles.

Times `coplanar_fast`, `collinear_triples` and `four_point_circles` in
process on the seven hashing inputs of the `incidences-numeric` benchmark
(the random sets are drawn as `perfbench/workloads.py` draws them at seed
1), and cold CLI processes per input, from interpreter start to JSON
out.  Every timing is written next to the count, `lines`, `planes`,
`circles` and degeneracy it produced, so a speedup that changes a result
shows in the same file.

    python bench/hashing.py [--out PATH] [--baseline-src DIR]

The tree timed is the `src` next to this script.  With `--baseline-src`
the same inputs are also timed on another checkout's `src`, input by input
and in alternating order, and the script exits 1 if the two trees differ in
any result.  Each in-process call runs REPEAT = 5 times in one worker
process, each cold job REPEAT times, and every timing is kept (the printed
figures are medians of 5); the results of the repeats, in process and
cold, must agree, or the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REPEAT = 5
COUNTERS = {"coplanar": "coplanar_fast", "collinear": "collinear_triples",
            "circles": "four_point_circles"}
# a count job in a fresh interpreter; reports on stderr whether numpy was
# loaded by the time the job finished
COLD_JOB = ("import sys; from quadcount.cli import main; code = main(sys.argv[1:]); "
            "sys.stderr.write(str('numpy' in sys.modules)); sys.exit(code)")


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


def worker(name: str) -> None:
    """Time one input in process and print its row as JSON."""
    import quadcount
    from quadcount import geometry

    kind, points = next((k, p) for n, k, p in inputs() if n == name)
    pointset = (geometry.PointSet3 if kind == "coplanar" else geometry.PointSet2).from_rows(points)
    count = getattr(quadcount, COUNTERS[kind])
    results, seconds = [], []
    for _ in range(REPEAT):
        start = time.perf_counter()
        report = count(pointset)
        seconds.append(time.perf_counter() - start)
        results.append(result(report.to_json()))
    if any(r != results[0] for r in results):
        sys.exit(f"{name}: results differ between repeats: {results}")
    json.dump({"input": name, "counter": COUNTERS[kind], "points": len(points),
               **results[0], "seconds": seconds}, sys.stdout)


def measure(src: Path, name: str, kind: str, csv: Path) -> dict:
    """The in-process row of one input on one tree, plus its cold job."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--worker", name], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(proc.stderr)
    row = json.loads(proc.stdout)
    row["cold_seconds"] = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        cold = subprocess.run([sys.executable, "-c", COLD_JOB, f"count-{kind}", "--points", str(csv)],
                              env=env, capture_output=True, text=True, check=True)
        row["cold_seconds"].append(time.perf_counter() - start)
        if result(json.loads(cold.stdout)) != result(row):
            sys.exit(f"{name}: cold job differs from the in-process result on {src}")
    row["numpy_loaded"] = cold.stderr == "True"
    return row


def summary(rows: list[dict]) -> dict:
    return {"median_total_s": sum(statistics.median(r["seconds"]) for r in rows),
            "cold_median_total_s": sum(statistics.median(r["cold_seconds"]) for r in rows)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_hashing.json")
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
        for i, (name, kind, points) in enumerate(inputs()):
            csv = Path(tmp) / f"{name}.csv"
            csv.write_text("".join(",".join(map(str, p)) + "\n" for p in points))
            # alternate which tree goes first, so a drifting CPU favours neither
            for label in sorted(trees, reverse=bool(i % 2)):
                rows[label].append(measure(trees[label], name, kind, csv))
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
            print(f"{label:8s} {row['input']:21s} {row['count']:>8d} "
                  f"{statistics.median(row['seconds']):7.3f} s, "
                  f"cold {statistics.median(row['cold_seconds']):.3f} s"
                  f"{' (numpy loaded)' if row['numpy_loaded'] else ''}")
        totals = record["runs"][label]
        print(f"{label:8s} in process {totals['median_total_s']:.3f} s, "
              f"cold {totals['cold_median_total_s']:.3f} s")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
