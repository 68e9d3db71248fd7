"""Layer bench for cold start: the package import and one cold CLI job per
subcommand.

Times IMPORTS = 21 cold `import quadcount.cli` processes, as many that end
the import with `os._exit(0)` (the difference is the interpreter's
teardown, which the console entry skips), then REPEAT = 5 cold `quadcount`
jobs per input, each from interpreter start to exit: one
per subcommand, with `count-coplanar --method naive` on both the 4^3 lattice
(exact) and the order-32 torsion set (float, tol 1e-12).  Every job's
seconds are written next to the result it produced (its JSON without the
timing fields `elapsed_s`, `stages` and the rows' `elapsed_ms`): counts,
degeneracy, margins, verdicts, spreads, points.

    python bench/startup.py [--out PATH] [--baseline-src DIR]

The tree timed is the `src` next to this script.  With `--baseline-src`
the same processes are also timed on another checkout's `src`, in
alternating order, and the script exits 1 if the two trees differ in any
result.  Both trees' bytecode is compiled first and the children run
without PYTHONDONTWRITEBYTECODE, so no import pays for compiling; with
stale `.pyc` files and that variable set, every import would recompile.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
IMPORTS = 21
REPEAT = 5
IMPORT = "import quadcount.cli"
IMPORT_OS_EXIT = "import os, quadcount.cli; os._exit(0)"
JOB = "import sys; from quadcount.cli import main; sys.exit(main())"
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


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    return env


def cold(src: Path, code: str, argv: list[str], cwd: Path) -> tuple[float, str]:
    """Seconds from start to exit of one fresh interpreter, and its stdout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=child_env(src),
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode:
        sys.exit(f"{argv or code} failed on {src}:\n{proc.stderr}")
    return seconds, proc.stdout


def spread(seconds: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_startup.json")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="also time this checkout's src and check it gives the same results")
    args = parser.parse_args(argv)
    trees = {"change": SRC}
    if args.baseline_src:
        trees["baseline"] = args.baseline_src.resolve()
    for src in trees.values():
        if not compileall.compile_dir(str(src), quiet=1):
            sys.exit(f"could not compile {src}")
    imports: dict[str, list[float]] = {label: [] for label in trees}
    os_exits: dict[str, list[float]] = {label: [] for label in trees}
    rows: dict[str, list[dict]] = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        job_list = jobs(tmp)
        cold(SRC, JOB, ["construct", "--kind", "elliptic", "--n", "32", "--out", "csv",
                        "--out-path", "torsion-32.csv"], tmp)
        # alternate which tree goes first, so a drifting CPU favours neither
        for i in range(IMPORTS):
            for label in sorted(trees, reverse=bool(i % 2)):
                imports[label].append(cold(trees[label], IMPORT, [], tmp)[0])
                os_exits[label].append(cold(trees[label], IMPORT_OS_EXIT, [], tmp)[0])
        for i, (name, job) in enumerate(job_list):
            for label in sorted(trees, reverse=bool(i % 2)):
                seconds, results = [], []
                for _ in range(REPEAT):
                    elapsed, stdout = cold(trees[label], JOB, job, tmp)
                    seconds.append(elapsed)
                    results.append(result(json.loads(stdout)))
                if any(r != results[0] for r in results):
                    sys.exit(f"{name}: results differ between repeats on {trees[label]}")
                rows[label].append({"job": name, "argv": job, "result": results[0],
                                    "seconds": seconds, **spread(seconds)})
    if "baseline" in rows:
        for new, old in zip(rows["change"], rows["baseline"]):
            if new["result"] != old["result"]:
                sys.exit(f"{new['job']}: results differ: {old['result']} -> {new['result']}")
    record = {
        "machine": {"python": platform.python_version(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "imports": IMPORTS,
        "repeat": REPEAT,
        "runs": {label: {"import": {**spread(imports[label]), "seconds": imports[label]},
                         "import_os_exit": {**spread(os_exits[label]),
                                            "seconds": os_exits[label]},
                         "jobs_median_total_s": sum(r["median_s"] for r in rows[label]),
                         "jobs": rows[label]}
                 for label in trees},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for label in trees:
        run = record["runs"][label]
        imp = run["import"]
        print(f"{label:8s} import quadcount.cli   {imp['median_s']:.3f} s "
              f"(q1 {imp['q1_s']:.3f}, q3 {imp['q3_s']:.3f})")
        imp = run["import_os_exit"]
        print(f"{label:8s} ... then os._exit(0)    {imp['median_s']:.3f} s "
              f"(q1 {imp['q1_s']:.3f}, q3 {imp['q3_s']:.3f})")
        for row in run["jobs"]:
            print(f"{label:8s} {row['job']:26s} {headline(row['result']):>13s} "
                  f"{row['median_s']:.3f} s")
        print(f"{label:8s} jobs, sum of medians {run['jobs_median_total_s']:.3f} s")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
