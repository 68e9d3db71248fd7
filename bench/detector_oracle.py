"""Layer bench for the separability detector and the coplanar index oracle.

Runs `classify` and its certificate `certify` on the eight polynomials of
the `incidences-numeric` benchmark, and `coplanar_index_oracle` at the
sizes of its `fit-exponent --experiment elliptic-oracle` job, in one
process.  Every timing is written next to the verdict, certificate or count
it produced, so a speedup that changes a result shows in the same file.
It also times one cold `detect-special` process per polynomial, from
interpreter start to JSON out, next to its verdict and whether the process
loaded numpy; a cold verdict that differs from the in-process one exits 1.

    PYTHONPATH=src python bench/detector_oracle.py [--out PATH]

Each call runs REPEAT = 5 times and every timing is kept (the printed
figures are medians of 5); the results of the repeats must agree, or the
script exits 1, as it does when `classify` reports another certificate
than `certify` returns alone.  Point PYTHONPATH at another checkout's `src`
to time that checkout with the same script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from quadcount import certify, classify, coplanar_index_oracle, parse_poly

VARS = ("x", "y", "s", "t")
POLYS = (
    "x*y - s*t",
    "t - (x + y*s)",
    "x^2 + y^3 + s + t^2",
    "(x+y)^2 + s - t",
    "x + y + s + t",
    "x + s + t",
    "x*s - t",
    "x^2 + y^2 + s^2 + t^2 - 1",
)
ORACLE_NS = (128, 256, 384)
REPEAT = 5
# a detect-special job in a fresh interpreter; reports on stderr whether
# numpy was loaded by the time the job finished
COLD_JOB = ("import sys; from quadcount.cli import main; code = main(sys.argv[1:]); "
            "sys.stderr.write(str('numpy' in sys.modules)); sys.exit(code)")


def timed(fn):
    """(result of the last call, seconds of every call); exits if the results
    of two calls differ."""
    results, seconds = [], []
    for _ in range(REPEAT):
        start = time.perf_counter()
        results.append(fn())
        seconds.append(time.perf_counter() - start)
    if any(json.dumps(r) != json.dumps(results[0]) for r in results):
        sys.exit(f"results differ between repeats: {results}")
    return results[-1], seconds


def detector_row(text: str) -> dict:
    poly = parse_poly(text, VARS)
    stages = []

    def run():
        out = classify(poly).to_json()
        stages.append(out.pop("stages", {}))
        return out

    verdict, seconds = timed(run)
    certificate, certify_seconds = timed(lambda: certify(poly))
    if certificate != verdict["certificate"]:
        sys.exit(f"classify reports another certificate for {text}: {verdict['certificate']}")
    return {"poly": text, "seconds": seconds, "stages": stages,
            "classification": verdict["classification"],
            "certify_seconds": certify_seconds, "certificate": certificate}


def cold_row(text: str) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_JOB, "detect-special", f"--poly={text}"],
                          capture_output=True, text=True, check=True)
    seconds = time.perf_counter() - start
    return {"poly": text, "seconds": seconds,
            "classification": json.loads(proc.stdout)["classification"],
            "numpy_loaded": proc.stderr == "True"}


def median_total(rows: list[dict]) -> float:
    return sum(statistics.median(r["seconds"]) for r in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_detector_oracle.json")
    args = parser.parse_args(argv)
    detector = [detector_row(text) for text in POLYS]
    cold = [cold_row(text) for text in POLYS]
    for warm, row in zip(detector, cold):
        if row["classification"] != warm["classification"]:
            sys.exit(f"cold verdict differs for {row['poly']}: {row['classification']}")
    oracle = []
    for n in ORACLE_NS:
        count, seconds = timed(lambda: coplanar_index_oracle(n))
        oracle.append({"n": n, "count": count, "seconds": seconds})
    record = {
        "machine": {"python": platform.python_version(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "repeat": REPEAT,
        "detector_median_total_s": median_total(detector),
        "certify_median_total_s": sum(statistics.median(r["certify_seconds"]) for r in detector),
        "oracle_median_total_s": median_total(oracle),
        "cold_total_s": sum(r["seconds"] for r in cold),
        "detector": detector,
        "cold": cold,
        "oracle": oracle,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
        fh.write("\n")
    for row, cold_job in zip(detector, cold):
        print(f"{row['poly']:28s} {row['classification']:13s} "
              f"{statistics.median(row['seconds']):7.3f} s, "
              f"certify {1000 * statistics.median(row['certify_seconds']):5.2f} ms, "
              f"cold {cold_job['seconds']:.3f} s"
              f"{' (numpy loaded)' if cold_job['numpy_loaded'] else ''}")
    for row in oracle:
        print(f"oracle n={row['n']:<4d} {row['count']:>20d} "
              f"{statistics.median(row['seconds']):7.3f} s")
    print(f"detector {record['detector_median_total_s']:.3f} s "
          f"(certify {record['certify_median_total_s']:.4f} s), "
          f"cold {record['cold_total_s']:.3f} s, oracle {record['oracle_median_total_s']:.3f} s -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
