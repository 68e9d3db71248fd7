"""Layer bench for the separability detector and the coplanar index oracle.

Runs `classify` and its certificate `certify` in process on the eight
polynomials of the `incidences-numeric` benchmark (`perfbench/workloads.py`
`VERDICTS`), and times one cold `detect-special` job per polynomial, from
interpreter start to exit; runs `coplanar_index_oracle` in process at the
sizes of that benchmark's `fit-exponent --experiment elliptic-oracle` job.
Every timing is written next to the verdict, certificate or count it
produced, so a speedup that changes a result shows in the same file.  The
script also exits 1 when `classify` reports another certificate than
`certify` returns alone.

    python bench/detector_oracle.py [--out PATH] [--baseline-src DIR]

Trees, repeats and checks are those of `_driver.py`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _driver  # noqa: E402
import workloads  # noqa: E402

VARS = ("x", "y", "s", "t")
ORACLE_NS = (128, 256, 384)


def result(report: dict) -> dict:
    """The fields of a row or job JSON that must not change with the timing."""
    return {key: report[key] for key in ("classification", "certificate", "count")
            if key in report}


def jobs(tmp: Path) -> list[tuple[str, list[str] | None]]:
    """(name, cold argv or None) per input: the polynomials, then the oracle sizes."""
    return ([(text, ["detect-special", f"--poly={text}"]) for text in workloads.VERDICTS]
            + [(f"oracle n={n}", None) for n in ORACLE_NS])


def worker(name: str) -> dict:
    """The in-process row of one input."""
    from quadcount import certify, classify, coplanar_index_oracle, parse_poly

    if name.startswith("oracle n="):
        n = int(name.partition("=")[2])
        counts, seconds = _driver.repeat(lambda: coplanar_index_oracle(n))
        return {"n": n, "count": counts[0], "seconds": seconds}
    poly = parse_poly(name, VARS)
    verdicts, seconds = _driver.repeat(lambda: classify(poly), lambda v: result(v.to_json()))
    certificates, certify_seconds = _driver.repeat(lambda: certify(poly))
    verdict = result(verdicts[0].to_json())
    if certificates[0] != verdict["certificate"]:
        sys.exit(f"classify reports another certificate for {name}: {verdict['certificate']}")
    return {**verdict, "seconds": seconds, "stages": [v.stages for v in verdicts],
            "certify_seconds": certify_seconds}


def totals(rows: list[dict]) -> dict:
    polys = [row for row in rows if "n" not in row]
    return {"detector_median_total_s": _driver.total(polys),
            "certify_median_total_s": _driver.total(polys, "certify_seconds"),
            "oracle_median_total_s": _driver.total([row for row in rows if "n" in row]),
            "cold_median_total_s": _driver.total(rows, "cold_seconds")}


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
          f"cold {run['cold_median_total_s']:.3f} s, oracle {run['oracle_median_total_s']:.3f} s")


if __name__ == "__main__":
    sys.exit(_driver.main(__file__, __doc__, out="BENCH_detector_oracle.json", jobs=jobs,
                          result=result, totals=totals, table=table, worker=worker))
