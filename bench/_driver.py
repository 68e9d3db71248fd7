"""What the layer benches in this directory share: the options, the trees,
the worker and cold processes, the repeat rules and the record.

A bench script lists its inputs, each with the CLI job that times it cold
(or None), and says what its worker times in process; `main` does the rest.

- The tree timed is the `src` next to this directory.  `--baseline-src DIR`
  adds another checkout's `src`, and the script exits 1 if, on any input,
  a field of the baseline's result is missing from the change's or differs.
  Fields that only the change reports are allowed, and the record lists
  them under `added_fields`, so a change that adds a report field can still
  be timed against its parent.
- Each tree is compiled once, first, and every child runs without
  PYTHONDONTWRITEBYTECODE, so no process pays for compiling the package.
- The trees alternate, so a drifting CPU favours neither: which runs first
  flips from input to input, and from one cold repeat to the next.
- Per input and tree, one worker process (`--worker NAME`, PYTHONPATH set
  to the tree's `src`) makes REPEAT timed calls, and the input's cold job
  runs COLD_REPEAT times, from interpreter start to exit, through the
  benchmark's own entry (`perfbench/run.py` `ENTRY`, which ends in
  `os._exit` as the console script does).  Every timing is kept, and the
  results of all repeats, in process and cold, must agree, or the script
  exits 1.

Children run in a temporary directory, where a script's `jobs(tmp)` writes
their input files.  Every record is `{"machine", "repeat", "runs": {label:
{<totals>, "rows": [...]}}}`, plus `"added_fields"` with a baseline.
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))

from run import ENTRY  # noqa: E402

REPEAT = 11
COLD_REPEAT = 21


def repeat(call, key=lambda out: out) -> tuple[list, list[float]]:
    """The outputs and seconds of REPEAT timed calls; exits unless `key` of
    every output agrees."""
    return alternate([(call, key)])[0]


def alternate(calls: list[tuple]) -> list[tuple[list, list[float]]]:
    """`repeat` for several (call, key) pairs at once: the calls take turns,
    and which goes first flips from one repeat to the next, so a process
    that slows as it runs favours none of them."""
    done = [([], []) for _ in calls]
    for i in range(REPEAT):
        for j in sorted(range(len(calls)), reverse=bool(i % 2)):
            start = time.perf_counter()
            done[j][0].append(calls[j][0]())
            done[j][1].append(time.perf_counter() - start)
    for (_, key), (outputs, _) in zip(calls, done):
        keys = [key(out) for out in outputs]
        if any(k != keys[0] for k in keys):
            sys.exit(f"results differ between repeats: {keys}")
    return done


def total(rows: list[dict], key: str = "seconds") -> float:
    """The sum of the median `key` seconds of the rows that have them."""
    return sum(statistics.median(row[key]) for row in rows if key in row)


def added_fields(base, change, prefix: str = "") -> list[str]:
    """The dotted names of the fields that the result `change` reports and
    `base` does not, looking into nested dicts; ValueError names the first
    field of `base` that `change` lacks or gives another value."""
    if not (isinstance(base, dict) and isinstance(change, dict)):
        if base != change:
            raise ValueError(prefix.rstrip(".") or "result")
        return []
    added = [prefix + key for key in change if key not in base]
    for key, value in base.items():
        if key not in change:
            raise ValueError(prefix + key)
        added += added_fields(value, change[key], f"{prefix}{key}.")
    return added


def _order(trees: dict[str, Path], i: int) -> list[str]:
    return sorted(trees, reverse=bool(i % 2))


def _child(src: Path, args: list[str], cwd) -> tuple[float, str]:
    """Seconds from start to exit of one Python process on `src`, and its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - start
    if proc.returncode:
        sys.exit(f"{args} failed on {src}:\n{proc.stderr}")
    return seconds, proc.stdout


def cold(trees: dict[str, Path], argv: list[str], cwd, code: str = ENTRY,
         times: int = COLD_REPEAT) -> dict[str, list[tuple[float, str]]]:
    """(seconds, stdout) of every cold `python -c code *argv` per tree,
    alternating the trees on every repeat."""
    done: dict[str, list[tuple[float, str]]] = {label: [] for label in trees}
    for i in range(times):
        for label in _order(trees, i):
            done[label].append(_child(trees[label], ["-c", code, *argv], cwd))
    return done


def main(script: str, doc: str, *, out: str, jobs, result, totals, table, worker=None,
         extra=None) -> int:
    """Run a bench script: `jobs(tmp)` lists (name, cold argv or None) per
    input, `worker(name)` gives an input's in-process row, `result(report)`
    the fields of a row or job JSON that must not change with the timing,
    `totals(rows)` a run's totals, `table(label, run)` prints a run, and
    `extra(trees, tmp)`, if given, adds fields to each tree's run."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--out", default=out)
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="also time this checkout's src and check it gives the same results")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(worker(args.worker), sys.stdout)
        return 0
    trees = {"change": SRC}
    if args.baseline_src:
        trees["baseline"] = args.baseline_src.resolve()
    for src in trees.values():
        if not compileall.compile_dir(str(src), quiet=1):
            sys.exit(f"could not compile {src}")
    script = str(Path(script).resolve())
    rows: dict[str, list[dict]] = {label: [] for label in trees}
    added: set[str] = set()
    with tempfile.TemporaryDirectory() as tmp:
        runs = extra(trees, tmp) if extra else {label: {} for label in trees}
        for i, (name, argv) in enumerate(jobs(Path(tmp))):
            new = {label: {"input": name} for label in trees}
            if worker:
                for label in _order(trees, i):
                    stdout = _child(trees[label], [script, "--worker", name], tmp)[1]
                    new[label].update(json.loads(stdout))
            done = cold(trees, argv, tmp) if argv else {}
            outcome = {}
            for label, row in new.items():
                found = [result(json.loads(stdout)) for _, stdout in done.get(label, [])]
                if argv:
                    row.update({"argv": argv, "cold_seconds": [s for s, _ in done[label]]})
                if not worker:
                    row["result"] = found[0]
                outcome[label] = result(row) if worker else row["result"]
                if any(r != outcome[label] for r in found):
                    sys.exit(f"{name}: cold results on {label} differ from {outcome[label]}: {found}")
                rows[label].append(row)
            if "baseline" in outcome:
                try:
                    added.update(added_fields(outcome["baseline"], outcome["change"]))
                except ValueError as exc:
                    sys.exit(f"{name}: results differ in {exc}: "
                             f"{outcome['baseline']} -> {outcome['change']}")
    record = {
        "machine": {"python": platform.python_version(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(),
                    # the CPUs this process may run on, which the exact
                    # counters split their kernels across
                    "usable_cpus": (len(os.sched_getaffinity(0))
                                    if hasattr(os, "sched_getaffinity") else None)},
        "repeat": {"in_process": REPEAT, "cold": COLD_REPEAT},
        "runs": {label: {**runs[label], **totals(rows[label]), "rows": rows[label]}
                 for label in trees},
    }
    if args.baseline_src:
        record["added_fields"] = sorted(added)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
        fh.write("\n")
    for label in trees:
        table(label, record["runs"][label])
    print(f"-> {args.out}")
    return 0
