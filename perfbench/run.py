"""quadcount benchmark: cold CLI jobs on seeded workloads, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its `src`.  Each workload (see workloads.py) is a
fixed list of `quadcount` jobs generated from the seed.

--trace 0 measures what a user waits for.  Every job is a cold process
(`python -c "from quadcount.cli import main; ..."`, as the console script
does), started one at a time from this process with BLAS pinned to one
thread and bytecode caches warm, and timed from exec to exit.  Passes over
the job list repeat while the next pass is expected to end within S seconds.
Set-up time is the median of several cold `import quadcount` processes.

--trace 1 gives the per-layer metrics: `python -X importtime` for the import
breakdown, and one traced in-process pass through `quadcount.cli.main`
(tracing.py).

Every job's output is checked, after its timing ends, against a reference
that shares no code with the program.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; a readable
table and one line per job (time, memory, and the count or verdict it
produced) go to stderr, and the per-job records to .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ENTRY = "import sys; from quadcount.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
JOB_TIMEOUT_S = 60.0
DEADLINE_S = 170.0  # the whole run must end within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONPYCACHEPREFIX")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


class Runner:
    """Starts program processes one at a time and reaps each one itself."""

    def __init__(self, work: Path, env: dict[str, str], deadline: float):
        self.work = work
        self.env = env
        self.deadline = deadline

    def run(self, args: list[str], timeout: float = JOB_TIMEOUT_S) -> dict:
        """Run `python3 ARGS` in the work directory; returns exit code, wall
        seconds from exec to exit, peak RSS, stdout and stderr."""
        out_file, err_file = self.work / ".stdout", self.work / ".stderr"
        timeout = max(1.0, min(timeout, self.deadline - perf_counter()))
        with open(out_file, "wb") as out, open(err_file, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            # the pid stays unreaped until the timer is gone, so a kill can
            # never reach a reused pid
            timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                elapsed = perf_counter() - start
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                raise
            finally:
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "returncode": proc.returncode,
            "seconds": elapsed,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_file.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_file.read_text(encoding="utf-8", errors="replace"),
        }

    def job(self, job: dict) -> dict:
        result = self.run(["-c", ENTRY, *job["argv"]])
        path = tracing.out_path(job["argv"])
        result["out_text"] = None
        if path is not None and (self.work / path).is_file():
            result["out_text"] = (self.work / path).read_text(encoding="utf-8")
            (self.work / path).unlink()  # the next pass must write it afresh
        return result


class Checker:
    """Checks outputs against references and that each job repeats exactly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.seen: dict[str, str] = {}

    def record(self, job: dict, returncode: int, stdout: str, out_text: str | None) -> dict:
        try:
            ok, summary = workloads.check(job, returncode, stdout, out_text)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            # a report whose fields no longer have the published shape
            ok, summary = False, {"output": f"unreadable: {exc!r}"}
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not job["known_defect"]:
                self.unexpected.append(f"{job['name']}: {summary}")
        key = json.dumps(summary, sort_keys=True)
        if self.seen.setdefault(job["name"], key) != key:
            self.unexpected.append(f"{job['name']}: output changed between passes")
        return {"ok": ok, **summary}

    @property
    def correct(self) -> bool:
        return not self.unexpected


def _report(stdout: str) -> dict | None:
    try:
        out = json.loads(stdout)
    except ValueError:
        return None
    return out if isinstance(out, dict) else None


def measure(wl, runner: Runner, checker: Checker, seconds: float, log) -> dict:
    """End-to-end metrics from cold processes."""
    setup = [runner.run(["-c", "import quadcount"])["seconds"] for _ in range(SETUP_SAMPLES)]
    latencies, walls, peak = [], [], 0.0
    started = perf_counter()
    while True:
        wall = 0.0
        for job in wl.jobs:
            result = runner.job(job)
            wall += result["seconds"]
            latencies.append(result["seconds"])
            peak = max(peak, result["rss_mb"])
            verdict = checker.record(job, result["returncode"], result["stdout"], result["out_text"])
            log.append({"job": job["name"], "pass": len(walls), "seconds": result["seconds"],
                        "rss_mb": result["rss_mb"], **verdict})
        walls.append(wall)
        spent = perf_counter() - started
        if spent + statistics.median(walls) > seconds or perf_counter() > runner.deadline - 2 * wall:
            break
    print(f"# {len(walls)} passes, {len(latencies)} job samples; setup over {SETUP_SAMPLES} "
          "imports", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak,
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
    }


def trace(wl, runner: Runner, checker: Checker, log) -> dict:
    """Per-layer metrics from importtime and the traced in-process run."""
    texts = [runner.run(["-X", "importtime", "-c", "import quadcount.cli"])["stderr"]
             for _ in range(IMPORTTIME_SAMPLES)]
    jobs_file, trace_file = runner.work / "jobs.json", runner.work / "trace.json"
    jobs_file.write_text(json.dumps(wl.jobs), encoding="utf-8")
    result = runner.run([str(HERE / "tracing.py"), jobs_file.name, trace_file.name],
                        timeout=DEADLINE_S)
    if result["returncode"] != 0 or not trace_file.is_file():
        checker.unexpected.append("traced run: " + result["stderr"].strip()[-500:])
        for job in wl.jobs:
            checker.record(job, result["returncode"] or 1, "", None)
        return {}
    data = json.loads(trace_file.read_text(encoding="utf-8"))
    for pass_name in ("untraced", "traced"):
        for job, out in zip(wl.jobs, data[pass_name]):
            verdict = checker.record(job, out["returncode"], out["stdout"], out["out_text"])
            log.append({"job": job["name"], "pass": pass_name, **verdict})
    reports = [_report(out["stdout"]) for out in data["traced"]]
    return tracing.layer_metrics(data, wl.jobs, reports, tracing.median_imports(texts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "quadcount" / "cli.py").is_file():
        print(f"error: no quadcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=state))
    try:
        for name, text in wl.files.items():
            (work / name).write_text(text, encoding="utf-8")
        runner = Runner(work, child_env(), deadline)
        runner.run(["-c", "import quadcount.cli"])  # warm the bytecode caches
        for argv in wl.setup_argvs:
            runner.run(["-c", ENTRY, *argv])
        checker, log = Checker(), []
        if args.trace:
            values = trace(wl, runner, checker, log)
            specs = tracing.PER_LAYER
        else:
            values = measure(wl, runner, checker, args.seconds, log)
            specs = [(name, unit, "measured") for name, unit in END_TO_END]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = state / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"jobs": log, "metrics": values}, indent=1), encoding="utf-8")
    for entry in log:
        timing = f"{entry['seconds']:7.3f}s {entry['rss_mb']:6.1f}MB" if "seconds" in entry else ""
        print(f"# {entry['pass']} {entry['job']:<36} {timing} "
              f"{json.dumps({k: v for k, v in entry.items() if k not in ('job', 'pass', 'seconds', 'rss_mb')})}",
              file=sys.stderr)
    for problem in checker.unexpected:
        print(f"# UNEXPECTED {problem}", file=sys.stderr)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in specs}
    for name, unit, source in specs:
        print(f"{name:<36} {metrics[name]['value']:>16.6g} {unit:<6} {source}", file=sys.stderr)
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
