"""Traced in-process run of a job list, and the per-layer metrics it yields.

Run as a script (`python3 tracing.py JOBS_JSON OUT_JSON`, with the checkout's
`src` on PYTHONPATH and the work directory as cwd), it sends each job's argv
through `quadcount.cli.main` twice in one process: untraced, and with a
wrapper around every public function of each module and every public
`Polynomial`/`UniPoly` method.  Each wrapped call is a span with a parent.
Calls of the high-frequency methods are aggregated in memory per
(job, name, parent name); every other call is kept as its own span.  All of
it is written to OUT_JSON at the end.

Imported by run.py, it turns that file into per-layer metrics.  It never
imports quadcount at module level.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "fileio", "polynomials", "zerocount", "geometry",
          "constructions", "separability", "harness")
# per-value helpers called once per number in a file
PER_VALUE = {"fileio.parse_value", "fileio.format_value"}


class Tracer:
    def __init__(self):
        self.job = -1
        self.stack: list[list] = []  # [name, span id, child seconds]
        self.spans: list[tuple] = []  # (job, id, parent id, name, start, end, self)
        self.totals: dict[tuple, list] = {}  # (job, name, parent name) -> [calls, total, self]
        self.next_id = 0

    def wrap(self, name: str, fn, aggregate: bool):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                own = duration - frame[2]
                if aggregate:
                    key = (self.job, name, parent[0] if parent else None)
                    acc = self.totals.setdefault(key, [0, 0.0, 0.0])
                    acc[0] += 1
                    acc[1] += duration
                    acc[2] += own
                else:
                    self.spans.append((self.job, frame[1], parent[1] if parent else None,
                                       name, start, end, own))

        return traced

    def install(self):
        """Wrap the package's public callables and rebind every module-level
        reference to them, so calls through `from .x import f` are seen too.
        Returns a function that puts the originals back."""
        saved: list[tuple] = []

        def rebind(owner, attr, value):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        modules = {layer: sys.modules[f"quadcount.{layer}"] for layer in LAYERS}
        replaced: dict[int, tuple] = {}
        for layer, mod in modules.items():
            names = ["main"] if layer == "cli" else getattr(mod, "__all__", [])
            for attr in names:
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                label = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(label, obj, label in PER_VALUE))
                elif inspect.isclass(obj) and layer == "polynomials":
                    for name, raw in list(vars(obj).items()):
                        if name.startswith("_"):
                            continue
                        if inspect.isfunction(raw):
                            rebind(obj, name, self.wrap(f"{label}.{name}", raw, True))
                        elif isinstance(raw, classmethod):
                            rebind(obj, name, classmethod(
                                self.wrap(f"{label}.{name}", raw.__func__, True)))
        for key, mod in list(sys.modules.items()):
            if key != "quadcount" and not key.startswith("quadcount."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    rebind(mod, attr, hit[1])

        def restore():
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

        return restore

    def rows(self) -> list[list]:
        """Every span as [job, name, parent name, calls, total s, self s]."""
        names = {span[1]: span[3] for span in self.spans}
        out = [[job, name, names.get(parent), 1, end - start, own]
               for job, _, parent, name, start, end, own in self.spans]
        out += [[job, name, parent, calls, total, own]
                for (job, name, parent), (calls, total, own) in self.totals.items()]
        return out


def out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out-path") + 1] if "--out-path" in argv else None


def _run_job(main, job: dict) -> tuple[float, dict]:
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(job["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    seconds = perf_counter() - start
    path = out_path(job["argv"])
    out_text = None
    if path is not None:
        with contextlib.suppress(OSError), open(path, encoding="utf-8") as fh:
            out_text = fh.read()
        with contextlib.suppress(OSError):
            os.remove(path)  # the next run must write it afresh
    return seconds, {"returncode": code, "stdout": stdout.getvalue(), "out_text": out_text}


def trace_main(jobs_path: str, result_path: str) -> int:
    """Runs each job untraced and traced back to back, alternating which
    goes first, so drift in machine speed and warm-up favour neither."""
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    import quadcount  # noqa: F401  (loads every layer module)
    from quadcount import cli

    tracer = Tracer()
    seconds = {"untraced": 0.0, "traced": 0.0}
    results: dict[str, list] = {"untraced": [], "traced": []}
    for index, job in enumerate(jobs):
        tracer.job = index
        for mode in ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced"):
            restore = tracer.install() if mode == "traced" else None
            try:
                elapsed, result = _run_job(cli.main, job)
            finally:
                if restore is not None:
                    restore()
            seconds[mode] += elapsed
            results[mode].append(result)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"untraced_s": seconds["untraced"], "traced_s": seconds["traced"],
                   **results, "spans": tracer.rows()}, fh)
    return 0


# -- per-layer metrics -----------------------------------------------------------


def parse_importtime(text: str) -> dict[str, float]:
    """Milliseconds from `python -X importtime -c "import quadcount.cli"`:
    quadcount's cumulative import, and the self time of every numpy and
    scipy module."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        entries.append((int(self_us), int(cumulative_us), len(name) - len(name.lstrip()),
                        name.strip()))
    top = min((depth for *_, depth, _ in entries), default=0)

    def own(package):
        return sum(s for s, _, _, n in entries if n == package or n.startswith(package + "."))

    return {
        "cli.import_ms": sum(c for _, c, depth, n in entries
                             if depth == top and n.split(".")[0] == "quadcount") / 1000,
        "cli.import_scipy_ms": own("scipy") / 1000,
        "cli.import_numpy_ms": own("numpy") / 1000,
    }


# (metric, unit, how it is obtained) -- "computed" values are derived from
# input sizes by the benchmark, "reported" ones are read from report fields
# the program prints, "traced" ones come from spans.
PER_LAYER = [
    ("cli.import_ms", "ms", "importtime"),
    ("cli.import_scipy_ms", "ms", "importtime"),
    ("cli.import_numpy_ms", "ms", "importtime"),
    ("cli.self_ms", "ms", "traced"),
    ("fileio.read_ms", "ms", "traced"),
    ("fileio.write_ms", "ms", "traced"),
    ("polynomials.parse_ms", "ms", "traced"),
    ("polynomials.specialize_calls", "count", "traced"),
    ("polynomials.specialize_ms", "ms", "traced"),
    ("polynomials.evaluate_calls", "count", "traced"),
    ("polynomials.evaluate_ms", "ms", "traced"),
    ("polynomials.gcd_calls", "count", "traced"),
    ("polynomials.gcd_ms", "ms", "traced"),
    ("zerocount.fiber_self_ms", "ms", "traced"),
    ("zerocount.fibers", "count", "computed"),
    ("zerocount.fibers_per_s", "1/s", "computed"),
    ("zerocount.degenerate_fibers", "count", "reported"),
    ("zerocount.naive_self_ms", "ms", "traced"),
    ("zerocount.naive_points", "count", "computed"),
    ("zerocount.naive_points_per_s", "1/s", "computed"),
    ("geometry.hash_ms", "ms", "traced"),
    ("geometry.triples", "count", "computed"),
    ("geometry.triples_per_s", "1/s", "computed"),
    ("geometry.max_points_per_plane", "count", "reported"),
    ("geometry.scan_ms", "ms", "traced"),
    ("geometry.quadruples", "count", "computed"),
    ("geometry.quadruples_per_s", "1/s", "computed"),
    ("constructions.make_curve_ms", "ms", "traced"),
    ("constructions.torsion_ms", "ms", "traced"),
    ("constructions.torsion_points", "count", "computed"),
    ("constructions.ms_per_torsion_point", "ms", "computed"),
    ("constructions.oracle_ms", "ms", "traced"),
    ("constructions.oracle_steps", "count", "computed"),
    ("constructions.ap_grid_ms", "ms", "traced"),
    ("separability.classify_ms", "ms", "traced"),
    ("separability.ratio_test_ms", "ms", "traced"),
    ("separability.g_sample_ms", "ms", "traced"),
    ("separability.popular_ms", "ms", "traced"),
    ("separability.decisive_ratio", "1", "reported"),
    ("harness.self_ms", "ms", "traced"),
    ("harness.series_rows", "count", "reported"),
    ("trace.overhead_ratio", "1", "traced"),
]


def layer_metrics(trace: dict, jobs: list[dict], outputs: list[dict | None],
                  imports: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced pass.  `outputs` holds each job's parsed
    JSON report (None when it printed none)."""
    rows = trace["spans"]

    def inclusive(*names):
        # a call nested in another call of the same group is counted once
        return sum(r[4] for r in rows if r[1] in names and r[2] not in names)

    def calls(*names):
        return sum(r[3] for r in rows if r[1] in names)

    def own(predicate):
        return sum(r[5] for r in rows if predicate(r[1]))

    def work(key):
        return sum(job["work"].get(key, 0) for job in jobs)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    reports = [o for o in outputs if isinstance(o, dict)]
    fiber_s = inclusive("zerocount.count_fiber")
    naive_s = inclusive("zerocount.count_naive")
    hash_s = inclusive("geometry.coplanar_fast", "geometry.four_point_circles",
                       "geometry.collinear_triples")
    scan_s = inclusive("geometry.coplanar_naive")
    torsion_s = inclusive("constructions.torsion_points")
    classify_calls = calls("separability.classify")
    decisive = sum(1 for o in reports if o.get("classification") in ("special", "non-special"))
    planes = [o["degeneracy"].get("max_points_per_plane", 0) for o in reports
              if isinstance(o.get("degeneracy"), dict)]
    ms = 1000.0
    values = dict(imports)
    values.update({
        "cli.self_ms": own(lambda n: n == "cli.main") * ms,
        "fileio.read_ms": inclusive("fileio.sets_from_csv", "fileio.points_from_csv") * ms,
        "fileio.write_ms": inclusive("fileio.sets_to_csv", "fileio.points_to_csv") * ms,
        "polynomials.parse_ms": inclusive("polynomials.parse_poly") * ms,
        "polynomials.specialize_calls": calls("polynomials.Polynomial.specialize"),
        "polynomials.specialize_ms": inclusive("polynomials.Polynomial.specialize") * ms,
        "polynomials.evaluate_calls": calls("polynomials.Polynomial.evaluate",
                                            "polynomials.UniPoly.evaluate"),
        "polynomials.evaluate_ms": inclusive("polynomials.Polynomial.evaluate",
                                             "polynomials.UniPoly.evaluate") * ms,
        "polynomials.gcd_calls": calls("polynomials.bivariate_gcd", "polynomials.try_divide"),
        "polynomials.gcd_ms": inclusive("polynomials.bivariate_gcd",
                                        "polynomials.try_divide") * ms,
        "zerocount.fiber_self_ms": own(lambda n: n == "zerocount.count_fiber") * ms,
        "zerocount.fibers": work("fibers"),
        "zerocount.fibers_per_s": rate(work("fibers"), fiber_s),
        "zerocount.degenerate_fibers": sum(o.get("degenerate_fibers") or 0 for o in reports),
        "zerocount.naive_self_ms": own(lambda n: n == "zerocount.count_naive") * ms,
        "zerocount.naive_points": work("naive_points"),
        "zerocount.naive_points_per_s": rate(work("naive_points"), naive_s),
        "geometry.hash_ms": hash_s * ms,
        "geometry.triples": work("triples"),
        "geometry.triples_per_s": rate(work("triples"), hash_s),
        "geometry.max_points_per_plane": max(planes, default=0),
        "geometry.scan_ms": scan_s * ms,
        "geometry.quadruples": work("quadruples"),
        "geometry.quadruples_per_s": rate(work("quadruples"), scan_s),
        "constructions.make_curve_ms": inclusive("constructions.make_curve") * ms,
        "constructions.torsion_ms": torsion_s * ms,
        "constructions.torsion_points": work("torsion_points"),
        "constructions.ms_per_torsion_point": (torsion_s * ms / work("torsion_points")
                                               if work("torsion_points") else 0.0),
        "constructions.oracle_ms": inclusive("constructions.coplanar_index_oracle") * ms,
        "constructions.oracle_steps": work("oracle_steps"),
        "constructions.ap_grid_ms": inclusive("constructions.ap_grid") * ms,
        "separability.classify_ms": inclusive("separability.classify") * ms,
        "separability.ratio_test_ms": inclusive("separability.ratio_test") * ms,
        "separability.g_sample_ms": inclusive("separability.g_sample") * ms,
        "separability.popular_ms": inclusive("separability.popular_components") * ms,
        "separability.decisive_ratio": decisive / classify_calls if classify_calls else 0.0,
        "harness.self_ms": own(lambda n: n.startswith("harness.")) * ms,
        "harness.series_rows": sum(len(o.get("rows") or []) for o in reports),
        "trace.overhead_ratio": rate(trace["traced_s"], trace["untraced_s"]),
    })
    return values


def median_imports(texts: list[str]) -> dict[str, float]:
    parsed = [parse_importtime(t) for t in texts]
    return {k: statistics.median(p[k] for p in parsed) for k in parsed[0]}


if __name__ == "__main__":
    sys.exit(trace_main(sys.argv[1], sys.argv[2]))
