"""Seeded job lists and independent references for the quadcount benchmark.

A workload is a list of jobs.  A job is one `quadcount` subcommand (its argv,
relative to a work directory holding the generated input files) plus the
reference its output is checked against and the work sizes the traced run
turns into per-layer rates.  Nothing here imports quadcount: every reference
is computed by code in this file that shares nothing with the route under
test (exact integer zero counting, subset-sum dynamic programming for the
torsion index oracle, circle and line hashing of our own, a verdict table,
and a chord-and-tangent closure check for the torsion points), or is a
constant fixed by theory or by such a computation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations

# a-priori bound from the ROADMAP: a grid fits machine integers when
# sum |c| * max|v|^e < 2^62 after clearing denominators
INT64_BOUND = 2 ** 62

# Verdicts a correct detector may return.  The three structural cases are
# additively separable, so "special" is right; a later explicit
# "degenerate" verdict for an F that ignores a variable is also accepted.
VERDICTS = {
    "x*y - s*t": {"special"},
    "t - (x + y*s)": {"non-special"},
    "x^2 + y^3 + s + t^2": {"special"},
    "(x+y)^2 + s - t": {"non-special"},
    "x + y + s + t": {"special"},
    "x + s + t": {"special", "degenerate"},
    "x*s - t": {"special", "degenerate"},
    "x^2 + y^2 + s^2 + t^2 - 1": {"special"},
}

# Jobs that fail at the parent commit of the benchmark because of defects
# documented in the ROADMAP (items 4 and 5).  They stay in the workload and
# count as failed; only a failure of any other job makes the run incorrect.
KNOWN_DEFECTS = {
    "coplanar-torsion-48",
    "detect x + s + t",
    "detect x*s - t",
    "detect x^2 + y^2 + s^2 + t^2 - 1",
}


# -- polynomials as exponent -> coefficient maps over (x, y, s, t) -------------


def poly_text(terms: dict) -> str:
    pieces = []
    for exp in sorted(terms, key=lambda e: (-sum(e), tuple(-v for v in e))):
        coeff = Fraction(terms[exp])
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip("xyst", exp) if e]
        mag = abs(coeff)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} {body}" if pieces else ("-" if coeff < 0 else "") + body)
    return " ".join(pieces)


def parse_terms(spec: str) -> dict:
    """Terms from `c:exyst` items, e.g. "1:0001 -1:1000 -1:0110" is t - x - y*s."""
    terms = {}
    for item in spec.split():
        coeff, exp = item.split(":")
        terms[tuple(int(ch) for ch in exp)] = Fraction(coeff)
    return terms


def _integer_grid(terms: dict, sets):
    """Clear denominators: scale set i by the lcm L_i of its denominators and
    multiply F(X / L) by the lcm of the resulting coefficient denominators."""
    scales = [math.lcm(*(Fraction(v).denominator for v in s)) for s in sets]
    ints = [[int(Fraction(v) * L) for v in s] for s, L in zip(sets, scales)]
    scaled = {}
    for exp, c in terms.items():
        den = 1
        for L, e in zip(scales, exp):
            den *= L ** e
        scaled[exp] = Fraction(c) / den
    mult = math.lcm(*(c.denominator for c in scaled.values()))
    return {e: int(c * mult) for e, c in scaled.items()}, ints


def magnitude_bound(terms: dict, sets) -> int:
    """sum |c| * prod max|v_i|^e_i of the denominator-free grid."""
    coeffs, ints = _integer_grid(terms, sets)
    tops = [max(abs(v) for v in s) for s in ints]
    total = 0
    for exp, c in coeffs.items():
        term = abs(c)
        for top, e in zip(tops, exp):
            term *= top ** e
        total += term
    return total


def zero_count(terms: dict, sets) -> tuple[int, int]:
    """Exact zeros of F on A x B x C x D and the number of (a, b, c) fibers on
    which F vanishes identically in t, by integer arithmetic only."""
    coeffs, ints = _integer_grid(terms, sets)
    degree = max(e[3] for e in coeffs)
    by_power = [[(c, e[0], e[1], e[2]) for e, c in coeffs.items() if e[3] == k]
                for k in range(degree + 1)]
    targets = set(ints[3])
    count = degenerate = 0
    for a in ints[0]:
        for b in ints[1]:
            for c in ints[2]:
                g = [sum(co * a ** i * b ** j * c ** k for co, i, j, k in terms_k)
                     for terms_k in by_power]
                while g and g[-1] == 0:
                    g.pop()
                if not g:
                    count += len(targets)
                    degenerate += 1
                elif len(g) == 2:
                    q, r = divmod(-g[0], g[1])
                    count += r == 0 and q in targets
                elif len(g) == 3:
                    disc = g[1] * g[1] - 4 * g[2] * g[0]
                    if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                        root = math.isqrt(disc)
                        for num in {-g[1] + root, -g[1] - root}:
                            q, r = divmod(num, 2 * g[2])
                            count += r == 0 and q in targets
                elif len(g) > 3:
                    for v in targets:
                        acc = 0
                        for co in reversed(g):
                            acc = acc * v + co
                        count += acc == 0
    return count, degenerate


# -- point-set references ------------------------------------------------------


def collinear_count(points) -> int:
    """Collinear 3-subsets of integer 2D points by hashing lines through pairs."""
    lines: dict = {}
    for (x1, y1), (x2, y2) in combinations(points, 2):
        a, b = y2 - y1, x1 - x2
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        lines.setdefault((a, b, a * x1 + b * y1), set()).update(((x1, y1), (x2, y2)))
    return sum(math.comb(len(p), 3) for p in lines.values())


def circle_counts(points) -> tuple[int, int]:
    """(concyclic 4-subsets, circles through >= 4 points) of integer 2D points.

    The circle x^2 + y^2 + D x + E y + F = 0 through three non-collinear
    points is keyed by the primitive integer vector proportional to
    (1, D, E, F), solved by Cramer's rule.
    """
    circles: dict = {}
    for p, q, r in combinations(points, 3):
        (x1, y1), (x2, y2), (x3, y3) = p, q, r
        det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if det == 0:
            continue
        s1, s2, s3 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
        # D, E from the differences (q - p) and (r - p); F from p
        rx, ry, rs = x2 - x1, y2 - y1, s1 - s2
        ux, uy, us = x3 - x1, y3 - y1, s1 - s3
        dn = rs * uy - us * ry
        en = rx * us - ux * rs
        fn = -(s1 * det + dn * x1 + en * y1)
        g = math.gcd(det, dn, en, fn)
        if det < 0:
            g = -g
        circles.setdefault((det // g, dn // g, en // g, fn // g), set()).update((p, q, r))
    sizes = [len(m) for m in circles.values()]
    return sum(math.comb(m, 4) for m in sizes), sum(1 for m in sizes if m >= 4)


def torsion_index_count(n: int) -> int:
    """4-subsets of {1..n-1} with sum divisible by n, by subset-sum DP."""
    ways = [[1] + [0] * (n - 1)] + [[0] * n for _ in range(4)]
    for v in range(1, n):
        for j in range(4, 0, -1):
            prev = ways[j - 1]
            shifted = prev[-v:] + prev[:-v]
            ways[j] = [a + b for a, b in zip(ways[j], shifted)]
    return ways[4][0]


def log_log_slope(rows) -> float:
    xs = [math.log(n) for n, _ in rows]
    ys = [math.log(c) for _, c in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sum((x - mx) ** 2 for x in xs)


def torsion_closure_error(rows, n: int) -> float | None:
    """Checks that CSV rows (x, y, x^2) are the n - 1 affine points of an
    order-n subgroup of y^2 = x^3 + x + 1 (the CLI's default curve): all on
    the curve, and P + Q in the set for a fixed P and every Q != -P (chord
    and tangent law).  Returns the worst relative error, or None if the
    shape is wrong."""
    a = b = 1.0
    if len(rows) != n - 1 or any(len(r) != 3 for r in rows):
        return None
    pts = [(x, y) for x, y, _ in rows]
    worst = 0.0
    for x, y, w in rows:
        worst = max(worst, abs(w - x * x) / max(1.0, x * x),
                    abs(y * y - (x ** 3 + a * x + b)) / max(1.0, y * y))
    px, py = pts[0]
    for qx, qy in pts:
        if abs(qx - px) < 1e-12 and abs(qy + py) < 1e-9 * max(1.0, abs(py)):
            continue  # Q = -P: the sum is the identity, which has no affine image
        if abs(qx - px) < 1e-12:
            lam = (3 * px * px + a) / (2 * py)
        else:
            lam = (qy - py) / (qx - px)
        rx = lam * lam - px - qx
        ry = lam * (px - rx) - py
        scale = max(1.0, abs(rx), abs(ry))
        worst = max(worst, min(math.hypot(rx - sx, ry - sy) for sx, sy in pts) / scale)
    return worst


# -- jobs ------------------------------------------------------------------------


class Workload:
    """Jobs plus the files they read, written into a work directory later."""

    def __init__(self):
        self.jobs: list[dict] = []
        self.files: dict[str, str] = {}
        self.setup_argvs: list[list[str]] = []  # program runs that make input files

    def add(self, name, argv, check, work=None):
        self.jobs.append({"name": name, "argv": argv, "check": check, "work": work or {},
                          "known_defect": name in KNOWN_DEFECTS})

    def sets_file(self, name: str, sets) -> str:
        self.files[name] = "".join(f"{label}: " + ",".join(str(Fraction(v)) for v in s) + "\n"
                                   for label, s in zip("ABCD", sets))
        return name

    def points_file(self, name: str, points) -> str:
        self.files[name] = "".join(",".join(str(v) for v in p) + "\n" for p in points)
        return name

    def zeros(self, name, terms, sets, method, bound_side):
        """A count-zeros job on the grid `sets`; `bound_side` states which side
        of the int64 magnitude bound the instance must sit on."""
        big = magnitude_bound(terms, sets) >= INT64_BOUND
        if big != (bound_side == "rational"):
            raise AssertionError(f"{name}: grid on the wrong side of the int64 bound")
        fname = self.sets_file(f"{name}.sets", sets)
        count, degenerate = zero_count(terms, sets)
        sizes = [len(s) for s in sets]
        work = ({"fibers": sizes[0] * sizes[1] * sizes[2]} if method == "fiber"
                else {"naive_points": math.prod(sizes)})
        check = {"kind": "count", "count": count}
        if method == "fiber":
            check["degenerate_fibers"] = degenerate
        self.add(f"{name}-{method}",
                 ["count-zeros", f"--poly={poly_text(terms)}", "--sets", fname, "--method", method],
                 check, work)


def _ints(lo: int, hi: int):
    return list(range(lo, hi + 1))


def _ap_sets(kind: str, n: int):
    if kind == "additive":
        return [_ints(1, n)] * 3 + [list(range(-3 * n, -2))]
    abc = [Fraction(2) ** i for i in range(1, n + 1)]
    return [abc] * 3 + [[Fraction(2) ** -m for m in range(3 * n, 2, -1)]]


def _ap_construct(wl: Workload, kind: str, n: int):
    out = f"construct-ap-{kind}-{n}.csv"
    expected = [[str(Fraction(v)) for v in s] for s in _ap_sets(kind, n)]
    wl.add(f"construct-ap-{kind}-{n}",
           ["construct", "--kind", f"ap-{kind}", "--n", str(n), "--out", "csv", "--out-path", out],
           {"kind": "sets_csv", "sets": expected})


T_LINEAR = parse_terms("1:0001 -1:1000 -1:0110")  # t - (x + y*s)


def integer_grids(wl: Workload, rng: random.Random) -> None:
    """Grids below the int64 magnitude bound."""
    side = "integer"
    wl.zeros("t-x-ys-25", T_LINEAR, [_ints(1, 25)] * 4, "fiber", side)
    wl.zeros("t-x-ys-22", T_LINEAR, [_ints(1, 22)] * 4, "naive", side)
    _ap_construct(wl, "additive", 22)
    wl.zeros("ap-additive-22", parse_terms("1:1000 1:0100 1:0010 1:0001"),
             _ap_sets("additive", 22), "fiber", side)
    # degree 2 in the solved variable: the candidate-scan path
    wl.zeros("xy-st2-t-6", parse_terms("1:1100 -1:0012 1:0001"), [_ints(-6, 6)] * 4, "fiber", side)
    # (x - y)*t + s - x vanishes identically on every fiber with x = y = s
    wl.zeros("degenerate-18", parse_terms("1:1001 -1:0101 1:0010 -1:1000"),
             [_ints(1, 18)] * 4, "fiber", side)
    # seeded coefficients on fixed supports, so the work per seed is the same
    nz = [c for c in range(-3, 4) if c]
    linear = {(0, 0, 0, 1): Fraction(rng.choice((1, -1, 2, -2))),
              (1, 1, 0, 0): Fraction(rng.choice(nz)), (0, 0, 1, 0): Fraction(rng.choice(nz)),
              (1, 0, 0, 0): Fraction(rng.choice(nz)), (0, 0, 0, 0): Fraction(rng.randint(-5, 5))}
    wl.zeros("random-linear-11", linear, [_ints(-11, 11)] * 4, "fiber", side)
    quadratic = {(0, 0, 0, 2): Fraction(rng.choice(nz)), (1, 0, 0, 1): Fraction(rng.choice(nz)),
                 (0, 1, 1, 0): Fraction(rng.choice(nz)), (0, 0, 0, 1): Fraction(rng.choice(nz)),
                 (0, 0, 0, 0): Fraction(rng.randint(-5, 5))}
    wl.zeros("random-quadratic-11", quadratic, [_ints(-11, 11)] * 4, "naive", side)


def _rational(rng: random.Random, primes) -> Fraction:
    return Fraction(rng.randint(1, 10 ** 6), rng.choice(primes))


def rational_grids(wl: Workload, rng: random.Random) -> None:
    """Grids past the int64 magnitude bound, where an exact fallback runs."""
    side = "rational"
    mult = parse_terms("1:1111 -1:0000")  # x*y*s*t - 1
    _ap_construct(wl, "multiplicative", 20)
    wl.zeros("ap-multiplicative-20", mult, _ap_sets("multiplicative", 20), "fiber", side)
    wl.zeros("ap-multiplicative-11", mult, _ap_sets("multiplicative", 11), "naive", side)
    primes = [p for p in range(10007, 10400) if all(p % d for d in range(2, 101))]
    for n, method in ((20, "fiber"), (12, "naive")):
        values = set()
        while len(values) < n:
            values.add(_rational(rng, primes))
        values = sorted(values)
        wl.zeros(f"xy-st-pq-{n}", parse_terms("1:1100 -1:0011"), [values] * 4, method, side)
        abc = []
        for _ in range(3):
            s = set()
            while len(s) < n:
                s.add(_rational(rng, primes))
            abc.append(sorted(s))
        # half of D are sums x + y*s from the grid, so the count is not zero
        d = {abc[0][rng.randrange(n)] + abc[1][rng.randrange(n)] * abc[2][rng.randrange(n)]
             for _ in range(n // 2)}
        while len(d) < n:
            d.add(_rational(rng, primes))
        wl.zeros(f"t-x-ys-pq-{n}", T_LINEAR, abc + [sorted(d)], method, side)


def incidences(wl: Workload, rng: random.Random) -> None:
    """Exact plane, line and circle hashing: insert-heavy on the moment
    curve, merge-heavy on lattices."""

    def coplanar(name, points, count, method=None):
        fname = wl.points_file(f"{name}.csv", points)
        argv = ["count-coplanar", "--points", fname] + (["--method", method] if method else [])
        work = ({"quadruples": math.comb(len(points), 4)} if method == "naive"
                else {"triples": math.comb(len(points), 3)})
        wl.add(f"coplanar-{name}", argv, {"kind": "count", "count": count}, work)

    # a plane meets the twisted cubic (t, t^2, t^3) in at most three points
    for n in (90, 110):
        coplanar(f"moment-{n}", [(t, t * t, t ** 3) for t in range(1, n + 1)], 0)
    cube = lambda k: [(x, y, z) for x in range(k) for y in range(k) for z in range(k)]
    coplanar("lattice-5", cube(5), 673943)
    coplanar("lattice-4", cube(4), 64576, method="naive")

    def plane2(kind, name, points):
        fname = wl.points_file(f"{name}.csv", points)
        if kind == "circles":
            quads, circles = circle_counts(points)
            check = {"kind": "count", "count": quads, "circles": circles}
        else:
            check = {"kind": "count", "count": collinear_count(points)}
        wl.add(f"{kind}-{name}", [f"count-{kind}", "--points", fname], check,
               {"triples": math.comb(len(points), 3)})

    lattice = set()
    while len(lattice) < 100:
        lattice.add((rng.randint(-30, 30), rng.randint(-30, 30)))
    plane2("circles", "random-100", sorted(lattice))
    plane2("circles", "grid-10", [(x, y) for x in range(10) for y in range(10)])
    plane2("collinear", "grid-25", [(x, y) for x in range(25) for y in range(25)])
    scattered = set()
    while len(scattered) < 200:
        scattered.add((rng.randint(-20, 20), rng.randint(-20, 20)))
    plane2("collinear", "random-200", sorted(scattered))


def numeric(wl: Workload, rng: random.Random) -> None:
    """The float layers.  Seed-independent: the detector runs at its default
    seed, and the torsion sets and growth series are fixed by n."""
    for n in (64, 128):
        out = f"construct-elliptic-{n}.csv"
        wl.add(f"construct-elliptic-{n}",
               ["construct", "--kind", "elliptic", "--n", str(n), "--out", "csv", "--out-path", out],
               {"kind": "torsion_csv", "n": n}, {"torsion_points": n - 1})
    for n in (32, 48):
        fname = f"torsion-{n}.csv"
        wl.setup_argvs.append(["construct", "--kind", "elliptic", "--n", str(n),
                               "--out", "csv", "--out-path", fname])
        wl.add(f"coplanar-torsion-{n}", ["count-coplanar", "--tol", "1e-12", "--points", fname],
               {"kind": "count", "count": torsion_index_count(n)},
               {"quadruples": math.comb(n - 1, 4)})
    for experiment, ns in (("elliptic-oracle", (128, 256, 384)),
                           ("elliptic-coplanar", (8, 16, 24, 32))):
        rows = [[n, torsion_index_count(n)] for n in ns]
        if experiment == "elliptic-oracle":
            work = {"oracle_steps": sum(math.comb(n - 1, 3) for n in ns)}
        else:
            work = {"torsion_points": sum(n - 1 for n in ns),
                    "quadruples": sum(math.comb(n - 1, 4) for n in ns)}
        wl.add(f"fit-{experiment}",
               ["fit-exponent", "--experiment", experiment, "--ns", ",".join(map(str, ns))],
               {"kind": "series", "rows": rows, "slope": log_log_slope(rows)}, work)
    for text, accept in VERDICTS.items():
        wl.add(f"detect {text}", ["detect-special", f"--poly={text}"],
               {"kind": "verdict", "accept": sorted(accept)})


# Each workload bypasses the other's layers: "zeros" never enters geometry,
# constructions' curve numerics or separability; "incidences-numeric" never
# enters zerocount.
WORKLOADS = {"zeros": (integer_grids, rational_grids),
             "incidences-numeric": (incidences, numeric)}


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    wl = Workload()
    for part in WORKLOADS[name]:
        part(wl, rng)
    return wl


# -- checking ------------------------------------------------------------------


def _csv_rows(text: str):
    return [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]


def check(job: dict, returncode: int, stdout: str, out_text: str | None):
    """(ok, summary) for one job's output.  `summary` holds the published
    fields the job produced, so repeated passes can be compared exactly."""
    ref = job["check"]
    if returncode != 0:
        return False, {"exit": returncode}
    kind = ref["kind"]
    if kind in ("sets_csv", "torsion_csv"):
        if out_text is None:
            return False, {"output": "missing"}
        if kind == "sets_csv":
            sets = []
            for line in out_text.splitlines():
                if line.strip() and not line.startswith("#"):
                    sets.append([v.strip() for v in line.partition(":")[2].split(",")])
            return sets == ref["sets"], {"sets": [len(s) for s in sets]}
        try:
            rows = [[float(v) for v in row] for row in _csv_rows(out_text)]
        except ValueError:
            return False, {"output": "malformed"}
        err = torsion_closure_error(rows, ref["n"])
        return err is not None and err < 1e-6, {"points": len(rows)}
    try:
        out = json.loads(stdout)
    except ValueError:
        return False, {"output": "malformed"}
    if not isinstance(out, dict):
        return False, {"output": "malformed"}
    if kind == "verdict":
        verdict = out.get("classification")
        return verdict in ref["accept"], {"classification": verdict}
    if kind == "series":
        rows = [r[:2] for r in out.get("rows") or []]
        slope = out.get("slope")
        ok = rows == ref["rows"] and slope is not None and abs(slope - ref["slope"]) < 1e-9
        return ok, {"rows": rows, "slope": slope}
    summary = {k: out.get(k) for k in ("count", "degenerate_fibers", "circles") if k in ref}
    summary["degeneracy"] = out.get("degeneracy")
    ok = all(out.get(k) == ref[k] for k in ("count", "degenerate_fibers", "circles") if k in ref)
    return ok, summary
