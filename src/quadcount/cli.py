"""Command-line entry point.

Subcommands: count-zeros, detect-special, construct, count-coplanar,
count-collinear, count-circles, fit-exponent.  Output is JSON; `--out csv`
exists only on construct and fit-exponent, which have a CSV format of their
own.  Exit codes: 0 success, 1 domain error (reported as `error:<code>:
message` on stderr), 2 usage error.  A bad --poly, sets file or points file
is reported as `parse`, `sets` or `points`, an unreadable file as `io`, and
any other ValueError or RuntimeError under the command's code in
`_HANDLERS`.  No subcommand draws at random: the detector's verdict is
exact, and a polynomial with a repeated factor is a domain error.  Each
option is set by its own flag alone and takes one value, which may start
with "-" also as a separate word; --poly is read over x, y, s, t.

`main()` with no arguments is the program (the `quadcount` console script,
`python -m quadcount.cli`): once the job's output is written and flushed it
ends the process with `os._exit`, so no interpreter teardown, atexit hook or
subprocess coverage runs after it.  Embedders and tests call `main(argv)`,
which returns the exit code.  Only the subparser the command names is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import constructions, fileio, geometry, harness, separability, zerocount
from .polynomials import VARS, parse_poly


class DomainError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_poly(source: str):
    # the text itself, or, only when it does not parse, the file it names
    try:
        try:
            return parse_poly(source, VARS)
        except ValueError:
            if not os.path.isfile(source):
                raise
        return parse_poly(_read_text(source), VARS)
    except ValueError as exc:
        raise DomainError("parse", str(exc)) from exc


def _load_sets(path: str):
    try:
        return fileio.sets_from_csv(_read_text(path))
    except ValueError as exc:
        raise DomainError("sets", str(exc)) from exc


def _load_points(path: str, dimension: int):
    try:
        return fileio.points_from_csv(_read_text(path), dimension)
    except ValueError as exc:
        raise DomainError("points", str(exc)) from exc


def _emit(payload: dict, args) -> None:
    csv = payload.pop("_csv", None)
    text = csv if args.out == "csv" else json.dumps(payload, indent=2) + "\n"
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


# every option takes exactly one value, but argparse reads a separate value
# that starts with "-" ("-1/2", "-x+y+s+t") as an option: `_run` joins such a
# word to the flag before it, as "--b=-1/2", unless either is a help flag
_HELP = ("-h", "--help")


def _join_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for word in argv:
        flag = out[-1] if out else ""
        if (flag[:1] == "-" and "=" not in flag and flag not in _HELP
                and word[:1] == "-" and word not in _HELP):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _parse_ns(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n list: {text!r}") from exc


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of `command` only, or of all seven
    when `command` is None (for --help and for an unknown command)."""
    parser = argparse.ArgumentParser(
        prog="quadcount",
        description="Count polynomial zeros on product grids, coplanar quadruples, "
                    "collinear triples, and four-point circles; fit growth exponents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text) if command in (None, name) else None

    def common(p, formats=("json",)):
        p.add_argument("--out", choices=formats, default="json", help="output format")
        p.add_argument("--out-path", default=None, help="write output to a file instead of stdout")

    if p := add("count-zeros", "count zeros of a 4-variable polynomial on A x B x C x D"):
        p.add_argument("--poly", required=True, help="polynomial in x, y, s, t, or a file of it")
        p.add_argument("--sets", required=True, help="CSV file with lines A:...,B:...,C:...,D:...")
        p.add_argument("--method", choices=("naive", "fiber"), default="fiber")
        p.add_argument("--solve-var", default=None, help="variable solved per fiber (fiber method only)")
        common(p)

    if p := add("detect-special", "classify a polynomial as special / non-special / degenerate"):
        p.add_argument("--poly", required=True, help="polynomial in x, y, s, t, or a file of it")
        common(p)

    if p := add("construct", "emit an extremal or control configuration"):
        p.add_argument("--kind", required=True,
                       choices=("ap-additive", "ap-multiplicative", "elliptic", "moment"))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--a", type=_parse_fraction, default=Fraction(1),
                       help="curve coefficient a (elliptic)")
        p.add_argument("--b", type=_parse_fraction, default=Fraction(1),
                       help="curve coefficient b (elliptic)")
        p.add_argument("--spacing", type=_parse_fraction, default=Fraction(1),
                       help="moment curve step")
        common(p, ("json", "csv"))

    for name, help_text in (
        ("count-coplanar", "count coplanar 4-subsets of a 3D point set"),
        ("count-collinear", "count collinear 3-subsets of a 2D point set"),
        ("count-circles", "count four-point circles of a 2D point set"),
    ):
        if p := add(name, help_text):
            p.add_argument("--points", required=True, help="CSV file of points")
            if name == "count-coplanar":
                p.add_argument("--method", choices=("naive", "fast"), default=None)
                p.add_argument("--tol", type=float, default=geometry.TORSION_COPLANAR_TOL,
                               help="float-mode tolerance")
            common(p)

    if p := add("fit-exponent", "run a growth experiment and estimate its exponent"):
        p.add_argument("--experiment", required=True, choices=sorted(harness.EXPERIMENTS))
        p.add_argument("--ns", type=_parse_ns, required=True, help="comma list, e.g. 16,32,64,128")
        common(p, ("json", "csv"))
    return parser


# -- subcommand handlers --------------------------------------------------------
#
# A handler maps the parsed options to the report's fields after "command".


def _cmd_count_zeros(args) -> dict:
    if args.method == "naive" and args.solve_var is not None:
        raise DomainError("count", "--solve-var applies to --method fiber only")
    poly, sets = _load_poly(args.poly), _load_sets(args.sets)
    if args.method == "naive":
        report = zerocount.count_naive(poly, sets)
    else:
        report = zerocount.count_fiber(poly, sets, args.solve_var)
    return {"poly": str(poly), **report.to_json()}


def _cmd_detect_special(args) -> dict:
    poly = _load_poly(args.poly)
    return {"poly": str(poly), **separability.classify(poly).to_json()}


def _cmd_construct(args) -> dict:
    kind, out = args.kind, {"kind": args.kind, "n": args.n}
    if kind in ("ap-additive", "ap-multiplicative"):
        grid = constructions.ap_grid(kind.removeprefix("ap-"), args.n)
        return {
            **out, "poly": str(grid.poly), "expected_count": grid.expected,
            "sets": {l: [str(v) for v in s] for l, s in zip("ABCD", grid.sets.sets)},
            "_csv": f"# poly: {grid.poly}\n# expected-count: {grid.expected}\n"
                    + fileio.sets_to_csv(grid.sets),
        }
    if kind == "elliptic":
        cfg = constructions.make_curve(args.a, args.b)
        points = constructions.torsion_points(cfg, args.n)[1:]
        embedded = constructions.embed_quartic(cfg, points)
        return {
            **out, "curve": {"a": str(cfg.a), "b": str(cfg.b), "period": cfg.period},
            "points": [list(p) for p in embedded.points],
            "_csv": fileio.points_to_csv(embedded),
        }
    points = constructions.moment_curve_points(args.n, args.spacing)
    return {**out, "points": [[str(v) for v in p] for p in points.points],
            "_csv": fileio.points_to_csv(points)}


def _cmd_count_points(args) -> dict:
    """count-coplanar on 3D points, count-collinear and count-circles on 2D.
    The geometry functions are read at call time, so that a wrapper put on
    the module attribute sees the call."""
    coplanar = args.command == "count-coplanar"
    points = _load_points(args.points, 3 if coplanar else 2)
    if not coplanar:
        count = (geometry.collinear_triples if args.command == "count-collinear"
                 else geometry.four_point_circles)
        report = count(points)
    elif (args.method or ("fast" if points.kind == "exact" else "naive")) == "fast":
        report = geometry.coplanar_fast(points)
    else:
        report = geometry.coplanar_naive(points, tol=args.tol)
    return {"points": len(points), "kind": points.kind, **report.to_json()}


def _cmd_fit_exponent(args) -> dict:
    series = harness.run_series(args.experiment, args.ns)
    return {"name": args.experiment, **series.to_json(), "_csv": series.to_csv()}


# each command's handler and the code of its domain errors
_HANDLERS = {
    "count-zeros": (_cmd_count_zeros, "count"),
    "detect-special": (_cmd_detect_special, "detect"),
    "construct": (_cmd_construct, "construct"),
    "count-coplanar": (_cmd_count_points, "count"),
    "count-collinear": (_cmd_count_points, "count"),
    "count-circles": (_cmd_count_points, "count"),
    "fit-exponent": (_cmd_fit_exponent, "experiment"),
}


def _run(argv: list[str]) -> int:
    # build only the subparser argv names, if it names one
    parser = _build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    args = parser.parse_args(_join_dash_values(argv))
    handler, code = _HANDLERS[args.command]
    try:
        payload = {"command": args.command, **handler(args)}
    except DomainError as exc:
        code, error = exc.code, exc
    except OSError as exc:
        code, error = "io", exc
    except (ValueError, RuntimeError) as exc:
        error = exc
    else:
        _emit(payload, args)
        return 0
    print(f"error:{code}: {error}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    """Run one job and return its exit code, given `argv`.

    Without `argv` this is the program (the console script and `python -m
    quadcount.cli`): it runs `sys.argv[1:]`, flushes stdout and stderr and
    ends the process with `os._exit`, skipping interpreter teardown, so
    atexit hooks do not run.  If the flush fails, the code is returned for
    the interpreter to exit with.  Usage errors raise SystemExit, as from
    argparse.
    """
    if argv is not None:
        return _run(argv)
    code = _run(sys.argv[1:])
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(main())
