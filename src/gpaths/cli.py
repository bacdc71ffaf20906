"""Command-line front end.

Subcommands: enumerate, count, map, series, riordan, table, verify.
Exit codes: 0 success, 1 verification or agreement failure, 2 usage error,
141 (128 + SIGPIPE) when the reader closes stdout before all is written.
Output is deterministic byte-for-byte for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bijections import BIJECTIONS
from .enumeration import count_paths, iter_step_strings, weighted_count
from .errors import GPathError
from .paths import BASE_FAMILIES, PathFamily, parse
from .series import _NAMED, RiordanArray, named_series, parse_series_expr
from .stats import STAT_IDS, methods_for, stat_table
from .verification import SUITES, run_suite
from .weights import DEFAULT_WEIGHTING, step_exponents, unpack_exponents

AVOIDABLE = ("uvu", "uu", "uh", "hu")


def _family_from_args(args: argparse.Namespace) -> PathFamily:
    _check_nonnegative("--max-n-override", args.max_n_override)
    family = BASE_FAMILIES[args.family]
    if args.avoid:
        patterns = tuple(p for p in args.avoid.split(",") if p)
        bad = [p for p in patterns if p not in AVOIDABLE]
        if bad:
            raise GPathError(
                f"--avoid accepts {', '.join(AVOIDABLE)}; got {bad[0]!r}"
            )
        if args.family != "gmotzkin":
            raise GPathError("--avoid applies to the gmotzkin family only")
        family = family.avoiding(*patterns)
    if args.no_h_on_axis:
        family = family.restricted()
    return family


def _parse_weights(text: str, family: PathFamily, weighting: str) -> list[Fraction]:
    """One rational value per variable of the weighting: a,b, and c where a
    step of the family weighs c; c is 0 where none does."""
    uses_c = any(
        unpack_exponents(packed)[2]
        for row in step_exponents(family, weighting).values() for packed in row.values()
    )
    takes = "a,b,c" if uses_c else "a,b"
    parts = text.split(",")
    if len(parts) != takes.count(",") + 1:
        raise GPathError(
            f"--weights: weighting {weighting} takes {takes}; got {len(parts)} "
            + ("value" if len(parts) == 1 else "values")
        )
    vals = []
    for p in parts:
        try:
            vals.append(Fraction(p))
        except ValueError as exc:
            raise GPathError(f"--weights: {exc}") from None
        except ZeroDivisionError:
            raise GPathError(f"--weights: zero denominator in {p!r}") from None
    return vals + [Fraction(0)] * (3 - len(vals))


def _check_nonnegative(flag: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise GPathError(f"{flag} must be nonnegative; got {value}")


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _check_nonnegative("--length", args.length)
    family = _family_from_args(args)
    for steps in iter_step_strings(family, args.length, args.max_n_override):
        print(steps if steps else "(empty)")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    _check_nonnegative("--length", args.length)
    _check_nonnegative("--nmax", args.nmax)
    family = _family_from_args(args)
    if args.unweighted:
        for flag, value in (
            ("--weighting", args.weighting), ("--weights", args.weights)
        ):
            if value is not None:
                raise GPathError(f"--unweighted cannot be combined with {flag}")
    weighting = args.weighting or DEFAULT_WEIGHTING[args.family]
    point = _parse_weights(args.weights, family, weighting) if args.weights is not None else None
    sizes = [args.length] if args.length is not None else range(args.nmax + 1)
    rows = []
    # the largest size first: one past the size cap is refused before any
    # row is printed
    for n in reversed(sizes):
        if args.unweighted:
            value = count_paths(family, n, args.max_n_override)
        else:
            poly = weighted_count(family, n, weighting, args.max_n_override)
            value = poly.eval_at(*point) if point else poly
        rows.append(str(value) if args.length is not None else f"{n}\t" + str(value))
    print(*reversed(rows), sep="\n")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    spec = BIJECTIONS[args.bijection]
    if args.direction == "fwd":
        family, apply = spec.domain, spec.forward
    else:
        family, apply = spec.codomain, spec.inverse
    trace: list[str] | None = [] if args.trace else None
    image = apply(parse(args.input, family), trace)
    if args.format == "json":
        payload = {
            "input": args.input,
            "output": image.steps,
            "trace": trace or [],
        }
        print(json.dumps(payload))
    else:
        print(image.steps if image.steps else "(empty)")
        for line in trace or ():
            print(f"# {line}")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    _check_nonnegative("--order", args.order)
    series = named_series(args.name, args.order)
    for n in range(args.order + 1):
        print(f"{n}\t" + str(series.coeff(n)))
    return 0


def _cmd_riordan(args: argparse.Namespace) -> int:
    _check_nonnegative("--nmax", args.nmax)
    order = max(args.nmax + 1, 8)
    array = RiordanArray(
        parse_series_expr(args.d, order), parse_series_expr(args.h, order)
    )
    rows = array.matrix(args.nmax)
    if args.format == "json":
        print(json.dumps({"d": args.d, "h": args.h, "rows": rows}))
    else:
        for row in rows:
            print(",".join(str(x) for x in row))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    _check_nonnegative("--nmax", args.nmax)
    methods = (
        list(methods_for(args.stat)) if args.method == "all" else [args.method]
    )
    tables = {m: stat_table(args.stat, m, args.nmax).rows for m in methods}
    agree = len({json.dumps(t) for t in tables.values()}) == 1
    if args.format == "json":
        if args.method == "all":
            payload = {
                "stat": args.stat,
                "method": "all",
                "tables": [
                    {"method": m, "rows": tables[m]} for m in methods
                ],
                "agree": agree,
            }
        else:
            payload = {
                "stat": args.stat,
                "method": args.method,
                "rows": tables[args.method],
            }
        print(json.dumps(payload))
    else:
        for m in methods:
            if args.method == "all":
                print(f"# {m}")
            for row in tables[m]:
                print(",".join(str(x) for x in row))
        if args.method == "all":
            print("agree" if agree else "DISAGREE")
    return 0 if agree else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_nonnegative("--nmax", args.nmax)
    results = run_suite(args.suite, args.nmax)
    failed = 0
    for result in results:
        print(result.line())
        if not result.ok:
            failed += 1
    total = len(results)
    if failed:
        print(f"FAIL ({failed} of {total} checks failed)")
        return 1
    print(f"PASS ({total} checks)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpaths",
        description="Exact enumeration, bijections, and statistics for "
        "weighted lattice paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--family",
            default="gmotzkin",
            choices=sorted(BASE_FAMILIES),
            help="path family (default: gmotzkin)",
        )
        p.add_argument(
            "--avoid",
            default="",
            help="comma-separated patterns from {uvu,uu,uh,hu} (gmotzkin only)",
        )
        p.add_argument(
            "--no-h-on-axis",
            action="store_true",
            help="forbid level-0 horizontal steps",
        )
        p.add_argument(
            "--max-n-override",
            type=int,
            default=None,
            help="move the enumeration and counting size guards",
        )

    p = sub.add_parser("enumerate", help="stream all paths of one x-length")
    add_family_flags(p)
    p.add_argument("--length", type=int, required=True, help="x-length")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("count", help="weighted or plain path counts")
    add_family_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--length", type=int, help="single x-length")
    group.add_argument("--nmax", type=int, help="all x-lengths 0..nmax")
    p.add_argument(
        "--weighting",
        default=None,
        help="weighting scheme (default depends on the family)",
    )
    p.add_argument(
        "--weights",
        default=None,
        help="evaluate at rational a,b, or a,b,c where the weighting uses c, "
        "instead of printing the polynomial",
    )
    p.add_argument(
        "--unweighted", action="store_true", help="plain cardinality only"
    )
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("map", help="apply a bijection to one path")
    p.add_argument(
        "--bijection", required=True, choices=sorted(BIJECTIONS)
    )
    p.add_argument("--direction", default="fwd", choices=("fwd", "inv"))
    p.add_argument("--input", required=True, help="step string ('' for empty)")
    p.add_argument(
        "--trace", action="store_true", help="log the cases the map takes, in order"
    )
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("series", help="print coefficients of a named series")
    p.add_argument("--name", required=True, choices=tuple(_NAMED))
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("riordan", help="print a Riordan triangle")
    p.add_argument("--d", required=True, help="e.g. 'S^3*one_over_1px'")
    p.add_argument("--h", dest="h", required=True, help="e.g. 'x*S^2'")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(fn=_cmd_riordan)

    p = sub.add_parser("table", help="statistic triangle by one or all routes")
    p.add_argument("--stat", required=True, choices=STAT_IDS)
    p.add_argument(
        "--method", default="all", choices=("brute", "riordan", "formula", "all")
    )
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify", help="run the cross-checking suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=("all", *SUITES),
    )
    p.add_argument(
        "--nmax", type=int, default=None, help="shrink the exhaustive sizes"
    )
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except (GPathError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: the interpreter's flush at exit must not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
