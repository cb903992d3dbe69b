"""Command-line frontend: listings, count tables, series expansion, and the
verification suite.

Exit codes are a fixed contract: 0 on success (all checks passing), 1 when a
verification check fails, 2 on a usage error, 141 when stdout closes early.
Output is deterministic; timings are emitted only in the JSON report format.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from .counting import (
    count_by_perimeter,
    count_parity_split,
    enumerate_by_perimeter,
    excess_e,
)
from .partitions import (
    ConstraintClass,
    DISTINCT,
    ODD,
    Partition,
    UNRESTRICTED,
    d_distinct,
    g_class,
    make_partition,
    mod_one,
)
from .profile import from_profile, to_profile
from .series import expand, gf_of_class
from .identities import CHECKS, _REFINEMENT_CASES, run_checks

DEFAULT_QBOUND = 15
ENUMERATE_OUTPUT_LIMIT = 1 << 20  # all partitions of perimeter 21; enumerate refuses more
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the signal stops


class BadArgument(ValueError, argparse.ArgumentTypeError):
    """A command-line value that does not parse; argparse shows its message."""


def parse_class_spec(text: str) -> ConstraintClass:
    """``name`` or ``name:d``, as ``str`` prints a :class:`ConstraintClass`;
    the class itself rejects unknown names and bad parameters."""
    name, sep, arg = text.partition(":")
    try:
        if sep and not arg.isdecimal():
            raise ValueError(f"the parameter must be a positive integer, got {arg!r}")
        return ConstraintClass(name, int(arg)) if sep else ConstraintClass(name)
    except (TypeError, ValueError) as exc:
        raise BadArgument(f"bad class spec {text!r}: {exc}") from None


def parse_range(text: str) -> tuple[int, int]:
    """'7' or '1..10' -> inclusive (lo, hi)."""
    lo, sep, hi = text.partition("..")
    if not sep:
        hi = lo
    if not lo.isdecimal() or not hi.isdecimal() or int(lo) < 1 or int(hi) < int(lo):
        raise BadArgument(f"bad perimeter range {text!r}")
    return int(lo), int(hi)


def parse_eval_spec(text: str) -> dict[str, int]:
    """'x=1,y=-1' -> {'x': 1, 'y': -1}."""
    out: dict[str, int] = {}
    for piece in text.split(","):
        name, sep, val = piece.partition("=")
        name = name.strip()
        if not sep or name not in ("x", "y", "q"):
            raise BadArgument(f"bad eval assignment {piece!r}")
        if name in out:
            raise BadArgument(f"repeated eval assignment {piece!r}")
        try:
            out[name] = int(val)
        except ValueError:
            raise BadArgument(f"eval value for {name!r} must be an integer") from None
    return out


def partition_text(p: Partition) -> str:
    return ",".join(map(str, p.parts))


def _csv_out(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-str digit limit while exact counts are rendered,
    then restore the caller's setting.  The limit is process-wide, so other
    threads see it lifted for that long."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python 3.10 before 3.10.7 has no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_enumerate(args) -> int:
    if (total := count_by_perimeter(args.perimeter, args.class_spec)) > ENUMERATE_OUTPUT_LIMIT:
        raise ValueError(f"{total} partitions to list, more than {ENUMERATE_OUTPUT_LIMIT}; use count")
    listed = enumerate_by_perimeter(args.perimeter, args.class_spec)
    if args.parts is not None:
        listed = (p for p in listed if p.length == args.parts)
    if args.largest is not None:
        listed = (p for p in listed if p.parts[0] == args.largest)
    if args.rank is not None:
        listed = (p for p in listed if p.parts[0] - p.length == args.rank)
    out = sys.stdout
    if args.format == "json":
        # the bytes of json.dumps on the whole list, one element at a time
        out.write("[")
        for i, p in enumerate(listed):
            out.write(f"{', ' if i else ''}[{', '.join(map(str, p.parts))}]")
        out.write("]\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["parts"])
        writer.writerows([partition_text(p)] for p in listed)
    else:
        out.writelines(f"{partition_text(p)}\n" for p in listed)
    return 0


def _cmd_count(args) -> int:
    lo, hi = args.perimeter
    if args.split_parity and args.class_spec.rule != DISTINCT.rule:
        raise ValueError("--split-parity applies only to --class distinct")
    rows = []
    for n in range(lo, hi + 1):
        if args.split_parity:  # a class with the rule of distinct, so the count is even + odd
            even, odd = count_parity_split(n)
            rows.append({"perimeter": n, "count": even + odd, "even": even, "odd": odd, "e": excess_e(n)})
        else:
            rows.append({"perimeter": n, "count": count_by_perimeter(n, args.class_spec)})
    keys = list(rows[0])
    with _unlimited_int_digits():
        if args.format == "json":
            print(json.dumps(rows))
        elif args.format == "csv":
            print(_csv_out(keys, [[r[k] for k in keys] for r in rows]), end="")
        else:
            for r in rows:
                print(" ".join(str(r[k]) for k in keys))
    return 0


def _cmd_gf(args) -> int:
    qbound = args.qbound if args.qbound is not None else DEFAULT_QBOUND
    poly = expand(gf_of_class(args.class_spec), qbound)
    if args.eval:
        poly = poly.substitute(args.eval)
    if args.format == "json":
        print(
            json.dumps(
                {"variables": list(poly.variables), "qbound": qbound, "terms": poly.json_terms()}
            )
        )
    elif args.format == "csv":
        rows = [[coeff, *exps] for exps, coeff in poly.sorted_terms()]
        print(_csv_out(["coeff", *poly.variables], rows), end="")
    else:
        print(poly.text())
    return 0


def _cmd_verify(args) -> int:
    overrides = {
        "max_n": args.max_n,
        "qbound": args.qbound,  # unset, each check keeps its own default qbound
        "max_size": args.max_size,
        "enum_limit": args.enum_limit,
        "d": args.d,
    }
    if args.check != "all" and args.check not in CHECKS:
        raise ValueError(f"unknown check {args.check!r} (known: all, {', '.join(sorted(CHECKS))})")
    reports = run_checks(args.check, **overrides)
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in reports], sort_keys=True))
    elif args.format == "csv":
        rows = [
            [r.check_id, r.status, json.dumps(r.params, sort_keys=True)] for r in reports
        ]
        print(_csv_out(["check_id", "status", "params"], rows), end="")
    else:
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            detail = " ".join(f"{k}={r.params[k]}" for k in sorted(r.params))
            print(f"[{tag}] {r.check_id} ({detail})")
            if r.counterexample is not None:
                print(f"    counterexample: {json.dumps(r.counterexample, sort_keys=True)}")
    return 0 if all(r.passed for r in reports) else 1


def _table_rows(table_id: int) -> tuple[list[str], list[tuple[int, tuple[Partition, ...]]]]:
    """The four worked tables: the header, and rows (perimeter, one
    partition of each column) matching equinumerous families."""
    if table_id <= 3:  # the (perimeter, k) of case table_id - 1 of _REFINEMENT_CASES
        n, k, header = (
            (9, 4, ["distinct (perimeter 9, 4 parts)", "odd (perimeter 9, largest 7)"]),
            (8, 6, ["distinct (perimeter 8, largest 6)", "odd (perimeter 8, largest+2*parts = 13)"]),
            (7, 2, ["distinct (perimeter 7, rank 2)", "odd (perimeter 7, 3 parts)"]),
        )[table_id - 1]
        _, distinct_stat, odd_stat, odd_at, *_ = _REFINEMENT_CASES[table_id - 1]
        left = [p for p in enumerate_by_perimeter(n, DISTINCT) if distinct_stat(p.parts) == k]
        right = [p for p in enumerate_by_perimeter(n, ODD) if odd_stat(p.parts) == odd_at(k)]
        groups = [(n, [left, right])]
    else:  # table 4; argparse refuses any other id
        classes = (d_distinct(2), mod_one(2), g_class(2))
        header = [str(c) for c in classes]
        groups = []
        for n in range(1, 8):
            col1 = list(enumerate_by_perimeter(n, classes[0]))
            # the matched columns run smallest-first against col1 largest-first
            col2 = list(enumerate_by_perimeter(n, classes[1]))[::-1]
            col3 = list(enumerate_by_perimeter(n, classes[2]))[::-1]
            groups.append((n, [col1, col2, col3]))
    return header, [(n, row) for n, cols in groups for row in zip(*cols)]


def _cmd_table(args) -> int:
    header, rows = _table_rows(args.id)
    if args.format == "json":
        print(json.dumps([{"perimeter": n, "columns": [list(p.parts) for p in row]} for n, row in rows]))
    elif args.format == "csv":
        print(_csv_out(["perimeter", *header], [[n, *map(partition_text, row)] for n, row in rows]), end="")
    else:
        for _, row in rows:
            print(" | ".join(map(partition_text, row)))
    return 0


def _cmd_word(args) -> int:
    if args.encode:
        # a piece that is not a number goes through as text, for make_partition to name
        pieces = args.value.split(",") if args.value else []
        p = make_partition(int(x) if x.isdecimal() else x for x in pieces)
        print(to_profile(p))
    else:
        print(partition_text(from_profile(args.value)))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=["text", "json", "csv"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookcomb",
        description="Exact enumeration and verification for partitions graded by largest hook length.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_enum = subs.add_parser("enumerate", help="list partitions with a given perimeter")
    p_enum.add_argument("--perimeter", type=int, required=True)
    p_enum.add_argument("--class", dest="class_spec", type=parse_class_spec, default=UNRESTRICTED)
    p_enum.add_argument("--parts", type=int, help="keep only partitions with this many parts")
    p_enum.add_argument("--largest", type=int, help="keep only partitions with this largest part")
    p_enum.add_argument("--rank", type=int, help="keep only partitions with this rank")
    _add_format(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_count = subs.add_parser("count", help="exact counts over a perimeter range")
    p_count.add_argument("--perimeter", type=parse_range, required=True, metavar="N|LO..HI")
    p_count.add_argument("--class", dest="class_spec", type=parse_class_spec, default=UNRESTRICTED)
    p_count.add_argument("--split-parity", action="store_true", help="add even/odd length columns and their excess")
    _add_format(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_gf = subs.add_parser("gf", help="expand the class generating function")
    p_gf.add_argument("--class", dest="class_spec", type=parse_class_spec, default=UNRESTRICTED)
    p_gf.add_argument("--qbound", type=int, help=f"q-degree cutoff (default {DEFAULT_QBOUND})")
    p_gf.add_argument("--eval", type=parse_eval_spec, help="substitute integers, e.g. x=1,y=-1")
    _add_format(p_gf)
    p_gf.set_defaults(func=_cmd_gf)

    p_verify = subs.add_parser("verify", help="run verification checks")
    p_verify.add_argument("check", help="'all' or a check id")
    p_verify.add_argument("--max-n", dest="max_n", type=int)
    p_verify.add_argument("--qbound", type=int)
    p_verify.add_argument("--max-size", dest="max_size", type=int)
    p_verify.add_argument("--enum-limit", dest="enum_limit", type=int)
    p_verify.add_argument("--d", type=int)
    _add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_table = subs.add_parser("table", help="print one of the worked pairing tables")
    p_table.add_argument("id", type=int, choices=[1, 2, 3, 4])
    _add_format(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_word = subs.add_parser("word", help="convert between partitions and boundary words")
    p_word.add_argument("value", help="an E/N word, or with --encode a comma-joined partition")
    p_word.add_argument("--encode", action="store_true", help="treat the value as a partition and print its word")
    p_word.set_defaults(func=_cmd_word)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # the reader is gone: drop what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
