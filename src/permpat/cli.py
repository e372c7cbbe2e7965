"""Command-line front door.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error (a failed self-check or an inexact formula division).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from itertools import chain, islice
from math import comb

from .core import (_is_ascii_digits, count_occurrences, iter_occurrences,
                   parse_permutation)
from .enumeration import (
    DESK_SCALE_LIMIT,
    HARD_N_LIMIT,
    OCCURRENCE_WORK_LIMIT,
    count_avoiders,
    count_exactly_once,
    enumerate_avoiders,
    enumerate_exactly_once,
)
from .families import parse_set_expression
from .verify import ADVISORY_CLAIMS, failed_records, run_suite, write_report

_SET_HELP = """\
set expressions:
  Tkm(k,m)       all length-k patterns whose first entry is m
  M(k,m;tau)     Tkm(k,m) minus tau; count/enumerate then mean the class
                 avoiding the rest and containing tau exactly once
  U(k;m1,m2,..)  union of the Tkm(k,mi)
  {123,132}      explicit pattern list in digit form

permutations are written in one-line notation: comma- or space-separated
values, e.g. "2,1,3".
"""

_COUNT_DESCRIPTION = f"""\
Count the permutations selected by a set expression.

The n > {DESK_SCALE_LIMIT} guard bounds n, not work.
"""


def integer(text: str) -> int:
    """The type of the integer options: an optional "-" and ASCII digits
    (int() also reads other scripts' digits)."""
    if not _is_ascii_digits(text.removeprefix("-")):
        raise ValueError(text)
    return int(text)


def _limit(limit: int | None) -> int | None:
    """Check a --limit before any work; clamp it to islice's largest stop."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be a positive integer")
    return None if limit is None else min(limit, sys.maxsize)


def _cmd_count(args: argparse.Namespace) -> int:
    pattern_set = parse_set_expression(args.set)
    count = count_exactly_once if pattern_set.kind == "mkm" else count_avoiders
    print(count(args.n, pattern_set, force=args.force))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    limit = _limit(args.limit)
    pattern_set = parse_set_expression(args.set)
    listing = (enumerate_exactly_once if pattern_set.kind == "mkm"
               else enumerate_avoiders)
    members = listing(args.n, pattern_set, force=args.force)
    # after the listing has checked n: each value's text, made once
    names = [str(v) for v in range(args.n + 1)]
    _write_lines(",".join([names[v] for v in p.values])
                 for p in islice(members, limit))
    return 0


def _cmd_occurrences(args: argparse.Namespace) -> int:
    limit = _limit(args.limit)
    host = parse_permutation(args.host)
    pattern = parse_permutation(args.pattern)
    steps = len(pattern) * comb(len(host), len(pattern))
    if steps > OCCURRENCE_WORK_LIMIT and not args.force:
        raise ValueError(
            f"a length-{len(pattern)} pattern in a length-{len(host)} host "
            f"may take {steps} search steps, past the limit "
            f"{OCCURRENCE_WORK_LIMIT}; pass --force to override")
    positions = islice(iter_occurrences(host, pattern), limit)
    _write_lines(chain([count_occurrences(host, pattern)],
                       ("(" + ",".join(map(str, pos)) + ")"
                        for pos in positions)))
    return 0


def _write_lines(items) -> None:
    """Write each item to stdout on a line of its own, as print would.  The
    first line is written and flushed at once, so a reader sees the listing
    begin.  The rest are joined into blocks of at least
    io.DEFAULT_BUFFER_SIZE characters, each handed to stdout in one write,
    so an unbuffered stdout makes one write syscall per block instead of one
    or two per line; a line longer than a block goes out as soon as it is
    listed.  The lines held back when the items end or raise are written
    then, before the error is reported."""
    out = sys.stdout
    held: list[str] = []
    size = block = 0  # nothing is held back before the first line
    try:
        for item in items:
            line = f"{item}\n"
            held.append(line)
            size += len(line)
            if size >= block:
                text = "".join(held)
                held.clear()
                size = 0
                out.write(text)
                if not block:
                    out.flush()
                    block = io.DEFAULT_BUFFER_SIZE
    finally:
        if held:
            out.write("".join(held))


def _cmd_verify(args: argparse.Namespace) -> int:
    selection = [tok.strip() for tok in args.claims.split(",") if tok.strip()]
    records = run_suite(selection, args.n_max, parallel=args.parallel)
    if args.out:  # before any output, so that exit 2 leaves stdout empty
        try:
            write_report(records, args.format, args.out)
        except OSError as exc:
            raise ValueError(f"cannot write the report: {exc}") from exc
    failures = failed_records(records)
    args.status = 1 if failures else 0  # stands if the reader goes away
    for rec in failures:
        params = " ".join(f"{k}={v}" for k, v in rec.params)
        print(f"FAIL {rec.claim} [{params}] oracle={rec.oracle} "
              f"formula={rec.formula}")
    advisory = [r for r in records if r.claim in ADVISORY_CLAIMS]
    if advisory:
        _print_advisory_findings(advisory)
    passed = sum(1 for r in records if r.passed)
    print(f"{passed}/{len(records)} pass")
    if args.out:
        print(f"report written to {args.out}")
    return args.status


def _print_advisory_findings(records) -> None:
    """Summarize the onset probe: for each family, where the recurrence held
    inside the probed window (a finding, not a verdict)."""
    families: dict[tuple, dict[int, bool]] = {}
    for rec in records:
        p = rec.params_dict()
        families.setdefault((p["k"], p["ms"]), {})[int(p["n"])] = rec.passed
    for (k, ms), by_n in sorted(families.items()):
        holds = sorted(n for n, ok in by_n.items() if ok)
        fails = sorted(n for n, ok in by_n.items() if not ok)
        print(f"probe corollary2_onset k={k} ms={ms}: holds at n={holds or '[]'}"
              f", fails at n={fails or '[]'}")


def _cmd_map(args: argparse.Namespace) -> int:
    from .bijections import insert_bottom, prepend_insert, remove_bottom

    if args.which in ("prepend", "insertbottom"):
        if args.beta is None or args.h is None:
            raise ValueError(f"map {args.which} needs --beta and --h")
        beta = parse_permutation(args.beta)
        fn = prepend_insert if args.which == "prepend" else insert_bottom
        print(fn(beta, args.h))
    else:
        if args.alpha is None:
            raise ValueError("map removebottom needs --alpha")
        alpha = parse_permutation(args.alpha)
        shorter, h = remove_bottom(alpha)
        print(f"{shorter} (h={h})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Count, enumerate, and verify pattern-restricted permutations.",
        epilog=_SET_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    force_help = (f"override the n > {DESK_SCALE_LIMIT} desk-scale guard, "
                  f"up to n = {HARD_N_LIMIT}")

    p_count = sub.add_parser(
        "count", help="count the permutations selected by a set expression",
        description=_COUNT_DESCRIPTION, epilog=_SET_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_count.add_argument("--set", required=True, help="pattern set expression")
    p_count.add_argument("-n", type=integer, required=True, help="permutation length")
    p_count.add_argument("--force", action="store_true", help=force_help)
    p_count.set_defaults(handler=_cmd_count)

    p_enum = sub.add_parser(
        "enumerate", help="list the selected permutations in lexicographic order",
        epilog=_SET_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    p_enum.add_argument("--set", required=True, help="pattern set expression")
    p_enum.add_argument("-n", type=integer, required=True, help="permutation length")
    p_enum.add_argument("--limit", type=integer, default=None,
                        help="stop after this many permutations")
    p_enum.add_argument("--force", action="store_true", help=force_help)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_occ = sub.add_parser(
        "occurrences", help="count and list pattern occurrences in a host")
    p_occ.add_argument("--host", required=True, help="host permutation")
    p_occ.add_argument("--pattern", required=True, help="pattern permutation")
    p_occ.add_argument("--limit", type=integer, default=100,
                       help="list at most this many index tuples (default 100)")
    p_occ.add_argument("--force", action="store_true",
                       help=f"override the {OCCURRENCE_WORK_LIMIT} search-step "
                            "guard on k*C(n,k), for pattern length k and host "
                            "length n")
    p_occ.set_defaults(handler=_cmd_occurrences)

    p_verify = sub.add_parser(
        "verify", help="run the oracle-vs-formula verification suite")
    p_verify.add_argument("--claims", default="all",
                          help='comma-separated claim ids, or "all" (default)')
    p_verify.add_argument("--n-max", type=integer, default=9, dest="n_max",
                          help="largest n to verify (default 9)")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json",
                          help="report format for --out (default json)")
    p_verify.add_argument("--out", default=None, help="write the report here")
    p_verify.add_argument("--parallel", action="store_true",
                          help="run whole claims in this process and in "
                               "forked workers, one per further CPU, which "
                               "take them by oracle route and then registry "
                               "order (one claim runs serially; without "
                               "os.fork, all run in this process)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_map = sub.add_parser(
        "map", help="apply one of the length-changing maps")
    p_map.add_argument("which", choices=("prepend", "insertbottom", "removebottom"))
    p_map.add_argument("--beta", help="input permutation for the insert maps")
    p_map.add_argument("--alpha", help="input permutation for removebottom")
    p_map.add_argument("--h", type=integer, default=None,
                       help="1-based insertion position")
    p_map.set_defaults(handler=_cmd_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace(status=0)
    try:
        args.status = _run(argv, args)
        sys.stdout.flush()  # meet a closed pipe here rather than at exit
    except BrokenPipeError:
        # the reader has gone: say no more, and let the exit flush hit devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return args.status


def _run(argv: list[str] | None, args: argparse.Namespace) -> int:
    try:
        _build_parser().parse_args(argv, namespace=args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
