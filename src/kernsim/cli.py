"""Command line front end: `kernsim run` and `kernsim check`."""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .board import DEFAULT_MAX_TICKS, check_board, run_simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernsim",
        description="Deterministic embedded-kernel simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a board with scenario apps")
    run_p.add_argument("--board", required=True, help="board config JSON file")
    run_p.add_argument("--app", action="append", default=[],
                       help="scenario script JSON file (repeatable)")
    run_p.add_argument("--max-ticks", type=int, default=DEFAULT_MAX_TICKS)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--trace", default=None,
                       help="write the trace here instead of stdout")

    check_p = sub.add_parser("check", help="validate a board config")
    check_p.add_argument("--board", required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        violations = check_board(args.board)
        for violation in violations:
            print(f"violation: {violation}", file=sys.stderr)
        if not violations:
            print("ok", file=sys.stderr)
        return 2 if violations else 0
    return run_simulation(args.board, args.app, max_ticks=args.max_ticks,
                          seed=args.seed, trace_path=args.trace)


def console_main() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # The reader of stdout has gone, as the run reported: let the flush
        # at exit write to devnull (the SIGPIPE note in the Python docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_main()
