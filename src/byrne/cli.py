"""The `commentate` command: replay a game log through a character."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import NoReturn

from .pipeline import run_replay

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # a usage error is bad input, as a file that fails to load is: exit 1, not
        # argparse's 2, which the exit-code contract keeps for runtime errors
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="commentate",
        description="Replay a pre-analysed game log as affect-marked commentary: "
        "SABLE speech scripts plus FACS/viseme timelines.",
    )
    parser.add_argument("--log", required=True, help="game log file")
    parser.add_argument("--character", required=True, help="character profile file")
    parser.add_argument("--style", required=True, help="style file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--tick-seconds", default="1.0", help="driver tick length (default 1.0)")
    parser.add_argument("--trace", action="store_true", help="echo commentary events to stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("BYRNE_LOG_LEVEL", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.WARNING), stream=sys.stderr)
    args = build_parser().parse_args(argv)
    return run_replay(
        args.log,
        args.character,
        args.style,
        args.out,
        tick_seconds=args.tick_seconds,
        echo=args.trace,
    )


if __name__ == "__main__":
    sys.exit(main())
