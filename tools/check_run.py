#!/usr/bin/env python3
"""Check a traced perfbench run: correct, and every pinned count holds.

    python3 tools/check_run.py RUN.out [METRIC=VALUE ...]

RUN.out is what ``perfbench/run.py`` printed; its last line is the run's
JSON record.  Each pin names a metric of that record and the integer it
must read; a metric pinned twice is a usage error (exit 2).  Exits 0
when the record says ``"correct": true`` and every pin holds;
otherwise, also when the last line holds no JSON object, prints each
failure on stderr and exits 1.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def failures(run: dict, pins: dict) -> list:
    """What keeps the run from passing, one line per failure."""
    out = []
    if run.get("correct") is not True:
        out.append(f"run is not correct: {run.get('problems')}")
    metrics = run.get("metrics", {})
    for name, want in pins.items():
        got = metrics.get(name, {}).get("value")
        if got != want:
            out.append(f"{name} = {got}, pinned at {want}")
    return out


def record(path: Path) -> dict | None:
    """The JSON object on the run file's last line, or None if it holds none."""
    lines = path.read_text().splitlines()
    try:
        run = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return run if isinstance(run, dict) else None


def pin(text: str) -> tuple:
    name, sep, value = text.partition("=")
    if not (name and sep):
        raise argparse.ArgumentTypeError(f"expected METRIC=VALUE, got {text!r}")
    try:
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{name}: {value!r} is not an integer") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run", type=Path, help="the stdout of perfbench/run.py")
    ap.add_argument("pins", nargs="*", type=pin, metavar="METRIC=VALUE")
    args = ap.parse_args(argv)
    pins = {}
    for name, value in args.pins:
        if name in pins:
            ap.error(f"{name} is pinned twice")
        pins[name] = value
    run = record(args.run)
    if run is None:
        problems = ["no JSON record on the last line"]
    else:
        problems = failures(run, pins)
    for line in problems:
        print(f"{args.run}: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
