"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (bad system, impossible
path, failed lift), 2 on a usage error.  All subcommands are
deterministic given identical flags, and builds run single threaded,
so output is bit stable.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import partial

from . import systems
from .cubepaths import (
    NORMALIZE,
    STOP_ON_LENGTH,
    from_edge_path,
    is_normal,
    random_edge_path,
    time_geodesic,
    validate,
)
from .errors import CubeplanError, FormatError
from .fileformat import (
    _DIRECTION_WORDS,
    _PAIR_RE,
    _fvec_header,
    _int,
    export_complex,
    parse_path,
    parse_state,
    parse_system_file,
    serialize,
    serialize_path,
)
from .model import CONSTRAINTS, System, SystemFile
from .shape import build_shape_complex, lift_path, random_shape_path
from .statecomplex import build_complex, check_link_condition
from .topology import betti_mod2, euler_characteristic

_PAIR_HELP = "translation written as (tx,ty)"
# what int() reads in base 10, less the surrounding whitespace
_SIGNED_INT_RE = re.compile(r"[+-]?\d+(?:_\d+)*")
# a refused flag value longer than this is quoted by a prefix this long
_QUOTED = 40


def _quote(text: str) -> str:
    """A refused flag value as ``repr`` shows it; a long one by its
    prefix and its length."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _int_arg(text: str) -> int:
    """An argparse type: what ``int`` reads, with a number past Python's
    digit limit refused by its digit count and any other long value by
    its prefix, instead of echoed."""
    if not _SIGNED_INT_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}")
    try:
        return _int(text)
    except FormatError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_offset(text: str) -> tuple:
    """An argparse type: a translation written (tx,ty)."""
    m = _PAIR_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"expected (tx,ty), got {_quote(text)}")
    return (_int_arg(m.group(1)), _int_arg(m.group(2)))


def _int_at_least(least: int):
    """An argparse type: an int no less than ``least``."""

    def parse(text: str) -> int:
        value = _int_arg(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _builtin_agv_k5(args) -> SystemFile:
    return systems.graph_agv_system(systems.complete_graph(5), args.n)


def _builtin_agv_grid(args) -> SystemFile:
    return systems.agv_grid_fixture(args.m, args.n)


def _builtin_arm(args) -> SystemFile:
    return systems.arm_system(args.n)


def _builtin_sliding_ring(args) -> SystemFile:
    return systems.sliding_ring_fixture(args.p, args.q)


def _builtin_hex(args) -> SystemFile:
    variant = {
        "changing": systems.VARIANT_CHANGING,
        "preserving": systems.VARIANT_PRESERVING,
    }[args.variant]
    cells = None if args.unbounded else systems.hex_ball(args.radius)
    system = systems.hex_pivot_system(variant, cells)
    # three modules in a triangle; fits any ball of radius >= 1
    seed = frozenset([(0, 0), (1, 0), (0, 1)])
    return SystemFile(system, (seed,))


def _builtin_hex_trap(args) -> SystemFile:
    return systems.hex_connectivity_trap(constrained=True)


def _builtin_hex_trap_free(args) -> SystemFile:
    return systems.hex_connectivity_trap(constrained=False)


BUILTINS = {
    "agv-k5": (_builtin_agv_k5, "tokens on the complete graph K5 (--n tokens)"),
    "agv-grid": (_builtin_agv_grid, "two tokens on disjoint paths (--m, --n edges)"),
    "arm": (_builtin_arm, "planar staircase arm with --n segments"),
    "sliding-ring": (
        _builtin_sliding_ring,
        "two sliding squares around a --p by --q wall",
    ),
    "hex": (
        _builtin_hex,
        "pivoting hexagons; --variant changing|preserving,"
        " --radius R ball or --unbounded",
    ),
    "hex-trap": (
        _builtin_hex_trap,
        "hexagons plus connectivity rule at the curvature trap",
    ),
    "hex-trap-free": (
        _builtin_hex_trap_free,
        "the trap workspace without the global rule (passes the check)",
    ),
}


def _add_system_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--system", metavar="FILE", help="system file to load")
    src.add_argument(
        "--builtin",
        choices=sorted(BUILTINS),
        help="; ".join(f"{k}: {v[1]}" for k, v in sorted(BUILTINS.items())),
    )
    p.add_argument("--n", type=_int_arg, default=2, help="builtin size parameter")
    p.add_argument("--m", type=_int_arg, default=3, help="builtin size parameter")
    p.add_argument("--p", type=_int_arg, default=1, help="wall width")
    p.add_argument("--q", type=_int_arg, default=1, help="wall height")
    p.add_argument(
        "--variant",
        choices=("changing", "preserving"),
        default="changing",
        help="hex pivot flavor",
    )
    p.add_argument("--radius", type=_int_arg, default=2, help="hex ball radius")
    p.add_argument(
        "--unbounded",
        action="store_true",
        help="use the whole lattice (shape-complex work only)",
    )
    p.add_argument(
        "--constraint",
        choices=sorted(CONSTRAINTS) + ["none"],
        default=None,
        help="override the system's global constraint",
    )
    p.add_argument("--out", metavar="FILE", help="write output here, not stdout")


def _read(name: str) -> str:
    """The text of an input file, less a leading byte-order mark; one
    that is not UTF-8 is refused.  The mark is dropped after decoding,
    so a refusal counts bytes from the file's start."""
    with open(name, encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as e:
            why = f"{e.reason} at byte {e.start}"
            raise CubeplanError(f"{name}: not UTF-8 text ({why})") from None


def _load_system(args) -> SystemFile:
    if args.system is not None:
        sf = parse_system_file(_read(args.system))
    else:
        sf = BUILTINS[args.builtin][0](args)
    if args.constraint is not None:
        name = None if args.constraint == "none" else args.constraint
        system = System(sf.system.workspace, sf.system.catalogue, name)
        sf = SystemFile(system, sf.seeds)
    return sf


def _load_seeds(args, sf: SystemFile) -> tuple:
    if args.seed is not None:
        return (parse_state(_read(args.seed), sf.system),)
    if sf.seeds:
        return sf.seeds
    raise CubeplanError(
        "no start state: pass --seed or use a system file with seed lines"
    )


def _build(args):
    """Build the complex the flags name, warning on stderr when the vertex
    cap cut it short."""
    sf = _load_system(args)
    seeds = _load_seeds(args, sf)
    if args.shapes:
        cx = build_shape_complex(sf.system, seeds, cap=args.cap)
    else:
        cx = build_complex(sf.system, seeds, max_vertices=args.cap)
    if cx.truncated:
        print("warning: build hit the vertex cap; counts are a lower bound", file=sys.stderr)
    return cx


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    cx = _build(args)
    _emit(args, export_complex(cx))
    return 0


def cmd_stats(args) -> int:
    cx = _build(args)
    _emit(args, _fvec_header(cx) + "\n")
    return 0


def cmd_check_npc(args) -> int:
    cx = _build(args)
    report = check_link_condition(cx)
    if report.ok:
        _emit(args, "OK\n")
        return 0
    lines = []
    for state, acts in report.violations:
        cells = " ".join(repr(c) for c in sorted(state))
        moves = "; ".join(
            f"{a.gid}@{a.offset}:{_DIRECTION_WORDS[a.direction]}"
            for a in sorted(acts)
        )
        lines.append(
            f"violation at [{cells}] actions [{moves}] spanned 0 times"
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_homology(args) -> int:
    cx = _build(args)
    betti = betti_mod2(cx)
    chi = euler_characteristic(cx)
    _emit(
        args,
        "betti: " + " ".join(str(b) for b in betti) + f"\nchi: {chi}\n",
    )
    return 0


def cmd_export(args) -> int:
    if args.what == "complex":
        return cmd_build(args)
    _emit(args, serialize(_load_system(args)))
    return 0


def cmd_optimize(args, mode: str) -> int:
    sf = _load_system(args)
    path = parse_path(_read(args.infile), sf.system)
    report = validate(path)
    if not report.ok:
        raise CubeplanError(f"input path invalid: {report.reason}")
    out = time_geodesic(path, mode)
    header = (
        f"# length {path.length} -> {out.length}\n"
        f"# potential {path.potential} -> {out.potential}\n"
    )
    if mode == NORMALIZE:
        header += f"# normal {is_normal(out)}\n"
    _emit(args, header + serialize_path(out))
    return 0


def cmd_lift(args) -> int:
    sf = _load_system(args)
    shape_path = parse_path(_read(args.infile), sf.system)
    result = lift_path(shape_path, args.base, sf.system)
    if not result.ok:
        print(
            f"lift failed at step {result.fail_step}: {result.reason}",
            file=sys.stderr,
        )
        return 1
    _emit(args, serialize_path(result.path))
    return 0


def cmd_random_path(args) -> int:
    import random

    sf = _load_system(args)
    seeds = _load_seeds(args, sf)
    rng = random.Random(args.rng_seed)
    if args.shapes:
        path = random_shape_path(sf.system, seeds[0], args.length, rng)
    else:
        moves = random_edge_path(sf.system, seeds[0], args.length, rng)
        path = from_edge_path(seeds[0], moves, sf.system)
    _emit(args, serialize_path(path, sf.system))
    return 0


# the subcommands that build a complex, and so read --seed, --shapes and --cap
_BUILDS = ("build", "stats", "check-npc", "homology", "export")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubeplan",
        description="state complexes of lattice reconfiguration systems",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    commands = [
        ("build", cmd_build, "build the complex and export it"),
        ("stats", cmd_stats, "build and print the f-vector only"),
        ("check-npc", cmd_check_npc, "certify the link condition"),
        ("homology", cmd_homology, "mod-2 betti numbers and Euler characteristic"),
        ("optimize", partial(cmd_optimize, mode=STOP_ON_LENGTH),
         "shorten a move script to the least length in its homotopy class"),
        ("normalize", partial(cmd_optimize, mode=NORMALIZE),
         "rewrite a move script in normal form"),
        ("lift", cmd_lift, "place a shape-space script at a translation"),
        ("export", cmd_export, "write the system or complex as text"),
        ("random-path", cmd_random_path, "generate a seeded random move script"),
    ]
    for name, fn, help_ in commands:
        p = sub.add_parser(name, help=help_)
        _add_system_args(p)
        p.set_defaults(fn=fn)
        if name in _BUILDS or name == "random-path":
            p.add_argument("--seed", metavar="STATEFILE", help="start state file")
            p.add_argument(
                "--shapes", action="store_true", help="work in the translation quotient"
            )
        if name in _BUILDS:
            p.add_argument(
                "--cap", type=_int_at_least(1), default=1_000_000, help="vertex cap"
            )
        if name in ("optimize", "normalize", "lift"):
            p.add_argument(
                "--in", dest="infile", required=True, metavar="SCRIPT",
                help="move script to read",
            )
        if name == "lift":
            p.add_argument(
                "--base", type=_parse_offset, required=True, help=_PAIR_HELP
            )
        if name == "export":
            p.add_argument(
                "--what", choices=("system", "complex"), default="complex"
            )
        if name == "random-path":
            p.add_argument("--length", type=_int_at_least(0), default=20)
            p.add_argument("--rng-seed", type=_int_arg, default=0)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CubeplanError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
