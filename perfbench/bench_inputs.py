"""Workload inputs, their reference answers, and the correctness check.

``generate`` turns a workload name and seed into files in the package's
own text formats (system files, state files, move scripts), which are
all a worker process receives, and returns the reference answers the
worker's outputs are checked against.  References come from constants
established for this benchmark or from independent models: the letter
word model of the arm, the grid geometry of two tokens on disjoint
paths.  ``check`` compares one worker result with the references.

Importing this module imports ``cubeplan``, so the caller puts the
package's source directory on ``sys.path`` first.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from cubeplan import (
    CubePath,
    canonicalize,
    from_edge_path,
    oracle_shortest,
    random_edge_path,
    serialize,
    serialize_path,
    serialize_state,
)
from cubeplan import systems
from cubeplan.model import SystemFile, admissible_actions, apply_action
from cubeplan.shape import shape_actions

WORKLOADS = ("hex-local", "hex-connected", "arm-topology", "paths-shapes")

# Sizes keep one pipeline run near two seconds, so that a run of the
# benchmark holds several of them and reports their median.
HEX_LOCAL_RADIUS = 2
HEX_LOCAL_FVEC = (3344, 8640, 2559, 14)
HEX_CONNECTED_RADIUS = 3
HEX_CONNECTED_FVEC = (860, 2928, 1656, 38)
TRAP_FVEC = (48, 192, 234, 74)
TRAP_VIOLATIONS = 64
ARM_N = 9
SCRIPT_ARM_N = 7
SCRIPT_GRID = 6
SCRIPTS_PER_SYSTEM = 50
SCRIPT_MOVES = (50, 400)
L_PATH_N = 320
L_PATH_LENGTH = 160
L_PATH_ITERATIONS = 51_360
SHAPE_FVEC = (186, 414, 231, 12)
LIFTS = 50
LIFT_STEPS = 40
LIFT_RADIUS = 40
START_WALK = 60
SHAPE_WALK = 20

HEX_START = frozenset([(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = frozenset([(0, 0), (1, 0), (0, 1)])
SHAPE_START = frozenset((i, 0) for i in range(5))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _walk_end(system, start, rng) -> frozenset:
    """End of a random walk: a seeded start in the same component."""
    cur = start
    for act in random_edge_path(system, start, START_WALK, rng):
        cur = apply_action(cur, act)
    return cur


def _walk(actions_at, advance, start, length: int, rng, cache: dict) -> list:
    """Moves of a random walk, as ``random_edge_path`` would draw them.

    ``cache`` keeps each state's admissible actions across walks on one
    system, which keeps generating a few hundred long walks cheap.
    """
    cur = start
    moves = []
    for _ in range(length):
        acts = cache.get(cur)
        if acts is None:
            acts = cache[cur] = actions_at(cur)
        if not acts:
            break
        act = rng.choice(acts)
        moves.append(act)
        cur = advance(cur, act)
    return moves


def _shape_walk(plane, start, length: int, rng, cache: dict) -> CubePath:
    """A random walk over canonical shapes, one action per step, each in
    the frame of the shape it acts on (the convention ``lift_path`` reads)."""
    lattice = plane.workspace.lattice
    start = canonicalize(start, lattice)[0]
    moves = _walk(
        lambda shape: shape_actions(plane, shape),
        lambda shape, act: canonicalize(apply_action(shape, act), lattice)[0],
        start, length, rng, cache,
    )
    return CubePath(start, tuple(frozenset((a,)) for a in moves), None)


def _write_system(out: Path, name: str, system, start=None) -> None:
    _write(out / f"{name}.sys", serialize(SystemFile(system, ())))
    if start is not None:
        _write(out / f"{name}.state", serialize_state(start, system))


def _gen_hex_local(rng, out: Path) -> dict:
    system = systems.hex_pivot_system(
        systems.VARIANT_CHANGING, systems.hex_ball(HEX_LOCAL_RADIUS)
    )
    _write_system(out, "system", system, _walk_end(system, HEX_START, rng))
    return {"fvec": HEX_LOCAL_FVEC}


def _gen_hex_connected(rng, out: Path) -> dict:
    system = systems.hex_pivot_system(
        systems.VARIANT_CHANGING,
        systems.hex_ball(HEX_CONNECTED_RADIUS),
        constraint_name="connected",
    )
    _write_system(out, "system", system, _walk_end(system, HEX_START, rng))
    trap = systems.hex_connectivity_trap(constrained=True)
    _write_system(out, "trap", trap.system, _walk_end(trap.system, trap.seeds[0], rng))
    return {
        "fvec": HEX_CONNECTED_FVEC,
        "trap_fvec": TRAP_FVEC,
        "trap_violations": TRAP_VIOLATIONS,
        "trap_state": sorted(systems.HEX_TRAP_STATE),
    }


def _gen_arm_topology(rng, out: Path) -> dict:
    sf = systems.arm_system(ARM_N)
    _write_system(out, "system", sf.system, _walk_end(sf.system, sf.seeds[0], rng))
    words = systems.arm_word_complex(ARM_N)
    fvec = tuple(words.n_cells(k) for k in range(words.max_dim + 1))
    top = len(fvec) - 1
    return {
        "fvec": fvec,
        "betti": (1,) + (0,) * top,
        "collapse": (1,) + (0,) * top,
    }


def _grid_distance(u, v) -> int:
    """Cube distance between two-token states on disjoint paths.

    The complex is a grid of squares, so a step moves each token at
    most one position and the distance is the larger displacement.
    """
    def positions(state):
        return {n.split(".")[0]: int(n.split(".")[1]) for n in state}

    pu, pv = positions(u), positions(v)
    return max(abs(pu[t] - pv[t]) for t in pu)


def _l_path(n: int):
    """First token walks n/2 hops, then the second: the sweep's worst case."""
    sf = systems.agv_grid_fixture(n // 2, n // 2)
    cur = sf.seeds[0]
    moves = []
    for tok in ("p0", "p1"):
        for i in range(n // 2):
            src, dst = frozenset((f"{tok}.{i}",)), frozenset((f"{tok}.{i + 1}",))
            act = next(
                a
                for a in admissible_actions(cur, sf.system)
                if a.src_occ == src and a.dst_occ == dst
            )
            moves.append(act)
            cur = apply_action(cur, act)
    return sf.system, from_edge_path(sf.seeds[0], moves, sf.system)


def _gen_paths_shapes(rng, out: Path) -> dict:
    arm = systems.arm_system(SCRIPT_ARM_N)
    grid = systems.agv_grid_fixture(SCRIPT_GRID, SCRIPT_GRID)
    words = systems.arm_word_complex(SCRIPT_ARM_N)
    word_of = {
        systems.word_edges(words.vertex_state(v), SCRIPT_ARM_N): words.vertex_state(v)
        for v in range(words.n_vertices)
    }
    _write_system(out, "arm", arm.system)
    _write_system(out, "grid", grid.system)
    # Every seed gets the same script lengths, evenly spread over the
    # range, in its own order: the seed changes the moves, not the amount
    # of work.
    lo, hi = SCRIPT_MOVES
    step = (hi - lo) / (SCRIPTS_PER_SYSTEM - 1)
    oracle = {}
    for name, sf in (("arm", arm), ("grid", grid)):
        lengths = [lo + round(i * step) for i in range(SCRIPTS_PER_SYSTEM)]
        rng.shuffle(lengths)
        cache: dict = {}
        for i, length in enumerate(lengths):
            moves = _walk(
                lambda state: admissible_actions(state, sf.system),
                apply_action,
                sf.seeds[0], length, rng, cache,
            )
            path = from_edge_path(sf.seeds[0], moves, sf.system)
            script = f"{name}-{i:03d}"
            _write(out / "scripts" / f"{script}.moves", serialize_path(path))
            if name == "arm":
                best = oracle_shortest(words, word_of[path.start], word_of[path.end])
            else:
                best = _grid_distance(path.start, path.end)
            oracle[script] = best

    l_system, l_path = _l_path(L_PATH_N)
    _write_system(out, "lpath", l_system)
    _write(out / "lpath.moves", serialize_path(l_path))

    plane = systems.hex_pivot_system(systems.VARIANT_PRESERVING)
    cache = {}
    walk = _shape_walk(plane, SHAPE_START, SHAPE_WALK, rng, cache)
    shape = walk.start
    for (act,) in walk.steps:
        shape = canonicalize(apply_action(shape, act), plane.workspace.lattice)[0]
    _write_system(out, "plane", plane, shape)
    ball = systems.hex_pivot_system(
        systems.VARIANT_PRESERVING, cells=systems.hex_ball(LIFT_RADIUS)
    )
    _write_system(out, "ball", ball)
    for i in range(LIFTS):
        path = _shape_walk(plane, TRIANGLE, LIFT_STEPS, rng, cache)
        _write(out / "lifts" / f"lift-{i:03d}.moves", serialize_path(path, plane))
    return {
        "oracle": oracle,
        "l_path": {"length": L_PATH_LENGTH, "iterations": L_PATH_ITERATIONS},
        "shape_fvec": SHAPE_FVEC,
        "lift_steps": LIFT_STEPS,
        "lifts": LIFTS,
    }


_GENERATORS = {
    "hex-local": _gen_hex_local,
    "hex-connected": _gen_hex_connected,
    "arm-topology": _gen_arm_topology,
    "paths-shapes": _gen_paths_shapes,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files for a seed; return its references.

    The same workload and seed always give byte-identical files.
    """
    rng = random.Random(f"{workload}/{seed}")
    # Round-trip through JSON so references compare equal to worker outputs.
    return json.loads(json.dumps(_GENERATORS[workload](rng, out)))


def operations(workload: str, refs: dict) -> list:
    """Names of the operations one pipeline run attempts, in order."""
    if workload == "hex-local":
        return ["build", "certify", "invariants"]
    if workload == "hex-connected":
        return ["build", "certify", "trap-build", "trap-certify"]
    if workload == "arm-topology":
        return ["build", "certify", "betti", "collapse", "export"]
    return (
        sorted(refs["oracle"])
        + ["l-path", "shape-build", "shape-certify"]
        + [f"lift-{i:03d}" for i in range(refs["lifts"])]
    )


def _expected(workload: str, refs: dict) -> dict:
    """Operation name -> the output values it must produce."""
    fvec = list(refs.get("fvec", ()))
    certified = {"ok": True, "violations": 0}
    if workload == "hex-local":
        chi = sum(c if k % 2 == 0 else -c for k, c in enumerate(fvec))
        return {"build": {"fvec": fvec}, "certify": certified, "invariants": {"chi": chi}}
    if workload == "hex-connected":
        return {
            "build": {"fvec": fvec},
            "certify": certified,
            "trap-build": {"fvec": refs["trap_fvec"]},
            "trap-certify": {
                "ok": False,
                "violations": refs["trap_violations"],
                "trap_state_violated": True,
            },
        }
    if workload == "arm-topology":
        return {
            "build": {"fvec": fvec},
            "certify": certified,
            "betti": {"betti": refs["betti"]},
            "collapse": {"remaining": refs["collapse"]},
            "export": {"fvec": fvec, "lines": sum(fvec) + len(fvec) + 1},
        }
    out = {}
    for script, best in sorted(refs["oracle"].items()):
        out[script] = {
            "valid": True,
            "stop": best,
            "normal_length": best,
            "normal": True,
            "idempotent": True,
            "round_trip": True,
            "endpoints": True,
        }
    out["l-path"] = {
        "length": refs["l_path"]["length"],
        "iterations": refs["l_path"]["iterations"],
        "normal": True,
    }
    out["shape-build"] = {"fvec": refs["shape_fvec"]}
    out["shape-certify"] = certified
    for i in range(refs["lifts"]):
        out[f"lift-{i:03d}"] = {"ok": True, "valid": True, "length": refs["lift_steps"]}
    return out


def check(workload: str, refs: dict, outputs: dict) -> list:
    """Problems found in one pipeline run's outputs; empty when all match.

    Each problem names one failed operation: a missing output (the
    operation raised or never ran) or a value differing from the
    reference.
    """
    problems = []
    for op, want in _expected(workload, refs).items():
        got = outputs.get(op)
        if got is None:
            problems.append(f"{op}: no output")
            continue
        if op == "trap-certify":
            states = got.get("violated_states", ())
            got = dict(got, trap_state_violated=refs["trap_state"] in states)
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{op}: {key} is {got.get(key)!r}, expected {value!r}")
                break
    return problems
