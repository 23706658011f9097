"""Fuzzed text: mutated system files, states and move scripts either
parse or raise ``CubeplanError``, never another exception, and the
commands that read them exit with a code, never a traceback."""

import io
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from cubeplan.cli import main
from cubeplan.cubepaths import from_edge_path, random_edge_path
from cubeplan.errors import CubeplanError
from cubeplan.fileformat import (
    parse_path,
    parse_state,
    parse_system_file,
    serialize,
    serialize_path,
    serialize_state,
)
from cubeplan.model import SystemFile
from cubeplan.shape import random_shape_path
from cubeplan.systems import (
    VARIANT_CHANGING,
    VARIANT_PRESERVING,
    agv_grid_fixture,
    arm_system,
    complete_graph,
    graph_agv_system,
    hex_ball,
    hex_connectivity_trap,
    hex_pivot_system,
    sliding_ring_fixture,
)

# builtin systems with seeds: a constrained hex ball, graphs with
# edges, a sliding ring and an arm
FIXTURES = [
    hex_connectivity_trap(True),
    agv_grid_fixture(2, 3),
    sliding_ring_fixture(1, 1),
    arm_system(3),
    graph_agv_system(complete_graph(5), 1),
]
SYSTEM_TEXTS = [serialize(sf) for sf in FIXTURES] + [
    serialize(hex_pivot_system(VARIANT_CHANGING))  # workspace all, no seeds
]
STATE_TEXTS = [(serialize_state(sf.seeds[0], sf.system), sf.system) for sf in FIXTURES]


def _script(sf, length):
    rng = random.Random(length)
    moves = random_edge_path(sf.system, sf.seeds[0], length, rng)
    return serialize_path(from_edge_path(sf.seeds[0], moves, sf.system), sf.system)


SCRIPT_TEXTS = [(_script(sf, 6), sf.system) for sf in FIXTURES]

# pieces of the three formats, and some they never hold
TOKENS = (
    "(", ")", ",", "-", " ", "\n", "\t", "#", ":", ".", "0", "1", "-1", "9",
    "99999999999999999999", "1e5", "0x1", "nan", "\x00", "é", "end",
    "generator", "support", "trace", "occ0", "occ1", "edges", "nodes",
    "lattice", "workspace", "all", "seed", "constraint", "connected",
    "obstacle", "occupied", "empty", "exclude",
    "state", "start", "step", "step 1:", "fwd", "bwd", "p0.0", "(0,0)",
    "(1,0,h)", "(token, p0.0, p0.1, fwd)",
    "1" * 5000,  # past Python's 4,300-digit limit for int()
)

INSERT, DELETE, OVERWRITE, REPEAT_LINE = range(4)
MUTATIONS = st.lists(
    st.tuples(
        st.integers(INSERT, REPEAT_LINE),
        st.integers(0, 10**6),
        st.one_of(st.sampled_from(TOKENS), st.text(max_size=4)),
    ),
    min_size=1,
    max_size=6,
)


def mutate(text: str, ops) -> str:
    """Apply each (kind, position, token): insert the token, delete or
    overwrite as many characters as it has, or repeat a line."""
    for kind, pos, token in ops:
        i = pos % (len(text) + 1)
        if kind == INSERT:
            text = text[:i] + token + text[i:]
        elif kind == DELETE:
            text = text[:i] + text[i + max(len(token), 1) :]
        elif kind == OVERWRITE:
            text = text[:i] + token + text[i + len(token) :]
        else:
            lines = text.split("\n")
            j = pos % len(lines)
            lines.insert(j, lines[j])
            text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(SYSTEM_TEXTS) - 1), MUTATIONS)
def test_mutated_system_files_parse_or_raise_cubeplan_errors(i, ops):
    try:
        parse_system_file(mutate(SYSTEM_TEXTS[i], ops))
    except CubeplanError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(STATE_TEXTS) - 1), MUTATIONS)
def test_mutated_states_parse_or_raise_cubeplan_errors(i, ops):
    text, system = STATE_TEXTS[i]
    try:
        parse_state(mutate(text, ops), system)
    except CubeplanError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(SCRIPT_TEXTS) - 1), MUTATIONS)
def test_mutated_move_scripts_parse_or_raise_cubeplan_errors(i, ops):
    text, system = SCRIPT_TEXTS[i]
    try:
        parse_path(mutate(text, ops), system)
    except CubeplanError:
        pass


def test_unmutated_texts_parse():
    """The texts the mutations start from are valid."""
    for text in SYSTEM_TEXTS:
        parse_system_file(text)
    for text, system in STATE_TEXTS:
        parse_state(text, system)
    for text, system in SCRIPT_TEXTS:
        assert parse_path(text, system).length > 0


# a shape walk on the plane, to lift into a hexagon ball
_PLANE = hex_pivot_system(VARIANT_PRESERVING)
LIFT_FILES = {
    "--system": serialize(SystemFile(hex_pivot_system(VARIANT_PRESERVING, hex_ball(3)))),
    "--in": serialize_path(
        random_shape_path(_PLANE, {(0, 0), (1, 0), (0, 1)}, 6, random.Random(1)), _PLANE
    ),
}


def cli_files(command: str, i: int) -> tuple:
    """The files a command reads, by flag, for fixture ``i``, and the
    command's other arguments."""
    if command == "lift":
        return dict(LIFT_FILES), ["--base", "(0,0)"]
    system = SYSTEM_TEXTS[i]
    if command == "check-npc":
        return {"--system": system, "--seed": STATE_TEXTS[i][0]}, ["--cap", "200"]
    return {"--system": system, "--in": SCRIPT_TEXTS[i][0]}, []


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(("optimize", "normalize", "lift", "check-npc")),
    st.integers(0, len(FIXTURES) - 1),
    st.booleans(),
    MUTATIONS,
)
def test_mutated_files_through_the_cli_exit_with_a_code(command, i, on_system, ops):
    """One of a command's files mutated: the command exits 0 when the
    files still make a valid run, 1 when it refuses them and 2 on a
    usage error, and never raises."""
    files, argv = cli_files(command, i)
    flag = "--system" if on_system else next(f for f in files if f != "--system")
    files[flag] = mutate(files[flag], ops)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for flag, text in files.items():
            path = os.path.join(tmp, flag.strip("-"))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv += [flag, path]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([command, *argv])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith(("error: ", "lift failed at step"))
