"""Fuzzed text: mutated system files, states and move scripts either
parse or raise ``CubeplanError``, never another exception."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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
from cubeplan.systems import (
    VARIANT_CHANGING,
    agv_grid_fixture,
    arm_system,
    complete_graph,
    graph_agv_system,
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
    "state", "start", "step", "step 1:", "fwd", "bwd", "p0.0", "(0,0)",
    "(1,0,h)", "(token, p0.0, p0.1, fwd)",
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
