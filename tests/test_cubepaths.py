"""Cube paths, the shrink sweep, normal forms, and the length oracle."""

import functools
import hashlib
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cubeplan import cubepaths
from cubeplan import lattice as lat
from cubeplan.cubepaths import (
    MODES,
    CubePath,
    NORMALIZE,
    STOP_ON_LENGTH,
    ShrinkStats,
    from_edge_path,
    is_normal,
    oracle_shortest,
    random_edge_path,
    shrink_cube_path,
    time_geodesic,
    validate,
)
from cubeplan.errors import PathError
from cubeplan.fileformat import parse_path, serialize_path
from cubeplan.model import (
    FORWARD,
    Generator,
    System,
    SystemFile,
    Workspace,
    admissible_actions,
    make_action,
)
from cubeplan.statecomplex import build_complex
from cubeplan.systems import (
    VARIANT_PRESERVING,
    agv_grid_fixture,
    arm_system,
    disjoint_paths,
    graph_agv_system,
    hex_ball,
    hex_connectivity_trap,
    hex_pivot_system,
    sliding_ring_fixture,
    token_generator,
)
from cubeplan.topology import greedy_collapse

from util import (
    NOT_PLACEMENTS,
    oracle_commute_sub,
    oracle_is_normal,
    oracle_shrink_cube_path,
    oracle_validate,
    path_graph,
    trap_step,
    two_token_l_path,
    walkable_system,
)


def grid_fixture():
    sf = agv_grid_fixture(3, 3)
    return sf.system, sf.seeds[0]


def first_move(system, state, node_from, node_to):
    for a in admissible_actions(state, system):
        if a.offset == tuple(sorted((node_from, node_to))):
            src = next(iter(a.src_occ))
            if src == node_from:
                return a
    raise AssertionError("no such move")


def test_from_edge_path_and_accessors():
    system, seed = grid_fixture()
    a = first_move(system, seed, "p0.0", "p0.1")
    path = from_edge_path(seed, [a], system)
    assert path.length == 1
    assert path.start == seed
    assert path.end == frozenset(("p0.1", "p1.0"))
    assert len(path.vertices()) == 2
    assert path.potential == 1


def test_from_edge_path_rejects_bad_moves_with_index():
    system, seed = grid_fixture()
    a = first_move(system, seed, "p0.0", "p0.1")
    with pytest.raises(PathError) as err:
        from_edge_path(seed, [a, a], system)
    assert err.value.index == 1


def test_parallel_moves_merge_into_one_step():
    system, seed = grid_fixture()
    a = first_move(system, seed, "p0.0", "p0.1")
    b = first_move(system, seed, "p1.0", "p1.1")
    path = from_edge_path(seed, [a, b], system)
    out = time_geodesic(path)
    assert out.length == 1
    assert out.steps[0] == frozenset((a, b))
    assert out.end == path.end


def test_move_and_undo_cancel_to_nothing():
    system, seed = grid_fixture()
    a = first_move(system, seed, "p0.0", "p0.1")
    path = from_edge_path(seed, [a, a.reverse()], system)
    out = time_geodesic(path)
    assert out.length == 0
    assert out.end == seed


def test_cancellation_across_a_commuting_middle_step():
    system, seed = grid_fixture()
    a = first_move(system, seed, "p0.0", "p0.1")
    b = first_move(system, seed, "p1.0", "p1.1")
    path = from_edge_path(seed, [a, b, a.reverse()], system)
    out = time_geodesic(path)
    assert out.length == 1
    assert out.steps[0] == frozenset((b,))


def test_shrink_preserves_endpoints_and_decreases_potential():
    system, seed = grid_fixture()
    rng = random.Random(11)
    for _ in range(25):
        moves = random_edge_path(system, seed, 14, rng)
        path = from_edge_path(seed, moves, system)
        cur = path
        while True:
            nxt = shrink_cube_path(cur)
            assert nxt.start == cur.start
            assert nxt.end == cur.end
            if nxt == cur:
                break
            assert nxt.potential < cur.potential
            cur = nxt
        assert is_normal(cur)


def test_shrink_fixed_points_are_exactly_normal_paths():
    system, seed = grid_fixture()
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        moves = random_edge_path(system, seed, 10, rng)
        path = from_edge_path(seed, moves, system)
        fixed = shrink_cube_path(path) == path
        assert fixed == is_normal(path)
        checked += 1
    assert checked == 60


def test_modes_and_idempotence():
    system, seed = grid_fixture()
    rng = random.Random(3)
    moves = random_edge_path(system, seed, 16, rng)
    path = from_edge_path(seed, moves, system)
    short = time_geodesic(path, STOP_ON_LENGTH)
    normal = time_geodesic(path, NORMALIZE)
    assert short.length == normal.length <= path.length
    assert is_normal(normal)
    assert time_geodesic(normal, NORMALIZE) == normal
    with pytest.raises(PathError, match="unknown mode"):
        time_geodesic(path, "fastest")


def test_optimizer_matches_bfs_oracle_on_the_arm():
    sf = arm_system(3)
    system, seed = sf.system, sf.seeds[0]
    cx = build_complex(system, sf.seeds)
    rng = random.Random(17)
    for _ in range(40):
        moves = random_edge_path(system, seed, 12, rng)
        path = from_edge_path(seed, moves, system)
        out = time_geodesic(path, STOP_ON_LENGTH)
        assert out.length == oracle_shortest(cx, path.start, path.end)


# about two walkable systems in five are built whole and collapsible,
# so the rest are filtered out by design
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_optimizer_matches_bfs_oracle_on_random_collapsible_systems(seed, walk):
    """Random finite local systems whose complex is built whole and
    collapses to a point: a random admissible walk from a seed shrinks
    to the oracle's fewest cube moves.  The optimizer is least only in
    the walk's homotopy class, so the complex must be contractible."""
    sf = walkable_system(random.Random(seed))
    system = sf.system
    cx = build_complex(system, sf.seeds, max_vertices=64)
    assume(not cx.truncated)
    counts = greedy_collapse(cx)
    assume(counts[0] == 1 and not any(counts[1:]))
    rng = random.Random(walk)
    start = rng.choice(sf.seeds)
    moves = random_edge_path(system, start, rng.randrange(1, 16), rng)
    path = from_edge_path(start, moves, system)
    out = time_geodesic(path, STOP_ON_LENGTH)
    assert out.length == oracle_shortest(cx, path.start, path.end)


def test_equal_endpoints_normalize_identically():
    system, seed = grid_fixture()
    rng = random.Random(23)
    by_end = {}
    for _ in range(60):
        moves = random_edge_path(system, seed, 12, rng)
        path = from_edge_path(seed, moves, system)
        normal = time_geodesic(path, NORMALIZE)
        by_end.setdefault(path.end, []).append(normal)
    collisions = 0
    for group in by_end.values():
        for other in group[1:]:
            assert other == group[0]
            collisions += 1
    assert collisions > 10  # the fixture is small enough to collide often


def test_normal_form_is_normal_everywhere_along():
    """Every consecutive pair in a normalized path stays irreducible."""
    system, seed = grid_fixture()
    rng = random.Random(31)
    moves = random_edge_path(system, seed, 20, rng)
    normal = time_geodesic(from_edge_path(seed, moves, system), NORMALIZE)
    for i in range(normal.length - 1):
        assert not oracle_commute_sub(normal.steps[i], normal.steps[i + 1])


def test_validate_reports():
    system, seed = grid_fixture()
    a = first_move(system, seed, "p0.0", "p0.1")
    b = first_move(system, seed, "p1.0", "p1.1")
    good = CubePath(seed, (frozenset((a, b)),), system)
    assert validate(good).ok
    empty = CubePath(seed, (frozenset(),), system)
    report = validate(empty)
    assert not report.ok and report.index == 0
    wrong_state = CubePath(seed, (frozenset((a,)), frozenset((a,))), system)
    report = validate(wrong_state)
    assert not report.ok and report.index == 1
    clash = CubePath(seed, (frozenset((a, a.reverse())),), system)
    assert not validate(clash).ok


@pytest.mark.parametrize("name", sorted(NOT_PLACEMENTS))
def test_validate_refuses_actions_that_are_not_placements(name):
    _, make_system, script, step, reason = NOT_PLACEMENTS[name]
    report = validate(parse_path(script, make_system()))
    assert (report.ok, report.index) == (False, step)
    assert f"not a placement of the system ({reason})" in report.reason


@pytest.mark.parametrize("name", sorted(NOT_PLACEMENTS))
def test_a_recurring_bad_placement_is_reported_where_it_first_occurs(name):
    """Each action's placement is checked once per call; the memo must
    not move the report off the first step holding a bad placement."""
    _, make_system, script, step, reason = NOT_PLACEMENTS[name]
    system = make_system()
    path = parse_path(script, system)
    move = admissible_actions(path.start, system)[0]
    detour = (frozenset((move,)), frozenset((move.reverse(),)))
    bad = path.steps[step]
    recurring = CubePath(path.start, detour + path.steps + (bad, bad), system)
    report = validate(recurring)
    assert (report.ok, report.index) == (False, step + 2)
    assert f"not a placement of the system ({reason})" in report.reason


def test_validate_tests_admissibility_once_per_move(monkeypatch):
    """Placements are checked once per distinct action, but every move is
    tested against the state it runs from."""
    calls = 0
    original = cubepaths.is_admissible

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(cubepaths, "is_admissible", counted)
    script = pinned_script("grid", 150)
    for path in (script, time_geodesic(script, NORMALIZE)):
        calls = 0
        assert validate(path).ok
        assert calls == sum(len(step) for step in path.steps)
    assert len({a for step in script.steps for a in step}) < script.length


def _misplaced(step, system, rng):
    """The step's one action at an offset its system need not place: on
    a graph its nodes shuffled and one replaced by any node, elsewhere
    shifted out of the workspace."""
    (act,) = step
    lattice = system.workspace.lattice
    if lattice.kind == lat.GRAPH:
        offset = list(act.offset)
        rng.shuffle(offset)
        offset[rng.randrange(len(offset))] = rng.choice(lattice.nodes)
    else:
        offset = (act.offset[0] + 50, act.offset[1] + 50)
    return make_action(act.generator, tuple(offset), act.direction, lattice)


def _outside_cell(workspace):
    kind = workspace.lattice.kind
    if kind == lat.GRAPH:
        return "outside"
    return (99, 99, lat.HORIZONTAL) if kind == lat.SQUARE_EDGE else (99, 99)


VALIDATE_MUTATIONS = (
    "none", "drop", "swap", "double", "merge", "undo-pair", "empty", "misplaced",
    "start-outside",
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(VALIDATE_MUTATIONS),
    st.booleans(),
)
def test_validate_matches_the_oracle_on_mutated_walks(seed, walk, mutation, owned):
    """Random admissible walks on random finite systems, local or not,
    and copies with one mutation, the path carrying its system or none:
    ``validate`` gives the report of the memo-free oracle."""
    path = mutated_walk(seed, walk, mutation, owned)
    assert validate(path) == oracle_validate(path)


def mutated_walk(seed, walk, mutation, owned) -> CubePath:
    """A random admissible walk of singleton steps with one mutation."""
    sf = walkable_system(random.Random(seed), local=False)
    system = sf.system
    rng = random.Random(walk)
    start = rng.choice(sf.seeds)
    moves = random_edge_path(system, start, rng.randrange(1, 40), rng)
    steps = [frozenset((m,)) for m in moves]
    i, j = rng.randrange(len(steps)), rng.randrange(len(steps))
    act = rng.choice(moves)
    if mutation == "drop":
        del steps[i]
    elif mutation == "swap":
        steps[i], steps[j] = steps[j], steps[i]
    elif mutation == "double":
        steps.insert(i, steps[i])
    elif mutation == "merge" and i + 1 < len(steps):
        steps[i : i + 2] = [steps[i] | steps[i + 1]]
    elif mutation == "undo-pair":
        steps.insert(i, frozenset((act, act.reverse())))
    elif mutation == "empty":
        steps.insert(i, frozenset())
    elif mutation == "misplaced":
        steps[i] = frozenset((_misplaced(steps[i], system, rng),))
    elif mutation == "start-outside":
        start = start | {_outside_cell(system.workspace)}
    return CubePath(start, tuple(steps), system if owned else None)


def test_validate_reads_a_foreign_generator_like_the_oracle():
    """A move of a generator the graph system's catalogue lacks is
    checked against its own generator's embeddings, as before."""
    sf = agv_grid_fixture(2, 2)
    token = token_generator()
    hop = Generator("hop", token.support, token.trace, token.occ0, token.occ1, token.local_edges)
    lattice = sf.system.workspace.lattice
    for offset in (("p0.0", "p0.1"), ("p0.1", "p0.0")):
        move = make_action(hop, offset, FORWARD, lattice)
        path = CubePath(sf.seeds[0], (frozenset((move,)),), sf.system)
        assert validate(path) == oracle_validate(path)


def test_validate_reads_each_move_alike_whatever_ran_before():
    """Graph embeddings are kept per generator, not per generator id: a
    move of a second ``token`` generator over three nodes and the
    catalogue's own token move, validated one after the other on one
    system in either order, each get the report they get alone on a
    fresh system."""

    def moves(system):
        lattice = system.workspace.lattice
        wide = Generator(
            "token", ("a", "b", "c"), frozenset("ab"), frozenset("a"), frozenset("b"),
            (("a", "b"), ("b", "c")),
        )
        return (
            make_action(token_generator(), ("p0.0", "p0.1"), FORWARD, lattice),
            make_action(wide, ("p0.0", "p0.1", "p0.2"), FORWARD, lattice),
        )

    def report(sf, move):
        return validate(CubePath(sf.seeds[0], (frozenset((move,)),), sf.system))

    alone = []
    for i in range(2):
        sf = agv_grid_fixture(2, 2)
        alone.append(report(sf, moves(sf.system)[i]))
    assert alone[0].ok
    for order in ((0, 1), (1, 0)):
        sf = agv_grid_fixture(2, 2)
        both = moves(sf.system)
        assert [report(sf, both[i]) for i in order] == [alone[i] for i in order]


@pytest.mark.parametrize("name", sorted(NOT_PLACEMENTS))
def test_from_edge_path_refuses_moves_that_are_not_placements(name):
    _, make_system, script, step, reason = NOT_PLACEMENTS[name]
    system = make_system()
    path = parse_path(script, system)
    moves = [act for s in path.steps for act in s]
    with pytest.raises(PathError, match=reason) as err:
        from_edge_path(path.start, moves, system)
    assert err.value.index == step


def test_start_outside_the_workspace_is_refused_at_index_minus_one():
    system, seed = grid_fixture()
    start = seed | {"nowhere"}
    report = validate(CubePath(start, (), system))
    assert (report.ok, report.index) == (False, -1)
    assert "outside workspace" in report.reason
    with pytest.raises(PathError, match="outside workspace") as err:
        from_edge_path(start, [first_move(system, seed, "p0.0", "p0.1")], system)
    assert err.value.index == -1


def test_start_breaking_the_constraint_is_refused_at_index_minus_one():
    sf = hex_connectivity_trap(constrained=True)
    system = sf.system
    start = sf.seeds[0] - {(1, 1), (2, -2)} | {(-1, -1), (-1, 2)}
    assert len(start) == 13
    system.workspace.check_state(start)
    report = validate(CubePath(start, (), system))
    assert (report.ok, report.index) == (False, -1)
    assert report.reason == "start state violates the global constraint"


def test_step_breaking_the_constraint_is_refused_after_it_runs():
    """Each of the trap's three pivots is admissible at its start, so
    only the check after the whole step refuses it."""
    sf = hex_connectivity_trap(constrained=True)
    step = trap_step(sf.system)
    report = validate(CubePath(sf.seeds[0], (step,), sf.system))
    assert (report.ok, report.index, report.reason) == (
        False,
        0,
        "state violates the global constraint",
    )


def test_optimizer_refuses_non_local_systems():
    sf = hex_connectivity_trap(constrained=True)
    system, seed = sf.system, sf.seeds[0]
    acts = admissible_actions(seed, system)
    path = from_edge_path(seed, [acts[0]], system)
    with pytest.raises(PathError, match="local system"):
        time_geodesic(path)
    with pytest.raises(PathError, match="local system"):
        shrink_cube_path(path)


def test_oracle_shortest_counts_cube_moves():
    sf = graph_agv_system(path_graph(2), 1)
    cx = build_complex(sf.system, sf.seeds)
    assert oracle_shortest(cx, frozenset((0,)), frozenset((1,))) == 1
    sf2 = agv_grid_fixture(1, 1)
    cx2 = build_complex(sf2.system, sf2.seeds)
    # antipodal jump across the single square counts as one time step
    assert (
        oracle_shortest(cx2, frozenset(("p0.0", "p1.0")), frozenset(("p0.1", "p1.1")))
        == 1
    )


def test_oracle_shortest_disconnected_raises():
    graph = disjoint_paths(2, 2)
    system = System(Workspace(graph, frozenset(graph.nodes)), (token_generator(),))
    cx = build_complex(system, [frozenset(("p0.0",)), frozenset(("p1.0",))])
    with pytest.raises(PathError, match="not connected"):
        oracle_shortest(cx, frozenset(("p0.0",)), frozenset(("p1.0",)))


def test_random_edge_path_is_reproducible():
    system, seed = grid_fixture()
    m1 = random_edge_path(system, seed, 9, random.Random(99))
    m2 = random_edge_path(system, seed, 9, random.Random(99))
    assert m1 == m2
    assert len(m1) == 9


def test_shrink_stats_count_work():
    system, seed = grid_fixture()
    moves = random_edge_path(system, seed, 12, random.Random(1))
    path = from_edge_path(seed, moves, system)
    stats = ShrinkStats()
    time_geodesic(path, NORMALIZE, stats)
    assert stats.shrink_calls >= 2
    assert stats.iterations >= path.length


# The optimizer's outputs, pinned: the sha256 of the serialized result and
# the exact sweep iterations for seeded random scripts, read back through
# the parser.  The sweep's rewrite order is the reproduced algorithm, so a
# change that keeps the results but reorders the work still fails here.
PINNED_SCRIPTS = {
    ("arm", 60, STOP_ON_LENGTH): (
        5, 85, "9614b56d351b1602966465db359e7eda1fca196d7038ecd8c2e651f1efc18a32"
    ),
    ("arm", 60, NORMALIZE): (
        5, 85, "9614b56d351b1602966465db359e7eda1fca196d7038ecd8c2e651f1efc18a32"
    ),
    ("arm", 150, STOP_ON_LENGTH): (
        9, 259, "18a45852a6ba0c3e1a876d90b7ec28f91bdb75023ca5971c7f09a49765e7bc8a"
    ),
    ("arm", 150, NORMALIZE): (
        9, 259, "18a45852a6ba0c3e1a876d90b7ec28f91bdb75023ca5971c7f09a49765e7bc8a"
    ),
    ("grid", 60, STOP_ON_LENGTH): (
        6, 86, "0200bdb6120ffd9bb5168a032326dd05de1666c8aac5dc0c83ba7ef0815c8519"
    ),
    ("grid", 60, NORMALIZE): (
        6, 106, "4388687d8ace29ea69f17a1cf23c4f6f200b63a70509889c6f9764bde4d44418"
    ),
    ("grid", 150, STOP_ON_LENGTH): (
        2, 194, "b8853ff2d8978c88e0c03b4553c53f28e0f2dbc631c0400458d17d8a3e7793c0"
    ),
    ("grid", 150, NORMALIZE): (
        2, 194, "b8853ff2d8978c88e0c03b4553c53f28e0f2dbc631c0400458d17d8a3e7793c0"
    ),
}


def pinned_script(name, length):
    """The ``length``-move script of ``PINNED_SCRIPTS``, written and parsed:
    the scripts of one system come from one generator seeded 2024, the
    60-move script first."""
    sf = arm_system(7) if name == "arm" else agv_grid_fixture(6, 6)
    rng = random.Random(2024)
    for n in (60, 150):
        moves = random_edge_path(sf.system, sf.seeds[0], n, rng)
        if n == length:
            path = from_edge_path(sf.seeds[0], moves, sf.system)
            return parse_path(serialize_path(path), sf.system)
    raise AssertionError(f"no pinned script of {length} moves")


@pytest.mark.parametrize("name, length, mode", sorted(PINNED_SCRIPTS))
def test_optimizer_outputs_are_pinned(name, length, mode):
    out_length, iterations, digest = PINNED_SCRIPTS[name, length, mode]
    stats = ShrinkStats()
    out = time_geodesic(pinned_script(name, length), mode, stats)
    assert out.length == out_length
    assert stats.iterations == iterations
    assert hashlib.sha256(serialize_path(out).encode()).hexdigest() == digest


def test_l_path_sweep_work_is_pinned():
    stats = ShrinkStats()
    out = time_geodesic(two_token_l_path(320), NORMALIZE, stats)
    assert out.length == 160
    assert stats.iterations == 51_360


# The systems whose seeded scripts feed the junction property.  Hex pivots
# carry support cells off their trace, where the support and trace tests of
# a junction part.
JUNCTION_SYSTEMS = {
    "arm": lambda: arm_system(7),
    "grid": lambda: agv_grid_fixture(6, 6),
    "hex": lambda: SystemFile(
        hex_pivot_system(VARIANT_PRESERVING, hex_ball(3)),
        (frozenset(((0, 0), (1, 0), (0, 1), (1, 1))),),
    ),
}


@functools.cache
def junction_steps(name):
    """Steps of seeded scripts, as written (one move each) and after each
    optimizer mode, of the whole script and of its prefixes (several moves
    each)."""
    sf = JUNCTION_SYSTEMS[name]()
    system, start = sf.system, sf.seeds[0]
    rng = random.Random(12)
    steps = []
    for n in (40, 120):
        moves = random_edge_path(system, start, n, rng)
        steps.extend(frozenset((move,)) for move in moves)
        for k in range(8, n + 1, 8):
            path = from_edge_path(start, moves[:k], system)
            for mode in MODES:
                steps.extend(time_geodesic(path, mode).steps)
    return tuple(steps)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(JUNCTION_SYSTEMS)), st.data())
def test_is_normal_equals_the_set_oracle(name, data):
    """Against the set-valued junction tests, on runs of consecutive steps
    (an optimizer's output is normal) with some replaced by an arbitrary
    or an empty step, with and without the system."""
    steps = junction_steps(name)
    assert any(len(step) > 1 for step in steps)
    k = data.draw(st.integers(0, 8))
    i = data.draw(st.integers(0, len(steps) - k))
    run = list(steps[i : i + k])
    if k:
        for pos in data.draw(st.lists(st.integers(0, k - 1), max_size=k)):
            run[pos] = data.draw(st.sampled_from((frozenset(),) + steps))
    system = JUNCTION_SYSTEMS[name]().system if data.draw(st.booleans()) else None
    path = CubePath(frozenset(), tuple(run), system)
    assert is_normal(path) == oracle_is_normal(path)


def test_empty_steps_are_normal_exactly_when_a_sweep_keeps_them():
    """A lone empty step is a fixed point of the sweep; an empty first
    step takes the next step's actions, and an empty last step after
    another is deleted."""
    system, seed = grid_fixture()
    a = frozenset((admissible_actions(seed, system)[0],))
    empty = frozenset()
    for steps, normal in (((empty,), True), ((empty, a), False), ((a, empty), False)):
        path = CubePath(seed, steps, system)
        assert (shrink_cube_path(path).steps == steps) == normal
        assert is_normal(path) == oracle_is_normal(path) == normal


ARBITRARY_SYSTEMS = {
    "grid": lambda: agv_grid_fixture(3, 3),
    "arm": lambda: arm_system(5),
    "ring": lambda: sliding_ring_fixture(1, 2),
    "trap": lambda: hex_connectivity_trap(True),
}


@functools.cache
def arbitrary_system(name):
    return ARBITRARY_SYSTEMS[name]().system


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ARBITRARY_SYSTEMS)), st.data())
def test_is_normal_equals_the_set_oracle_on_arbitrary_paths(name, data):
    """Steps of 0-3 actions drawn from all of the system's placements, so
    non-commuting sets, repeated placements and empty steps occur; the
    path is owned by the system or by none, and the trap's system is not
    local, which the sweep alone would refuse."""
    system = arbitrary_system(name)
    step = st.lists(st.sampled_from(system.all_actions), max_size=3)
    steps = data.draw(st.lists(step.map(frozenset), max_size=5))
    owner = system if data.draw(st.booleans()) else None
    path = CubePath(frozenset(), tuple(steps), owner)
    assert is_normal(path) == oracle_is_normal(path)


def assert_sweeps_equal_the_oracle(path):
    """Sweep the path with the coded sweep, each sweep handing its coding
    to the next, and with the set-based oracle, until a sweep changes
    nothing: every sweep gives the same steps in the same iterations.
    The first coded sweep numbers the path on entry."""
    coded = oracle = path
    while True:
        got, want = ShrinkStats(), ShrinkStats()
        nxt = shrink_cube_path(coded, got)
        ref = oracle_shrink_cube_path(oracle, want)
        assert nxt.steps == ref.steps
        assert (got.iterations, got.shrink_calls) == (want.iterations, want.shrink_calls)
        if ref == oracle:
            return
        coded, oracle = nxt, ref


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.data())
def test_coded_sweep_equals_the_set_sweep_on_random_walks(seed, walk, data):
    """Random admissible walks on random finite local systems, some
    moves replaced by equal but distinct copies, the path carrying its
    system or none."""
    sf = walkable_system(random.Random(seed))
    system = sf.system
    rng = random.Random(walk)
    start = rng.choice(sf.seeds)
    moves = random_edge_path(system, start, rng.randrange(1, 40), rng)
    copies = data.draw(st.lists(st.booleans(), min_size=len(moves), max_size=len(moves)))
    moves = [m.reverse().reverse() if c else m for m, c in zip(moves, copies)]
    owner = system if data.draw(st.booleans()) else None
    assert_sweeps_equal_the_oracle(
        CubePath(start, tuple(frozenset((m,)) for m in moves), owner)
    )


@pytest.mark.parametrize("name", sorted(JUNCTION_SYSTEMS))
def test_coded_sweep_equals_the_set_sweep_on_long_walks(name):
    """Long walks, whose sweeps move parts of steps and cancel often."""
    sf = JUNCTION_SYSTEMS[name]()
    rng = random.Random(40)
    for _ in range(3):
        moves = random_edge_path(sf.system, sf.seeds[0], 150, rng)
        assert_sweeps_equal_the_oracle(from_edge_path(sf.seeds[0], moves, sf.system))


def test_coded_sweep_equals_the_set_sweep_on_odd_paths():
    """Equal but distinct actions in one path, empty steps, and steps of
    several actions, with and without a system."""
    system, seed = grid_fixture()
    a = first_move(system, seed, "p0.0", "p0.1")
    b = first_move(system, seed, "p1.0", "p1.1")
    twin = a.reverse().reverse()
    assert twin == a and twin is not a
    empty = frozenset()
    paths = [
        (frozenset((a,)), frozenset((b,)), frozenset((twin.reverse(),))),
        (frozenset((twin,)), frozenset((a.reverse(),)), frozenset((a,))),
        (empty, frozenset((a,)), empty, empty, frozenset((b,)), empty),
        (frozenset((a, b)), frozenset((a.reverse(),)), empty, frozenset((twin,))),
        (empty,),
        (),
    ]
    for steps in paths:
        for owner in (system, None):
            assert_sweeps_equal_the_oracle(CubePath(seed, steps, owner))


def test_a_sweep_leaves_its_input_as_it_found_it():
    """A coded path can be swept twice: each sweep works on its own copy
    of the coding it was handed."""
    system, seed = grid_fixture()
    moves = random_edge_path(system, seed, 30, random.Random(0))
    first = shrink_cube_path(from_edge_path(seed, moves, system))
    again = shrink_cube_path(first)
    assert again != first
    assert shrink_cube_path(first) == again == oracle_shrink_cube_path(first)


def test_a_sweep_keeps_the_set_of_every_step_it_did_not_change():
    """On every sweep of a parsed pinned script, each step the set
    oracle leaves alone is the input's own frozenset in the result too."""
    cur, kept = pinned_script("arm", 150), 0
    while True:
        nxt, ref = shrink_cube_path(cur), oracle_shrink_cube_path(cur)
        assert nxt.steps == ref.steps
        for got, want in zip(nxt.steps, ref.steps):
            if any(want is step for step in cur.steps):
                assert got is want
                kept += 1
        if ref == cur:
            break
        cur = nxt
    assert kept == 38


def test_time_geodesic_returns_a_plain_path():
    """The result equals and hashes like the same path built afresh, and
    carries no coding."""
    for mode in MODES:
        script = pinned_script("grid", 60)
        out = time_geodesic(script, mode)
        fresh = CubePath(out.start, out.steps, out.system)
        assert out == fresh and hash(out) == hash(fresh)
        assert out._coding is None
        assert shrink_cube_path(script)._coding is not None


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_normal_forms_of_random_walks_are_normal_and_fixed(seed, walk):
    """On random finite local systems, ``normalize`` gives a normal path
    that normalizes to itself, with the walk's endpoints."""
    sf = walkable_system(random.Random(seed))
    system = sf.system
    rng = random.Random(walk)
    start = rng.choice(sf.seeds)
    moves = random_edge_path(system, start, rng.randrange(1, 40), rng)
    path = from_edge_path(start, moves, system)
    normal = time_geodesic(path, NORMALIZE)
    assert is_normal(normal)
    assert time_geodesic(normal, NORMALIZE) == normal
    assert normal.end == path.end
