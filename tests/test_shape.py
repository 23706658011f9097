"""Shape complexes: translation quotients, their topology, and lifting."""

import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import util
from cubeplan import shape as shape_module
from cubeplan.cubepaths import CubePath, from_edge_path, random_edge_path, validate
from cubeplan.errors import ModelError, StateError
from cubeplan.fileformat import export_complex
from cubeplan.lattice import (
    graph_lattice,
    hex_lattice,
    square_edge_lattice,
    square_lattice,
)
from cubeplan.model import (
    BACKWARD,
    FORWARD,
    Generator,
    System,
    Workspace,
    apply_action,
    commute_pair,
    make_action,
    pattern_matches,
)
from cubeplan.shape import (
    REASON_CONSTRAINT,
    REASON_OBSTACLE,
    REASON_PATTERN,
    REASON_START,
    REASON_STEP,
    REASON_WORKSPACE,
    build_shape_complex,
    canonicalize,
    lift_path,
    random_shape_path,
    shape_actions,
)
from cubeplan.statecomplex import build_complex, check_link_condition, link
from cubeplan.systems import (
    HEX_TRAP_STATE,
    VARIANT_CHANGING,
    VARIANT_PRESERVING,
    agv_grid_fixture,
    arm_generators,
    hex_ball,
    hex_connectivity_trap,
    hex_pivot_system,
    token_generator,
)
from cubeplan.topology import betti_mod2, euler_characteristic, f_vector

from test_golden import sha
from util import (
    link_vertices,
    oracle_shape_actions,
    oracle_shape_cube_key,
    sliding_squares_system,
    trap_step,
)

TRIANGLE = frozenset([(0, 0), (1, 0), (0, 1)])


def preserving():
    return hex_pivot_system(VARIANT_PRESERVING)


def test_random_shape_path_is_reproducible_and_canonical():
    system = preserving()
    p1 = random_shape_path(system, TRIANGLE, 10, random.Random(8))
    p2 = random_shape_path(system, TRIANGLE, 10, random.Random(8))
    assert p1 == p2
    assert p1.length == 10
    assert p1.system is None
    assert min(p1.start) == (0, 0)
    bounded = hex_pivot_system(VARIANT_PRESERVING, cells=hex_ball(3))
    with pytest.raises(ModelError, match="Homogeneous"):
        random_shape_path(bounded, TRIANGLE, 3, random.Random(0))


def test_a_random_shape_path_stops_where_no_move_applies():
    """A lone hex module has no pivot partner, so its walk has no step."""
    lone = random_shape_path(hex_pivot_system(VARIANT_CHANGING), {(3, 4)}, 5, random.Random(1))
    assert (lone.start, lone.steps) == (frozenset({(0, 0)}), ())


def test_canonicalize_translates_min_cell_to_origin():
    latt = square_lattice()
    state = frozenset([(5, 7), (6, 7), (5, 8)])
    canon, shift = canonicalize(state, latt)
    assert min(canon) == (0, 0)
    assert shift == (-5, -7)
    again, shift2 = canonicalize(canon, latt)
    assert again == canon and shift2 == (0, 0)
    with pytest.raises(StateError):
        canonicalize(frozenset(), latt)


def test_canonicalize_is_identity_on_graphs():
    latt = graph_lattice((0, 1, 2), ((0, 1), (1, 2)))
    state = frozenset((2,))
    assert canonicalize(state, latt) == (state, ())


def test_shape_cube_key_is_translation_invariant():
    """The name key, the oracle of the quotient's number key, names a
    placement alike in every translate of its corner."""
    system = preserving()
    latt = system.workspace.lattice
    acts = shape_actions(system, TRIANGLE)
    assert acts
    act = acts[0]
    shifted_state = frozenset(latt.translate(c, (4, -2)) for c in TRIANGLE)
    shifted_acts = shape_actions(system, shifted_state)
    twins = [b for b in shifted_acts if b.gid == act.gid]
    key = oracle_shape_cube_key([act], TRIANGLE)
    match = [b for b in twins if oracle_shape_cube_key([b], shifted_state) == key]
    assert match
    # a square: the twins of two commuting actions, keyed at the shifted
    # all-forward corner, read the same names
    pair = [acts[0], acts[3]]
    assert commute_pair(*pair)
    twin_pair = [
        next(
            b
            for b in shifted_acts
            if (b.gid, b.direction) == (a.gid, a.direction)
            and b.offset == (a.offset[0] + 4, a.offset[1] - 2)
        )
        for a in pair
    ]
    corner, shifted_corner = TRIANGLE, shifted_state
    for a, b in zip(pair, twin_pair):
        if a.direction == BACKWARD:
            corner = apply_action(corner, a)
            shifted_corner = apply_action(shifted_corner, b)
    assert corner != TRIANGLE
    key = oracle_shape_cube_key(pair, corner)
    assert oracle_shape_cube_key(twin_pair, shifted_corner) == key


def test_shape_complex_requires_homogeneous_workspace():
    with pytest.raises(ModelError, match="Homogeneous"):
        build_shape_complex(
            hex_pivot_system(VARIANT_CHANGING, cells=hex_ball(2)), [TRIANGLE]
        )
    with pytest.raises(ModelError, match="Homogeneous"):
        build_shape_complex(
            hex_pivot_system(VARIANT_CHANGING, obstacles=(((9, 9), 0),)), [TRIANGLE]
        )
    holed = System(
        Workspace(square_lattice(), None, excluded=frozenset([(9, 9)])),
        sliding_squares_system(1, None).catalogue,
    )
    with pytest.raises(ModelError, match="Homogeneous"):
        build_shape_complex(holed, [frozenset([(0, 0), (1, 0)])])
    graph_sys = System(
        Workspace(graph_lattice((0, 1), ((0, 1),)), None), (token_generator(),)
    )
    with pytest.raises(ModelError, match="translation-symmetric"):
        build_shape_complex(graph_sys, [frozenset((0,))])
    spawner = Generator(
        "spawn", ((0, 0),), frozenset([(0, 0)]), frozenset(), frozenset([(0, 0)])
    )
    spawn_sys = System(Workspace(square_lattice(), None), (spawner,))
    with pytest.raises(ModelError, match="all-empty pattern"):
        build_shape_complex(spawn_sys, [frozenset([(0, 0)])])


def test_hex_preserving_three_modules():
    """Three pivoting hexagons up to translation: eleven shapes, nine
    squares forming a single twisted band, so the complex is homotopy
    equivalent to a wedge of five circles."""
    cx = build_shape_complex(preserving(), [TRIANGLE])
    assert not cx.truncated
    assert f_vector(cx) == (11, 24, 9)
    assert euler_characteristic(cx) == -4
    assert betti_mod2(cx) == (1, 5, 0)
    assert check_link_condition(cx).ok


@pytest.mark.parametrize(
    "seed",
    [TRIANGLE, frozenset((i, 0) for i in range(5))],
    ids=["triangle", "five-modules"],
)
def test_link_vertices_are_the_actions_at_the_vertex(seed):
    """Link vertices are the moves leaving a shape, in the shape's own
    frame, so each of them applies at that shape."""
    system = preserving()
    cx = build_shape_complex(system, [seed])
    for vid in range(cx.n_vertices):
        shape = cx.vertex_state(vid)
        lnk = link(cx, shape)
        assert all(pattern_matches(shape, a) for a in link_vertices(lnk))
        assert link_vertices(lnk) == tuple(shape_actions(system, shape))


def test_hex_preserving_square_adjacency_fingerprint():
    """The nine squares glue along twelve interior edges into one block;
    twelve edges stay on the boundary."""
    cx = build_shape_complex(preserving(), [TRIANGLE])
    edge_to_squares = {}
    for s in range(cx.n_cells(2)):
        for e in set(cx.facets(2, s)):
            edge_to_squares.setdefault(e, set()).add(s)
    memberships = sorted(
        len(edge_to_squares.get(e, ())) for e in range(cx.n_cells(1))
    )
    assert memberships == [1] * 12 + [2] * 12
    nbrs = {s: set() for s in range(cx.n_cells(2))}
    for squares in edge_to_squares.values():
        if len(squares) == 2:
            a, b = squares
            nbrs[a].add(b)
            nbrs[b].add(a)
    seen = {next(iter(nbrs))}
    frontier = set(seen)
    while frontier:
        frontier = {n for s in frontier for n in nbrs[s]} - seen
        seen |= frontier
    assert len(seen) == 9


def test_shape_seeds_are_checked_against_the_workspace():
    plane = preserving()
    with pytest.raises(StateError, match="outside workspace"):
        build_shape_complex(plane, [frozenset({(0, 0, 0)})])
    with pytest.raises(StateError, match="outside workspace"):
        build_shape_complex(plane, [frozenset({"x"})])


def stacked_bars():
    """Two 3-cell bars, one on the other, each sliding a step along the
    cells the other holds still.  Both sliding together translates the
    shape, so the square they span has two corners on one vertex."""

    def slide(gid, side):
        held = [(1, side), (2, side)]
        return Generator(
            gid,
            tuple([(0, 0), (1, 0), (2, 0), (3, 0)] + held),
            frozenset([(0, 0), (3, 0)]),
            frozenset([(0, 0), (1, 0), (2, 0)] + held),
            frozenset([(1, 0), (2, 0), (3, 0)] + held),
        )

    plane = Workspace(square_lattice(), None)
    system = System(plane, (slide("low", 1), slide("high", -1)))
    return system, frozenset((x, y) for x in range(3) for y in range(2))


def test_shape_records_do_not_depend_on_the_seed():
    """Each cell's base corner, actions and facet order follow from the
    cell alone, not from which corner the closure reached first, even
    when two corners of a cell tie for the base."""

    def records(cx):
        # cells are numbered in build order and keys hold vertex ids,
        # both of which follow the seed, so cells and facets are
        # compared by printed name
        names = [cx.cell_keys(k) for k in range(cx.max_dim + 1)]
        return {
            (k, names[k][i]): (
                rec.base,
                rec.actions,
                tuple(names[k - 1][f] for f in rec.facets),
            )
            for k in range(cx.max_dim + 1)
            for i, rec in enumerate(cx.cells(k))
        }

    for plane, seed in ((preserving(), TRIANGLE), stacked_bars()):
        cx = build_shape_complex(plane, [seed])
        expected = records(cx)
        for vid in range(cx.n_vertices):
            other = build_shape_complex(plane, [cx.vertex_state(vid)])
            assert records(other) == expected
    # the bars' square has its base shape at two corners
    (square,) = cx.cells(2)
    assert square.corners.count(square.corners[0]) == 2


def test_sliding_domino_shapes_are_rigid():
    system = sliding_squares_system(2, None)
    horizontal = frozenset([(0, 0), (1, 0)])
    vertical = frozenset([(0, 0), (0, 1)])
    assert shape_actions(system, horizontal) == []
    assert shape_actions(system, vertical) == []
    cx = build_shape_complex(system, [horizontal, vertical])
    assert f_vector(cx) == (2,)


def lone_slider(slides):
    """The shape complex of one square module sliding by each offset of
    ``slides``, a dict from generator id to offset."""
    gens = tuple(
        Generator(gid, ((0, 0), to), frozenset([(0, 0), to]), frozenset([(0, 0)]), frozenset([to]))
        for gid, to in slides.items()
    )
    system = System(Workspace(square_lattice(), None), gens)
    return build_shape_complex(system, [frozenset([(0, 0)])])


@pytest.mark.parametrize(
    "slides, fvec, export",
    [
        (
            {"right": (1, 0)}, (1, 1),
            "666af2251809b0b2f8b46dd9ed4fce022f3f67a659d2801f28d38bca0c286133",
        ),
        (
            {"right": (1, 0), "up": (0, 1)}, (1, 2),
            "556006de7c831b55566eb59f48bb9a2e9730b8ade9990436eb88433021625166",
        ),
    ],
)
def test_a_lone_sliding_module_is_one_shape_with_loop_edges(slides, fvec, export):
    """One square module sliding right (and up) is one shape.  Each slide
    reaches a translate of it, so it is a loop edge, which the shape
    reads twice: forward, and backward from the carried frame.  Each
    loop is one edge, and the export is pinned byte for byte."""
    cx = lone_slider(slides)
    assert f_vector(cx) == fvec
    assert all(cx.corners(1, i) == (0, 0) for i in range(cx.n_cells(1)))
    assert sha(export_complex(cx)) == export


def test_shape_build_truncates_at_cap():
    cx = build_shape_complex(
        hex_pivot_system(VARIANT_CHANGING), [TRIANGLE], cap=15
    )
    assert cx.truncated
    assert cx.n_cells(0) <= 15


def test_lift_into_unbounded_workspace_round_trips():
    system = preserving()
    rng = random.Random(7)
    for trial in range(20):
        path = random_shape_path(system, TRIANGLE, 8, rng)
        result = lift_path(path, (trial, -trial), system)
        assert result.ok, result.reason
        lifted = result.path
        assert lifted.length == path.length
        assert validate(lifted).ok
        expect = frozenset(
            system.workspace.lattice.translate(c, (trial, -trial))
            for c in path.start
        )
        assert lifted.start == expect


def test_lift_failure_reasons_and_steps():
    system = preserving()
    acts = shape_actions(system, TRIANGLE)
    act = acts[0]
    one_move = CubePath(TRIANGLE, (frozenset((act,)),), None)

    tiny = hex_pivot_system(VARIANT_PRESERVING, cells=frozenset([(0, 0)]))
    res = lift_path(one_move, (0, 0), tiny)
    assert (res.ok, res.fail_step, res.reason) == (False, -1, REASON_WORKSPACE)

    board = hex_ball(4)
    pinned_start = hex_pivot_system(
        VARIANT_PRESERVING, cells=board, obstacles=(((0, 0), 1),)
    )
    res = lift_path(one_move, (0, 0), pinned_start)
    assert (res.ok, res.fail_step, res.reason) == (False, -1, REASON_START)

    target = next(iter(act.dst_occ - act.src_occ))
    blocked = hex_pivot_system(
        VARIANT_PRESERVING, cells=board, obstacles=((target, 0),)
    )
    res = lift_path(one_move, (0, 0), blocked)
    assert (res.ok, res.fail_step, res.reason) == (False, 0, REASON_OBSTACLE)

    required_empty = next(iter(act.support - act.src_occ - act.trace))
    crowded = hex_pivot_system(
        VARIANT_PRESERVING, cells=board, obstacles=((required_empty, 1),)
    )
    res = lift_path(one_move, (0, 0), crowded)
    assert (res.ok, res.fail_step, res.reason) == (False, 0, REASON_PATTERN)

    lonely = hex_pivot_system(
        VARIANT_PRESERVING,
        cells=board,
        obstacles=(((4, -4), 1),),
        constraint_name="connected",
    )
    res = lift_path(one_move, (0, 0), lonely)
    assert (res.ok, res.fail_step, res.reason) == (
        False,
        -1,
        REASON_CONSTRAINT,
    )

    hollow = CubePath(TRIANGLE, (frozenset((act,)), frozenset()), None)
    res = lift_path(hollow, (0, 0), hex_pivot_system(VARIANT_PRESERVING, cells=board))
    assert (res.ok, res.fail_step, res.reason) == (False, 1, REASON_STEP)


def test_lift_refuses_a_step_breaking_the_constraint_after_it_runs():
    """The trap's three pivots each match and fit the trap's workspace,
    so only the check after the step refuses the lift."""
    sf = hex_connectivity_trap(constrained=True)
    path = CubePath(HEX_TRAP_STATE, (trap_step(sf.system),), None)
    res = lift_path(path, (0, 0), sf.system)
    assert (res.ok, res.fail_step, res.reason) == (False, 0, REASON_CONSTRAINT)


# Two commuting pivots at a plane shape: lifted into a connected hex
# ball both match and their end state is connected, but the first pivot
# alone disconnects the modules, so only admitting each move by the
# global rule refuses the step.
WITNESS_SHAPE = frozenset([(0, 0), (1, -1), (1, 0), (2, -4), (2, -3), (2, -2), (3, -4)])
WITNESS_STEP = (("pivot2", (1, -1), FORWARD), ("pivot5", (1, -2), BACKWARD))


def changing_plane():
    return hex_pivot_system(VARIANT_CHANGING)


def connected_ball():
    return hex_pivot_system(VARIANT_CHANGING, hex_ball(6), constraint_name="connected")


def _placed(system, specs) -> frozenset:
    gens = {g.gid: g for g in system.catalogue}
    lattice = system.workspace.lattice
    return frozenset(make_action(gens[g], off, d, lattice) for g, off, d in specs)


def test_lift_admits_each_move_by_the_global_rule():
    """A lift ``validate`` would refuse is refused by the lift itself."""
    step = _placed(changing_plane(), WITNESS_STEP)
    ball = connected_ball()
    res = lift_path(CubePath(WITNESS_SHAPE, (step,), None), (0, 0), ball)
    assert (res.ok, res.fail_step, res.reason) == (False, 0, REASON_CONSTRAINT)
    placed = CubePath(WITNESS_SHAPE, (_placed(ball, WITNESS_STEP),), ball)
    assert "pivot2 at (1, -1) not admissible" in validate(placed).reason
    # each move is admitted in turn: the rule refuses pivot2 before the
    # second move, reversed here so its pattern fails, is matched
    reversed_second = (WITNESS_STEP[0], ("pivot5", (1, -2), FORWARD))
    step = _placed(changing_plane(), reversed_second)
    res = lift_path(CubePath(WITNESS_SHAPE, (step,), None), (0, 0), ball)
    assert (res.ok, res.fail_step, res.reason) == (False, 0, REASON_CONSTRAINT)


def _commuting_pairs(shape) -> list:
    acts = shape_actions(changing_plane(), shape)
    return [frozenset(p) for p in combinations(acts, 2) if commute_pair(*p)]


HEX_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def _polyhex(growth) -> frozenset:
    """Cells grown from the origin, each next to an earlier one."""
    cells = [(0, 0)]
    for parent, d in growth:
        q, r = cells[parent % len(cells)]
        cells.append((q + HEX_STEPS[d][0], r + HEX_STEPS[d][1]))
    return frozenset(cells)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 5)), min_size=1, max_size=6).map(
        _polyhex
    ),
    st.integers(0, 10**6),
)
@example(
    WITNESS_SHAPE,
    _commuting_pairs(WITNESS_SHAPE).index(_placed(changing_plane(), WITNESS_STEP)),
)
def test_a_lift_it_accepts_validates(cells, pick):
    """Two commuting moves at a connected plane shape of up to seven
    cells, lifted into the connected hex ball at the origin: a lift that
    succeeds is a path ``validate`` accepts."""
    shape = canonicalize(cells, changing_plane().workspace.lattice)[0]
    pairs = _commuting_pairs(shape)
    assume(pairs)
    step = pairs[pick % len(pairs)]
    res = lift_path(CubePath(shape, (step,), None), (0, 0), connected_ball())
    if res.ok:
        assert validate(res.path).ok


def test_validate_and_lift_accept_a_step_exactly_when_its_cube_is_built():
    """On the constrained hex trap, every clique of two or more commuting
    actions leaving a vertex is one step: ``validate`` and ``lift_path``
    accept it exactly when the build did not refuse the clique, that
    is, when every corner of its cube is a state."""
    sf = hex_connectivity_trap(constrained=True)
    system, lattice = sf.system, sf.system.workspace.lattice
    cx = build_complex(system, sf.seeds)
    cliques = 0
    for vid in range(cx.n_vertices):
        state = cx.vertex_state(vid)
        lk = link(cx, state)
        canon, shift = canonicalize(state, lattice)
        base = (-shift[0], -shift[1])
        for mask in range(1 << len(lk.actions)):
            idx = [i for i in range(len(lk.actions)) if mask >> i & 1]
            if len(idx) < 2 or any(mask & ~(lk.adjacency[i] | 1 << i) for i in idx):
                continue  # not a clique of two or more
            cliques += 1
            built = mask not in lk.refused
            step = [lk.actions[i] for i in idx]
            assert validate(CubePath(state, (frozenset(step),), system)).ok == built
            in_shape = frozenset(
                make_action(
                    a.generator, (a.offset[0] + shift[0], a.offset[1] + shift[1]), a.direction, lattice
                )
                for a in step
            )
            assert lift_path(CubePath(canon, (in_shape,), None), base, system).ok == built
    assert cliques == 2006


def test_lift_refuses_to_empty_the_shape():
    """A step that removes the last module leaves no shape to read the
    next step's frame from."""
    origin = frozenset([(0, 0)])
    vanish = Generator("vanish", ((0, 0),), origin, origin, frozenset())
    system = System(Workspace(hex_lattice(), None), (vanish,))
    (act,) = shape_actions(system, origin)
    path = CubePath(origin, (frozenset((act,)),), None)
    with pytest.raises(StateError, match="empty"):
        lift_path(path, (2, 3), system)


def test_lift_walks_along_with_the_canonical_frame():
    """A path that drifts keeps lifting correctly step after step."""
    system = preserving()
    rng = random.Random(41)
    path = random_shape_path(system, TRIANGLE, 25, rng)
    res = lift_path(path, (0, 0), system)
    assert res.ok
    final = res.path.end
    canon_final, _ = canonicalize(final, system.workspace.lattice)
    cur = frozenset(TRIANGLE)
    for step in path.steps:
        raw = cur
        for a in sorted(step):
            raw = apply_action(raw, a)
        cur, _ = canonicalize(raw, system.workspace.lattice)
    assert canon_final == cur


def test_lifting_twice_gives_the_same_step_actions():
    system = preserving()
    board = hex_pivot_system(VARIANT_PRESERVING, cells=hex_ball(12))
    path = random_shape_path(system, TRIANGLE, 25, random.Random(41))
    first = lift_path(path, (1, -1), board)
    again = lift_path(path, (1, -1), board)
    assert first.ok and again.ok
    assert first.path == again.path
    for one, other in zip(first.path.steps, again.path.steps):
        assert all(a is b for a, b in zip(sorted(one), sorted(other)))


def test_lift_refuses_a_finite_graph_before_the_first_step():
    sf = agv_grid_fixture(2, 2)
    seed = sf.seeds[0]
    moves = random_edge_path(sf.system, seed, 5, random.Random(1))
    path = from_edge_path(seed, moves, sf.system)
    with pytest.raises(ModelError, match="translation-symmetric"):
        lift_path(path, (), sf.system)


@pytest.mark.parametrize(
    "base", [(1,), (1, 2, 3), ("a", "b"), None, (1.5, 0), (True, 0), 5, "12"]
)
def test_lift_refuses_a_base_offset_that_is_not_an_integer_pair(base):
    """The library refuses what the CLI's ``--base`` parser refuses, before
    any cell is translated; a bool is not an int, as on the lattice."""
    path = CubePath(TRIANGLE, (), None)
    with pytest.raises(ModelError, match="not a pair of integers"):
        lift_path(path, base, preserving())


def test_lift_takes_a_list_as_the_base_offset():
    path = CubePath(TRIANGLE, (), None)
    assert lift_path(path, [1, 2], preserving()) == lift_path(path, (1, 2), preserving())


# Unbounded systems for shape enumeration, and the cells of a window their
# random shapes are drawn from: the arm's corner swap on squareEdge2d has
# source cells of both orientations, which a placement must match.
HEX_WINDOW = st.tuples(st.integers(0, 3), st.integers(0, 3))
ENUMERATED = {
    "hex-preserving": (preserving, HEX_WINDOW),
    "hex-changing": (lambda: hex_pivot_system(VARIANT_CHANGING), HEX_WINDOW),
    "hex-changing-connected": (
        lambda: hex_pivot_system(VARIANT_CHANGING, constraint_name="connected"),
        HEX_WINDOW,
    ),
    "square-edge": (
        lambda: System(Workspace(square_edge_lattice(), None), arm_generators()),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from((0, 1))),
    ),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ENUMERATED)), st.data())
def test_shape_actions_equal_the_build_every_candidate_oracle(name, data):
    make_system, cells = ENUMERATED[name]
    system = make_system()
    cells = data.draw(st.frozensets(cells, min_size=1, max_size=7))
    shape = canonicalize(cells, system.workspace.lattice)[0]
    assert shape_actions(system, shape) == oracle_shape_actions(system, shape)


def test_shape_actions_build_only_placements_whose_source_lies_in_the_shape(
    monkeypatch,
):
    """On the 186 five-module hex shapes, the oracle builds an action for
    every alignment of a source pattern's least cell, and ``shape_actions``
    only where the pattern's other source cells lie in the shape too."""
    system = preserving()
    cx = build_shape_complex(system, [frozenset((i, 0) for i in range(5))])
    shapes = [cx.vertex_state(vid) for vid in range(cx.n_vertices)]
    assert len(shapes) == 186
    calls, found = {}, {}
    for module, enumerate_actions in (
        (shape_module, shape_actions),
        (util, oracle_shape_actions),
    ):
        name, real = module.__name__, module.make_action
        calls[name] = 0

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, "make_action", counted)
        found[name] = [enumerate_actions(system, s) for s in shapes]
    assert calls == {"cubeplan.shape": 3_456, "util": 11_160}
    assert found["cubeplan.shape"] == found["util"]


def test_the_shape_frame_hands_out_make_actions_objects():
    """On the five-module quotient the frame's actions are
    ``shape_actions``' own objects, and every cell record's actions are
    ``make_action``'s."""
    system = preserving()
    lattice = system.workspace.lattice
    cx = build_shape_complex(system, [frozenset((i, 0) for i in range(5))])
    for vid in range(cx.n_vertices):
        shape = cx.vertex_state(vid)
        framed, direct = cx.frame.actions_at(shape), shape_actions(system, shape)
        assert len(framed) == len(direct)
        assert all(a is b for a, b in zip(framed, direct))
    for k in range(1, cx.max_dim + 1):
        for rec in cx.cells(k):
            for a in rec.actions:
                assert make_action(a.generator, a.offset, a.direction, lattice) is a
