"""Generators, placements, admissibility, and commutation."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cubeplan.lattice as lat
from cubeplan.cubepaths import CubePath
from cubeplan.errors import ModelError, NotAdmissibleError, StateError
from cubeplan.fileformat import parse_path, serialize_path
from cubeplan.model import (
    BACKWARD,
    FORWARD,
    Generator,
    System,
    SystemFile,
    Workspace,
    _graph_embeddings,
    admissible_actions,
    apply_action,
    commute,
    commute_pair,
    is_admissible,
    make_action,
    pattern_matches,
    placements,
)
from cubeplan.statecomplex import build_complex, check_link_condition
from cubeplan.systems import (
    VARIANT_CHANGING,
    agv_grid_fixture,
    arm_system,
    hex_ball,
    hex_pivot_system,
    token_generator,
)

from util import oracle_admissible, random_system


def slide_one():
    # one cell hops east into an empty cell; both must be inside view
    return Generator(
        "hop",
        ((0, 0), (1, 0)),
        frozenset(((0, 0), (1, 0))),
        frozenset(((0, 0),)),
        frozenset(((1, 0),)),
    )


def test_generator_field_normalization():
    g = slide_one()
    assert g.support == ((0, 0), (1, 0))
    assert isinstance(g.trace, frozenset)


def test_generator_rejects_trace_outside_support():
    with pytest.raises(ModelError, match="trace not within support"):
        Generator("bad", ((0, 0),), frozenset(((1, 0),)), frozenset(), frozenset(((0, 0),)))


def test_generator_rejects_equal_patterns():
    with pytest.raises(ModelError, match="degenerate"):
        Generator(
            "bad",
            ((0, 0), (1, 0)),
            frozenset(((0, 0),)),
            frozenset(((1, 0),)),
            frozenset(((1, 0),)),
        )


def test_generator_rejects_difference_off_trace():
    with pytest.raises(ModelError, match="agree off trace"):
        Generator(
            "bad",
            ((0, 0), (1, 0)),
            frozenset(((0, 0),)),
            frozenset(((0, 0),)),
            frozenset(((1, 0),)),
        )


def test_generator_rejects_pattern_outside_support():
    with pytest.raises(ModelError, match="pattern leaves support"):
        Generator(
            "bad",
            ((0, 0),),
            frozenset(((0, 0),)),
            frozenset(((5, 5),)),
            frozenset(((0, 0),)),
        )


def test_generator_rejects_empty_support_and_bad_edges():
    with pytest.raises(ModelError, match="empty support"):
        Generator("bad", (), frozenset(), frozenset(), frozenset())
    with pytest.raises(ModelError, match="bad local edge"):
        Generator(
            "bad",
            ("a", "b"),
            frozenset(("a",)),
            frozenset(("a",)),
            frozenset(),
            (("a", "a"),),
        )
    with pytest.raises(ModelError, match="leaves support"):
        Generator(
            "bad",
            ("a", "b"),
            frozenset(("a",)),
            frozenset(("a",)),
            frozenset(),
            (("a", "z"),),
        )


def box(w, h):
    return frozenset((x, y) for x in range(w) for y in range(h))


def test_placements_cover_workspace_and_respect_obstacles():
    ws = Workspace(lat.square_lattice(), box(3, 1))
    acts = placements(slide_one(), ws)
    # two horizontal positions, both directions each
    assert len(acts) == 4
    assert [a.direction for a in acts] == [FORWARD, BACKWARD, FORWARD, BACKWARD]

    # a pinned cell blocks any placement whose trace covers it,
    # but supports may still look at it
    ws2 = Workspace(lat.square_lattice(), box(3, 1), (((2, 0), False),))
    acts2 = placements(slide_one(), ws2)
    assert len(acts2) == 2
    assert all(a.offset == (0, 0) for a in acts2)


def test_placement_requires_finite_workspace():
    ws = Workspace(lat.square_lattice(), None)
    with pytest.raises(ModelError, match="WorkspaceNotFinite"):
        placements(slide_one(), ws)


def test_action_apply_and_reverse():
    lattice = lat.square_lattice()
    act = make_action(slide_one(), (0, 0), FORWARD, lattice)
    state = frozenset(((0, 0), (5, 5)))
    assert pattern_matches(state, act)
    nxt = apply_action(state, act)
    assert nxt == frozenset(((1, 0), (5, 5)))
    back = apply_action(nxt, act.reverse())
    assert back == state
    with pytest.raises(NotAdmissibleError):
        apply_action(nxt, act)


def test_action_direction_swaps_patterns():
    lattice = lat.square_lattice()
    fwd = make_action(slide_one(), (0, 0), FORWARD, lattice)
    bwd = make_action(slide_one(), (0, 0), BACKWARD, lattice)
    assert fwd.src_occ == bwd.dst_occ
    assert fwd.dst_occ == bwd.src_occ
    assert fwd.placement_key == bwd.placement_key


def test_the_placement_key_is_stored_and_ignored_by_equality():
    square = lat.square_lattice()
    graph_actions = agv_grid_fixture(2, 2).system.all_actions
    for act in (make_action(slide_one(), (3, -1), FORWARD, square), *graph_actions):
        assert act.placement_key == (act.gid, act.offset)
        assert act.reverse().placement_key is act.placement_key
    fwd = make_action(slide_one(), (3, -1), FORWARD, square)
    built = make_action(slide_one(), (3, -1), BACKWARD, square)
    for other in (fwd.reverse(), replace(built, placement_key=None)):
        assert other == built
        assert hash(other) == hash(built)
        assert repr(other) == repr(built)


def test_make_action_returns_one_object_per_placed_action():
    square = lat.square_lattice()
    gen = slide_one()
    fwd = make_action(gen, (3, -1), FORWARD, square)
    assert make_action(gen, (3, -1), FORWARD, square) is fwd
    bwd = make_action(gen, (3, -1), BACKWARD, square)
    assert make_action(gen, (3, -1), BACKWARD, square) is bwd
    assert bwd == fwd.reverse() and bwd is not fwd
    # a placement made backward first gives its forward twin the same sets
    late = make_action(gen, (0, 5), BACKWARD, square)
    early = make_action(gen, (0, 5), FORWARD, square)
    for one, other in ((fwd, bwd), (early, late)):
        assert one.support is other.support
        assert one.trace is other.trace
        assert one.placement_key is other.placement_key
        assert one.src_occ is other.dst_occ and one.dst_occ is other.src_occ
    # ``reverse`` stays a value operation, and an equal generator keeps
    # its own objects
    assert fwd.reverse() == bwd and fwd.reverse() is not bwd
    twin = make_action(slide_one(), (3, -1), FORWARD, square)
    assert twin == fwd and twin is not fwd


@pytest.mark.parametrize(
    "system",
    [
        arm_system(4).system,
        agv_grid_fixture(2, 2).system,
        hex_pivot_system(VARIANT_CHANGING, hex_ball(1)),
    ],
    ids=["arm", "agv-grid", "hex"],
)
def test_the_catalogue_holds_make_actions_objects(system):
    """Each placement sits forward then backward in the catalogue, both
    made by ``make_action`` and sharing their placed sets.  The hash each
    action stores, and each reverse, is that of (gid, offset, direction),
    so sets of actions keep their order."""
    lattice = system.workspace.lattice
    catalogue = system.all_actions
    for fwd, bwd in zip(catalogue[::2], catalogue[1::2]):
        assert (fwd.direction, bwd.direction) == (FORWARD, BACKWARD)
        for act in (fwd, bwd):
            assert make_action(act.generator, act.offset, act.direction, lattice) is act
        for act in (fwd, bwd, fwd.reverse(), bwd.reverse()):
            assert hash(act) == hash((act.gid, act.offset, act.direction))
        assert fwd.support is bwd.support
        assert fwd.trace is bwd.trace
        assert fwd.placement_key is bwd.placement_key


def test_a_generator_holding_placed_actions_equals_a_fresh_one():
    used, fresh = slide_one(), slide_one()
    cells = frozenset((x, y) for x in range(3) for y in range(2))
    placements(used, Workspace(lat.square_lattice(), cells))
    assert used._placed and not fresh._placed
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert {fresh: "found"}[used] == "found"


@pytest.mark.parametrize(
    "system",
    [
        arm_system(4).system,
        agv_grid_fixture(2, 2).system,
        hex_pivot_system(VARIANT_CHANGING, hex_ball(1)),
    ],
    ids=["arm", "agv-grid", "hex"],
)
def test_parsed_actions_are_the_catalogue_actions(system):
    for act in system.all_actions:
        one_move = CubePath(frozenset(), (frozenset((act,)),), system)
        (parsed,) = parse_path(serialize_path(one_move), system).steps[0]
        assert parsed == act
        assert hash(parsed) == hash(act)
        assert act.reverse().reverse() == act
        assert act.reverse() != act


def test_link_check_never_hashes_a_generator(monkeypatch):
    sf = arm_system(6)
    cx = build_complex(sf.system, sf.seeds)
    hashed = []
    original = Generator.__hash__

    def counted(self):
        hashed.append(self.gid)
        return original(self)

    monkeypatch.setattr(Generator, "__hash__", counted)
    assert check_link_condition(cx).ok
    assert hashed == []


def test_workspace_state_checks():
    ws = Workspace(lat.square_lattice(), box(2, 2), (((0, 0), True),))
    assert ws.check_state({(0, 0), (1, 1)}) == frozenset(((0, 0), (1, 1)))
    with pytest.raises(StateError, match="outside workspace"):
        ws.check_state({(9, 9)})
    with pytest.raises(StateError, match="obstacle bit"):
        ws.check_state({(1, 1)})  # pinned-occupied cell left empty


def test_workspace_validation_errors():
    with pytest.raises(ModelError, match="duplicate obstacle"):
        Workspace(
            lat.square_lattice(), box(2, 2), (((0, 0), True), ((0, 0), False))
        )
    with pytest.raises(ModelError, match="outside workspace"):
        Workspace(lat.square_lattice(), box(2, 2), (((7, 7), True),))
    with pytest.raises(ModelError, match="only to cofinite"):
        Workspace(lat.square_lattice(), box(2, 2), (), frozenset(((0, 0),)))


def test_cofinite_workspace_contains():
    ws = Workspace(lat.square_lattice(), None, (), frozenset(((1, 1),)))
    assert ws.contains((100, -100))
    assert not ws.contains((1, 1))
    assert not ws.is_finite


def test_system_validation():
    ws = Workspace(lat.square_lattice(), box(2, 2))
    with pytest.raises(ModelError, match="duplicate generator ids"):
        System(ws, (slide_one(), slide_one()))
    with pytest.raises(ModelError, match="unknown constraint"):
        System(ws, (slide_one(),), "magic")
    cube = (0, 0, 0)  # a squareEdge2d cell, no cell of square2d
    with pytest.raises(ModelError, match=r"^generator g: support cell \(0, 0, 0\) invalid$"):
        System(ws, (Generator("g", (cube,), {cube}, {cube}, ()),))
    g = lat.graph_lattice((0, 1), ((0, 1),))
    gws = Workspace(g, frozenset((0, 1)))
    with pytest.raises(ModelError, match="need local edges"):
        System(gws, (slide_one(),))
    with pytest.raises(ModelError, match="only apply to graphs"):
        System(ws, (token_generator(),))


def test_admissibility_with_global_constraint():
    # a hop that would strand the mover is inadmissible under "connected"
    ws = Workspace(lat.square_lattice(), box(4, 1))
    local = System(ws, (slide_one(),))
    non_local = System(ws, (slide_one(),), "connected")
    state = frozenset(((0, 0), (1, 0)))
    hop = next(
        a
        for a in local.all_actions
        if a.offset == (1, 0) and a.direction == FORWARD
    )
    assert is_admissible(state, hop, local)
    assert not is_admissible(state, hop, non_local)
    assert hop in admissible_actions(state, local)
    assert hop not in admissible_actions(state, non_local)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_admissible_actions_match_a_full_catalogue_scan(seed, connected):
    """At every state a random finite system reaches, local or under the
    connected constraint, the indexed candidates give exactly the
    catalogue's admissible actions, in catalogue order."""
    sf = random_system(random.Random(seed))
    workspace = sf.system.workspace
    system = System(workspace, sf.system.catalogue, "connected" if connected else None)
    seeds = [s for s in sf.seeds if system.constraint_holds(s)]
    assume(workspace.is_finite and seeds)
    cx = build_complex(system, seeds, max_vertices=64)
    for vid in range(cx.n_vertices):
        state = cx.vertex_state(vid)
        assert admissible_actions(state, system) == oracle_admissible(state, system)


def test_admissible_actions_with_an_empty_source_pattern():
    """A generator whose forward pattern is empty places modules into an
    empty support; its forward actions match every state that leaves
    the support empty, whichever cells that state holds."""
    appear = Generator(
        "appear",
        ((0, 0), (1, 0)),
        frozenset(((0, 0), (1, 0))),
        frozenset(),
        frozenset(((0, 0),)),
    )
    system = System(Workspace(lat.square_lattice(), box(3, 2)), (appear, slide_one()))
    assert any(not a.src_occ for a in system.all_actions)
    for state in (frozenset(), frozenset(((2, 1),)), frozenset(((0, 0), (2, 0)))):
        found = admissible_actions(state, system)
        assert found == oracle_admissible(state, system)
        assert any(not a.src_occ for a in found)


def test_admissible_actions_at_a_state_outside_the_workspace():
    """Cells outside the workspace index no action; the actions the rest
    of the state admits are still found."""
    system = System(Workspace(lat.square_lattice(), box(3, 1)), (slide_one(),))
    state = frozenset(((0, 0), (7, 7)))
    found = admissible_actions(state, system)
    assert found == oracle_admissible(state, system)
    assert [(a.offset, a.direction) for a in found] == [((0, 0), FORWARD)]


def test_commutation_is_about_traces_meeting_supports():
    lattice = lat.square_lattice()
    a = make_action(slide_one(), (0, 0), FORWARD, lattice)
    far = make_action(slide_one(), (5, 5), FORWARD, lattice)
    near = make_action(slide_one(), (1, 0), FORWARD, lattice)
    assert commute_pair(a, far)
    assert not commute_pair(a, near)  # traces overlap supports
    assert commute((a, far))
    assert not commute((a, a.reverse()))
    assert commute((a,)) and commute(())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_commute_pair_is_the_set_intersection_rule(seed, data):
    """``commute_pair`` tests disjointness without building a set; on
    action pairs of random catalogues it equals the definition, empty
    intersections of each trace with the other's support, and is
    symmetric."""
    sf = random_system(random.Random(seed))
    assume(sf.system.workspace.is_finite and sf.system.all_actions)
    pick = st.sampled_from(sf.system.all_actions)
    for _ in range(30):
        a, b = data.draw(pick), data.draw(pick)
        defined = not (a.trace & b.support) and not (b.trace & a.support)
        assert commute_pair(a, b) == defined == commute_pair(b, a)


def test_graph_embeddings_identify_symmetric_placements():
    # on an edge, the two injections of a token generator give one
    # placement per edge, not two
    g = lat.graph_lattice((0, 1, 2), ((0, 1), (1, 2)))
    ws = Workspace(g, frozenset((0, 1, 2)))
    acts = placements(token_generator(), ws)
    assert len(acts) == 4  # 2 edges x 2 directions
    assert {a.offset for a in acts} == {(0, 1), (1, 2)}


def least_embeddings(gen, workspace):
    """Brute force: the least node tuple per (support, trace, pattern
    pair) among the injections of the support into the workspace's
    nodes that put every local edge on a graph edge, sorted."""
    graph = workspace.lattice
    least = {}
    for nodes in itertools.permutations(sorted(workspace.cells), len(gen.support)):
        place = dict(zip(gen.support, nodes))
        if all(graph.has_edge(place[a], place[b]) for a, b in gen.local_edges):
            occ0 = frozenset(place[c] for c in gen.occ0)
            occ1 = frozenset(place[c] for c in gen.occ1)
            trace = frozenset(place[c] for c in gen.trace)
            sig = (frozenset(nodes), trace, frozenset((occ0, occ1)))
            least[sig] = min(least.get(sig, nodes), nodes)
    return sorted(least.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
@example(0)
def test_graph_embeddings_are_the_least_tuple_per_placement(seed):
    """On random finite graphs, each generator's embeddings are, in
    order, the least injection per placement; at seed 0 one generator's
    support (a, b, c) has all three local edges, so every earlier local
    neighbour of a node must be checked, not just the first."""
    sf = random_system(random.Random(seed))
    workspace = sf.system.workspace
    assume(workspace.lattice.kind == lat.GRAPH)
    for gen in sf.system.catalogue:
        assert _graph_embeddings(gen, workspace) == least_embeddings(gen, workspace)


@given(st.integers(0, 2_000))
def test_apply_then_reverse_is_identity(seed):
    rng = random.Random(seed)
    sf = random_system(rng)
    system = sf.system
    if not system.workspace.is_finite:
        return
    acts = system.all_actions
    if not acts or not sf.seeds:
        return
    state = sf.seeds[0]
    for act in acts:
        if pattern_matches(state, act):
            there = apply_action(state, act)
            assert apply_action(there, act.reverse()) == state
            assert there != state


@given(st.integers(0, 2_000))
def test_commuting_actions_apply_in_any_order(seed):
    rng = random.Random(seed)
    sf = random_system(rng)
    system = sf.system
    if not system.workspace.is_finite or not sf.seeds:
        return
    state = sf.seeds[0]
    acts = [a for a in system.all_actions if pattern_matches(state, a)]
    for i in range(len(acts)):
        for j in range(i + 1, len(acts)):
            a, b = acts[i], acts[j]
            if not commute_pair(a, b):
                continue
            ab = apply_action(apply_action(state, a), b)
            ba = apply_action(apply_action(state, b), a)
            assert ab == ba


def test_systemfile_checks_seeds():
    ws = Workspace(lat.square_lattice(), box(2, 1))
    system = System(ws, (slide_one(),))
    sf = SystemFile(system, ({(0, 0)},))
    assert sf.seeds == (frozenset(((0, 0),)),)
    with pytest.raises(StateError):
        SystemFile(system, ({(9, 9)},))


def test_the_model_marks_the_obstacle_or_seed_it_refuses():
    """A refusal of one input item (an obstacle, a seed, a graph edge)
    carries that item's position as ``index``, for a reader to map to
    its line; other refusals carry None."""
    square = lat.square_lattice()
    with pytest.raises(ModelError) as err:
        Workspace(square, box(2, 2), (((0, 0), True), ((0, 0), False)))
    assert err.value.index == 1
    with pytest.raises(ModelError) as err:
        Workspace(square, box(2, 2), (((0, 0), True), ((1, 1), True), ((7, 7), True)))
    assert err.value.index == 2
    with pytest.raises(ModelError) as err:
        Workspace(square, box(2, 2), (), frozenset(((0, 0),)))
    assert err.value.index is None
    system = System(Workspace(square, box(2, 1)), (slide_one(),))
    with pytest.raises(StateError) as err:
        SystemFile(system, ({(0, 0)}, {(9, 9)}))
    assert (err.value.index, str(err.value)) == (1, "occupied cell (9, 9) outside workspace")
    for edges, index in (([(0, 1), (1, 1)], 1), ([(0, 7)], 0), ([(0, 1), (1, 2), (1, 0)], 2)):
        with pytest.raises(ModelError) as err:
            lat.graph_lattice((0, 1, 2), edges)
        assert err.value.index == index
    with pytest.raises(ModelError) as err:
        lat.graph_lattice((0, 0), ())
    assert err.value.index is None
