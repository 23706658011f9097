"""Complex construction, canonical cube identity, links."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cubeplan.lattice as lat
from cubeplan import shape, statecomplex
from cubeplan.errors import BuildTruncatedError, CubeplanError
from cubeplan.fileformat import export_complex
from cubeplan.model import BACKWARD, System, Workspace, apply_action
from cubeplan.shape import ShapeFrame, build_shape_complex, canonicalize
from cubeplan.statecomplex import (
    CellRecord,
    CubeComplex,
    _mask,
    build_complex,
    check_link_condition,
    cube_key,
    link,
    state_key,
)
from cubeplan.systems import (
    HEX_TRAP_MOVERS,
    HEX_TRAP_STATE,
    VARIANT_CHANGING,
    VARIANT_PRESERVING,
    agv_grid_fixture,
    arm_system,
    arm_word_complex,
    complete_graph,
    graph_agv_system,
    hex_ball,
    hex_connectivity_trap,
    hex_pivot_system,
    token_generator,
)
from cubeplan.topology import f_vector

from test_golden import BUILTINS, build_builtin, cell_counts, complex_digest, sha, shape_fixture
from test_shape import lone_slider, stacked_bars
from util import (
    _random_generator,
    corner_actions,
    enumerate_cliques,
    has_state,
    key_at,
    link_simplices,
    link_skeleton_edges,
    link_vertices,
    oracle_cells,
    oracle_link,
    oracle_shape_cube_key,
    oracle_violations,
    path_graph,
    random_system,
)


def build_fixture(sf, cap=1_000_000):
    return build_complex(sf.system, sf.seeds, max_vertices=cap)


def test_single_token_on_a_path_gives_the_path():
    sf = graph_agv_system(path_graph(3), 1)
    cx = build_fixture(sf)
    assert f_vector(cx) == (3, 2)
    states = {cx.vertex_state(v) for v in range(cx.n_vertices)}
    assert states == {frozenset((0,)), frozenset((1,)), frozenset((2,))}


def test_zero_tokens_is_a_single_vertex():
    sf = graph_agv_system(path_graph(4), 0)
    cx = build_fixture(sf)
    assert f_vector(cx) == (1,)


def test_grid_fixture_counts():
    """Two independent tokens span an exact m-by-n grid of squares."""
    for m, n in ((2, 2), (3, 4)):
        cx = build_fixture(agv_grid_fixture(m, n))
        assert f_vector(cx) == (
            (m + 1) * (n + 1),
            m * (n + 1) + n * (m + 1),
            m * n,
        )


def test_k5_complex_counts():
    cx = build_fixture(graph_agv_system(complete_graph(5), 2))
    assert f_vector(cx) == (10, 30, 15)


def test_records_are_structurally_consistent():
    cx = build_fixture(agv_grid_fixture(3, 4))
    for k in range(1, cx.max_dim + 1):
        for rec in cx.cells(k):
            assert len(rec.corners) == 1 << k
            assert len(rec.facets) == 2 * k
            assert rec.corners[0] == cx.vertex_vid(rec.base)
            # every facet is stored, with the right dimension
            for f in rec.facets:
                assert 0 <= f < cx.n_cells(k - 1)
                assert cx.cell(k - 1, f).dim == k - 1
            # corner bitmask order: bit i applies action i
            for i, act in enumerate(rec.actions):
                expect = cx.vertex_vid(apply_action(rec.base, act))
                assert rec.corners[1 << i] == expect


def test_base_corner_is_least_state_key():
    cx = build_fixture(agv_grid_fixture(2, 3))
    for rec in cx.cells(2):
        corner_states = [
            cx.vertex_state(v) for v in rec.corners
        ]
        assert state_key(rec.base) == min(state_key(s) for s in corner_states)


EDGE_BASE_COMPLEXES = {
    "hex-r2-local": lambda: build_complex(
        hex_pivot_system(VARIANT_CHANGING, hex_ball(2)),
        [frozenset([(0, 0), (1, 0), (0, 1), (1, 1)])],
    ),
    "hex-trap": lambda: build_fixture(hex_connectivity_trap(constrained=True)),
    "five-module-quotient": lambda: shape_fixture("five-modules"),
    "slider-right": lambda: lone_slider({"right": (1, 0)}),
    "slider-right-up": lambda: lone_slider({"right": (1, 0), "up": (0, 1)}),
}


@pytest.mark.parametrize("name", sorted(EDGE_BASE_COMPLEXES))
def test_an_edge_is_based_at_its_lower_ranked_end(name):
    """Pass 1 appends an edge's corners and the number read at its base:
    the end whose state key sorts first, or for a loop the end reading
    the lesser action.  The number leaves the base; in a plain frame its
    reverse, ``n ^ 1``, leaves the other corner."""
    cx = EDGE_BASE_COMPLEXES[name]()
    leaving = cx._links[0]
    plain = isinstance(cx.frame, statecomplex.PlainFrame)
    loops = 0
    for i in range(cx.n_cells(1)):
        c0, c1 = cx.corners(1, i)
        n = cx._numbers[1][i]
        assert n in leaving[c0]
        if c0 != c1:
            assert state_key(cx.vertex_state(c0)) < state_key(cx.vertex_state(c1))
        else:
            # the other reading is the reverse, carried into this frame
            state, act = cx.vertex_state(c0), cx.actions[n]
            _, (reached,), shifts = cx.frame.leaving(state, [act])
            assert reached == state
            (other,) = cx.frame.carry((n ^ 1,), shifts[0]) if shifts else (n ^ 1,)
            assert other in leaving[c0]
            assert act < cx.actions[other]
            loops += 1
        if plain:
            assert n ^ 1 in leaving[c1]
    assert loops == (cx.n_cells(1) if name.startswith("slider") else 0)


NUMBERED_COMPLEXES = {
    "hex-r2-local": EDGE_BASE_COMPLEXES["hex-r2-local"],
    "arm-5": lambda: build_fixture(arm_system(5)),
    "hex-trap": EDGE_BASE_COMPLEXES["hex-trap"],
    "five-module-connected-quotient": lambda: build_shape_complex(
        hex_pivot_system(VARIANT_CHANGING, None, constraint_name="connected"),
        [frozenset([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])],
    ),
}


@pytest.mark.parametrize("name", sorted(NUMBERED_COMPLEXES))
def test_both_frames_number_each_action_next_to_its_reverse(name):
    """Both frames number the placements the build meets, in that
    order: placement i's forward action is 2i and its backward 2i + 1.
    Every number the link record and the cells hold indexes
    ``cx.actions``, and every numbered placement leaves some vertex."""
    cx = NUMBERED_COMPLEXES[name]()
    acts = cx.actions
    for n, act in enumerate(acts):
        assert act.direction == n & 1
        assert acts[n ^ 1] == act.reverse()
    read = {n for leaving in cx._links[0] for n in leaving}
    assert read <= set(range(len(acts)))
    for k in range(1, cx.max_dim + 1):
        assert set(cx._numbers[k]) <= read
    assert {n >> 1 for n in read} == set(range(len(acts) // 2))


def test_a_plain_frame_numbers_only_the_actions_its_build_meets():
    """A build capped at its seed numbers the placements leaving the
    seed alone, not the whole catalogue of its workspace."""
    system = hex_pivot_system(VARIANT_CHANGING, hex_ball(2))
    cx = build_complex(system, [frozenset([(0, 0), (1, 0), (0, 1), (1, 1)])], max_vertices=1)
    assert cx.n_vertices == 1
    (leaving,) = cx._links[0]
    assert len(cx.actions) == 2 * len(leaving) < len(system.all_actions) == 144


SQUARE_COMPLEXES = {
    "agv-grid": lambda: build_fixture(agv_grid_fixture(2, 2)),
    "triangle-shapes": lambda: build_shape_complex(
        hex_pivot_system(VARIANT_PRESERVING), [frozenset([(0, 0), (1, 0), (0, 1)])]
    ),
    # assembled by hand, with no frame
    "arm-words": lambda: arm_word_complex(4),
}


def assert_every_corner_reads_the_key(cx):
    """From each corner's vertex, the cube's actions leaving it give
    back the key read at its base, and one dimension's keys are
    pairwise distinct."""
    for k in range(1, cx.max_dim + 1):
        keys = set()
        for rec in cx.cells(k):
            key = key_at(cx, rec.base, rec.actions)
            keys.add(key)
            for mask, vid in enumerate(rec.corners):
                leaving = corner_actions(cx, rec.base, rec.actions, mask)
                assert key_at(cx, cx.vertex_state(vid), leaving) == key
        assert len(keys) == cx.n_cells(k)


CORNER_COMPLEXES = {
    "agv-grid": SQUARE_COMPLEXES["agv-grid"],
    "hex-trap": lambda: build_fixture(hex_connectivity_trap(constrained=True)),
    "triangle-shapes": SQUARE_COMPLEXES["triangle-shapes"],
}


@pytest.mark.parametrize("name", sorted(CORNER_COMPLEXES))
def test_cube_key_is_corner_independent(name):
    cx = CORNER_COMPLEXES[name]()
    assert cx.n_cells(2) > 0
    assert_every_corner_reads_the_key(cx)
    if isinstance(cx.frame, ShapeFrame):
        return
    # a plain cube's printed name reads the same from its far corner
    for rec in cx.cells(2):
        base = rec.base
        a0, a1 = rec.actions
        far = apply_action(apply_action(base, a0), a1)
        key_from_far = cube_key((a0.reverse(), a1.reverse()), far)
        assert key_from_far == cube_key(rec.actions, rec.base)


@pytest.mark.parametrize("name", sorted(SQUARE_COMPLEXES))
def test_square_boundary_is_a_closed_cycle(name):
    cx = SQUARE_COMPLEXES[name]()
    assert cx.n_cells(2) > 0
    for i in range(cx.n_cells(2)):
        cycle = cx.square_boundary(i)
        assert len(cycle) == 4
        # walk the directed edges; each step must start where the last ended
        walk = []
        for e, sign in cycle:
            v0, v1 = cx.facets(1, e)
            walk.append((v0, v1) if sign > 0 else (v1, v0))
        for (_, head), (tail, _) in zip(walk, walk[1:] + walk[:1]):
            assert head == tail


def test_edges_connect_adjacent_states():
    cx = build_fixture(agv_grid_fixture(2, 2))
    for rec in cx.cells(1):
        (act,) = rec.actions
        assert cx.vertex_state(rec.corners[1]) == apply_action(rec.base, act)
        assert rec.facets is rec.corners  # an edge's facets are its corners


def test_link_of_interior_vertex_is_a_cycle():
    cx = build_fixture(agv_grid_fixture(2, 2))
    lnk = link(cx, frozenset(("p0.1", "p1.1")))
    assert len(link_vertices(lnk)) == 4
    assert len(link_skeleton_edges(lnk)) == 4
    assert all(count == 1 for count in link_simplices(lnk).values())
    corner = link(cx, frozenset(("p0.0", "p1.0")))
    assert len(link_vertices(corner)) == 2
    assert len(link_skeleton_edges(corner)) == 1


def test_link_condition_passes_on_local_fixtures():
    for sf in (
        agv_grid_fixture(2, 3),
        graph_agv_system(complete_graph(5), 2),
        hex_connectivity_trap(constrained=False),
    ):
        report = check_link_condition(build_fixture(sf))
        assert report.ok, report.violations[:1]


def test_connectivity_trap_violates_link_condition():
    cx = build_fixture(hex_connectivity_trap(constrained=True))
    report = check_link_condition(cx)
    assert not report.ok
    assert len(report.violations) == 64
    assert len({state for state, _ in report.violations}) == 18
    # every violation is a clique whose cube the build refused
    assert {count for *_, count in oracle_violations(cx)} == {0}
    hits = [acts for state, acts in report.violations if state == HEX_TRAP_STATE]
    assert hits, "expected a violation at the frozen trap state"
    acts = hits[0]
    assert len(acts) == 3
    vacated = frozenset()
    for a in acts:
        vacated |= a.src_occ - a.dst_occ
    assert vacated == HEX_TRAP_MOVERS


NON_LOCAL_COMPLEXES = {
    "hex-trap": lambda: build_fixture(hex_connectivity_trap(constrained=True)),
    "hex-trap-cap-30": lambda: build_fixture(
        hex_connectivity_trap(constrained=True), cap=30
    ),
    "hex-connected-r2": lambda: build_complex(
        hex_pivot_system(VARIANT_CHANGING, hex_ball(2), constraint_name="connected"),
        [frozenset([(0, 0), (1, 0), (0, 1), (1, 1)])],
    ),
}


@pytest.mark.parametrize("name", sorted(NON_LOCAL_COMPLEXES))
def test_non_local_cubes_require_all_corners(name):
    """Stored cubes of a constrained system never have a bad corner."""
    cx = NON_LOCAL_COMPLEXES[name]()
    assert cx.max_dim >= 3
    system = cx.frame.system
    for k in range(1, cx.max_dim + 1):
        for rec in cx.cells(k):
            for vid in rec.corners:
                assert system.constraint_holds(cx.vertex_state(vid))


def test_trap_frozen_f_vectors():
    constrained = build_fixture(hex_connectivity_trap(constrained=True))
    free = build_fixture(hex_connectivity_trap(constrained=False))
    assert f_vector(constrained) == (48, 192, 234, 74)
    assert f_vector(free) == (64, 288, 432, 216)


def test_truncated_build_is_marked_and_refuses_invariants():
    sf = agv_grid_fixture(3, 4)
    cx = build_complex(sf.system, sf.seeds, max_vertices=5)
    assert cx.truncated
    assert cx.n_vertices == 5
    with pytest.raises(BuildTruncatedError):
        f_vector(cx)
    with pytest.raises(BuildTruncatedError):
        check_link_condition(cx)
    # stored cells still closed under facets
    for k in range(1, cx.max_dim + 1):
        for rec in cx.cells(k):
            for f in rec.facets:
                assert 0 <= f < cx.n_cells(k - 1)


def test_a_build_capped_at_its_seed_stores_no_edge():
    """Dimension 1 is made with the first edge: a build capped at one
    vertex has none, and the seed's link refuses each of its actions."""
    sf = arm_system(4)
    cx = build_complex(sf.system, sf.seeds, max_vertices=1)
    assert cx.truncated
    assert (cx.max_dim, cx.n_cells(0), cx.n_cells(1)) == (0, 1, 0)
    assert len(cx.facet_column(1)) == 0
    lnk = link(cx, cx.vertex_state(0))
    assert lnk.actions
    assert {1 << i for i in range(len(lnk.actions))} <= lnk.refused


def test_build_is_deterministic():
    sf = agv_grid_fixture(2, 3)
    a = build_fixture(sf)
    b = build_fixture(sf)
    for k in range(a.max_dim + 1):
        assert a.cell_keys(k) == b.cell_keys(k)


def test_seed_must_satisfy_constraint():
    graph = path_graph(3)
    ws = Workspace(graph, frozenset(graph.nodes))
    system = System(ws, (token_generator(),), "connected")
    from cubeplan.errors import StateError

    with pytest.raises(StateError, match="constraint"):
        build_complex(system, [frozenset((0, 2))])


def stacked_bars_complex():
    system, seed = stacked_bars()
    return build_shape_complex(system, [seed])


LINK_COMPLEXES = {
    **{" ".join(argv): (lambda argv=argv: build_builtin(argv)) for argv in BUILTINS},
    **{
        f"shape-{name}": (lambda name=name: shape_fixture(name))
        for name in ("triangle", "five-modules", "truncated")
    },
    "shape-stacked-bars": stacked_bars_complex,
}


def assert_links_match_the_oracle(cx):
    for vid in range(cx.n_vertices):
        state = cx.vertex_state(vid)
        lnk = link(cx, state)
        assert (link_vertices(lnk), link_simplices(lnk)) == oracle_link(cx, state)
        assert link_skeleton_edges(lnk) == sorted(
            tuple(sorted(s)) for s in link_simplices(lnk) if len(s) == 2
        )
    if not cx.truncated:
        oracle = oracle_violations(cx)
        assert check_link_condition(cx).violations == tuple(
            (state, acts) for state, acts, _ in oracle
        )
        assert all(count == 0 for *_, count in oracle)


@pytest.mark.parametrize("name", sorted(LINK_COMPLEXES))
def test_links_read_from_the_build_match_the_incident_cells(name):
    """The builder's clique record gives, at every vertex, the link the
    stored cells give, counts included, and the same violations."""
    assert_links_match_the_oracle(LINK_COMPLEXES[name]())


def random_build(seed, connected):
    """The complex of a random finite system, local or under the
    connected constraint, from the seeds that satisfy it."""
    sf = random_system(random.Random(seed))
    workspace = sf.system.workspace
    system = System(workspace, sf.system.catalogue, "connected" if connected else None)
    seeds = [s for s in sf.seeds if system.constraint_holds(s)]
    assume(workspace.is_finite and seeds)
    return build_complex(system, seeds, max_vertices=64)


def quotient_generators(seed, kind):
    """Random generators on a translation lattice, those with both
    patterns occupied."""
    rng = random.Random(seed)
    gens = [_random_generator(rng, f"g{i}", kind) for i in range(rng.randrange(1, 4))]
    return tuple(g for g in gens if g.occ0 and g.occ1)


def build_quotient(gens, kind):
    """The shape complex of the generators on a lattice of that kind,
    from the first one's source pattern, cut at 20 shapes."""
    system = System(Workspace(lat.Lattice(kind), None), gens)
    return build_shape_complex(system, [gens[0].occ0], cap=20)


def random_quotient(seed, kind):
    """The shape complex of random generators on a translation lattice,
    from the first one's source pattern."""
    gens = quotient_generators(seed, kind)
    assume(gens)
    return build_quotient(gens, kind)


# random quotients whose builds, cut at 20 shapes, refuse over 22,000 cliques
TRUNCATED_QUOTIENTS = [(2366, lat.SQUARE), (2366, lat.HEX), (3651, lat.SQUARE_EDGE)]


@pytest.mark.parametrize("seed, kind", TRUNCATED_QUOTIENTS)
def test_truncated_quotients_refuse_a_cube_at_its_first_missing_corner(
    monkeypatch, seed, kind
):
    """A cut shape build refuses thousands of cliques whose corners run
    off its 20 shapes.  Each is refused at the first corner that is not
    a vertex, found on the recorded edges, so the build canonicalizes
    only the shapes its closure reaches (about 220), not the 1.5 million
    it takes to canonicalize every corner of every clique."""
    calls = 0

    def counted(state, lattice):
        nonlocal calls
        calls += 1
        return canonicalize(state, lattice)

    monkeypatch.setattr(shape, "canonicalize", counted)
    cx = build_quotient(quotient_generators(seed, kind), kind)
    assert cx.truncated and cx.n_vertices == 20
    assert calls < 200_000


def test_a_cut_quotient_walks_each_clique_of_two_or_more_actions_once(monkeypatch):
    """Of the 24,121 cliques of the square quotient cut at 20 shapes,
    24,071 are refused.  Its 218 single actions are read off the
    closure's transitions to store its 21 edges, and each of its 23,903
    cliques of two or more actions is walked once toward its
    all-forward corner, to store its 2 squares and refuse the rest."""
    walks = 0
    all_forward = statecomplex._Edges.all_forward

    def counted(edges, vid, numbers):
        nonlocal walks
        walks += 1
        return all_forward(edges, vid, numbers)

    monkeypatch.setattr(statecomplex._Edges, "all_forward", counted)
    cx = build_quotient(quotient_generators(2366, lat.SQUARE), lat.SQUARE)
    assert (cx.n_cells(1), cx.n_cells(2), cx.max_dim) == (21, 2, 2)
    refusals = sum(len(link(cx, cx.vertex_state(vid)).refused) for vid in range(20))
    assert refusals == 24_071
    assert walks == 23_903


HEX_FOUR = [frozenset([(0, 0), (1, 0), (0, 1), (1, 1)])]

# build -> (all-forward walks, corner walks)
WALKED_BUILDS = {
    "hex-r2-local": (
        lambda: build_complex(hex_pivot_system(VARIANT_CHANGING, hex_ball(2)), HEX_FOUR),
        (10_348, 2_573),
    ),
    "hex-r3-connected": (
        lambda: build_complex(
            hex_pivot_system(VARIANT_CHANGING, hex_ball(3), constraint_name="connected"),
            HEX_FOUR,
        ),
        (7_468, 2_126),
    ),
    "five-module-quotient": (lambda: shape_fixture("five-modules"), (1_020, 243)),
    "hex-trap": (lambda: build_fixture(hex_connectivity_trap(constrained=True)), (2_006, 671)),
}


@pytest.mark.parametrize("name", sorted(WALKED_BUILDS))
def test_the_build_walks_only_cubes_not_yet_stored(monkeypatch, name):
    """Cube enumeration walks no edge: pass 1 reads them off the
    closure's transitions.  Each clique of two or more actions is walked
    to its all-forward corner, which keys its cube, and only a clique
    whose key is new is walked on to every corner.  The local radius-2
    build walks 10,348 k >= 2 cliques to their all-forward corner and
    2,573 to every corner to store 2,573 cubes; the connected radius-3
    ball walks 7,468 and 2,126 to store 1,694; the five-module quotient,
    whose walks carry numbers across translations, walks 1,020 and 243
    to store 243; the connected hex trap walks 2,006 and 671 to store
    308."""
    counts = {"all_forward": 0, "corners": 0}
    for walk in counts:

        def counted(edges, vid, numbers, walk=walk, run=getattr(statecomplex._Edges, walk)):
            counts[walk] += 1
            return run(edges, vid, numbers)

        monkeypatch.setattr(statecomplex._Edges, walk, counted)
    make, walks = WALKED_BUILDS[name]
    cx = make()
    assert not cx.truncated
    assert tuple(counts.values()) == walks


CAPPED_BUILDS = {
    "hex-r2-cap-200": lambda: build_complex(
        hex_pivot_system(VARIANT_CHANGING, hex_ball(2)),
        [frozenset([(0, 0), (1, 0), (0, 1), (1, 1)])],
        max_vertices=200,
    ),
    **{
        f"quotient-{seed}-{kind}": (
            lambda seed=seed, kind=kind: build_quotient(quotient_generators(seed, kind), kind)
        )
        for seed, kind in TRUNCATED_QUOTIENTS
    },
}


@pytest.mark.parametrize("name", sorted(CAPPED_BUILDS))
def test_capped_builds_match_the_cubes_rebuilt_from_states(name):
    """A build cut at its vertex cap walks edges whose successor lies
    past the cap.  Its records, and the cliques its links refuse, are
    those the cube enumeration from corner states gives."""
    cx = CAPPED_BUILDS[name]()
    assert cx.truncated
    assert any(link(cx, cx.vertex_state(vid)).refused for vid in range(cx.n_vertices))
    assert_records_match_the_oracle(cx)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
@example(2023, True)
@example(2911, True)
def test_links_match_the_oracle_on_random_systems(seed, connected):
    """Random finite systems, local or under the connected constraint
    from the seeds that satisfy it: the links and violations read from
    the build's refusals are those of the incident cells.  Local systems
    pass; the pinned seeds are two whose constrained builds break the
    condition once each."""
    cx = random_build(seed, connected)
    assert_links_match_the_oracle(cx)
    if not cx.truncated and not connected:
        assert check_link_condition(cx).ok


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((lat.SQUARE, lat.HEX, lat.SQUARE_EDGE)))
def test_random_shape_quotients_span_each_clique_once(seed, kind):
    """On random homogeneous quotients of every translation lattice, the
    links read from the build equal the incident cells' links.  ``link``
    counts each simplex once, so the incident cells contribute no action
    set twice: a cube with two corners on one shape never reads the same
    actions at both, so no clique spans two cubes."""
    assert_links_match_the_oracle(random_quotient(seed, kind))


def assert_records_match_the_oracle(cx):
    cells, refused = oracle_cells(cx)
    assert [cx.cells(k) for k in range(1, cx.max_dim + 1)] == cells[1:]
    for vid in range(cx.n_vertices):
        assert link(cx, cx.vertex_state(vid)).refused == refused.get(vid, frozenset())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_plain_records_match_the_cubes_rebuilt_from_states(seed, connected):
    """Random finite systems, local or under the connected constraint,
    cut at 64 vertices or whole: the walked records and refusals are
    those rebuilt from corner states."""
    assert_records_match_the_oracle(random_build(seed, connected))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((lat.SQUARE, lat.HEX, lat.SQUARE_EDGE)))
@example(1171, lat.SQUARE)
def test_shape_records_match_the_cubes_rebuilt_from_states(seed, kind):
    """Random homogeneous quotients, cut at 20 shapes or whole.  Seed
    1171 has a loop edge read by numbers 6 and 3 whose actions order the
    other way, so pass 1 must break a loop's tie by its actions."""
    assert_records_match_the_oracle(random_quotient(seed, kind))


def assert_number_and_name_keys_agree(cx):
    """Every clique that spans a cube, at every vertex, keyed at its
    all-forward corner twice: by the build's number key, the numbers its
    actions read there sorted, and by the name key, its placements named
    from the corner's state in the frame of the vertex that read the
    clique.  Both split the cliques into the same classes, one per
    stored cube."""
    number = {a: n for n, a in enumerate(cx.actions)}
    by_number, by_name = {}, {}
    for vid in range(cx.n_vertices):
        state = cx.vertex_state(vid)
        lnk = link(cx, state)
        for clique in enumerate_cliques(len(lnk.actions), lnk.adjacency):
            if _mask(clique) in lnk.refused:
                continue
            chosen = [lnk.actions[i] for i in clique]
            forward = _mask(i for i, a in enumerate(chosen) if a.direction == BACKWARD)
            corner = state
            for a in chosen:
                if a.direction == BACKWARD:
                    corner = apply_action(corner, a)
            at = cx.vertex_vid(cx.frame.canonical(corner))
            read = corner_actions(cx, state, chosen, forward)
            number_key = cx.frame.cube_key(at, [number[a] for a in read])
            forward_here = [a.reverse() if a.direction == BACKWARD else a for a in chosen]
            name_key = (at, oracle_shape_cube_key(forward_here, corner))
            by_number.setdefault(number_key, set()).add((vid, clique))
            by_name.setdefault(name_key, set()).add((vid, clique))
    classes = set(map(frozenset, by_number.values()))
    assert classes == set(map(frozenset, by_name.values()))
    assert len(classes) == sum(cx.n_cells(k) for k in range(1, cx.max_dim + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((lat.SQUARE, lat.HEX, lat.SQUARE_EDGE)))
def test_random_quotients_key_cubes_by_numbers_as_by_names(seed, kind):
    """Random homogeneous quotients, cut at 20 shapes or whole."""
    assert_number_and_name_keys_agree(random_quotient(seed, kind))


@pytest.mark.parametrize("variant", (VARIANT_PRESERVING, VARIANT_CHANGING))
@pytest.mark.parametrize("modules", (4, 5))
def test_connected_hex_quotients_key_cubes_by_numbers_as_by_names(modules, variant):
    """The 4- and 5-module connected hex quotients, whose cubes are
    found from several corners across translations."""
    seed = frozenset([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)][:modules])
    system = hex_pivot_system(variant, None, constraint_name="connected")
    assert_number_and_name_keys_agree(build_shape_complex(system, [seed]))


def assert_cells_read_back(cx):
    """``cells`` and ``cell`` build each record on demand from the
    complex's columns, field by field the record rebuilt from states;
    ``corners``, ``facets`` (an edge's are its corners) and
    ``cell_keys`` read the same columns, and ``facet_column`` hands out
    each dimension's facets whole and read-only (empty where there are
    none).  ``cell``, ``corners`` and ``facets`` share one bounds rule,
    ``range(n_cells(k))[i]``'s: -1 reads the last cell, and a cell
    number or dimension out of range raises ``IndexError``."""
    oracle, _ = oracle_cells(cx)
    for vid in range(cx.n_vertices):
        assert cx.cell(0, vid) == CellRecord(0, cx.vertex_state(vid), (), (vid,), ())
    assert cx.max_dim == len(oracle) - 1
    for k in range(1, cx.max_dim + 1):
        records, names = cx.cells(k), cx.cell_keys(k)
        assert cx.n_cells(k) == len(records) == len(names) == len(oracle[k])
        for i, want in enumerate(oracle[k]):
            for got in (records[i], cx.cell(k, i)):
                assert got.dim == want.dim == k
                assert got.base == want.base
                assert got.actions == want.actions
                assert got.corners == want.corners == cx.corners(k, i)
                assert got.facets == want.facets == cx.facets(k, i)
            assert names[i] == cx.name(want.actions, want.base)
            if k == 1:
                assert cx.facets(1, i) == want.corners
        column = cx.facet_column(k)
        assert column.readonly
        assert list(column) == [f for i in range(cx.n_cells(k)) for f in cx.facets(k, i)]
    for k in (-1, 0, cx.max_dim + 1):
        assert len(cx.facet_column(k)) == 0
    for read in (cx.cell, cx.corners, cx.facets):
        for k in range(cx.max_dim + 1):
            n = cx.n_cells(k)
            assert read(k, -1) == read(k, n - 1)
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    read(k, i)
        for k in (-1, cx.max_dim + 1):
            with pytest.raises(IndexError):
                read(k, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cells_read_on_demand_equal_the_oracle_on_local_systems(seed):
    """Random finite local systems, cut at 64 vertices or whole."""
    assert_cells_read_back(random_build(seed, False))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((lat.SQUARE, lat.HEX, lat.SQUARE_EDGE)))
def test_cells_read_on_demand_equal_the_oracle_on_quotients(seed, kind):
    """Random homogeneous quotients, cut at 20 shapes or whole, and the
    five-module hex shape quotient."""
    assert_cells_read_back(random_quotient(seed, kind))


def test_cells_of_the_five_module_quotient_read_back():
    assert_cells_read_back(shape_fixture("five-modules"))


def test_hand_built_columns_read_back_as_records(monkeypatch):
    """Every cube the letter-word arm writes into the columns reads back
    through ``cell`` and ``cells`` with the corners and facets it wrote
    (an edge's facets are its corners), the moves its numbers name in
    sort order, and the state of its first corner as its base."""
    given_ = []
    append = CubeComplex._append

    def recording(self, k, corners, facets, numbers):
        pos = append(self, k, corners, facets, numbers)
        given_.append((k, pos, tuple(corners), tuple(facets), tuple(numbers)))
        return pos

    monkeypatch.setattr(CubeComplex, "_append", recording)
    words = arm_word_complex(3)
    assert words.actions == [("flip", 3), ("swap", 1), ("swap", 2)]
    assert len(given_) == sum(words.n_cells(k) for k in range(1, words.max_dim + 1))
    for k, pos, corners, facets, numbers in given_:
        moves = tuple(words.actions[n] for n in numbers)
        assert moves == tuple(sorted(moves)) and len(moves) == k
        rec = CellRecord(k, words.vertex_state(corners[0]), moves, corners, facets)
        assert words.cell(k, pos) == words.cells(k)[pos] == rec


def test_hex_local_build_holds_under_three_mib():
    """The hex-local complex (hex pivots, topology-changing, the radius-2
    ball, four modules; 14,557 cells) holds at most 3 MiB once built, by
    tracemalloc after a collection: its cells live in flat integer
    arrays, not one object each.  The catalogue is enumerated first, as
    a caller's set-up would."""
    system = hex_pivot_system(VARIANT_CHANGING, hex_ball(2))
    system.all_actions
    gc.collect()
    tracemalloc.start()
    try:
        cx = build_complex(system, [frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert f_vector(cx) == (3344, 8640, 2559, 14)
    assert held <= 3 * 2**20


def test_links_need_the_build_record():
    """A complex assembled by hand has no record to read its links from."""
    words = arm_word_complex(3)
    with pytest.raises(CubeplanError, match="record"):
        link(words, words.vertex_state(0))
    with pytest.raises(CubeplanError, match="record"):
        check_link_condition(words)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_facets_are_opposite_faces_one_dimension_down(seed):
    """On random local systems with finite workspaces: a k-cell has 2k
    facets, each a (k-1)-cell on the cell's corners, the two facets of
    a pair share no corner, every corner reads the cell's key, and the
    complex does not depend on the order of the seeds."""
    sf = random_system(random.Random(seed))
    system = sf.system
    assume(system.workspace.is_finite and system.is_local and sf.seeds)
    cx = build_complex(system, sf.seeds, max_vertices=64)
    assume(not cx.truncated)
    for k in range(1, cx.max_dim + 1):
        for rec in cx.cells(k):
            assert len(rec.facets) == 2 * k
            faces = [cx.cell(k - 1, f) for f in rec.facets]
            for face in faces:
                assert face.dim == k - 1
                assert set(face.corners) <= set(rec.corners)
            for near, far in zip(faces[::2], faces[1::2]):
                assert not set(near.corners) & set(far.corners)
    assert_every_corner_reads_the_key(cx)
    other = build_complex(system, sf.seeds[::-1], max_vertices=64)
    assert cell_counts(other) == cell_counts(cx)
    assert complex_digest(other) == complex_digest(cx)


def assert_records_are_born_sorted(cx):
    """A vertex is keyed by its state, and the frame lists its leaving
    actions sorted.  A cube's actions are sorted with no placement
    twice, corner m is the vertex the actions of m reach from the base,
    its key is flat, led by its all-forward corner, and every corner
    reads that key."""
    frame = cx.frame
    for vid in range(cx.n_vertices):
        state = cx.vertex_state(vid)
        assert cx.cell(0, vid).base == state
        acts = frame.actions_at(state)
        assert acts == sorted(acts)
    for k in range(1, cx.max_dim + 1):
        for rec in cx.cells(k):
            names = [a.placement_key for a in rec.actions]
            assert names == sorted(set(names))
            assert list(rec.actions) == sorted(rec.actions)
            for mask, vid in enumerate(rec.corners):
                corner = rec.base
                for i, act in enumerate(rec.actions):
                    if (mask >> i) & 1:
                        corner = apply_action(corner, act)
                assert cx.vertex_state(vid) == frame.canonical(corner)
            forward = sum(1 << i for i, a in enumerate(rec.actions) if a.direction == BACKWARD)
            key = key_at(cx, rec.base, rec.actions)
            assert len(key) == k + 1
            assert key[0] == rec.corners[forward]
    assert_every_corner_reads_the_key(cx)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_plain_records_are_born_sorted(seed, connected):
    """Random finite systems, local or under the connected constraint."""
    assert_records_are_born_sorted(random_build(seed, connected))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((lat.SQUARE, lat.HEX, lat.SQUARE_EDGE)))
def test_shape_records_are_born_sorted(seed, kind):
    """Random homogeneous quotients of every translation lattice."""
    assert_records_are_born_sorted(random_quotient(seed, kind))


def test_hand_built_complexes_print_vertices_by_their_cells():
    """A complex assembled by hand names a vertex ``((), sorted cells)``
    in its listing, as before vertices were keyed by their states."""
    words = arm_word_complex(3)
    assert sha(export_complex(words)) == (
        "81c4d84830daac859a1c7876cc533ab045e77b5bc7d33b50a7925b44385d8bac"
    )
    assert sha(export_complex(arm_word_complex(5))) == (
        "07dbcef9222e44ee190f25d109acdbb3dce33ae4429b865af39d0f88c54d1a90"
    )
    assert words.cell_keys(0) == [
        ((), state_key(words.vertex_state(vid))) for vid in range(words.n_vertices)
    ]


def test_vertex_lookups_accept_any_iterable_of_cells():
    cx = build_fixture(agv_grid_fixture(2, 2))
    state = frozenset(("p0.1", "p1.1"))
    vid = cx.vertex_vid(state)
    assert cx.vertex_state(vid) == state
    for cells in (sorted(state), tuple(sorted(state))):
        assert cx.vertex_vid(cells) == vid
        assert has_state(cx, cells)
        assert link(cx, cells) == link(cx, state)
    assert not has_state(cx, ["p0.1"])
    with pytest.raises(CubeplanError, match="not a vertex"):
        cx.vertex_vid(["p0.1"])
    with pytest.raises(CubeplanError, match="not a vertex"):
        cx.vertex_vid(frozenset(("zz",)))


@pytest.mark.parametrize(
    "extra, n_shapes, refusals", [((), 44, 1), (((2, 0),), 186, 14)]
)
def test_a_carry_into_an_unreached_frame_is_refused(monkeypatch, extra, n_shapes, refusals):
    """On the connected hex shape quotient, a corner's actions can carry
    into a frame no reached shape has numbered, since the constraint
    refuses the move that would reach it; the carry then returns None
    and the walk refuses that corner.  The records, the cells read back
    and the certificate still agree with the oracles built from states."""
    refused = []
    carry = ShapeFrame.carry

    def counted(self, numbers, shift):
        out = carry(self, numbers, shift)
        if out is None:
            refused.append(numbers)
        return out

    monkeypatch.setattr(ShapeFrame, "carry", counted)
    system = hex_pivot_system(VARIANT_CHANGING, None, constraint_name="connected")
    seed = frozenset([(0, 0), (1, 0), (0, 1), (1, 1), *extra])
    cx = build_shape_complex(system, [seed])
    assert (cx.n_vertices, cx.truncated, len(refused)) == (n_shapes, False, refusals)
    assert_records_match_the_oracle(cx)
    assert_cells_read_back(cx)
    assert check_link_condition(cx).violations == tuple(
        (state, acts) for state, acts, _ in oracle_violations(cx)
    )
