"""Shared fixtures: synthetic quotient surfaces and their wedges, the systems
only tests use (sliding squares, path graphs), randomized systems, move
scripts that name moves their system does not have, the step that springs
the connectivity trap, the two-token L-path, and oracles: the cube
enumeration from states, the incident-cell link and the views derived from
a link record, the full-catalogue admissibility scan, the breadth-first
connectivity search, the quotient's cube key by placement names, the
union-based junction tests of the shrink sweep, the sweep and the
normality test on sets, the build-every-candidate shape enumeration, path
validation with no per-step memo, and the surface checks by degree count
and link search with a nested orientation union-find, and the greedy
collapse with a list of cofaces per face.

The surfaces implement the small view protocol the topology functions
consume, with hand-wired identifications, so orientability is exercised
against known answers without trusting the complex builder.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from itertools import combinations

import cubeplan.lattice as lat
from cubeplan.errors import CubeplanError
from cubeplan.cubepaths import CubePath, PathReport, from_edge_path
from cubeplan.errors import StateError
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
    placement_fault,
)
from cubeplan.shape import ShapeFrame, canonicalize
from cubeplan.statecomplex import CellRecord, _mask, state_key
from cubeplan.systems import (
    VARIANT_CHANGING,
    agv_grid_fixture,
    hex_ball,
    hex_pivot_system,
    sliding_generators,
)
from cubeplan.topology import SurfaceReport, _require_full

# Move scripts whose actions are not placements of their system:
# name -> (CLI system arguments, the same system, script, index of the
# failing step, reason ``validate`` gives).
NOT_PLACEMENTS = {
    # pivot4 at (2, 0) moves a module to (3, -1), outside the ball
    "hex-module-leaves-the-ball": (
        ("--builtin", "hex", "--radius", "2"),
        lambda: hex_pivot_system(VARIANT_CHANGING, hex_ball(2)),
        "start (2,0) (2,-1) (0,0)\nstep 1: (pivot4, 2, 0, fwd)\n",
        0,
        "out-of-workspace",
    ),
    "token-on-a-missing-edge": (
        ("--builtin", "agv-grid", "--m", "2", "--n", "2"),
        lambda: agv_grid_fixture(2, 2).system,
        "start p0.0 p1.0\nstep 1: (token, p0.0, p1.1, fwd)\n",
        0,
        "not-an-embedding",
    ),
    # the second move is the catalogue's (token, p0.0, p0.1, bwd) with
    # its nodes swapped, so it would never cancel the first
    "token-edge-in-mirrored-order": (
        ("--builtin", "agv-grid", "--m", "2", "--n", "2"),
        lambda: agv_grid_fixture(2, 2).system,
        "start p0.0 p1.0\nstep 1: (token, p0.0, p0.1, fwd)\n"
        "step 2: (token, p0.1, p0.0, fwd)\n",
        1,
        "not-an-embedding",
    ),
}


class SyntheticSurface:
    """A pure 2-complex given by explicit edges and square boundary cycles.

    ``edges`` maps an edge key to its (v0, v1) endpoint vids; ``squares``
    maps a square key to its boundary cycle, a list of (edge key, sign)
    in traversal order, sign +1 when the step runs v0 -> v1.  Cells are
    numbered in key order, and the view speaks in those numbers.
    """

    truncated = False

    def __init__(self, n_vertices, edges, squares):
        self.n_vertices = n_vertices
        self.max_dim = 2
        self._keys = (list(range(n_vertices)), sorted(edges), sorted(squares))
        edge_number = {key: i for i, key in enumerate(self._keys[1])}
        self._edges = [edges[key] for key in self._keys[1]]
        self._squares = [
            [(edge_number[e], sign) for e, sign in squares[key]]
            for key in self._keys[2]
        ]

    def n_cells(self, k):
        return len(self._keys[k])

    def cell_keys(self, k):
        return list(self._keys[k])

    def facet_column(self, k):
        if k == 1:
            return tuple(v for edge in self._edges for v in edge)
        if k == 2:
            return tuple(e for square in self._squares for e, _ in square)
        return ()

    def square_boundary(self, i):
        return list(self._squares[i])


def _grid_keys(reverse: bool):
    """Keys of a wrapped grid's cells; with ``reverse`` the edges' keys
    sort against the grid order, the squares' not."""
    return lambda kind, i, j: (kind, -i, -j) if reverse and kind != "s" else (kind, i, j)


def torus_view(
    n: int = 3, isolated: int = 0, m: int | None = None, reverse: bool = False
) -> SyntheticSurface:
    """An n-by-m grid of squares (m defaults to n) with both directions
    wrapped around, plus ``isolated`` vertices on no edge, numbered last.
    With ``reverse`` the edges are numbered against the grid order."""
    m, key = n if m is None else m, _grid_keys(reverse)

    def vid(i, j):
        return (i % n) * m + (j % m)

    edges = {}
    for i in range(n):
        for j in range(m):
            edges[key("h", i, j)] = (vid(i, j), vid(i + 1, j))
            edges[key("v", i, j)] = (vid(i, j), vid(i, j + 1))
    squares = {}
    for i in range(n):
        for j in range(m):
            squares[key("s", i, j)] = [
                (key("h", i, j), 1),
                (key("v", (i + 1) % n, j), 1),
                (key("h", i, (j + 1) % m), -1),
                (key("v", i, j), -1),
            ]
    return SyntheticSurface(n * m + isolated, edges, squares)


def klein_view(n: int = 3, m: int | None = None, reverse: bool = False) -> SyntheticSurface:
    """Like the torus but the horizontal wrap reverses the vertical axis."""
    m, key = n if m is None else m, _grid_keys(reverse)

    def vert(i, j):
        if i >= n:
            i, j = i - n, -j
        return (i % n) * m + (j % m)

    edges = {}
    for i in range(n):
        for j in range(m):
            edges[key("h", i, j)] = (vert(i, j), vert(i + 1, j))
            edges[key("v", i, j)] = (vert(i, j), vert(i, j + 1))
    squares = {}
    for i in range(n):
        for j in range(m):
            if i < n - 1:
                squares[key("s", i, j)] = [
                    (key("h", i, j), 1),
                    (key("v", i + 1, j), 1),
                    (key("h", i, (j + 1) % m), -1),
                    (key("v", i, j), -1),
                ]
            else:
                # the wrapped column glues to a v-edge running the other way
                squares[key("s", i, j)] = [
                    (key("h", i, j), 1),
                    (key("v", 0, (-j - 1) % m), -1),
                    (key("h", i, (j + 1) % m), -1),
                    (key("v", i, j), -1),
                ]
    return SyntheticSurface(n * m, edges, squares)


def wedge_view(first: SyntheticSurface, second: SyntheticSurface) -> SyntheticSurface:
    """Two surfaces glued at their vertex 0, whose link there is two
    cycles; the second's other vertices are numbered after the first's."""
    n = first.n_vertices
    edges, squares = {}, {}
    for side, view in enumerate((first, second)):
        keys = view.cell_keys(1)
        for key, ends in zip(keys, view._edges):
            edges[side, key] = tuple(v + n - 1 if side and v else v for v in ends)
        for key, cycle in zip(view.cell_keys(2), view._squares):
            squares[side, key] = [((side, keys[e]), sign) for e, sign in cycle]
    return SyntheticSurface(n + second.n_vertices - 1, edges, squares)


# -- systems only the tests use ------------------------------------------------


def sliding_squares_system(kmax: int, cells, obstacles=()) -> System:
    workspace = Workspace(
        lat.square_lattice(),
        None if cells is None else frozenset(cells),
        tuple(obstacles),
    )
    return System(workspace, sliding_generators(kmax))


def path_graph(n: int) -> lat.Lattice:
    nodes = tuple(range(n))
    edges = tuple((i, i + 1) for i in range(n - 1))
    return lat.graph_lattice(nodes, edges)


# -- randomized systems for serialization round trips -----------------------

_LOCAL_LABELS = ("a", "b", "c", "d", "e")


def _random_patch_cell(rng, kind):
    x = rng.randrange(-2, 3)
    y = rng.randrange(-2, 3)
    if kind == lat.SQUARE_EDGE:
        return (x, y, rng.choice((lat.HORIZONTAL, lat.VERTICAL)))
    return (x, y)


def _random_generator(rng, gid, kind):
    cells = set()
    while len(cells) < rng.randrange(2, 6):
        cells.add(_random_patch_cell(rng, kind))
    support = tuple(sorted(cells))
    trace = frozenset(rng.sample(support, rng.randrange(1, len(support) + 1)))
    delta = frozenset(rng.sample(sorted(trace), rng.randrange(1, len(trace) + 1)))
    occ0 = frozenset(c for c in support if rng.random() < 0.5)
    return Generator(gid, support, trace, occ0, occ0 ^ delta)


def _random_graph_generator(rng, gid):
    k = rng.randrange(2, 5)
    support = _LOCAL_LABELS[:k]
    pairs = [
        (a, b) for i, a in enumerate(support) for b in support[i + 1 :]
    ]
    local_edges = tuple(p for p in pairs if rng.random() < 0.6)
    trace = frozenset(rng.sample(support, rng.randrange(1, k + 1)))
    delta = frozenset(rng.sample(sorted(trace), rng.randrange(1, len(trace) + 1)))
    occ0 = frozenset(c for c in support if rng.random() < 0.5)
    return Generator(gid, support, trace, occ0, occ0 ^ delta, local_edges)


def _random_seed(rng, workspace):
    if workspace.cells is not None:
        pool = sorted(workspace.cells - workspace.obstacle_cells)
    else:
        kind = workspace.lattice.kind
        pool = sorted(
            {
                _random_patch_cell(rng, kind)
                for _ in range(8)
            }
            - workspace.excluded
            - workspace.obstacle_cells
        )
    chosen = {c for c in pool if rng.random() < 0.4}
    chosen |= {c for c, bit in workspace.obstacles if bit}
    return frozenset(chosen)


def random_system(rng: random.Random) -> SystemFile:
    """A structurally valid random system; content need not be useful."""
    kind = rng.choice((lat.SQUARE, lat.HEX, lat.SQUARE_EDGE, lat.GRAPH))
    if kind == lat.GRAPH:
        n = rng.randrange(3, 8)
        if rng.random() < 0.5:
            nodes = tuple(range(n))
        else:
            nodes = tuple(f"n{i}" for i in range(n))
        pairs = [
            (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]
        ]
        edges = tuple(p for p in pairs if rng.random() < 0.4)
        lattice = lat.graph_lattice(nodes, edges)
        cells = frozenset(
            n for n in nodes if rng.random() < 0.8
        ) or frozenset(nodes[:1])
        obstacles = tuple(
            (c, rng.random() < 0.5)
            for c in sorted(cells)
            if rng.random() < 0.15
        )
        workspace = Workspace(lattice, cells, obstacles)
        gens = tuple(
            _random_graph_generator(rng, f"g{i}")
            for i in range(rng.randrange(1, 4))
        )
    else:
        lattice = lat.Lattice(kind)
        if rng.random() < 0.6:
            cells = {
                _random_patch_cell(rng, kind)
                for _ in range(rng.randrange(6, 20))
            }
            excluded = frozenset()
            ws_cells = frozenset(cells)
        else:
            ws_cells = None
            excluded = frozenset(
                _random_patch_cell(rng, kind)
                for _ in range(rng.randrange(0, 4))
            )
        pool = (
            sorted(ws_cells)
            if ws_cells is not None
            else sorted(
                {_random_patch_cell(rng, kind) for _ in range(6)} - excluded
            )
        )
        obstacles = tuple(
            (c, rng.random() < 0.5) for c in pool if rng.random() < 0.15
        )
        workspace = Workspace(lattice, ws_cells, obstacles, excluded)
        gens = tuple(
            _random_generator(rng, f"g{i}", kind)
            for i in range(rng.randrange(1, 4))
        )
    constraint = "connected" if rng.random() < 0.25 else None
    system = System(workspace, gens, constraint)
    seeds = tuple(_random_seed(rng, workspace) for _ in range(rng.randrange(0, 3)))
    return SystemFile(system, seeds)


def walkable_system(rng: random.Random, local: bool = True) -> SystemFile:
    """The first ``random_system`` drawn from ``rng`` that is finite, local
    unless ``local`` is false, and has a seed with an admissible move;
    its seeds with no move are dropped, so a walk from any seed moves."""
    while True:
        sf = random_system(rng)
        system = sf.system
        if system.workspace.is_finite and (system.is_local or not local):
            seeds = tuple(s for s in sf.seeds if admissible_actions(s, system))
            if seeds:
                return SystemFile(system, seeds)


def trap_step(system) -> frozenset:
    """The connectivity trap's three pivots, all forward, as one step from
    ``HEX_TRAP_STATE``: any two keep the modules connected, all three
    disconnect them."""
    gens = {g.gid: g for g in system.catalogue}
    lattice = system.workspace.lattice
    return frozenset(
        make_action(gens[gid], offset, FORWARD, lattice)
        for gid, offset in (("pivot1", (0, 1)), ("pivot3", (-1, 0)), ("pivot5", (1, -1)))
    )


def two_token_l_path(n):
    """First token walks n//2 hops, then the second walks n//2 hops."""
    sf = agv_grid_fixture(n // 2, n // 2)
    cur = sf.seeds[0]
    moves = []
    for tok in ("p0", "p1"):
        for i in range(n // 2):
            acts = admissible_actions(cur, sf.system)
            step = next(
                a
                for a in acts
                if a.src_occ == frozenset((f"{tok}.{i}",))
                and a.dst_occ == frozenset((f"{tok}.{i + 1}",))
            )
            moves.append(step)
            cur = cur - step.src_occ | step.dst_occ
    return from_edge_path(sf.seeds[0], moves, sf.system)


# -- cubes rebuilt from states -------------------------------------------------


def corner_actions(cx, base, actions, mask) -> list:
    """A cube's actions leaving corner ``mask``, in the frame of that
    corner's vertex, found by rebuilding the corner's state.  Those
    already applied there (bit set) run in reverse, and a quotient
    shifts every offset into the frame of the corner's canonical
    shape."""
    corner = base
    for i, act in enumerate(actions):
        if (mask >> i) & 1:
            corner = apply_action(corner, act)
    lattice = cx.frame.system.workspace.lattice
    dx, dy = canonicalize(corner, lattice)[1] if isinstance(cx.frame, ShapeFrame) else (0, 0)
    return [
        make_action(
            a.generator,
            (a.offset[0] + dx, a.offset[1] + dy) if dx or dy else a.offset,
            a.direction ^ ((mask >> i) & 1),
            lattice,
        )
        for i, a in enumerate(actions)
    ]


def key_at(cx, state, actions) -> tuple | None:
    """Key of the cube spanned by sorted commuting actions leaving a
    vertex state, in that state's frame: the vid of its all-forward
    corner, reached by running its backward actions, then the
    placements read there.  None when that corner is not a vertex."""
    forward = sum(1 << i for i, a in enumerate(actions) if a.direction == BACKWARD)
    corner = state
    for i, act in enumerate(actions):
        if (forward >> i) & 1:
            corner = apply_action(corner, act)
    corner = cx.frame.canonical(corner)
    if not has_state(cx, corner):
        return None
    read = corner_actions(cx, state, actions, forward)
    return (cx.vertex_vid(corner), *(a.placement_key for a in read))


def oracle_record(cx, below, state, actions):
    """The record of the cube spanned by sorted commuting actions
    leaving a vertex state, from its corner states; None when a corner
    is not a vertex.  The base is the corner of least state key, ties
    going to the least actions read there; ``below`` holds the keys of
    the stored cubes one dimension down."""
    k = len(actions)
    states = []
    for mask in range(1 << k):
        corner = state
        for i, act in enumerate(actions):
            if (mask >> i) & 1:
                corner = apply_action(corner, act)
        corner = cx.frame.canonical(corner)
        if not has_state(cx, corner):
            return None
        states.append(corner)
    least = min(map(state_key, states))
    base = min(
        (corner_actions(cx, state, actions, m), m)
        for m in range(1 << k)
        if state_key(states[m]) == least
    )[1]
    corners = tuple(cx.vertex_vid(states[base ^ m]) for m in range(1 << k))
    facets = corners
    if k > 1:
        facets = []
        for j in range(k):
            bit = 1 << j
            for side in (base & bit, ~base & bit):
                read = corner_actions(cx, state, actions, side)
                facets.append(below[key_at(cx, states[side], read[:j] + read[j + 1 :])])
        facets = tuple(facets)
    acts = tuple(corner_actions(cx, state, actions, base))
    return CellRecord(k, states[base], acts, corners, facets)


def oracle_cells(cx) -> tuple:
    """The cubes and refusals a build over the complex's vertices makes,
    rebuilding every corner from states: each vertex's k-cliques of
    commuting leaving actions in pass k, by vid then in lexicographic
    order, each keyed by ``key_at``, stored unless its key is, or
    refused.  Returns the records of each dimension >= 1, led by an
    empty list for the vertices, and the refused cliques' bitmasks per
    vid."""
    frame = cx.frame
    states = [cx.vertex_state(vid) for vid in range(cx.n_vertices)]
    cliques = []
    for state in states:
        acts = frame.actions_at(state)
        adjacency = [
            sum(1 << j for j, b in enumerate(acts) if j != i and commute_pair(a, b))
            for i, a in enumerate(acts)
        ]
        cliques.append((acts, enumerate_cliques(len(acts), adjacency)))
    cells, refused = [[]], {}
    k = 1
    while any(len(c) == k for _, found in cliques for c in found):
        index, stored = {}, []
        below = {key_at(cx, rec.base, rec.actions): i for i, rec in enumerate(cells[-1])}
        for vid, (acts, found) in enumerate(cliques):
            for clique in (c for c in found if len(c) == k):
                chosen = [acts[i] for i in clique]
                key = key_at(cx, states[vid], chosen)
                if key in index:
                    continue
                rec = None if key is None else oracle_record(cx, below, states[vid], chosen)
                if rec is None:
                    refused.setdefault(vid, set()).add(_mask(clique))
                else:
                    index[key] = len(stored)
                    stored.append(rec)
        cells.append(stored)
        k += 1
    while len(cells) > 1 and not cells[-1]:
        cells.pop()
    return cells, {vid: frozenset(masks) for vid, masks in refused.items()}


# -- the link read off the stored cells ---------------------------------------


def has_state(cx, state) -> bool:
    """Whether any iterable of cells is the state of a vertex."""
    try:
        cx.vertex_vid(state)
    except CubeplanError:
        return False
    return True


def enumerate_cliques(n: int, adjacency) -> list:
    """Every clique (as a tuple of indices) of the graph on ``n``
    vertices, size >= 1, in lexicographic order; ``adjacency`` is a
    list of bitmasks."""
    out = []

    def extend(clique, candidates):
        for i in range(n):
            if (candidates >> i) & 1:
                new = clique + (i,)
                out.append(new)
                extend(new, candidates & adjacency[i] & ~((2 << i) - 1))

    extend((), (1 << n) - 1)
    return out


def link_vertices(lnk) -> tuple:
    """The link's vertices: its leaving actions that span an edge,
    sorted."""
    refused = lnk.refused
    return tuple(a for i, a in enumerate(lnk.actions) if 1 << i not in refused)


def link_simplices(lnk) -> dict:
    """Every set of actions the link's record says is spanned, as a
    frozenset, with its count, 1."""
    return {
        frozenset(lnk.actions[i] for i in clique): 1
        for clique in enumerate_cliques(len(lnk.actions), lnk.adjacency)
        if _mask(clique) not in lnk.refused
    }


def link_skeleton_edges(lnk) -> list:
    """The link's 1-simplices, each as a sorted pair of actions, sorted."""
    acts, n = lnk.actions, len(lnk.actions)
    return [
        (acts[i], acts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if (lnk.adjacency[i] >> j) & 1 and 1 << i | 1 << j not in lnk.refused
    ]


def oracle_link(cx, vertex_state) -> tuple:
    """(vertices, simplices) of a vertex link, walking the stored cells.

    Every cube with a corner on the vertex contributes, at each such
    corner, the set of its actions leaving there; ``simplices`` counts
    the contributions of each set and ``vertices`` lists the actions in
    any of them, sorted.
    """
    vid = cx.vertex_vid(frozenset(vertex_state))
    simplices: dict = {}
    for k in range(1, cx.max_dim + 1):
        for i in range(cx.n_cells(k)):
            if vid not in cx.corners(k, i):
                continue
            rec = cx.cell(k, i)
            for mask, corner in enumerate(rec.corners):
                if corner == vid:
                    simplex = frozenset(corner_actions(cx, rec.base, rec.actions, mask))
                    simplices[simplex] = simplices.get(simplex, 0) + 1
    vertices = tuple(sorted({a for s in simplices for a in s}))
    return vertices, simplices


def oracle_violations(cx) -> tuple:
    """The link condition's violations from ``oracle_link``: every clique
    of two or more vertices of a link's 1-skeleton not spanned exactly
    once, by vertex id, then by the sorted actions."""
    violations = []
    for vid in range(cx.n_vertices):
        state = cx.vertex_state(vid)
        verts, simplices = oracle_link(cx, state)
        index = {v: i for i, v in enumerate(verts)}
        adjacency = [0] * len(verts)
        for s in simplices:
            if len(s) == 2:
                i, j = (index[a] for a in s)
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
        for clique in enumerate_cliques(len(verts), adjacency):
            if len(clique) > 1:
                simplex = frozenset(verts[i] for i in clique)
                count = simplices.get(simplex, 0)
                if count != 1:
                    violations.append((state, tuple(sorted(simplex)), count))
    return tuple(violations)


# -- admissibility and connectivity by exhaustive search -----------------------


def oracle_admissible(state, system) -> list:
    """The admissible actions at a state, scanning the whole catalogue."""
    return [a for a in system.all_actions if is_admissible(state, a, system)]


def oracle_connected(cells, lattice) -> bool:
    """Connectivity by a breadth-first search over every reachable cell."""
    cells = set(cells)
    if len(cells) <= 1:
        return True
    start = next(iter(cells))
    seen = {start}
    queue = deque((start,))
    while queue:
        cur = queue.popleft()
        for nb in lattice.neighbors(cur):
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(cells)


# -- the shrink sweep and its junction tests, and shape enumeration ------------


def oracle_commute_sub(step, next_step) -> set:
    """Actions of the next step that can run a step earlier: their trace
    misses the running union of the current step's supports, and their
    support the union of its traces."""
    sup = frozenset()
    tr = frozenset()
    for a in step:
        sup |= a.support
        tr |= a.trace
    return {
        a for a in next_step if not (a.trace & sup) and not (a.support & tr)
    }


def oracle_common_edge(prev_step, cur_step) -> tuple:
    """Fresh copies of both steps with the placements they share removed
    (a move and its undo meeting at the junction)."""
    prev_keys = {a.placement_key for a in prev_step}
    shared = prev_keys.intersection(a.placement_key for a in cur_step)
    if not shared:
        return set(prev_step), set(cur_step)
    return (
        {a for a in prev_step if a.placement_key not in shared},
        {a for a in cur_step if a.placement_key not in shared},
    )


def oracle_shrink_cube_path(path, stats=None):
    """``shrink_cube_path`` on sets of actions, testing each junction
    with ``oracle_commute_sub`` and ``oracle_common_edge``: the same
    rewrite order, with no integer coding.  A step it changes becomes a
    new set; the others keep the path's own frozensets."""
    if stats is not None:
        stats.shrink_calls += 1
    steps = list(path.steps)
    i = 0
    while i < len(steps):
        if stats is not None:
            stats.iterations += 1
        if i + 1 < len(steps):
            moved = oracle_commute_sub(steps[i], steps[i + 1])
            if moved:
                steps[i] |= moved
                steps[i + 1] -= moved
                if not steps[i + 1]:
                    del steps[i + 1]
        else:
            moved = set()
        if i >= 1:
            kept_prev, kept_cur = oracle_common_edge(steps[i - 1], steps[i])
            if kept_prev != steps[i - 1]:  # the steps shared a placement
                steps[i - 1], steps[i] = kept_prev, kept_cur
            empty_cur = not steps[i]
            empty_prev = not steps[i - 1]
            if empty_cur:
                del steps[i]
            if empty_prev:
                del steps[i - 1]
            if empty_cur or empty_prev:
                i = max(0, i - (2 if empty_prev else 1))
                continue
        if not moved:
            i += 1
    return CubePath(path.start, tuple(frozenset(s) for s in steps), path.system)


def oracle_is_normal(path) -> bool:
    """``is_normal`` on sets: no junction lets an action run earlier or
    shares a placement, and no empty step ends a path of two or more."""
    if len(path.steps) > 1 and not path.steps[-1]:
        return False
    for i in range(len(path.steps) - 1):
        if oracle_commute_sub(path.steps[i], path.steps[i + 1]):
            return False
        prev_keys = {a.placement_key for a in path.steps[i]}
        if any(a.placement_key in prev_keys for a in path.steps[i + 1]):
            return False
    return True


def oracle_shape_cube_key(actions, corner_state: frozenset) -> tuple:
    """Translation-invariant names of a cube's placements, read from the
    corner's state rather than its actions' numbers.

    ``corner_state`` is the cube's all-forward corner, in the frame the
    actions are expressed in; each placement is named by its generator
    and its offset in the frame of that corner's canonical shape.
    """
    x, y = min(corner_state)[:2]
    return tuple(sorted((a.gid, (a.offset[0] - x, a.offset[1] - y)) for a in actions))


def oracle_shape_actions(system, shape) -> list:
    """``shape_actions`` building an action for every alignment of each
    source pattern's least cell with a cell of the shape, then testing
    the whole match."""
    lattice = system.workspace.lattice
    out = []
    for gen in system.catalogue:
        for direction, src in ((FORWARD, gen.occ0), (BACKWARD, gen.occ1)):
            if not src:
                continue
            local = min(src)
            for w in shape:
                off = lattice.offset_between(local, w)
                if off is None:
                    continue
                act = make_action(gen, off, direction, lattice)
                if pattern_matches(shape, act) and system.constraint_holds(
                    apply_action(shape, act)
                ):
                    out.append(act)
    out.sort()
    return out


# -- path validation, one check at a time --------------------------------------


def oracle_placement_fault(act, system, embeddings: dict):
    """``System.placement_fault`` enumerating each generator's graph
    embeddings afresh in every ``oracle_validate`` call."""
    ws = system.workspace
    fault = placement_fault(act, ws)
    if fault is None and ws.lattice.kind == lat.GRAPH:
        gen = act.generator
        if gen not in embeddings:
            embeddings[gen] = frozenset(_graph_embeddings(gen, ws))
        if act.offset not in embeddings[gen]:
            fault = "not-an-embedding"
    return fault


def oracle_validate(path) -> PathReport:
    """``cubepaths.validate`` testing every step for emptiness and
    commutation, every action's placement and admissibility, and the
    global constraint at every corner of the step's cube, each corner
    reached by ``apply_action`` from the step's start, with no memo but
    the placement faults."""
    cur = path.start
    system = path.system
    if system is not None:
        try:
            system.workspace.check_state(cur)
        except StateError as err:
            return PathReport(False, -1, f"start state invalid: {err}")
        if not system.constraint_holds(cur):
            return PathReport(False, -1, "start state violates the global constraint")
    embeddings = {}
    faults = {}
    for i, step in enumerate(path.steps):
        if not step:
            return PathReport(False, i, "empty step")
        if not commute(step):
            return PathReport(False, i, "step actions do not commute")
        for act in sorted(step):
            if system is None:
                ok = pattern_matches(cur, act)
            else:
                if act not in faults:
                    faults[act] = oracle_placement_fault(act, system, embeddings)
                fault = faults[act]
                if fault is not None:
                    why = f"is not a placement of the system ({fault})"
                    return PathReport(
                        False, i, f"action {act.gid} at {act.offset} {why}"
                    )
                ok = is_admissible(cur, act, system)
            if not ok:
                return PathReport(
                    False, i, f"action {act.gid} at {act.offset} not admissible"
                )
        if system is not None:
            acts = sorted(step)
            for size in range(1, len(acts) + 1):
                for sub in combinations(acts, size):
                    corner = cur
                    for act in sub:
                        corner = apply_action(corner, act)
                    if not system.constraint_holds(corner):
                        return PathReport(
                            False, i, "state violates the global constraint"
                        )
        for act in sorted(step):
            cur = apply_action(cur, act)
    return PathReport(True, None, None)


# -- surface checks, each with its own walk ------------------------------------


def oracle_surface_report(view) -> SurfaceReport:
    """``topology.surface_report`` by edge-use counts, a degree check of
    every edge-end and a search of each vertex's corner graph."""
    _require_full(view)
    if view.max_dim != 2 or view.n_cells(2) == 0:
        return SurfaceReport(False, "complex is not 2-dimensional")
    usage = [0] * view.n_cells(1)
    endpoints = view.facet_column(1)
    corner_pairs: dict = {}
    for s in range(view.n_cells(2)):
        cycle = view.square_boundary(s)
        for i, (e, sign) in enumerate(cycle):
            usage[e] += 1
            nxt, nsign = cycle[(i + 1) % len(cycle)]
            head_vid = endpoints[2 * e + (1 if sign > 0 else 0)]
            head_end = (e, 1 if sign > 0 else 0)
            tail_end = (nxt, 0 if nsign > 0 else 1)
            corner_pairs.setdefault(head_vid, []).append((head_end, tail_end))
    for count in usage:
        if count != 2:
            return SurfaceReport(False, f"an edge lies in {count} squares")
    ends_at = [set() for _ in range(view.n_vertices)]
    for e in range(view.n_cells(1)):
        ends_at[endpoints[2 * e]].add((e, 0))
        ends_at[endpoints[2 * e + 1]].add((e, 1))
    for vid in range(view.n_vertices):
        ends = ends_at[vid]
        if not ends:
            return SurfaceReport(False, "isolated vertex")
        degree = {e: 0 for e in ends}
        adj = {e: [] for e in ends}
        for a, b in corner_pairs.get(vid, ()):
            degree[a] += 1
            degree[b] += 1
            adj[a].append(b)
            adj[b].append(a)
        if any(d != 2 for d in degree.values()):
            return SurfaceReport(False, "vertex link is not a cycle")
        start = next(iter(ends))
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(ends):
            return SurfaceReport(False, "vertex link has several cycles")
    return SurfaceReport(True, None)


def oracle_is_orientable_surface(view) -> bool:
    """``topology.is_orientable_surface`` with its own walk of the square
    boundaries and its own parity union-find over squares."""
    report = oracle_surface_report(view)
    if not report.ok:
        raise CubeplanError(f"not a closed surface: {report.reason}")
    usages = [[] for _ in range(view.n_cells(1))]
    for s in range(view.n_cells(2)):
        for e, sign in view.square_boundary(s):
            usages[e].append((s, sign))

    parent: dict = {}
    parity: dict = {}

    def find(x):
        path = []
        while parent.setdefault(x, x) != x:
            path.append(x)
            x = parent[x]
        p = 0
        for y in reversed(path):
            p ^= parity[y]
            parent[y], parity[y] = x, p
        return x, p

    def union(x, y, rel) -> bool:
        rx, px = find(x)
        ry, py = find(y)
        if rx == ry:
            return (px ^ py) == rel
        parent[ry] = rx
        parity[ry] = px ^ py ^ rel
        return True

    for (s1, d1), (s2, d2) in usages:
        same_direction = d1 == d2
        if s1 == s2:
            if same_direction:
                return False
            continue
        if not union(s1, s2, 1 if same_direction else 0):
            return False
    return True


# -- collapse with coface lists -------------------------------------------------


def oracle_collapse_subcomplex(view) -> list:
    """``topology.collapse_subcomplex`` keeping every face's list of
    cofaces and finding a free face's one live coface by a search."""
    _require_full(view)
    ranks = []
    for k in range(view.max_dim + 1):
        names = view.cell_keys(k)
        rank = [0] * len(names)
        for r, i in enumerate(sorted(range(len(names)), key=names.__getitem__)):
            rank[i] = r
        ranks.append(rank)
    alive = [set(range(len(rank))) for rank in ranks]
    counts = [[0] * len(rank) for rank in ranks]
    cofaces = [[[] for _ in rank] for rank in ranks]
    columns = [view.facet_column(k) for k in range(len(ranks))]
    for k in range(1, len(ranks)):
        for i, facets in enumerate(zip(*[iter(columns[k])] * (2 * k))):
            for f in facets:
                counts[k - 1][f] += 1
                cofaces[k - 1][f].append(i)
    free = [
        (-k, ranks[k][i], i)
        for k, row in enumerate(counts)
        for i, n in enumerate(row)
        if n == 1
    ]
    heapq.heapify(free)

    def drop(k, i):
        alive[k].remove(i)
        if k:
            below = counts[k - 1]
            for f in columns[k][2 * k * i : 2 * k * (i + 1)]:
                below[f] -= 1
                if below[f] == 1:
                    heapq.heappush(free, (1 - k, ranks[k - 1][f], f))

    while free:
        neg, _, i = heapq.heappop(free)
        d = -neg
        if i not in alive[d] or counts[d][i] != 1:
            continue
        drop(d + 1, next(c for c in cofaces[d][i] if c in alive[d + 1]))
        drop(d, i)
    return alive
