"""Cube complexes over reachable states.

The builder closes a set of seed states under admissible actions, then
enumerates one k-cube for every set of k pairwise-commuting actions
admissible at a reached state.  A cube is a set of commuting placements
plus the state off their supports, so it has exactly one *all-forward
corner*, where every placement sits in its forward source pattern.  A
vertex is found by its state; while the builder runs, a cube's key is
that corner's vertex id followed by the names of its placements read in
that corner's frame.  Every corner reaches the same key, so a cube found
from different corners is stored once.

One builder serves plain and quotient complexes alike.  A *frame* tells
it how states are named: which actions leave a state, which canonical
representative stands for a state, how a cube's placements are named,
and how a cube's actions read from each of its corners.  The plain
frame names every state by itself; ``shape`` supplies the translation
frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BuildTruncatedError,
    CubeplanError,
    ModelError,
    StateError,
)
from .model import (
    BACKWARD,
    System,
    admissible_actions,
    apply_action,
    commute_pair,
)


def state_key(occupied) -> tuple:
    """A state's cells in sort order: orders states and prints them."""
    return tuple(sorted(occupied))


def cube_key(actions, corner_state: frozenset) -> tuple:
    """Printed name of the cube spanned by actions at a corner.

    The placement list ignores direction and the corners agree off the
    union of supports, so two corners of one plain cube give equal names.
    """
    placements = tuple(sorted(a.placement_key for a in actions))
    union_sup = frozenset()
    for a in actions:
        union_sup |= a.support
    return (placements, tuple(sorted(corner_state - union_sup)))


@dataclass(frozen=True, slots=True)
class CellRecord:
    """One cell of a cube complex.

    ``base`` is the corner whose canonical state has the least state
    key; only a quotient can give two corners the same one, and then the
    one reading the least actions wins.  A vertex's base is its state.
    ``actions`` are expressed from the base, in its frame; they are born
    sorted (see ``_cell_record``).  ``corners`` lists vertex ids in
    bitmask order, bit i meaning action i has been applied; ``facets``
    holds the positions of the 2*dim facets among the (dim-1)-cells, as
    (near_i, far_i) pairs, flattened.
    """

    dim: int
    base: frozenset
    actions: tuple
    corners: tuple
    facets: tuple


class CubeComplex:
    """Cells numbered per dimension in the order they were stored.

    A cell's number is its position in its dimension: vertex ids are
    the positions of the 0-cells, and facets are positions one
    dimension down.  Vertices are also found by their states.  A cell is
    printed by ``name(actions, base)`` read off its record; a cube's
    key, which merges one cube found from several corners, lives only
    while the complex is assembled.
    """

    def __init__(self, name=cube_key):
        self._cells: list[list] = [[]]
        self._vid: dict = {}
        self.name = name
        self.truncated: bool = False
        self.cap: int | None = None
        # how states and cubes are named; None for a complex assembled
        # by hand, which has no system to move in
        self.frame = None
        # derived views, built on first use and dropped on every change;
        # the builder leaves its clique record in ``_links``: per vertex,
        # its leaving actions and their commute bitmasks, and the cliques
        # of vertices that have any that span no cube
        self._links: tuple | None = None
        self._names: list | None = None

    # -- construction -------------------------------------------------

    def add_vertex(self, state: frozenset) -> int:
        vid = self._vid.get(state)
        if vid is None:
            vid = self.add_cell(CellRecord(0, state, (), (self.n_vertices,), ()))
        return vid

    def add_cell(self, rec: CellRecord) -> int:
        """Store a cell last in its dimension; returns its position."""
        while len(self._cells) <= rec.dim:
            self._cells.append([])
        cells = self._cells[rec.dim]
        pos = len(cells)
        if rec.dim == 0:
            self._vid[rec.base] = pos
        cells.append(rec)
        self._links = None
        self._names = None
        return pos

    # -- cell access ---------------------------------------------------

    @property
    def max_dim(self) -> int:
        return len(self._cells) - 1

    def n_cells(self, k: int) -> int:
        return len(self._cells[k]) if 0 <= k <= self.max_dim else 0

    def cell_keys(self, k: int) -> list:
        """Printed names in number order: ``name`` read at each cell's
        base corner, rendered once per dimension."""
        if self._names is None:
            self._names = [
                [self.name(rec.actions, rec.base) for rec in cells]
                for cells in self._cells
            ]
        return list(self._names[k]) if 0 <= k <= self.max_dim else []

    def cells(self, k: int) -> list:
        return list(self._cells[k]) if 0 <= k <= self.max_dim else []

    def cell(self, k: int, i: int) -> CellRecord:
        return self._cells[k][i]

    def facets(self, k: int, i: int) -> tuple:
        return self._cells[k][i].facets

    # -- vertices ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self._cells[0])

    def vertex_vid(self, state) -> int:
        state = frozenset(state)
        vid = self._vid.get(state)
        if vid is None:
            raise CubeplanError(
                f"state {state_key(state)!r} is not a vertex of the complex"
            )
        return vid

    def has_state(self, state) -> bool:
        return frozenset(state) in self._vid

    def vertex_state(self, vid: int) -> frozenset:
        return self._cells[0][vid].base

    # -- derived views -------------------------------------------------

    def edge_endpoints(self, i: int) -> tuple:
        """(base vid, far vid) of edge i, base first."""
        return self._cells[1][i].corners

    def square_boundary(self, i: int) -> list:
        """The four directed edges around square i, as (edge, sign).

        Read from the square's own record: its facets are stored as
        (a1 at base, a1 at a0, a0 at base, a0 at a1) and its corners in
        bitmask order.  The traversal runs base -> a0 -> a0+a1 -> a1 ->
        base; the sign is +1 when the step starts at the edge's own base
        corner.
        """
        rec = self._cells[2][i]
        f, c = rec.facets, rec.corners
        walk = ((f[2], c[0]), (f[1], c[1]), (f[3], c[3]), (f[0], c[2]))
        edges = self._cells[1]
        return [(e, 1 if edges[e].corners[0] == start else -1) for e, start in walk]


class PlainFrame:
    """The frame of a plain state complex: every state names itself."""

    def __init__(self, system: System):
        self.system = system
        # the catalogue lists placement i forward at position 2i, then
        # backward at 2i + 1
        self.position = {a: i for i, a in enumerate(system.all_actions)}

    def actions_at(self, state: frozenset) -> list:
        return admissible_actions(state, self.system)

    def canonical(self, state: frozenset) -> frozenset:
        return state

    def cell_key(self, actions, corner_state: frozenset) -> tuple:
        """A cube's placements named by their numbers in the catalogue;
        sorted actions give sorted numbers."""
        return tuple(self.position[a] >> 1 for a in actions)

    def corner_actions(self, base: frozenset, actions, mask: int) -> list:
        """The cube's actions leaving corner ``mask``, in the frame of
        that corner's vertex; every plain state is its own frame.  Those
        already applied there (bit set) run in reverse, each read from its
        twin position in the catalogue."""
        catalogue = self.system.all_actions
        return [
            catalogue[self.position[a] ^ 1] if (mask >> i) & 1 else a
            for i, a in enumerate(actions)
        ]


class StateComplex(CubeComplex):
    """Cube complex of a specific system, built from seed states."""

    frame_type = PlainFrame

    def __init__(self, system: System):
        super().__init__()
        self.system = system
        self.frame = self.frame_type(system)

    def key_at(self, state: frozenset, actions) -> tuple | None:
        """Key of the cube spanned by sorted commuting actions leaving a
        vertex state, in that state's frame; None when the cube's
        all-forward corner, reached by running its backward actions, is
        not a vertex."""
        corner = state
        for act in actions:
            if act.direction == BACKWARD:
                corner = apply_action(corner, act)
        vid = self._vid.get(self.frame.canonical(corner))
        if vid is None:
            return None
        return (vid, *self.frame.cell_key(actions, corner))


def _enumerate_cliques(n: int, adjacency: list):
    """Yield every clique (as a tuple of indices) of the graph, size >= 1.

    ``adjacency`` is a list of bitmasks.  Cliques come out in
    lexicographic order of their index tuples.
    """
    out = []

    def extend(clique, candidates):
        c = candidates
        while c:
            low = c & (-c)
            i = low.bit_length() - 1
            c ^= low
            new = clique + (i,)
            out.append(new)
            extend(new, c & adjacency[i])

    extend((), (1 << n) - 1)
    return out


def _mask(clique) -> int:
    return sum(1 << i for i in clique)


def _cell_record(
    cx: StateComplex, index: list, state: frozenset, actions: list
) -> CellRecord | None:
    """Make the record of a new cube spanned by sorted actions leaving a
    vertex state; None at the first corner that is not a vertex.

    The base is the corner with the least canonical state key, ties
    going to the least actions read there; actions are re-expressed from
    the base, in the frame of its canonical state.  They stay sorted: no
    two share a placement, as its two directions never commute, and a
    plain frame only flips directions while a quotient shifts every
    offset by one vector.  So bit i names one placement at every corner,
    and the base's corner m is the state's corner ``base ^ m``.  Each
    facet is keyed at its own all-forward corner, read off the cube's
    corners, and looked up in ``index[k - 1]``, the keys of the cubes one
    dimension down: its corners are the cube's, all vertices, so the
    pass before stored it.
    """
    frame, vertex = cx.frame, cx._vid
    k = len(actions)
    # corner states in bitmask order, bit i meaning action i has run,
    # each looked up as soon as it is made
    corner_states, vids, skeys = [], [], []
    for mask in range(1 << k):
        corner = state
        if mask:
            low = mask & -mask
            corner = apply_action(
                corner_states[mask ^ low], actions[low.bit_length() - 1]
            )
        shape = frame.canonical(corner)
        vid = vertex.get(shape)
        if vid is None:
            return None
        corner_states.append(corner)
        vids.append(vid)
        skeys.append(state_key(shape))
    least = min(skeys)
    ties = [m for m in range(1 << k) if skeys[m] == least]
    moved, base_mask = min((frame.corner_actions(state, actions, m), m) for m in ties)
    acts = tuple(moved)
    corners = tuple(vids[base_mask ^ m] for m in range(1 << k))
    # an edge's facets are its corners, in the same order: one tuple
    facets = corners
    if k > 1:
        all_forward = sum(
            1 << i for i, a in enumerate(actions) if a.direction == BACKWARD
        )
        below = index[k - 1]
        facets = []
        for j in range(k):
            bit = 1 << j
            sub = actions[:j] + actions[j + 1 :]
            for side in (base_mask & bit, ~base_mask & bit):
                corner = all_forward & ~bit | side
                names = frame.cell_key(sub, corner_states[corner])
                facets.append(below[(vids[corner], *names)])
        facets = tuple(facets)
    base = cx.vertex_state(vids[base_mask])
    return CellRecord(k, base, acts, corners, facets)


# the refused cliques of a vertex whose every clique spans a cube
_NONE_REFUSED = frozenset()


def _build(cx: StateComplex, seeds, cap: int) -> StateComplex:
    """Breadth-first closure of the seeds, then cube enumeration.

    States are named through the complex's frame.  Stops discovering new
    states at ``cap`` vertices and marks the result truncated; cubes are
    then restricted to fully-visited corner sets.  Cubes are stored one
    dimension at a time, so every facet is stored before its cube.
    ``index`` maps each stored cube's key to its position, one dict per
    dimension; it merges a cube found from several corners and finds
    facets, and dies when the build returns.

    Each clique of commuting actions at a vertex either spans a cube or
    is refused, so the build leaves its refusals behind as the complex's
    link record: per vertex, its leaving actions, their commute bitmasks
    and the cliques that span no cube.  No clique spans two cubes.  A
    cube is fixed by one corner and the actions leaving it, so two cubes
    spanning one clique at one vertex are one cube read at two of its
    corners.  Distinct corners hold distinct states, so only a quotient
    lets them name one vertex, and then the nonzero lattice translation
    between them maps the cube's finite corner set onto itself, which no
    nonzero translation of Z^2 does.
    """
    system, frame = cx.system, cx.frame
    cx.cap = cap

    def reach(state):
        if cx.n_vertices < cap:
            cx.add_vertex(state)
        elif not cx.has_state(state):
            cx.truncated = True

    for s in seeds:
        occ = frame.canonical(system.workspace.check_state(s))
        if not system.constraint_holds(occ):
            raise StateError("seed state violates the system's global constraint")
        reach(occ)

    # vertices are expanded in the order they were added; each keeps its
    # leaving actions and their commute bitmasks in ``commute``, and its
    # sets of pairwise-commuting actions, grouped by size, in
    # ``cliques_of`` until the cubes of that size are stored
    commute, cliques_of = [], []
    while len(cliques_of) < cx.n_vertices:
        state = cx.vertex_state(len(cliques_of))
        acts = frame.actions_at(state)
        for act in acts:
            reach(frame.canonical(apply_action(state, act)))
        n = len(acts)
        adjacency = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if commute_pair(acts[i], acts[j]):
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i
        by_size = []
        for clique in _enumerate_cliques(n, adjacency):
            if len(clique) > len(by_size):
                by_size.append([])
            by_size[len(clique) - 1].append(clique)
        commute.append((tuple(acts), tuple(adjacency)))
        cliques_of.append(by_size)

    # every vertex satisfies a global constraint (seeds are checked and
    # successors admissible), so a cube whose corners are all vertices
    # satisfies it at every corner.  ``refused`` keeps, per vertex, the
    # cliques that span no cube
    refused: dict = {}
    index = [None]
    for k in range(1, max(map(len, cliques_of), default=0) + 1):
        index.append({})
        for vid, by_size in enumerate(cliques_of):
            acts = commute[vid][0]
            state = cx.vertex_state(vid)
            for clique in by_size.pop(0) if by_size else ():
                chosen = [acts[i] for i in clique]
                key = cx.key_at(state, chosen)
                if key in index[k]:
                    continue
                rec = None if key is None else _cell_record(cx, index, state, chosen)
                if rec is None:
                    refused.setdefault(vid, set()).add(_mask(clique))
                else:
                    index[k][key] = cx.add_cell(rec)
    cx._links = (commute, {vid: frozenset(masks) for vid, masks in refused.items()})
    return cx


def build_complex(system: System, seeds, max_vertices: int = 1_000_000) -> StateComplex:
    """Build the state complex reachable from the seeds.

    Stops discovering new states at ``max_vertices`` and marks the
    result truncated.
    """
    if not system.workspace.is_finite:
        raise ModelError("WorkspaceNotFinite: complex building needs a finite workspace")
    return _build(StateComplex(system), seeds, max_vertices)


@dataclass(frozen=True)
class LinkComplex:
    """The simplicial link of a vertex, read from the build's record.

    ``actions`` are the actions leaving the state, in the state's own
    frame and in the order the frame lists them, sorted; ``adjacency`` holds
    their commute graph as one bitmask per action.  Every incident
    k-cube contributes, at each of its corners lying on the state, the
    (k-1)-simplex of its actions leaving that corner.  Each such set is
    a clique of the commute graph, and every clique the build did not
    refuse is contributed exactly once.  ``refused`` holds the cliques
    that span no cube, as bitmasks over ``actions``.  ``vertices``,
    ``simplices`` and ``skeleton_edges`` are derived on demand.
    """

    state: frozenset
    actions: tuple
    adjacency: tuple
    refused: frozenset

    @property
    def vertices(self) -> tuple:
        """The leaving actions that span an edge, sorted."""
        return tuple(a for i, a in enumerate(self.actions) if 1 << i not in self.refused)

    @property
    def simplices(self) -> dict:
        """Every contributed action set, as a frozenset, with its count, 1."""
        return {
            frozenset(self.actions[i] for i in clique): 1
            for clique in _enumerate_cliques(len(self.actions), self.adjacency)
            if _mask(clique) not in self.refused
        }

    def skeleton_edges(self) -> list:
        """The 1-simplices, each as a sorted pair of actions, sorted."""
        acts, n = self.actions, len(self.actions)
        return [
            (acts[i], acts[j])
            for i in range(n)
            for j in range(i + 1, n)
            if (self.adjacency[i] >> j) & 1 and 1 << i | 1 << j not in self.refused
        ]


def link(complex_: CubeComplex, vertex_state) -> LinkComplex:
    """Link of a vertex: one simplex per incident cube of dimension >= 1,
    at each corner the cube has on the vertex.

    Read from the per-vertex clique record the builder leaves behind.  A
    complex without one, assembled by hand or changed after its build,
    is refused with ``CubeplanError``.
    """
    if complex_._links is None:
        raise CubeplanError(
            "links are read from a build's record; this complex was "
            "assembled by hand or changed after its build"
        )
    commute, refused = complex_._links
    state = frozenset(vertex_state)
    vid = complex_.vertex_vid(state)
    return LinkComplex(state, *commute[vid], refused.get(vid, _NONE_REFUSED))


@dataclass(frozen=True)
class LinkConditionReport:
    ok: bool
    violations: tuple  # (vertex state, actions tuple), each spanning no cube


def check_link_condition(complex_: CubeComplex) -> LinkConditionReport:
    """Check that every clique of every vertex link spans a simplex.

    A clique is a set of two or more link vertices whose pairs are all
    1-simplices.  The build spans every clique of commuting actions once
    or refuses it, so a violation is a refused clique of two or more
    actions none of whose single actions or pairs is refused: a set of
    pairwise-compatible actions that cannot run simultaneously.  Each is
    reported as (vertex state, sorted actions), by vertex id, then in
    lexicographic order of the sorted actions.  The link of every vertex
    comes from ``link``; a vertex with no refused clique has no violation.
    """
    if complex_.truncated:
        raise BuildTruncatedError(
            "link condition needs the full complex; build hit its vertex cap"
        )
    violations = []
    for vid in range(complex_.n_vertices):
        state = complex_.vertex_state(vid)
        lnk = link(complex_, state)
        refused = lnk.refused
        if not refused:
            continue
        found = []
        for mask in refused:
            idx = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
            # with a refused single action (i == j) or pair, it is no link clique
            pairs = (1 << i | 1 << j for p, i in enumerate(idx) for j in idx[p:])
            if len(idx) < 2 or any(m in refused for m in pairs):
                continue
            found.append(tuple(lnk.actions[i] for i in idx))
        violations.extend((state, acts) for acts in sorted(found))
    return LinkConditionReport(not violations, tuple(violations))
