"""Cube complexes over reachable states.

The builder closes a set of seed states under admissible actions, then
enumerates one k-cube for every set of k pairwise-commuting actions
admissible at a reached state.  A cube is a set of commuting placements
plus the state off their supports, so it has exactly one *all-forward
corner*, where every placement sits in its forward source pattern.  A
vertex is found by its state; while the builder runs, a cube's key is
that corner's vertex id followed by the numbers its actions read there,
which name its placements in that corner's frame.  Every corner reaches
the same key, so a cube found from different corners is stored once.

The closure records every edge it finds: per vertex, the numbers of
its leaving actions and the vertex each reaches.  Edges are stored off
that record, and a larger cube's corners are found by walking it,
reading its actions' numbers at each corner, so no corner state is
rebuilt; the base corner is picked by a rank of the vertices' state
keys, computed once.  A clique is keyed at its all-forward corner and
walked to every corner only when its key is new.

One builder serves plain and quotient complexes alike.  A *frame* tells
it how states are named: which actions leave a state, which canonical
representative stands for a state, how actions are numbered and what
translation carries them into the frame of the state they reach, and
how a cube is keyed from those numbers.  The plain frame names every state
by itself; ``shape`` supplies the translation frame.  Either way the
result is a ``CubeComplex`` that keeps its frame.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import (
    BuildTruncatedError,
    CubeplanError,
    ModelError,
    StateError,
)
from .model import (
    System,
    _rewrite,
    admissible_actions,
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
    """One cell of a cube complex, as ``CubeComplex.cell`` reads it.

    ``base`` is the corner whose canonical state has the least state
    key; only a quotient can give two corners the same one, and then the
    one reading the least actions wins.  A vertex's base is its state.
    ``actions`` are expressed from the base, in its frame; they are born
    sorted (see ``_store_cube``).  ``corners`` lists vertex ids in
    bitmask order, bit i meaning action i has been applied, so the base
    is the state of corner 0; ``facets`` holds the positions of the
    2*dim facets among the (dim-1)-cells, as (near_i, far_i) pairs,
    flattened.  A complex keeps no records: ``cell`` builds one on
    demand.
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
    dimension down.  A vertex is kept as its state alone, and found by
    it.  The k-cells (k >= 1) are kept column by column in flat integer
    arrays: 2^k corner vids per cell in ``_corners[k]``, 2k facet
    numbers in ``_facets[k]`` (an edge's facets are its corners, so
    ``_facets[1]`` is ``_corners[1]``) and k action numbers in
    ``_numbers[k]``, which ``actions`` resolves.  A cell's base is the
    state of its corner 0.  ``cell`` builds a ``CellRecord`` from these
    on demand.  ``cell``, ``corners`` and ``facets`` read cell i as
    ``range(n_cells(k))[i]`` does: a negative i counts from the end, and
    an i or k out of range raises ``IndexError``.  A cell is printed by
    ``name(actions, base)``; a cube's key, which merges one cube found
    from several corners, lives only while the complex is assembled.

    Only its assembler writes a complex, through ``_add_vertex`` and
    ``_append``; once returned it is read-only.  The builder also hands
    it its ``frame``, whose ``system`` the complex moves in, and the
    frame's action list as ``actions``.
    """

    def __init__(self, name=cube_key):
        self._states: list = []
        self._vid: dict = {}
        self._corners: list = [None]
        self._facets: list = [None]
        self._numbers: list = [None]
        self.actions: list = []  # number -> action
        self.name = name
        self.truncated: bool = False
        # how states and cubes are named; None for a complex assembled
        # by hand, which has no system to move in
        self.frame = None
        # derived views: the printed names, built on first use, and the
        # builder's clique record in ``_links``: per vertex, its leaving
        # actions' numbers and their commute bitmasks, and the cliques of
        # vertices that have any that span no cube
        self._links: tuple | None = None
        self._names: list | None = None

    # -- construction -------------------------------------------------

    def _add_vertex(self, state: frozenset) -> int:
        vid = self._vid.get(state)
        if vid is None:
            vid = self._vid[state] = len(self._states)
            self._states.append(state)
        return vid

    def _append(self, k: int, corners, facets, numbers) -> int:
        """Store a k-cell's 2^k corners, 2k facets (an edge's are its
        corners) and k action numbers last in its dimension."""
        while self.max_dim < k:
            dim, corners_k = len(self._corners), array("i")
            self._corners.append(corners_k)
            self._facets.append(corners_k if dim == 1 else array("i"))
            self._numbers.append(array("i"))
        self._corners[k].extend(corners)
        if k > 1:
            self._facets[k].extend(facets)
        self._numbers[k].extend(numbers)
        return (len(self._corners[k]) >> k) - 1

    # -- cell access ---------------------------------------------------

    @property
    def max_dim(self) -> int:
        return len(self._corners) - 1

    def n_cells(self, k: int) -> int:
        if k == 0:
            return len(self._states)
        return len(self._corners[k]) >> k if 0 < k <= self.max_dim else 0

    def _read(self, k: int, i: int) -> tuple:
        """Cell i's actions and base."""
        acts = self.actions
        numbers = self._numbers[k][k * i : k * i + k]
        return (
            tuple([acts[n] for n in numbers]),
            self._states[self._corners[k][i << k]],
        )

    def cell_keys(self, k: int) -> list:
        """Printed names in number order: ``name`` read at each cell's
        base corner, rendered once per dimension."""
        if self._names is None:
            name, read = self.name, self._read
            self._names = [[name((), state) for state in self._states]]
            for j in range(1, self.max_dim + 1):
                self._names.append([name(*read(j, i)) for i in range(self.n_cells(j))])
        return list(self._names[k]) if 0 <= k <= self.max_dim else []

    def cells(self, k: int) -> list:
        return [self.cell(k, i) for i in range(self.n_cells(k))]

    def cell(self, k: int, i: int) -> CellRecord:
        i = range(self.n_cells(k))[i]
        if k == 0:
            return CellRecord(0, self._states[i], (), (i,), ())
        actions, base = self._read(k, i)
        corners = self.corners(k, i)
        # an edge's facets are its corners, in the same order: one tuple
        facets = corners if k == 1 else self.facets(k, i)
        return CellRecord(k, base, actions, corners, facets)

    def corners(self, k: int, i: int) -> tuple:
        i = range(self.n_cells(k))[i]
        return tuple(self._corners[k][i << k : (i + 1) << k]) if k else (i,)

    def facets(self, k: int, i: int) -> tuple:
        i = range(self.n_cells(k))[i]
        return tuple(self._facets[k][2 * k * i : 2 * k * (i + 1)]) if k else ()

    def facet_column(self, k: int) -> memoryview:
        """Every k-cell's ``facets``, read-only: cell i's are items 2k*i
        to 2k*(i + 1).  Empty for k with no facets or no cells."""
        column = self._facets[k] if 0 < k <= self.max_dim else array("i")
        return memoryview(column).toreadonly()

    # -- vertices ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self._states)

    def vertex_vid(self, state) -> int:
        state = frozenset(state)
        vid = self._vid.get(state)
        if vid is None:
            raise CubeplanError(
                f"state {state_key(state)!r} is not a vertex of the complex"
            )
        return vid

    def vertex_state(self, vid: int) -> frozenset:
        return self._states[vid]

    # -- derived views -------------------------------------------------

    def square_boundary(self, i: int) -> list:
        """The four directed edges around square i, as (edge, sign).

        Read from the square's own columns: its facets are stored as
        (a1 at base, a1 at a0, a0 at base, a0 at a1) and its corners in
        bitmask order.  The traversal runs base -> a0 -> a0+a1 -> a1 ->
        base; the sign is +1 when the step starts at the edge's own base
        corner.
        """
        f, c = self.facets(2, i), self.corners(2, i)
        walk = ((f[2], c[0]), (f[1], c[1]), (f[3], c[3]), (f[0], c[2]))
        ends = self._corners[1]
        return [(e, 1 if ends[2 * e] == start else -1) for e, start in walk]


class PlainFrame:
    """The frame of a plain state complex: every state names itself."""

    def __init__(self, system: System):
        self.system = system
        # an action's number is its position in the catalogue, which lists
        # placement i forward at position 2i, then backward at 2i + 1
        self.actions = system.all_actions
        self.position = {a: i for i, a in enumerate(self.actions)}

    def actions_at(self, state: frozenset) -> list:
        return admissible_actions(state, self.system)

    def canonical(self, state: frozenset) -> frozenset:
        return state

    def leaving(self, state: frozenset, actions) -> tuple:
        """The actions' numbers, the states they reach and the
        translations into those states' frames: None, since every plain
        state is its own frame.  ``actions_at`` admitted the actions."""
        position = self.position
        numbers = tuple([position[a] for a in actions])
        return numbers, [_rewrite(state, a) for a in actions], None

    def cube_key(self, vid: int, numbers: tuple) -> tuple:
        """The key of the cube whose actions read ``numbers`` at its
        all-forward corner, vertex vid."""
        return vid, numbers


def _extend_cliques(adjacency, clique: tuple, candidates: int, size: int, out: list) -> bool:
    """Append to ``out`` the cliques of the given size that extend
    ``clique`` by some of the candidates, in lexicographic order.  True
    when a clique one larger holds one of those appended.  ``adjacency``
    holds the graph as bitmasks."""
    grows = False
    c = candidates
    while c:
        low = c & (-c)
        i = low.bit_length() - 1
        c ^= low
        new = clique + (i,)
        common = c & adjacency[i]
        if len(new) == size:
            out.append(new)
            grows = grows or common != 0
        elif len(new) + common.bit_count() >= size:
            grows = _extend_cliques(adjacency, new, common, size, out) or grows
    return grows


def _cliques_of_size(adjacency: tuple, size: int) -> tuple:
    """The cliques of one size, in lexicographic order, and whether a
    clique one larger holds one of them."""
    out = []
    grows = _extend_cliques(adjacency, (), (1 << len(adjacency)) - 1, size, out)
    return out, grows


def _mask(clique) -> int:
    return sum(1 << i for i in clique)


class _Edges:
    """The edges the closure found, kept while cubes are enumerated.

    Per vertex, ``numbers`` holds its leaving actions' numbers in the
    frame, and parallel to them ``successors`` the vids they reach (None
    past the cap) and ``shifts`` the translation each applies into its
    successor's frame (None for none, and None in place of the tuple
    when no action translates).  ``numbers`` outlives the build in the
    complex's link record.  A cube of two or more actions is walked by
    the numbers its actions read at each corner: running one is an
    integer ``tuple.index`` and one successor look-up.
    """

    __slots__ = ("frame", "numbers", "successors", "shifts")

    def __init__(self, frame):
        self.frame = frame
        self.numbers, self.successors, self.shifts = [], [], []

    def step(self, vid: int, numbers: tuple, b: int) -> tuple | None:
        """The corner action b reaches from the corner at vertex vid where
        the cube's actions read ``numbers``: (its vid, the numbers read
        there), or None when that corner is not a vertex."""
        try:
            i = self.numbers[vid].index(numbers[b])
        except ValueError:
            # not admissible here, so its result breaks the constraint
            return None
        reached = self.successors[vid][i]
        if reached is None:
            return None
        numbers = (*numbers[:b], numbers[b] ^ 1, *numbers[b + 1 :])
        shifts = self.shifts[vid]
        if shifts is not None and shifts[i] is not None:
            numbers = self.frame.carry(numbers, shifts[i])
            if numbers is None:
                return None
        return reached, numbers

    def all_forward(self, vid: int, numbers: tuple) -> tuple | None:
        """The cube's all-forward corner, reached from vertex vid by
        running the actions that read backward there, as ``step`` gives
        it; None past a corner that is not a vertex."""
        corner = (vid, numbers)
        for b, n in enumerate(numbers):
            if n & 1:
                corner = self.step(*corner, b)
                if corner is None:
                    return None
        return corner

    def corners(self, vid: int, numbers: tuple) -> tuple | None:
        """Every corner's vid and the numbers read there, as two lists in
        bitmask order from the corner at vertex vid, bit i meaning action
        i has run; None at the first corner that is not a vertex."""
        step, vids, read = self.step, [vid], [numbers]
        for m in range(1, 1 << len(numbers)):
            low = m & -m
            corner = step(vids[m ^ low], read[m ^ low], low.bit_length() - 1)
            if corner is None:
                return None
            vids.append(corner[0])
            read.append(corner[1])
        return vids, read


def _store_cube(cx: CubeComplex, rank: list, below: dict, vids: list, numbers: list) -> int:
    """Store a new cube from its corners in bitmask order from its
    all-forward corner: their vids and the numbers its actions read at
    each, as ``_Edges.corners`` gives them.  Returns its position.

    The base is the corner whose vertex ranks least by state key; only a
    quotient can put two corners on one vertex, and then the one reading
    the least actions wins.  Actions are those leaving the base, in its
    frame.  They stay sorted: no two share a placement, as its two
    directions never commute, and a plain frame only flips directions
    while a quotient shifts every offset by one vector.  So bit i names
    one placement at every corner, and the base's corner m is the walk's
    corner ``base ^ m``.  Each facet is keyed at its own all-forward
    corner, the walk's corner 0 or 1 << j, and found in ``below``, the
    keys of the cubes one dimension down: its corners are the cube's,
    all vertices, so the pass before stored it.
    """
    cube_key = cx.frame.cube_key
    k = len(numbers[0])
    ranks = [rank[vid] for vid in vids]
    base = ranks.index(min(ranks))
    if vids.count(vids[base]) > 1:
        acts = cx.actions
        ties = [m for m in range(1 << k) if vids[m] == vids[base]]
        base = min(ties, key=lambda m: [acts[n] for n in numbers[m]])
    corners = [vids[base ^ m] for m in range(1 << k)]
    facets = corners
    if k > 1:
        facets = []
        for j in range(k):
            bit = 1 << j
            for corner in (base & bit, ~base & bit):
                sub = numbers[corner][:j] + numbers[corner][j + 1 :]
                facets.append(below[cube_key(vids[corner], sub)])
    return cx._append(k, corners, facets, numbers[base])


def _build(frame, seeds, cap: int) -> CubeComplex:
    """Breadth-first closure of the seeds, then cube enumeration.

    States are named through the frame, which the complex keeps.  Stops
    discovering new states at ``cap`` vertices and marks the result
    truncated; cubes are then restricted to fully-visited corner sets.

    The closure records every edge it finds (see ``_Edges``): per
    vertex, its leaving actions' numbers, the vids they reach and, in a
    quotient, the translation into each successor's frame, which
    carries a cube's numbers across the edge.  Both frames number
    placement i's forward action 2i and its backward 2i + 1, so running
    an action flips its number's low bit.  After the closure each vertex
    is ranked once by its state key.

    Cubes are then enumerated one dimension at a time, each vertex's
    k-cliques of commuting actions in pass k, so every facet is stored
    before its cube.  Pass 1 walks no edge: one to a lower vertex w was
    met at w, as the reverse move is admissible at w and reaches this
    vertex; one past the cap, or whose step's ``carry`` refuses, is
    refused; any other is keyed at its all-forward end and stored if
    that key is new, like any cube, so a loop, only in a quotient, is
    found stored at its second reading.  In pass k >= 2 a clique is
    walked along the recorded successors: first to its all-forward
    corner, where the frame's ``cube_key`` of its vid and the numbers
    read there keys the cube, and, only for a key not yet stored, to
    every corner (see ``_store_cube``), whose columns it appends to the
    complex's arrays.  So each cube is stored by the first clique
    reaching it, in vid order, then in clique order at the vertex.  No
    state is rebuilt or canonicalized per corner, and no record is
    made.  ``stored`` maps the key of each cube stored in the pass to
    its position, merging a cube found from several corners, and
    ``below`` the pass before's, to find facets.  The successors,
    shifts, ranks and keys die when the build returns.

    Each clique of commuting actions at a vertex either spans a cube or
    is refused, so the build leaves its refusals behind as the complex's
    link record: per vertex, its leaving actions' numbers, their commute
    bitmasks and the cliques that span no cube.  No clique spans two
    cubes.  A cube is fixed by one corner and the actions leaving it, so
    two cubes spanning one clique at one vertex are one cube read at two
    of its corners.  Distinct corners hold distinct states, so only a
    quotient lets them name one vertex, and then the nonzero lattice
    translation between them maps the cube's finite corner set onto
    itself, which no nonzero translation of Z^2 does.
    """
    cx = CubeComplex()
    cx.frame, cx.actions = frame, frame.actions
    system, vertex = frame.system, cx._vid

    def reach(state):
        if cx.n_vertices < cap:
            return cx._add_vertex(state)
        vid = vertex.get(state)
        if vid is None:
            cx.truncated = True
        return vid

    for s in seeds:
        occ = frame.canonical(system.workspace.check_state(s))
        if not system.constraint_holds(occ):
            raise StateError("seed state violates the system's global constraint")
        reach(occ)

    # vertices are expanded in the order they were added; ``adjacency``
    # holds each one's commute bitmasks
    edges, adjacency = _Edges(frame), []
    while len(adjacency) < cx.n_vertices:
        state = cx.vertex_state(len(adjacency))
        acts = frame.actions_at(state)
        numbers, reached, shifts = frame.leaving(state, acts)
        edges.successors.append(tuple(map(reach, reached)))
        edges.numbers.append(numbers)
        edges.shifts.append(shifts)
        n = len(acts)
        commuting = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if commute_pair(acts[i], acts[j]):
                    commuting[i] |= 1 << j
                    commuting[j] |= 1 << i
        adjacency.append(tuple(commuting))

    # the vertex index's own int objects stand for the vids, and for
    # their ranks in state-key order, so the ranks add none
    vids = list(vertex.values())
    rank = [0] * len(vids)
    by_key = sorted(vids, key=lambda vid: state_key(cx.vertex_state(vid)))
    for r, vid in enumerate(by_key):
        rank[vid] = vids[r]

    # every vertex satisfies a global constraint (seeds are checked and
    # successors admissible), so a cube whose corners are all vertices
    # satisfies it at every corner.  ``refused`` keeps, per vertex, the
    # cliques that span no cube; pass k visits the vertices with k-cliques
    refused: dict = {}
    all_forward, cube_key = edges.all_forward, frame.cube_key
    stored, alive = {}, []
    for vid in vids:
        numbers = edges.numbers[vid]
        for i, w in enumerate(edges.successors[vid]):
            if w is not None and w < vid:
                continue  # w listed the reverse move first and stored the edge
            here = (vid, (numbers[i],))
            there = None if w is None else edges.step(*here, 0)
            if there is None:
                refused.setdefault(vid, set()).add(1 << i)
                continue
            ends = (there, here) if numbers[i] & 1 else (here, there)
            key = cube_key(*ends[0])
            if key not in stored:
                stored[key] = _store_cube(cx, rank, None, *zip(*ends))
        if any(adjacency[vid]):
            alive.append(vid)
    k, below = 1, stored
    while alive:
        k, stored, still = k + 1, {}, []
        for vid in alive:
            cliques, grows = _cliques_of_size(adjacency[vid], k)
            if grows:
                still.append(vid)
            numbers = edges.numbers[vid]
            for clique in cliques:
                corner = all_forward(vid, tuple(map(numbers.__getitem__, clique)))
                if corner is not None:
                    key = cube_key(*corner)
                    if key in stored:
                        continue
                    corners = edges.corners(*corner)
                    if corners is not None:
                        stored[key] = _store_cube(cx, rank, below, *corners)
                        continue
                refused.setdefault(vid, set()).add(_mask(clique))
        below, alive = stored, still
    refused = {vid: frozenset(masks) for vid, masks in refused.items()}
    cx._links = (edges.numbers, adjacency, refused)
    return cx


def build_complex(system: System, seeds, max_vertices: int = 1_000_000) -> CubeComplex:
    """Build the state complex reachable from the seeds.

    Stops discovering new states at ``max_vertices`` and marks the
    result truncated.
    """
    if not system.workspace.is_finite:
        raise ModelError("WorkspaceNotFinite: complex building needs a finite workspace")
    return _build(PlainFrame(system), seeds, max_vertices)


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
    that span no cube, as bitmasks over ``actions``.
    """

    state: frozenset
    actions: tuple
    adjacency: tuple
    refused: frozenset


def link(complex_: CubeComplex, vertex_state) -> LinkComplex:
    """Link of a vertex: one simplex per incident cube of dimension >= 1,
    at each corner the cube has on the vertex.

    Read from the per-vertex clique record the builder leaves behind.  A
    complex without one, assembled by hand, is refused with
    ``CubeplanError``.
    """
    if complex_._links is None:
        raise CubeplanError(
            "links are read from a build's record; this complex was "
            "assembled by hand"
        )
    numbers, adjacency, refused = complex_._links
    state = frozenset(vertex_state)
    vid = complex_.vertex_vid(state)
    acts = complex_.actions
    return LinkComplex(
        state,
        tuple([acts[n] for n in numbers[vid]]),
        adjacency[vid],
        refused.get(vid, frozenset()),
    )


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
