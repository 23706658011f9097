"""Built-in systems: pivoting hexagons, sliding squares, a planar arm,
and tokens on a graph, plus small frozen fixtures used by the tests.

Each constructor returns either a bare ``System`` (caller picks seeds)
or a ``SystemFile`` bundling the system with its canonical seed states.
"""

from __future__ import annotations

from itertools import combinations

from . import lattice as lat
from .errors import ModelError
from .model import Generator, System, SystemFile, Workspace
from .statecomplex import CubeComplex, state_key

VARIANT_CHANGING = "topologyChanging"
VARIANT_PRESERVING = "topologyPreserving"


# -- pivoting hexagons ---------------------------------------------------

def hex_pivot_generators(variant: str) -> tuple:
    """Six rotated copies of the single-module pivot.

    A module at ``a`` rolls around its occupied neighbor ``b`` into the
    cell ``c`` adjacent to both.  The topology-preserving flavor keeps
    the aggregate's connectivity in both directions: every cell touching
    the start or the end position must be empty unless it also touches
    the pivot, so whatever the mover lets go of stays held by ``b``.
    """
    if variant not in (VARIANT_CHANGING, VARIANT_PRESERVING):
        raise ModelError(f"unknown hex pivot variant {variant!r}")
    a, b, c = (0, 0), (1, 0), (0, 1)
    base = {a, b, c}
    if variant == VARIANT_PRESERVING:
        nbrs = lat.hex_lattice().neighbors
        guard = set(nbrs(a)) | set(nbrs(c))
        guard -= set(nbrs(b))
        guard -= {a, b, c}
        base |= guard
    cells = tuple(sorted(base))
    gens = []
    img = {p: p for p in cells}
    for k in range(6):
        gens.append(
            Generator(
                f"pivot{k}",
                tuple(img[p] for p in cells),
                frozenset((img[a], img[c])),
                frozenset((img[a], img[b])),
                frozenset((img[b], img[c])),
            )
        )
        img = {p: lat.rot60(q) for p, q in img.items()}
    return tuple(gens)


def hex_pivot_system(
    variant: str,
    cells=None,
    obstacles=(),
    constraint_name: str | None = None,
) -> System:
    """Pivoting hexagons in a workspace (None = unbounded, for shapes)."""
    ws_cells = None if cells is None else frozenset(cells)
    workspace = Workspace(lat.hex_lattice(), ws_cells, tuple(obstacles))
    return System(workspace, hex_pivot_generators(variant), constraint_name)


def hex_ball(radius: int) -> frozenset:
    """All hex cells within a given hex distance of the origin."""
    out = set()
    for q in range(-radius, radius + 1):
        for r in range(-radius, radius + 1):
            if max(abs(q), abs(r), abs(q + r)) <= radius:
                out.add((q, r))
    return frozenset(out)


# -- sliding squares -----------------------------------------------------

def _slide_variants(k: int) -> list:
    """Admissible flank occupancy patterns for a block of k squares.

    Flanks are the cells directly above and below the swept columns
    1..k+1.  A pattern must touch the block before and after the move,
    and a lone rear flank may not hang behind the vacated column: if
    column 1 is flanked, column 2 on the same side must be too.  So a
    pattern touching columns 1..k touches columns 2..k+1 as well.
    """
    flanks = [(i, s) for s in (1, -1) for i in range(1, k + 2)]
    out = []
    for bits in range(1 << len(flanks)):
        fset = frozenset(f for n, f in enumerate(flanks) if (bits >> n) & 1)
        if (1, 1) in fset and (2, 1) not in fset:
            continue
        if (1, -1) in fset and (2, -1) not in fset:
            continue
        if not any((i, s) in fset for i in range(1, k + 1) for s in (1, -1)):
            continue
        out.append(tuple(sorted(fset)))
    return sorted(out)


def sliding_generators(kmax: int) -> tuple:
    if kmax < 0:
        raise ModelError("sliding squares need kmax >= 0")
    gens = []
    for k in range(1, kmax + 1):
        row = [(i, 0) for i in range(k + 3)]
        trace = [(i, 0) for i in range(1, k + 2)]
        blk0 = [(i, 0) for i in range(1, k + 1)]
        blk1 = [(i, 0) for i in range(2, k + 2)]
        for axis, tag in ((0, "ew"), (1, "ns")):
            rot = (lambda c: c) if axis == 0 else (lambda c: (-c[1], c[0]))
            for v, fpat in enumerate(_slide_variants(k)):
                fcells = [(i, s) for i, s in fpat]
                support = tuple(rot(c) for c in row + [(i, s) for s in (1, -1) for i in range(1, k + 2)])
                gens.append(
                    Generator(
                        f"slide{k}{tag}{v}",
                        support,
                        frozenset(rot(c) for c in trace),
                        frozenset(rot(c) for c in blk0 + fcells),
                        frozenset(rot(c) for c in blk1 + fcells),
                    )
                )
    return tuple(gens)


def sliding_ring_fixture(p: int, q: int) -> SystemFile:
    """Two free squares hugging a p-by-q wall of pinned squares.

    The free squares can shuttle around the wall; the margin leaves
    room for every flanked slide placement near the wall.
    """
    if p < 1 or q < 1:
        raise ModelError("the wall needs positive dimensions")
    wall = [(i, j) for i in range(p) for j in range(q)]
    cells = frozenset(
        (x, y) for x in range(-3, p + 3) for y in range(-3, q + 3)
    )
    obstacles = tuple((c, 1) for c in sorted(wall))
    system = System(
        Workspace(lat.square_lattice(), cells, obstacles),
        sliding_generators(2),
    )
    seed = frozenset([(0, q), (1, q)]) | frozenset(wall)
    return SystemFile(system, (seed,))


# -- planar robotic arm --------------------------------------------------

H = lat.HORIZONTAL
V = lat.VERTICAL


def arm_generators() -> tuple:
    """Corner swap and end-segment rotation for a monotone staircase arm.

    The corner swap exchanges an east-then-north elbow with the
    north-then-east one.  The end rotation turns the last segment
    between east and north; its four forward support cells are required
    empty, which is what confines it to the free end of the arm.
    """
    corner = Generator(
        "corner",
        ((0, 0, H), (0, 0, V), (0, 1, H), (1, 0, V)),
        frozenset(((0, 0, H), (0, 0, V), (0, 1, H), (1, 0, V))),
        frozenset(((0, 0, H), (1, 0, V))),
        frozenset(((0, 0, V), (0, 1, H))),
    )
    tip = Generator(
        "tipflip",
        ((0, 0, H), (0, 0, V), (1, 0, H), (1, 0, V), (0, 1, H), (0, 1, V)),
        frozenset(((0, 0, H), (0, 0, V))),
        frozenset(((0, 0, H),)),
        frozenset(((0, 0, V),)),
    )
    return (corner, tip)


def arm_system(n: int) -> SystemFile:
    """An n-segment arm anchored at the origin of the first quadrant."""
    if n < 1:
        raise ModelError("the arm needs at least one segment")
    cells = frozenset(
        (x, y, o)
        for x in range(n + 1)
        for y in range(n + 1)
        for o in (H, V)
        if x + y <= n
    )
    system = System(Workspace(lat.square_edge_lattice(), cells), arm_generators())
    seed = frozenset((i, 0, H) for i in range(n))
    return SystemFile(system, (seed,))


# -- independent word model of the arm ------------------------------------

def _word_touch(move) -> frozenset:
    if move[0] == "swap":
        return frozenset((move[1], move[1] + 1))
    return frozenset((move[1],))


def _flipped(word: frozenset, flips, mask: int) -> frozenset:
    """The word with the positions of the masked moves toggled: a move
    flips exactly the positions it touches."""
    for j, touched in enumerate(flips):
        if (mask >> j) & 1:
            word = word ^ touched
    return word


def word_cube_key(moves, corner: frozenset) -> tuple:
    touched = frozenset()
    for m in moves:
        touched |= _word_touch(m)
    return (tuple(sorted(moves)), tuple(sorted(corner - touched)))


def arm_word_complex(n: int) -> CubeComplex:
    """The arm's configuration space built straight from letter words.

    A word over {east, north} of length n is stored as the set of
    positions holding north.  Swapping adjacent unequal letters and
    flipping the last letter generate the moves; sets of moves touching
    pairwise disjoint positions span cubes.  No machinery from the
    state-complex builder is involved, so this is a genuinely separate
    route to the same space.  A cube found from several words is merged
    by ``word_cube_key``, which reads the same at every corner, so it
    also names the cube in the listing.  Actions are numbered in sort order.
    """
    if n < 1:
        raise ModelError("the arm needs at least one segment")
    cx = CubeComplex(name=word_cube_key)
    cx.actions = sorted([("flip", n)] + [("swap", i) for i in range(1, n)])
    number = {move: i for i, move in enumerate(cx.actions)}
    words = []
    for r in range(n + 1):
        for combo in combinations(range(1, n + 1), r):
            words.append(frozenset(combo))
    for w in sorted(words, key=state_key):
        cx._add_vertex(w)
    moves_of = []
    for w in words:
        moves = [
            ("swap", i)
            for i in range(1, n)
            if (i in w) + (i + 1 in w) == 1
        ]
        moves.append(("flip", n))
        moves_of.append((w, moves))
    # size by size, so every facet is stored before its cube
    index = [None]
    for size in range(1, n + 1):
        index.append({})
        for w, moves in moves_of:
            for chosen in combinations(moves, size):
                touched = [_word_touch(m) for m in chosen]
                if len(frozenset().union(*touched)) < sum(map(len, touched)):
                    continue
                key = word_cube_key(chosen, w)
                if key in index[size]:
                    continue
                masks = range(1 << size)
                base = min((_flipped(w, touched, m) for m in masks), key=state_key)
                acts = tuple(sorted(chosen))
                flips = [_word_touch(m) for m in acts]
                corners = tuple(cx.vertex_vid(_flipped(base, flips, m)) for m in masks)
                facets = corners  # an edge's facets are its corners
                if size > 1:
                    facets = [
                        index[size - 1][word_cube_key(acts[:j] + acts[j + 1 :], corner)]
                        for j in range(size)
                        for corner in (base, base ^ flips[j])
                    ]
                numbers = [number[m] for m in acts]
                index[size][key] = cx._append(size, corners, facets, numbers)
    return cx


def word_edges(word: frozenset, n: int) -> frozenset:
    """The arm state spelled by a word (north at the positions given)."""
    x = y = 0
    cells = []
    for i in range(1, n + 1):
        if i in word:
            cells.append((x, y, V))
            y += 1
        else:
            cells.append((x, y, H))
            x += 1
    return frozenset(cells)


# -- tokens on a finite graph ---------------------------------------------

def token_generator() -> Generator:
    return Generator(
        "token",
        ("a", "b"),
        frozenset(("a", "b")),
        frozenset(("a",)),
        frozenset(("b",)),
        (("a", "b"),),
    )


def complete_graph(n: int) -> lat.Lattice:
    nodes = tuple(range(n))
    edges = tuple(combinations(nodes, 2))
    return lat.graph_lattice(nodes, edges)


def disjoint_paths(*lengths: int) -> lat.Lattice:
    """Disjoint union of path graphs; node ``pT.I`` is position I on path T."""
    nodes = []
    edges = []
    for t, ln in enumerate(lengths):
        nodes.extend(f"p{t}.{i}" for i in range(ln))
        edges.extend((f"p{t}.{i}", f"p{t}.{i + 1}") for i in range(ln - 1))
    return lat.graph_lattice(tuple(nodes), tuple(edges))


def graph_agv_system(graph: lat.Lattice, n_tokens: int) -> SystemFile:
    """Indistinguishable tokens sliding along the edges of a graph."""
    nodes = sorted(graph.nodes)
    if not 0 <= n_tokens <= len(nodes):
        raise ModelError("token count must be between 0 and the node count")
    system = System(Workspace(graph, frozenset(nodes)), (token_generator(),))
    return SystemFile(system, (frozenset(nodes[:n_tokens]),))


def agv_grid_fixture(m: int, n: int) -> SystemFile:
    """One token on each of two disjoint paths of m resp. n edges.

    The tokens never interact, so the reachable complex is an exact
    m-by-n grid of squares: a handy combinatorial oracle.
    """
    if m < 1 or n < 1:
        raise ModelError("paths need at least one edge each")
    graph = disjoint_paths(m + 1, n + 1)
    system = System(Workspace(graph, frozenset(graph.nodes)), (token_generator(),))
    seed = frozenset(("p0.0", "p1.0"))
    return SystemFile(system, (seed,))


# -- a connectivity trap for the link condition ----------------------------

# Three pivots around this 13-module configuration pairwise preserve
# connectivity but disconnect it when run together, so the cube they
# would span is missing from the complex.  Found by brute force over
# threefold-symmetric configurations; frozen here so the fixture is
# stable.  The extra cells are the three pivot targets.
HEX_TRAP_STATE: frozenset = frozenset(
    [
        (-2, 0), (-2, 1), (-2, 2), (-1, 0), (0, -2), (0, 0), (0, 1),
        (0, 2), (1, -2), (1, -1), (1, 1), (2, -2), (2, 0),
    ]
)
HEX_TRAP_EXTRA_CELLS: frozenset = frozenset([(-1, -1), (2, -1), (-1, 2)])
HEX_TRAP_MOVERS: frozenset = frozenset([(-1, 0), (1, -1), (0, 1)])


def hex_connectivity_trap(constrained: bool = True) -> SystemFile:
    """A hex system whose connectivity constraint breaks the link condition.

    With ``constrained=False`` the same workspace and seed give a local
    system, whose complex satisfies the condition; the contrast is the
    whole point of the fixture.
    """
    cells = HEX_TRAP_STATE | HEX_TRAP_EXTRA_CELLS
    system = hex_pivot_system(
        VARIANT_CHANGING,
        cells,
        constraint_name="connected" if constrained else None,
    )
    return SystemFile(system, (HEX_TRAP_STATE,))
