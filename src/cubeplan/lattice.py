"""Lattice geometries that rewrite systems live on.

Four kinds are supported: the square grid, the hexagonal grid in axial
coordinates, the grid of unit edges of the square lattice (cells are the
edges, not the squares), and an explicit finite graph.  The first three
are translation-symmetric with rank 2; a finite graph has no translations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ModelError

SQUARE = "square2d"
HEX = "hexAxial2d"
SQUARE_EDGE = "squareEdge2d"
GRAPH = "finiteGraph"

KINDS = (SQUARE, HEX, SQUARE_EDGE, GRAPH)

# orientation component of a squareEdge cell (x, y, o)
HORIZONTAL = 0
VERTICAL = 1

# axial-coordinate displacements of the six hex neighbours
HEX_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def rot60(cell):
    """Rotate an axial hex coordinate 60 degrees counterclockwise."""
    q, r = cell
    return (-r, q + r)


def _is_int_pair(cell):
    return (
        isinstance(cell, tuple)
        and len(cell) == 2
        and all(isinstance(c, int) and not isinstance(c, bool) for c in cell)
    )


@dataclass(frozen=True)
class Lattice:
    """Adjacency structure for cells.

    For ``finiteGraph`` kind, ``nodes`` and ``edges`` describe the graph;
    node labels must be hashable and mutually orderable.  The other kinds
    ignore both fields.
    """

    kind: str
    nodes: tuple = ()
    edges: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown lattice kind {self.kind!r}")
        if self.kind == GRAPH:
            if not self.nodes:
                raise ModelError("finiteGraph lattice needs at least one node")
            node_set = set(self.nodes)
            if len(node_set) != len(self.nodes):
                raise ModelError("duplicate graph nodes")
            if len({type(n) for n in node_set}) > 1:
                raise ModelError("node labels mix integer and string labels")
            norm = set()
            for i, e in enumerate(self.edges):
                if len(e) != 2 or e[0] == e[1]:
                    raise ModelError(f"bad graph edge {e!r}", index=i)
                a, b = e
                if a not in node_set or b not in node_set:
                    raise ModelError(f"graph edge {e!r} uses unknown node", index=i)
                edge = (a, b) if a <= b else (b, a)
                if edge in norm:
                    raise ModelError("duplicate graph edges", index=i)
                norm.add(edge)
            object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
            object.__setattr__(self, "edges", tuple(sorted(norm)))
        elif self.nodes or self.edges:
            raise ModelError(f"{self.kind} lattice takes no nodes/edges")

    def is_cell(self, cell) -> bool:
        """Structural validity of a cell for this lattice."""
        if self.kind == SQUARE or self.kind == HEX:
            return _is_int_pair(cell)
        if self.kind == SQUARE_EDGE:
            return (
                isinstance(cell, tuple)
                and len(cell) == 3
                and _is_int_pair(cell[:2])
                and cell[2] in (HORIZONTAL, VERTICAL)
            )
        return cell in self._node_set

    @cached_property
    def _node_set(self):
        return frozenset(self.nodes)

    @cached_property
    def _graph_adj(self):
        adj = {n: set() for n in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {n: tuple(sorted(s)) for n, s in adj.items()}

    def neighbors(self, cell) -> tuple:
        # literal tuples build faster than ones generated from a table
        if self.kind == SQUARE:
            x, y = cell
            return ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1))
        if self.kind == HEX:
            q, r = cell  # in HEX_DIRS order
            return (
                (q + 1, r),
                (q, r + 1),
                (q - 1, r + 1),
                (q - 1, r),
                (q, r - 1),
                (q + 1, r - 1),
            )
        if self.kind == SQUARE_EDGE:
            out = set()
            for px, py in self.endpoints(cell):
                out.update(((px, py, HORIZONTAL), (px - 1, py, HORIZONTAL)))
                out.update(((px, py, VERTICAL), (px, py - 1, VERTICAL)))
            out.discard(cell)
            return tuple(sorted(out))
        return self._graph_adj[cell]

    def endpoints(self, cell):
        """The two lattice points of a squareEdge cell."""
        x, y, o = cell
        if o == HORIZONTAL:
            return ((x, y), (x + 1, y))
        return ((x, y), (x, y + 1))

    def has_edge(self, a, b) -> bool:
        key = (a, b) if a <= b else (b, a)
        return key in self._edge_set

    @cached_property
    def _edge_set(self):
        return frozenset(self.edges)

    def translate(self, cell, offset):
        """Shift a cell by an integer vector (identity on finite graphs)."""
        if self.kind == GRAPH:
            if offset != ():
                raise ModelError("finiteGraph lattice has no translations")
            return cell
        dx, dy = offset
        if self.kind == SQUARE_EDGE:
            x, y, o = cell
            return (x + dx, y + dy, o)
        x, y = cell
        return (x + dx, y + dy)

    def offset_between(self, src, dst):
        """The translation carrying cell ``src`` to cell ``dst``, or None."""
        if self.kind == GRAPH:
            return () if src == dst else None
        if self.kind == SQUARE_EDGE and src[2] != dst[2]:
            return None
        return (dst[0] - src[0], dst[1] - src[1])


def is_connected(cells, lattice: Lattice) -> bool:
    """True if the cells form one component under lattice adjacency.

    Empty and singleton sets count as connected.  The flood fill stops
    as soon as it has reached every cell.
    """
    unvisited = set(cells)
    frontier = [unvisited.pop()] if unvisited else []
    while frontier and unvisited:
        for nb in lattice.neighbors(frontier.pop()):
            if nb in unvisited:
                unvisited.remove(nb)
                frontier.append(nb)
    return not unvisited


def square_lattice() -> Lattice:
    return Lattice(SQUARE)


def hex_lattice() -> Lattice:
    return Lattice(HEX)


def square_edge_lattice() -> Lattice:
    return Lattice(SQUARE_EDGE)


def graph_lattice(nodes, edges) -> Lattice:
    return Lattice(GRAPH, tuple(nodes), tuple(tuple(e) for e in edges))
