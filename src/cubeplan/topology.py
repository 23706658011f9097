"""Topological invariants of cube complexes.

Functions here take any complex exposing the small view protocol used by
``CubeComplex``, in which cells are numbered per dimension from 0:
``max_dim``, ``n_cells(k)``, ``truncated`` (the build stopped early),
``facet_column(k)`` (the k-cells' facets as one flat sequence, 2k
numbers among the (k-1)-cells per cell in number order; a facet may
repeat and incidence counts multiplicity) and ``cell_keys(k)`` (one
sortable printed name per cell in number order, which orders the
collapse and names cells in exports).  The surface checks also need
``n_vertices`` and ``square_boundary(i)`` (square i's edges as
(number, sign)); an edge's facets are its two vertex numbers, base
first.
Ranks are computed over the two-element field with bitset elimination,
which is enough to decide every invariant used here; orientability is
decided combinatorially instead of via integral homology.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import BuildTruncatedError, CubeplanError, TooLargeError

MAX_CELLS = 20_000


def _require_full(view):
    if view.truncated:
        raise BuildTruncatedError(
            "invariants need the full complex; build hit its vertex cap"
        )


def f_vector(view) -> tuple:
    """Cell counts per dimension."""
    _require_full(view)
    return tuple(view.n_cells(k) for k in range(view.max_dim + 1))


def euler_characteristic(view) -> int:
    """Alternating sum of the f-vector."""
    fv = f_vector(view)
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(fv))


def _gf2_rank(columns) -> int:
    pivots: dict = {}
    rank = 0
    for v in columns:
        while v:
            top = v.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                rank += 1
                break
            v ^= p
    return rank


def boundary_matrix(view, k: int) -> list:
    """Columns of the mod-2 boundary map from k-cells (k >= 1) to (k-1)-cells.

    Each column is an int bitset over the (k-1)-cells by number; a
    facet listed an even number of times cancels out.
    """
    cols = []
    for facets in zip(*[iter(view.facet_column(k))] * (2 * k)):
        col = 0
        for f in facets:
            col ^= 1 << f
        cols.append(col)
    return cols


def betti_mod2(view) -> tuple:
    """Mod-2 Betti numbers, one entry per dimension of the complex."""
    _require_full(view)
    top = view.max_dim
    total = sum(view.n_cells(k) for k in range(top + 1))
    if total > MAX_CELLS:
        raise TooLargeError(
            f"complex has {total} cells; rank computation capped at {MAX_CELLS}"
        )
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        ranks[k] = _gf2_rank(boundary_matrix(view, k))
    out = []
    for k in range(top + 1):
        out.append(view.n_cells(k) - ranks[k] - ranks[k + 1])
    return tuple(out)


@dataclass(frozen=True)
class SurfaceReport:
    ok: bool
    reason: str | None = None


def _find(parent: dict, parity: dict, x) -> tuple:
    """x's root in a parity union-find and x's parity relative to it."""
    path = []  # walked iteratively: a chain can be as long as the input
    while parent.setdefault(x, x) != x:
        path.append(x)
        x = parent[x]
    p = 0
    for y in reversed(path):  # hang the path on the root x
        p ^= parity[y]
        parent[y], parity[y] = x, p
    return x, p


def _union(parent: dict, parity: dict, x, y, rel) -> bool:
    """Join x and y with parity ``rel`` between them; False if they are
    already joined with the other parity."""
    rx, px = _find(parent, parity, x)
    ry, py = _find(parent, parity, y)
    if rx == ry:
        return (px ^ py) == rel
    parent[ry] = rx
    parity[ry] = px ^ py ^ rel
    return True


def _edge_uses(view) -> list:
    """Per edge, each time a square's boundary runs along it, as
    (square, sign, next edge around that boundary, its sign)."""
    uses = [[] for _ in range(view.n_cells(1))]
    for s in range(view.n_cells(2)):
        cycle = view.square_boundary(s)
        for i, (e, sign) in enumerate(cycle):
            uses[e].append((s, sign, *cycle[(i + 1) % len(cycle)]))
    return uses


def surface_report(view) -> SurfaceReport:
    """Decide whether the complex is a closed 2-dimensional surface.

    Requires a pure 2-complex where every edge lies in exactly two
    squares (counted with multiplicity) and the edge-ends around every
    vertex close up into a single cycle.  Each corner of a square joins
    the head of one boundary edge to the tail of the next, so a vertex's
    link cycles are the union-find classes of its edge-ends; once every
    edge lies in two squares, every edge-end lies in two corners.
    """
    _require_full(view)
    if view.max_dim != 2 or view.n_cells(2) == 0:
        return SurfaceReport(False, "complex is not 2-dimensional")
    uses = _edge_uses(view)
    for edge in uses:
        if len(edge) != 2:
            return SurfaceReport(False, f"an edge lies in {len(edge)} squares")
    # edge-end 2e + b is edge e's end at its facet b; a step runs from
    # facet 0 to facet 1 when its sign is positive
    parent, parity = {}, {}
    for e, edge in enumerate(uses):
        for _, sign, nxt, nsign in edge:
            _union(parent, parity, 2 * e + (sign > 0), 2 * nxt + (nsign < 0), 0)
    ends_at = [[] for _ in range(view.n_vertices)]
    for end, vid in enumerate(view.facet_column(1)):
        ends_at[vid].append(end)
    for ends in ends_at:
        if not ends:
            return SurfaceReport(False, "isolated vertex")
        if len({_find(parent, parity, end)[0] for end in ends}) > 1:
            return SurfaceReport(False, "vertex link has several cycles")
    return SurfaceReport(True, None)


def is_closed_surface(view) -> bool:
    return surface_report(view).ok


def is_orientable_surface(view) -> bool:
    """Try to orient all squares consistently across shared edges.

    Works by 2-coloring with the parity union-find: two squares inducing
    the same direction on a shared edge must take opposite orientations,
    so a square meeting an edge twice in the same direction is its own
    contradiction.
    """
    report = surface_report(view)
    if not report.ok:
        raise CubeplanError(f"not a closed surface: {report.reason}")
    parent, parity = {}, {}
    return all(
        _union(parent, parity, s1, s2, int(d1 == d2))
        for (s1, d1, *_), (s2, d2, *_) in _edge_uses(view)
    )


def collapse_subcomplex(view) -> list:
    """Greedily remove free faces with their cofaces.

    A face is free when it appears exactly once in the facet lists of
    the remaining cells.  Pairs are removed highest dimension first,
    least name first, so runs are deterministic; free faces wait in a
    heap that takes a face again when its count drops to one.  The heap
    orders faces by their rank in one stable sort of each dimension's
    names, the order (name, number) gives, so pops compare ints, not
    nested name tuples.  Each face keeps the XOR of its live cofaces'
    numbers, one term per incidence, so a free face holds its one live
    coface's number and a facet listed twice cancels out.  Returns the
    set of cell numbers left in each dimension.
    """
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
    cofaces = [[0] * len(rank) for rank in ranks]
    columns = [view.facet_column(k) for k in range(len(ranks))]
    for k in range(1, len(ranks)):
        for i, facets in enumerate(zip(*[iter(columns[k])] * (2 * k))):
            for f in facets:
                counts[k - 1][f] += 1
                cofaces[k - 1][f] ^= i
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
            below, live = counts[k - 1], cofaces[k - 1]
            for f in columns[k][2 * k * i : 2 * k * (i + 1)]:
                below[f] -= 1
                live[f] ^= i
                if below[f] == 1:
                    heapq.heappush(free, (1 - k, ranks[k - 1][f], f))

    while free:
        neg, _, i = heapq.heappop(free)
        d = -neg
        if i not in alive[d] or counts[d][i] != 1:
            continue
        drop(d + 1, cofaces[d][i])
        drop(d, i)
    return alive


def greedy_collapse(view) -> tuple:
    """f-vector of what greedy free-face collapsing leaves behind.

    Reaching (1, 0, ...) certifies the complex contracts to a point;
    anything else certifies nothing.
    """
    return tuple(len(cells) for cells in collapse_subcomplex(view))
