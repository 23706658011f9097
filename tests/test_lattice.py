"""Adjacency structures and coordinate helpers."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubeplan.lattice as lat
from cubeplan.errors import ModelError

from util import oracle_connected

coord = st.integers(-50, 50)
int_pair = st.tuples(coord, coord)


def test_square_neighbors():
    assert set(lat.square_lattice().neighbors((3, -2))) == {
        (4, -2), (2, -2), (3, -1), (3, -3)
    }


def test_hex_neighbors_count_and_mutuality():
    hexl = lat.hex_lattice()
    nbrs = hexl.neighbors((0, 0))
    assert len(nbrs) == 6
    for nb in nbrs:
        assert (0, 0) in hexl.neighbors(nb)


@given(int_pair)
def test_hex_neighbors_follow_the_direction_table(cell):
    q, r = cell
    assert lat.hex_lattice().neighbors(cell) == tuple(
        (q + dq, r + dr) for dq, dr in lat.HEX_DIRS
    )


def test_hex_rotation_permutes_neighbors():
    hexl = lat.hex_lattice()
    nbrs = set(hexl.neighbors((0, 0)))
    assert {lat.rot60(c) for c in nbrs} == nbrs
    assert {lat.rot60(lat.rot60(c)) for c in nbrs} == nbrs


def test_rot60_has_order_six():
    c = (3, -1)
    out = c
    seen = []
    for _ in range(6):
        out = lat.rot60(out)
        seen.append(out)
    assert out == c
    assert len(set(seen)) == 6


def test_square_edge_neighbors_share_an_endpoint():
    lattice = lat.square_edge_lattice()
    cell = (2, 3, lat.HORIZONTAL)
    ends = set(lattice.endpoints(cell))
    for nb in lattice.neighbors(cell):
        assert ends & set(lattice.endpoints(nb))
        assert cell in lattice.neighbors(nb)
    assert len(lattice.neighbors(cell)) == 6


@given(int_pair, st.sampled_from((lat.SQUARE, lat.HEX)))
def test_neighbors_are_symmetric_and_exclude_self(cell, kind):
    lattice = lat.Lattice(kind)
    nbrs = lattice.neighbors(cell)
    assert cell not in nbrs
    assert len(set(nbrs)) == len(nbrs)
    for nb in nbrs:
        assert cell in lattice.neighbors(nb)


@given(int_pair, int_pair)
def test_translate_offset_between_roundtrip(cell, offset):
    lattice = lat.square_lattice()
    moved = lattice.translate(cell, offset)
    assert lattice.offset_between(cell, moved) == offset


def test_offset_between_mismatched_orientations_is_none():
    lattice = lat.square_edge_lattice()
    assert lattice.offset_between((0, 0, lat.HORIZONTAL), (1, 1, lat.VERTICAL)) is None
    assert lattice.offset_between((0, 0, lat.VERTICAL), (2, 5, lat.VERTICAL)) == (2, 5)


def test_is_cell_per_kind():
    assert lat.square_lattice().is_cell((1, 2))
    assert not lat.square_lattice().is_cell((1, 2, 3))
    assert not lat.square_lattice().is_cell((1.5, 2))
    assert not lat.square_lattice().is_cell((True, 2))
    assert lat.square_edge_lattice().is_cell((0, 0, lat.VERTICAL))
    assert not lat.square_edge_lattice().is_cell((0, 0, 2))
    g = lat.graph_lattice(("x", "y"), (("x", "y"),))
    assert g.is_cell("x") and not g.is_cell("z")


def test_graph_lattice_normalizes_and_validates():
    g = lat.graph_lattice((2, 0, 1), ((2, 1), (0, 1)))
    assert g.nodes == (0, 1, 2)
    assert g.edges == ((0, 1), (1, 2))
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    with pytest.raises(ModelError):
        lat.graph_lattice((0, 0), ())
    with pytest.raises(ModelError):
        lat.graph_lattice((0, 1), ((0, 0),))
    with pytest.raises(ModelError):
        lat.graph_lattice((0, 1), ((0, 2),))
    with pytest.raises(ModelError):
        lat.Lattice(lat.SQUARE, nodes=(1,))
    with pytest.raises(ModelError):
        lat.Lattice("triangular")


def test_mixed_node_labels_are_a_model_error():
    """Integer and string labels do not order against each other, so a
    graph mixing them is refused before its nodes and edges are sorted,
    not with the ``TypeError`` of a failed sort."""
    for edges in ((), ((1, "a"),)):
        with pytest.raises(ModelError, match="^node labels mix integer and string labels$"):
            lat.graph_lattice((1, "a"), edges)


def test_graph_has_no_translations():
    g = lat.graph_lattice((0, 1), ((0, 1),))
    assert g.translate(0, ()) == 0
    assert g.offset_between(1, 1) == ()
    assert g.offset_between(0, 1) is None
    with pytest.raises(ModelError):
        g.translate(0, (1, 0))


def test_connectivity():
    sq = lat.square_lattice()
    assert lat.is_connected((), sq)
    assert lat.is_connected({(0, 0)}, sq)
    assert lat.is_connected({(0, 0), (0, 1), (1, 1)}, sq)
    assert not lat.is_connected({(0, 0), (1, 1)}, sq)
    hexl = lat.hex_lattice()
    # (1,1) is not a square neighbor of the origin but is a hex neighbor
    assert not lat.is_connected({(0, 0), (1, 1)}, sq)
    assert not lat.is_connected({(0, 0), (1, 1)}, hexl)
    assert lat.is_connected({(0, 0), (1, 0), (1, 1)}, hexl)


def test_hex_directions_are_the_six_units():
    assert len(set(lat.HEX_DIRS)) == 6
    for d in lat.HEX_DIRS:
        assert (-d[0], -d[1]) in lat.HEX_DIRS


def _random_cells(rng, kind, n):
    """``n`` cells drawn from a small patch of the kind, so that some
    draws connect and some do not; on a finite graph, a random graph on
    eight nodes and a subset of its nodes."""
    if kind == lat.GRAPH:
        nodes = tuple(range(8))
        edges = [(a, b) for a in nodes for b in nodes[a + 1 :] if rng.random() < 0.3]
        lattice = lat.graph_lattice(nodes, edges)
        return lattice, set(rng.sample(nodes, min(n, len(nodes))))
    cells = set()
    for _ in range(n):
        cell = (rng.randrange(4), rng.randrange(4))
        if kind == lat.SQUARE_EDGE:
            cell += (rng.choice((lat.HORIZONTAL, lat.VERTICAL)),)
        cells.add(cell)
    return lat.Lattice(kind), cells


@settings(max_examples=200)
@given(st.integers(0, 10**6), st.sampled_from(lat.KINDS), st.integers(0, 9))
@example(0, lat.SQUARE, 0)
@example(0, lat.HEX, 1)
def test_is_connected_matches_a_breadth_first_search(seed, kind, n):
    """The early-exit flood fill agrees with a full breadth-first search
    on every lattice kind, on empty, singleton, connected and
    disconnected sets."""
    lattice, cells = _random_cells(random.Random(seed), kind, n)
    assert lat.is_connected(frozenset(cells), lattice) == oracle_connected(cells, lattice)
