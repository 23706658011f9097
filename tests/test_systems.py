"""Bundled generator catalogues and the independent arm word model."""

import pytest

from cubeplan.errors import ModelError
from cubeplan.lattice import HORIZONTAL, VERTICAL, hex_lattice, rot60
from cubeplan.model import admissible_actions
from cubeplan.statecomplex import build_complex
from cubeplan.systems import (
    HEX_TRAP_EXTRA_CELLS,
    HEX_TRAP_MOVERS,
    HEX_TRAP_STATE,
    VARIANT_CHANGING,
    VARIANT_PRESERVING,
    _slide_variants,
    agv_grid_fixture,
    arm_system,
    arm_word_complex,
    complete_graph,
    disjoint_paths,
    graph_agv_system,
    hex_ball,
    hex_connectivity_trap,
    hex_pivot_generators,
    hex_pivot_system,
    sliding_generators,
    sliding_ring_fixture,
    word_edges,
)
from cubeplan.topology import f_vector

from util import path_graph


def test_hex_pivot_generators_are_six_rotations():
    for variant in (VARIANT_CHANGING, VARIANT_PRESERVING):
        gens = hex_pivot_generators(variant)
        assert [g.gid for g in gens] == [f"pivot{k}" for k in range(6)]
        latt = hex_lattice()
        for g in gens:
            assert len(g.trace) == 2 and len(g.occ0) == 2 and len(g.occ1) == 2
        base = gens[0]
        for k, g in enumerate(gens):
            rotated = set(base.support)
            for _ in range(k):
                rotated = {rot60(c) for c in rotated}
            assert set(g.support) == rotated
    with pytest.raises(ModelError, match="variant"):
        hex_pivot_generators("sideways")


def test_preserving_pivot_guard_cells():
    changing = hex_pivot_generators(VARIANT_CHANGING)[0]
    preserving = hex_pivot_generators(VARIANT_PRESERVING)[0]
    assert set(changing.support) == {(0, 0), (1, 0), (0, 1)}
    guard = set(preserving.support) - set(changing.support)
    assert guard == {(-1, 1), (-1, 0), (0, -1), (0, 2), (-1, 2)}
    # the guard cells are required empty in both patterns
    assert guard == set(preserving.support) - preserving.occ0 - {(0, 1)}
    assert guard == set(preserving.support) - preserving.occ1 - {(0, 0)}


def test_single_hex_module_cannot_move():
    system = hex_pivot_system(VARIANT_CHANGING, hex_ball(2))
    assert admissible_actions(frozenset([(0, 0)]), system) == []


def test_two_adjacent_changing_modules_have_four_moves():
    system = hex_pivot_system(VARIANT_CHANGING, hex_ball(2))
    acts = admissible_actions(frozenset([(0, 0), (1, 0)]), system)
    assert len(acts) == 4
    hops = sorted(
        (next(iter(a.src_occ - a.dst_occ)), next(iter(a.dst_occ - a.src_occ)))
        for a in acts
    )
    # either module can roll to either cell adjacent to both of them
    assert hops == [
        ((0, 0), (0, 1)),
        ((0, 0), (1, -1)),
        ((1, 0), (0, 1)),
        ((1, 0), (1, -1)),
    ]


def test_slide_variant_counts():
    assert len(_slide_variants(1)) == 5
    assert len(_slide_variants(2)) == 32
    assert len(sliding_generators(1)) == 10
    assert len(sliding_generators(2)) == 74
    assert sliding_generators(0) == ()
    with pytest.raises(ModelError):
        sliding_generators(-1)


def test_slide_variants_always_touch_block_before_and_after():
    for k in (1, 2):
        for fpat in _slide_variants(k):
            flanks = set(fpat)
            assert any((i, s) in flanks for i in range(1, k + 1) for s in (1, -1))
            assert any((i, s) in flanks for i in range(2, k + 2) for s in (1, -1))
            for s in (1, -1):
                if (1, s) in flanks:
                    assert (2, s) in flanks


def test_arm_system_shape():
    sf = arm_system(3)
    seed = sf.seeds[0]
    assert seed == frozenset([(0, 0, HORIZONTAL), (1, 0, HORIZONTAL), (2, 0, HORIZONTAL)])
    assert all(x + y <= 3 for (x, y, _) in sf.system.workspace.cells)
    with pytest.raises(ModelError):
        arm_system(0)
    with pytest.raises(ModelError):
        arm_word_complex(0)


def test_arm_frozen_f_vectors():
    assert f_vector(build_complex(arm_system(2).system, arm_system(2).seeds)) == (4, 3)
    assert f_vector(build_complex(arm_system(3).system, arm_system(3).seeds)) == (8, 8, 1)
    fv5 = f_vector(build_complex(arm_system(5).system, arm_system(5).seeds))
    assert fv5 == (32, 48, 18, 1)
    assert fv5[0] == 2**5
    assert fv5[3] == 1  # corner swap, another corner swap, and a tip flip


def corner_state_sets(cx, vid_to_state, k):
    out = set()
    for rec in cx.cells(k):
        out.add(frozenset(vid_to_state[v] for v in rec.corners))
    return out


def test_arm_complex_is_isomorphic_to_word_complex():
    """word_edges induces a dimension-preserving cell bijection."""
    for n in range(2, 7):
        sf = arm_system(n)
        cx = build_complex(sf.system, sf.seeds)
        wx = arm_word_complex(n)
        assert f_vector(cx) == f_vector(wx)
        arm_states = {rec.corners[0]: rec.base for rec in cx.cells(0)}
        word_states = {
            rec.corners[0]: word_edges(rec.base, n) for rec in wx.cells(0)
        }
        assert set(arm_states.values()) == set(word_states.values())
        for k in range(1, cx.max_dim + 1):
            assert corner_state_sets(cx, arm_states, k) == corner_state_sets(
                wx, word_states, k
            )


def test_word_edges_spells_monotone_staircases():
    assert word_edges(frozenset(), 3) == frozenset(
        [(0, 0, HORIZONTAL), (1, 0, HORIZONTAL), (2, 0, HORIZONTAL)]
    )
    assert word_edges(frozenset([1, 2, 3]), 3) == frozenset(
        [(0, 0, VERTICAL), (0, 1, VERTICAL), (0, 2, VERTICAL)]
    )
    assert word_edges(frozenset([2]), 3) == frozenset(
        [(0, 0, HORIZONTAL), (1, 0, VERTICAL), (1, 1, HORIZONTAL)]
    )


def test_graph_builders():
    k4 = complete_graph(4)
    assert len(k4.nodes) == 4 and len(k4.edges) == 6
    p3 = path_graph(3)
    assert set(p3.nodes) == {0, 1, 2}
    two = disjoint_paths(2, 3)
    assert "p0.1" in two.nodes and "p1.2" in two.nodes
    assert len(two.edges) == 1 + 2
    with pytest.raises(ModelError, match="token count"):
        graph_agv_system(path_graph(3), 5)
    sf = agv_grid_fixture(2, 3)
    assert sf.seeds[0] == frozenset(("p0.0", "p1.0"))
    with pytest.raises(ModelError):
        agv_grid_fixture(0, 3)


def test_hex_ball_sizes():
    assert hex_ball(0) == frozenset([(0, 0)])
    assert len(hex_ball(1)) == 7
    assert len(hex_ball(2)) == 19
    assert (0, -1) in hex_ball(1) and (1, 1) not in hex_ball(1)


def test_sliding_ring_fixture_layout():
    sf = sliding_ring_fixture(1, 1)
    free = sf.seeds[0] - sf.system.workspace.obstacle_cells
    assert len(free) == 2
    assert all(bit for _, bit in sf.system.workspace.obstacles)
    with pytest.raises(ModelError):
        sliding_ring_fixture(0, 2)


def test_trap_fixture_constants():
    assert len(HEX_TRAP_STATE) == 13
    assert HEX_TRAP_MOVERS <= HEX_TRAP_STATE
    assert not (HEX_TRAP_EXTRA_CELLS & HEX_TRAP_STATE)
    sf = hex_connectivity_trap(constrained=True)
    assert not sf.system.is_local
    assert sf.system.workspace.cells == HEX_TRAP_STATE | HEX_TRAP_EXTRA_CELLS
    assert hex_connectivity_trap(constrained=False).system.is_local
