"""Invariants: f-vectors, mod-2 homology, surfaces, collapsibility."""

import pytest

import cubeplan
from cubeplan import model, statecomplex, topology
from cubeplan.errors import CubeplanError, TooLargeError
from cubeplan.shape import build_shape_complex
from cubeplan.statecomplex import build_complex
from cubeplan.systems import (
    VARIANT_CHANGING,
    VARIANT_PRESERVING,
    SystemFile,
    agv_grid_fixture,
    arm_system,
    complete_graph,
    graph_agv_system,
    hex_ball,
    hex_connectivity_trap,
    hex_pivot_system,
    sliding_ring_fixture,
)
from cubeplan.topology import (
    SurfaceReport,
    betti_mod2,
    boundary_matrix,
    collapse_subcomplex,
    euler_characteristic,
    f_vector,
    greedy_collapse,
    is_closed_surface,
    is_orientable_surface,
    surface_report,
)

from test_golden import BUILTINS, build_builtin
from util import (
    SyntheticSurface,
    klein_view,
    oracle_collapse_subcomplex,
    oracle_is_orientable_surface,
    oracle_surface_report,
    torus_view,
    wedge_view,
)


def build_fixture(sf):
    return build_complex(sf.system, sf.seeds)


def test_grid_is_contractible():
    cx = build_fixture(agv_grid_fixture(3, 4))
    assert f_vector(cx) == (20, 31, 12)
    assert euler_characteristic(cx) == 1
    assert betti_mod2(cx) == (1, 0, 0)
    assert greedy_collapse(cx) == (1, 0, 0)


def test_k5_is_a_closed_nonorientable_surface():
    cx = build_fixture(graph_agv_system(complete_graph(5), 2))
    assert euler_characteristic(cx) == -5
    assert betti_mod2(cx) == (1, 7, 1)
    assert is_closed_surface(cx)
    assert not is_orientable_surface(cx)
    # no free faces on a closed surface: collapse removes nothing
    assert greedy_collapse(cx) == (10, 30, 15)


def test_sliding_ring_is_a_circle():
    cx = build_fixture(sliding_ring_fixture(1, 1))
    assert f_vector(cx) == (12, 12)
    assert betti_mod2(cx) == (1, 1)
    assert greedy_collapse(cx) == (12, 12)

    cx2 = build_fixture(sliding_ring_fixture(2, 3))
    assert f_vector(cx2) == (38, 46, 8)
    assert euler_characteristic(cx2) == 0
    assert betti_mod2(cx2) == (1, 1, 0)
    # collapsing eats the squares but the essential loop survives
    collapsed = greedy_collapse(cx2)
    assert collapsed[2] == 0
    assert collapsed[0] == collapsed[1] > 0


def test_arm_collapses_to_a_point():
    cx = build_fixture(arm_system(4))
    assert betti_mod2(cx) == (1, 0, 0)
    assert greedy_collapse(cx) == (1, 0, 0)


def test_boundary_matrix_shape_and_composition():
    """d . d = 0 over GF(2) on a fixture with squares."""
    cx = build_fixture(agv_grid_fixture(2, 2))
    d1 = boundary_matrix(cx, 1)
    d2 = boundary_matrix(cx, 2)
    assert len(d1) == cx.n_cells(1)
    assert len(d2) == cx.n_cells(2)
    for i in range(cx.n_cells(2)):
        total = 0
        for e in cx.facets(2, i):
            total ^= d1[e]
        assert total == 0


def test_synthetic_torus_and_klein_bottle():
    torus = torus_view(3)
    klein = klein_view(3)
    for view in (torus, klein):
        assert f_vector(view) == (9, 18, 9)
        assert euler_characteristic(view) == 0
        assert betti_mod2(view) == (1, 2, 1)
        assert is_closed_surface(view)
    assert is_orientable_surface(torus)
    assert not is_orientable_surface(klein)


def test_orientation_survives_long_union_find_chains():
    """Edges numbered against the grid order hang each square's root
    under the next, so the parity union-find grows chains as long as the
    grid; a recursive ``find`` overflowed the stack on these."""
    assert is_orientable_surface(torus_view(1500, m=3, reverse=True))
    assert is_orientable_surface(torus_view(1200, m=1, reverse=True))
    assert not is_orientable_surface(klein_view(1500, m=3, reverse=True))


def test_surface_report_rejects_non_surfaces():
    grid = build_fixture(agv_grid_fixture(2, 2))
    report = surface_report(grid)
    assert not report.ok  # boundary edges lie in one square
    with pytest.raises(CubeplanError, match="not a closed surface"):
        is_orientable_surface(grid)
    square = build_fixture(agv_grid_fixture(1, 1))
    assert not surface_report(square).ok  # one square with boundary
    ring = build_fixture(sliding_ring_fixture(1, 1))
    assert not surface_report(ring).ok  # 1-dimensional


def test_surface_report_names_bad_vertices():
    """One square glued a b a b around one vertex: every edge lies in
    two squares, but the vertex's corners close up into two cycles, as
    they do where two tori meet at one vertex.  A torus with a vertex on
    no edge has an isolated vertex."""
    several = SurfaceReport(False, "vertex link has several cycles")
    assert surface_report(pinched_square()) == several
    assert surface_report(wedge_view(torus_view(3), torus_view(3))) == several
    assert surface_report(torus_view(3, isolated=1)) == SurfaceReport(False, "isolated vertex")


def pinched_square():
    return SyntheticSurface(
        1, {"a": (0, 0), "b": (0, 0)}, {"s": [("a", 1), ("b", 1), ("a", 1), ("b", 1)]}
    )


def surface_views():
    """Tori and Klein bottles of every size up to 5 by 4 in both edge
    numberings, tori with isolated vertices, the pinched square, wedges
    of two surfaces, and built complexes that are surfaces or not."""
    views = {}
    for n in range(1, 6):
        for m in range(1, 5):
            for reverse in (False, True):
                views[f"torus-{n}x{m}-{reverse}"] = torus_view(n, m=m, reverse=reverse)
                views[f"klein-{n}x{m}-{reverse}"] = klein_view(n, m=m, reverse=reverse)
    for n, isolated in ((1, 1), (2, 1), (3, 1), (3, 2)):
        views[f"torus-{n}-isolated-{isolated}"] = torus_view(n, isolated=isolated)
    views["pinched-square"] = pinched_square()
    views["wedge-of-tori"] = wedge_view(torus_view(3), torus_view(3))
    views["wedge-of-torus-and-klein"] = wedge_view(torus_view(2, m=3), klein_view(3))
    views["wedge-of-small-tori"] = wedge_view(torus_view(1), torus_view(2, m=1))
    for name, sf in (
        ("agv-k5-2", graph_agv_system(complete_graph(5), 2)),
        ("agv-k5-3", graph_agv_system(complete_graph(5), 3)),
        ("agv-grid", agv_grid_fixture(2, 3)),
        ("arm-4", arm_system(4)),
        ("sliding-ring-1x1", sliding_ring_fixture(1, 1)),
        ("sliding-ring-2x3", sliding_ring_fixture(2, 3)),
    ):
        views[name] = build_fixture(sf)
    return views


def test_surface_checks_match_their_oracles():
    """The one union-find over edge-ends and squares reads every view as
    the degree count, link search and nested orientation union-find do."""
    views = surface_views()
    assert len(views) == 94
    for name, view in views.items():
        report = surface_report(view)
        assert report == oracle_surface_report(view), name
        if report.ok:
            assert is_orientable_surface(view) == oracle_is_orientable_surface(view), name
        else:
            with pytest.raises(CubeplanError, match=report.reason):
                is_orientable_surface(view)


def test_collapse_is_deterministic_and_facet_closed():
    cx = build_fixture(agv_grid_fixture(3, 3))
    a = greedy_collapse(cx)
    b = greedy_collapse(cx)
    assert a == b == (1, 0, 0)


def _hex_ball_fixture():
    system = hex_pivot_system(VARIANT_CHANGING, hex_ball(2))
    return SystemFile(system, (frozenset([(0, 0), (1, 0), (0, 1)]),))


COLLAPSE_FIXTURES = {
    "hex-trap": (
        lambda: build_fixture(hex_connectivity_trap(constrained=True)),
        (44, 151, 123, 0),
    ),
    "hex-radius-2": (
        lambda: build_fixture(_hex_ball_fixture()),
        (579, 1083, 0),
    ),
    "sliding-ring-2x3": (
        lambda: build_fixture(sliding_ring_fixture(2, 3)),
        (18, 18, 0),
    ),
    "five-module-shapes": (
        lambda: build_shape_complex(
            hex_pivot_system(VARIANT_PRESERVING),
            [frozenset((i, 0) for i in range(5))],
        ),
        (77, 86, 0, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(COLLAPSE_FIXTURES))
def test_collapse_leaves_what_its_removal_order_leaves(name):
    """Where collapsing stops short of a point depends on which free
    face goes first: highest dimension, then least key."""
    make, expected = COLLAPSE_FIXTURES[name]
    cx = make()
    assert greedy_collapse(cx) == expected
    assert collapse_subcomplex(cx) == oracle_collapse_subcomplex(cx)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_fixture(arm_system(4)),
        lambda: build_fixture(graph_agv_system(complete_graph(5), 2)),
        lambda: torus_view(3),
        lambda: klein_view(3, 4, reverse=True),
        lambda: wedge_view(torus_view(3), klein_view(3)),
    ],
    ids=["arm-4", "agv-k5", "torus", "klein", "wedge"],
)
def test_collapse_leaves_what_the_coface_list_oracle_leaves(make):
    cx = make()
    assert collapse_subcomplex(cx) == oracle_collapse_subcomplex(cx)


def test_collapse_finds_the_live_coface_of_a_facet_listed_twice():
    """Square q glues its left and right sides into edge b, an annulus,
    and square r hangs on b as a fin, so b lies in q twice and in r
    once; square p stands apart and numbers q and r 1 and 2.  Once the
    free edge a takes q with it, b is free and its one live coface is r,
    which a per-face XOR of coface numbers finds only because q's two
    terms cancel.  What is left is the loop c at vertex 1, and vertex 7
    where p collapsed."""
    view = SyntheticSurface(
        8,
        {
            "a": (0, 0), "b": (0, 1), "c": (1, 1), "x": (1, 2), "y": (2, 3),
            "z": (3, 0), "d0": (4, 5), "d1": (5, 6), "d2": (6, 7), "d3": (7, 4),
        },
        {
            "p": [("d0", 1), ("d1", 1), ("d2", 1), ("d3", 1)],
            "q": [("a", 1), ("b", 1), ("c", -1), ("b", -1)],
            "r": [("b", 1), ("x", 1), ("y", 1), ("z", 1)],
        },
    )
    assert collapse_subcomplex(view) == oracle_collapse_subcomplex(view) == [{1, 7}, {2}, set()]


def test_certificate_and_collapse_reach_their_module_globals(monkeypatch):
    """Profilers and the benchmark's tracer wrap ``statecomplex.link``
    and ``topology.collapse_subcomplex`` where they are defined; the
    callers must look them up there to be seen."""
    calls = {"link": 0, "collapse": 0}
    link, collapse = statecomplex.link, topology.collapse_subcomplex

    def counted_link(*args):
        calls["link"] += 1
        return link(*args)

    def counted_collapse(*args):
        calls["collapse"] += 1
        return collapse(*args)

    monkeypatch.setattr(statecomplex, "link", counted_link)
    monkeypatch.setattr(topology, "collapse_subcomplex", counted_collapse)
    cx = build_fixture(agv_grid_fixture(2, 2))
    assert statecomplex.check_link_condition(cx).ok
    assert topology.greedy_collapse(cx) == (1, 0, 0)
    assert calls == {"link": cx.n_vertices, "collapse": 1}


def _count_hex_build(monkeypatch, constraint) -> tuple:
    """Build the hex radius-2 ball from the 4-module seed with
    ``model.admissible_actions`` and ``model.is_admissible`` counted at
    every module attribute bound to them, as the benchmark's tracer
    wraps them; returns the calls, the admissibility hits and the
    complex."""
    calls = {"admissible_actions": 0, "is_admissible": 0, "hits": 0}
    for name in ("admissible_actions", "is_admissible"):
        original = getattr(model, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            out = original(*args)
            if name == "is_admissible":
                calls["hits"] += bool(out)
            return out

        for mod in (cubeplan, model, statecomplex):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    system = hex_pivot_system(VARIANT_CHANGING, hex_ball(2), constraint_name=constraint)
    return calls, build_complex(system, [frozenset([(0, 0), (1, 0), (0, 1), (1, 1)])])


def test_build_reaches_the_admissibility_module_globals(monkeypatch):
    """A build must reach both traced functions where the tracer wraps
    them, under a global constraint too, and test only the actions
    whose whole source pattern the state holds."""
    calls, cx = _count_hex_build(monkeypatch, "connected")
    assert calls == {"admissible_actions": cx.n_vertices, "is_admissible": 3_984, "hits": 2_052}


def test_build_tests_only_actions_whose_source_pattern_the_state_holds(monkeypatch):
    """On the local hex radius-2 ball ``is_admissible`` runs 19,584
    times for 17,280 hits; testing every action indexed under a state's
    cells by its source pattern's least cell made 103,320 tests.  Every
    seed of this local system reaches the same complex, so the counts
    do not depend on the start."""
    calls, cx = _count_hex_build(monkeypatch, None)
    assert cx.n_vertices == 3_344
    assert calls == {"admissible_actions": 3_344, "is_admissible": 19_584, "hits": 17_280}


@pytest.mark.parametrize("argv", sorted(BUILTINS), ids=" ".join)
def test_plain_complexes_hold_the_catalogue_actions(argv):
    """The catalogue lists placement i forward at 2i and backward at
    2i + 1, and every action a plain complex keeps, in its cell records
    and its link record, is the catalogue's own object."""
    cx = build_builtin(argv)
    catalogue = cx.frame.system.all_actions
    assert len(catalogue) % 2 == 0
    for fwd, bwd in zip(catalogue[::2], catalogue[1::2]):
        assert fwd.direction == 0 and fwd.reverse() == bwd
    ids = {id(a) for a in catalogue}
    for k in range(1, cx.max_dim + 1):
        for rec in cx.cells(k):
            assert all(id(a) in ids for a in rec.actions)
    for vid in range(cx.n_vertices):
        lnk = statecomplex.link(cx, cx.vertex_state(vid))
        assert all(id(a) in ids for a in lnk.actions)


def test_betti_refuses_oversized_complexes():
    class Fat:
        truncated = False
        max_dim = 1

        def n_cells(self, k):
            return 50_000

        def cell_keys(self, k):
            return []

    with pytest.raises(TooLargeError):
        betti_mod2(Fat())
