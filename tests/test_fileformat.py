"""Text formats: system files, state files, move scripts, complex export."""

import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeplan
import cubeplan.lattice as lat
from cubeplan.cubepaths import CubePath, from_edge_path, random_edge_path
from cubeplan.errors import FormatError
from cubeplan.fileformat import (
    export_complex,
    parse_path,
    parse_state,
    parse_system_file,
    serialize,
    serialize_path,
    serialize_state,
)
from cubeplan.lattice import square_lattice
from cubeplan.model import FORWARD, Generator, System, Workspace, make_action
from cubeplan.statecomplex import build_complex
from cubeplan.systems import (
    VARIANT_CHANGING,
    VARIANT_PRESERVING,
    agv_grid_fixture,
    arm_system,
    complete_graph,
    graph_agv_system,
    hex_ball,
    hex_connectivity_trap,
    hex_pivot_system,
    sliding_ring_fixture,
)
from util import random_system


BUILTINS = [
    hex_connectivity_trap(True),
    hex_connectivity_trap(False),
    agv_grid_fixture(2, 3),
    sliding_ring_fixture(1, 1),
    arm_system(3),
    graph_agv_system(complete_graph(5), 1),
]


@pytest.mark.parametrize("sf", BUILTINS, ids=lambda s: s.system.catalogue[0].gid)
def test_round_trip_builtin_systems(sf):
    assert parse_system_file(serialize(sf)) == sf


def test_round_trip_bare_system_and_unbounded_workspace():
    system = hex_pivot_system(VARIANT_CHANGING)
    text = serialize(system)
    assert "workspace all" in text.splitlines()
    parsed = parse_system_file(text)
    assert parsed.system == system
    assert parsed.seeds == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_random_systems(seed):
    sf = random_system(random.Random(seed))
    assert parse_system_file(serialize(sf)) == sf


def test_comments_and_blank_lines_are_ignored():
    sf = agv_grid_fixture(1, 1)
    lines = serialize(sf).splitlines()
    noisy = "# header\n\n" + "\n  \n# more\n".join(lines) + "\n#tail"
    assert parse_system_file(noisy) == sf


def expect_error(text, pattern):
    with pytest.raises(FormatError, match=pattern):
        parse_system_file(text)


def test_lattice_must_come_first():
    expect_error("workspace all\nlattice square2d", r"line 1: .*lattice.*first")
    expect_error("", "missing lattice")
    expect_error("lattice mobius\n", r"line 1: lattice kind")
    expect_error(
        "lattice square2d\nlattice square2d\n", r"line 2: duplicate lattice"
    )


def test_unknown_directive_and_missing_workspace():
    expect_error("lattice square2d\nflavor blue\n", r"line 2: unknown directive")
    expect_error("lattice square2d\n", "missing workspace")


def test_cell_syntax_is_lattice_specific():
    expect_error("lattice square2d\nworkspace a b\n", r"line 2: ")
    expect_error("lattice square2d\nworkspace (1,2,h)\n", r"line 2: ")
    expect_error("lattice squareEdge2d\nworkspace (1,2)\n", r"line 2: ")
    expect_error("lattice squareEdge2d\nworkspace (1,2,x)\n", r"line 2: ")
    expect_error(
        "lattice finiteGraph\nnodes a b\nworkspace (1,2)\n", r"line 3: "
    )
    expect_error(
        "lattice square2d\nnodes a b\n", r"line 2: nodes line applies only"
    )


def test_graph_node_labels_must_be_homogeneous():
    """The lattice refuses the labels; the parser reports its error at
    the nodes line once it has read the file, so a fault on a later
    line is reported first."""
    expect_error(
        "lattice finiteGraph\nnodes a 3\nworkspace all\n",
        r"^line 2: node labels mix integer and string labels$",
    )
    expect_error(
        "lattice finiteGraph\nnodes a 3\nworkspace all\nflavor blue\n",
        r"^line 4: unknown directive 'flavor'$",
    )


def test_generator_support_labels_must_be_homogeneous():
    expect_error(
        "lattice finiteGraph\nnodes 0 1\nedges (0,1)\nworkspace all\n"
        "generator token\n  support a 1\n  trace a 1\n  occ0 a\n  occ1 1\n"
        "  edges (a,1)\nend\n",
        r"^line 5: generator token: support mixes label types$",
    )


def test_duplicate_and_malformed_directives():
    base = "lattice square2d\nworkspace (0,0) (1,0)\n"
    expect_error(base + "workspace (0,0)\n", r"line 3: duplicate workspace")
    expect_error(base + "workspace all (0,0)\n", r"line 3: duplicate workspace")
    expect_error(
        "lattice square2d\nworkspace all (0,0)\n", r"line 2: .*all or an explicit"
    )
    expect_error(base + "obstacle (0,0) yes\n", r"line 3: obstacle takes")
    expect_error(base + "obstacle (5,5) empty\n", r"line 3: .*outside")
    expect_error(base + "constraint connected\nconstraint connected\n", r"line 4: duplicate")
    graph = "lattice finiteGraph\nnodes 0 1\nedges (0,1)\n"
    expect_error(graph + "nodes 0 1\n", r"^line 4: duplicate nodes line$")
    expect_error(graph + "edges (0,1)\n", r"^line 4: duplicate edges line$")
    expect_error(base + "constraint gravity\n", r"line 3: unknown constraint")


def test_generator_block_errors():
    base = "lattice square2d\nworkspace all\n"
    gen = "generator hop\n  support (0,0) (1,0)\n  trace (0,0) (1,0)\n  occ0 (0,0)\n  occ1 (1,0)\nend\n"
    parse_system_file(base + gen)
    expect_error(base + "generator hop\n  support (0,0)\n", r"line 3: generator hop is missing its end")
    expect_error(
        base + gen + gen, r"line 9: generator hop already defined on line 3"
    )
    expect_error(
        base + "generator hop\n  support (0,0)\n  support (0,0)\n",
        r"line 5: duplicate support",
    )
    expect_error(
        base + "generator hop\n  walk (0,0)\n",
        r"line 4: expected a generator field or end",
    )
    expect_error(
        base + "generator hop\n  support (0,0)\n  edges (a,b)\nend\n",
        r"line 5: generator edges apply only to finite graphs",
    )
    expect_error(base + "generator hop\nend extra\n", r"line 4: end takes no")


def test_generator_invariants_reported_with_gid():
    base = "lattice square2d\nworkspace all\n"
    bad_trace = (
        "generator hop\n  support (0,0)\n  trace (5,5)\n"
        "  occ0 (0,0)\n  occ1\nend\n"
    )
    expect_error(base + bad_trace, r"hop.*trace")
    degenerate = (
        "generator hop\n  support (0,0) (1,0)\n  trace (0,0) (1,0)\n"
        "  occ0 (0,0)\n  occ1 (0,0)\nend\n"
    )
    expect_error(base + degenerate, r"hop.*(equal|degenerate)")
    missing_field = "generator hop\n  support (0,0)\nend\n"
    expect_error(base + missing_field, r"hop")


def test_graph_generator_requires_edges_line():
    head = (
        "lattice finiteGraph\nnodes 0 1\nedges (0,1)\nworkspace all\n"
    )
    gen_no_edges = (
        "generator token\n  support a b\n  trace a b\n  occ0 a\n  occ1 b\nend\n"
    )
    expect_error(head + gen_no_edges, r"token.*edges")
    ok = head + (
        "generator token\n  support a b\n  trace a b\n  occ0 a\n  occ1 b\n"
        "  edges (a,b)\nend\n"
    )
    parse_system_file(ok)


def test_seed_lines_are_validated():
    base = "lattice square2d\nworkspace (0,0) (1,0)\n"
    gen = "generator hop\n  support (0,0) (1,0)\n  trace (0,0) (1,0)\n  occ0 (0,0)\n  occ1 (1,0)\nend\n"
    expect_error(base + gen + "seed (7,7)\n", r"line 9: ")
    sf = parse_system_file(base + gen + "seed (0,0)\n")
    assert sf.seeds == (frozenset([(0, 0)]),)


def test_exclude_builds_cofinite_workspaces():
    text = (
        "lattice square2d\nworkspace all\nexclude (0,0) (5,5)\n"
        "generator hop\n  support (1,0) (2,0)\n  trace (1,0) (2,0)\n"
        "  occ0 (1,0)\n  occ1 (2,0)\nend\n"
    )
    sf = parse_system_file(text)
    ws = sf.system.workspace
    assert not ws.is_finite
    assert ws.excluded == frozenset([(0, 0), (5, 5)])
    assert parse_system_file(serialize(sf)) == sf


def test_a_workspace_is_refused_at_its_own_line():
    """The workspace's refusal names the workspace line, an exclusion's
    its own exclude line; a workspace node the lattice lacks, of either
    label type, is the lattice's to refuse."""
    graph = "lattice finiteGraph\nnodes 1 2 3\n"
    expect_error(
        graph + "workspace 1 2 9\nexclude 3\n",
        r"^line 3: workspace cell 9 invalid for lattice$",
    )
    expect_error(
        graph + "workspace 1 2\nexclude 3\n",
        r"^line 4: excluded cells apply only to cofinite workspaces$",
    )
    expect_error(
        graph + "workspace 1 a\n", r"^line 3: workspace cell 'a' invalid for lattice$"
    )
    expect_error(
        graph + "workspace all\nexclude 1\nexclude 9\n",
        r"^line 5: excluded cell 9 invalid for lattice$",
    )


def test_exclude_lines_are_checked_in_linear_time(monkeypatch):
    """Each exclude line is checked on its own cells and the union is
    taken once, so 300 one-cell lines test each cell a bounded number
    of times, not once per later line."""
    text = "lattice square2d\nworkspace all\n" + "".join(
        f"exclude ({i},0)\n" for i in range(300)
    )
    calls = []
    is_cell = lat.Lattice.is_cell

    def counted(self, cell):
        calls.append(cell)
        return is_cell(self, cell)

    monkeypatch.setattr(lat.Lattice, "is_cell", counted)
    sf = parse_system_file(text)
    assert sf.system.workspace.excluded == frozenset((i, 0) for i in range(300))
    assert len(calls) <= 4 * 300


GRAPH_TOKEN = (
    "generator token\n  support a b\n  trace a b\n  occ0 a\n  occ1 b\n"
    "  edges (a,b)\nend\nseed 0\n"
)


@pytest.mark.parametrize(
    "whole, listed, fvec",
    [
        ("workspace all\n", "workspace 0 1 2\n", "fvec: 3 2"),
        ("workspace all\nexclude 2\n", "workspace 0 1\n", "fvec: 2 1"),
    ],
    ids=["all", "all-but-one"],
)
def test_a_finite_graph_workspace_all_is_its_node_list(whole, listed, fvec):
    """On a finite graph ``workspace all`` is the node set less the
    excluded nodes: the same system, so the same complex, as the list."""
    head = "lattice finiteGraph\nnodes 0 1 2\nedges (0,1) (1,2)\n"
    sf = parse_system_file(head + whole + GRAPH_TOKEN)
    assert sf == parse_system_file(head + listed + GRAPH_TOKEN)
    cx = build_complex(sf.system, sf.seeds)
    assert export_complex(cx).splitlines()[0] == fvec


def test_refusals_name_the_same_cell_under_every_hash_seed():
    """A workspace, exclude or seed line with several bad cells names the
    least by ``repr``, not the first in a set's hash order."""
    graph = "lattice finiteGraph\nnodes a b\n"
    texts = [
        graph + "workspace a x y z w\n",
        graph + "workspace all\nexclude x y z w\n",
        graph + "workspace all\nseed a x y z w\n",
    ]
    script = (
        "import sys\n"
        "from cubeplan.errors import FormatError\n"
        "from cubeplan.fileformat import parse_system_file\n"
        "for text in sys.argv[1:]:\n"
        "    try:\n"
        "        parse_system_file(text)\n"
        "    except FormatError as e:\n"
        "        print(e)\n"
    )
    src = str(Path(cubeplan.__file__).parent.parent)
    outs = []
    for hash_seed in ("0", "1"):  # these two seeds differ in a set's order
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script, *texts],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.append(done.stdout)
    assert outs[0] == outs[1] == (
        "line 3: workspace cell 'w' invalid for lattice\n"
        "line 4: excluded cell 'w' invalid for lattice\n"
        "line 4: occupied cell 'w' outside workspace\n"
    )


def test_each_seed_of_a_parsed_file_is_checked_once(monkeypatch):
    """The reader leaves the seed rules to ``SystemFile``: two seed lines,
    two state checks."""
    checked = []
    real = Workspace.check_state

    def counted(self, occupied):
        checked.append(occupied)
        return real(self, occupied)

    monkeypatch.setattr(Workspace, "check_state", counted)
    sf = parse_system_file("lattice square2d\nworkspace (0,0) (1,0)\nseed (0,0)\nseed (1,0)\n")
    assert len(sf.seeds) == 2
    assert checked == [frozenset({(0, 0)}), frozenset({(1, 0)})]


def test_state_files_round_trip_and_validate():
    sf = agv_grid_fixture(2, 2)
    text = serialize_state(sf.seeds[0], sf.system)
    assert parse_state(text, sf.system) == sf.seeds[0]
    with pytest.raises(FormatError):
        parse_state("p0.0 p1.0", sf.system)  # missing the state keyword
    with pytest.raises(FormatError):
        parse_state("state p0.0\nstate p1.0", sf.system)
    with pytest.raises(FormatError, match="outside workspace"):
        parse_state("state nowhere", sf.system)
    with pytest.raises(FormatError, match="^missing state line$"):
        parse_state("# a comment and no state\n", sf.system)


def test_move_scripts_round_trip():
    sf = arm_system(4)
    rng = random.Random(2)
    for _ in range(25):
        moves = random_edge_path(sf.system, sf.seeds[0], 12, rng)
        path = from_edge_path(sf.seeds[0], moves, sf.system)
        text = serialize_path(path)
        assert parse_path(text, sf.system) == path


def test_move_script_errors():
    sf = arm_system(2)
    seed = sf.seeds[0]
    good = serialize_path(
        from_edge_path(
            seed, random_edge_path(sf.system, seed, 2, random.Random(0)), sf.system
        )
    )
    with pytest.raises(FormatError, match="start"):
        parse_path("step 1: (tipflip, 1, 0, fwd)", sf.system)
    skipped = good.replace("step 2", "step 3")
    with pytest.raises(FormatError, match=r"step 2"):
        parse_path(skipped, sf.system)
    with pytest.raises(FormatError, match="unknown generator"):
        parse_path(
            "start (0,0,h) (1,0,h)\nstep 1: (warp, 1, 0, fwd)", sf.system
        )
    with pytest.raises(FormatError, match="direction"):
        parse_path(
            "start (0,0,h) (1,0,h)\nstep 1: (tipflip, 1, 0, up)", sf.system
        )
    with pytest.raises(FormatError, match="offset"):
        parse_path(
            "start (0,0,h) (1,0,h)\nstep 1: (tipflip, 1, fwd)", sf.system
        )
    with pytest.raises(FormatError, match="repeats"):
        parse_path(
            "start (0,0,h) (1,0,h)\n"
            "step 1: (tipflip, 1, 0, fwd); (tipflip, 1, 0, fwd)",
            sf.system,
        )


def test_a_repeated_move_parses_to_one_object():
    sf = arm_system(2)
    path = parse_path(
        "start (0,0,h) (1,0,h)\n"
        "step 1: (tipflip, 1, 0, fwd)\n"
        "step 2: (tipflip, 1, 0, bwd)\n"
        "step 3: (tipflip, 1, 0, fwd)\n",
        sf.system,
    )
    (first,), (undo,), (again,) = path.steps
    assert again is first
    assert undo == first.reverse() and undo is not first
    assert path.steps[2] is path.steps[0]  # the same step text, one frozenset


@pytest.mark.parametrize(
    "make", [lambda: arm_system(5), lambda: agv_grid_fixture(3, 3)], ids=["arm", "agv-grid"]
)
def test_parsed_moves_are_the_systems_own_objects(make):
    """Parsing a script twice gives the same object for each move, and a
    move is the catalogue's object whichever is made first."""
    sf = make()
    moves = random_edge_path(sf.system, sf.seeds[0], 40, random.Random(9))
    text = serialize_path(from_edge_path(sf.seeds[0], moves, sf.system))
    fresh = make()  # its catalogue is not enumerated yet
    first = parse_path(text, fresh.system)
    again = parse_path(text, fresh.system)
    catalogue = {act: act for act in fresh.system.all_actions}
    for one, other in zip(first.steps, again.steps):
        ((act,), (same,)) = (one, other)
        assert same is act
        assert catalogue[act] is act
    later = parse_path(text, sf.system)  # after the catalogue was read
    catalogue = {act: act for act in sf.system.all_actions}
    assert all(catalogue[act] is act for step in later.steps for act in step)


@pytest.mark.parametrize(
    "sf", [arm_system(5), agv_grid_fixture(3, 3)], ids=["arm", "agv-grid"]
)
def test_scripts_share_one_object_per_move_and_round_trip(sf):
    moves = random_edge_path(sf.system, sf.seeds[0], 80, random.Random(4))
    path = from_edge_path(sf.seeds[0], moves, sf.system)
    text = serialize_path(path)
    parsed = parse_path(text, sf.system)
    assert parsed == path
    assert serialize_path(parsed) == text
    acts = [a for step in parsed.steps for a in step]
    distinct = {}
    for a in acts:
        assert distinct.setdefault(a, a) is a
    assert len(distinct) < len(acts)  # the walk repeats moves
    distinct_steps = {}
    for step in parsed.steps:
        assert distinct_steps.setdefault(step, step) is step
    assert len(distinct_steps) < len(parsed.steps)


def test_a_step_repeating_an_action_reports_its_own_line():
    """Only valid steps are remembered, so a step that repeats an action
    fails on its own line, also after a valid step with its first action."""
    sf = arm_system(2)
    start = "start (0,0,h) (1,0,h)\nstep 1: (tipflip, 1, 0, fwd)\n"
    repeat = "(tipflip, 1, 0, fwd); (tipflip, 1, 0, fwd)"
    for script, line in (
        (start + f"step 2: {repeat}\n", 3),
        (start + "step 2: (tipflip, 1, 0, bwd)\n" + f"step 3: {repeat}\n", 4),
    ):
        with pytest.raises(FormatError, match=f"line {line}: step {line - 1} repeats"):
            parse_path(script, sf.system)


def test_over_long_integers_are_format_errors():
    """Every integer the parsers read is refused with its line once it
    passes Python's 4,300-digit limit for int(): in a cell, a graph
    node, an action's offsets and a step's number.  A sign is not a
    digit."""
    long_, too_long = "1" * 5000, "line 2: integer of 5000 digits is too long"
    expect_error(f"lattice square2d\nworkspace ({long_},0)\n", too_long)
    expect_error(f"lattice square2d\nworkspace (-{long_},0)\n", too_long)
    expect_error(f"lattice squareEdge2d\nworkspace (0,{long_},h)\n", too_long)
    expect_error(f"lattice finiteGraph\nnodes 0 {long_}\n", too_long)
    arm, k5 = arm_system(2).system, graph_agv_system(complete_graph(5), 1).system
    with pytest.raises(FormatError, match=too_long):
        parse_state(f"# arm\nstate (0,0,h) ({long_},0,h)\n", arm)
    for script, system in (
        (f"start (0,0,h) (1,0,h)\nstep {long_}: (tipflip, 1, 0, fwd)", arm),
        (f"start (0,0,h) (1,0,h)\nstep 1: (tipflip, {long_}, 0, fwd)", arm),
        (f"start 0\nstep 1: (token, 0, {long_}, fwd)", k5),
    ):
        with pytest.raises(FormatError, match=too_long):
            parse_path(script, system)


def test_a_bad_action_after_a_good_one_reports_its_own_line():
    sf = arm_system(2)
    start = "start (0,0,h) (1,0,h)\nstep 1: (tipflip, 1, 0, fwd)\n"
    for bad, pattern in (
        ("(tipflip, 1, 0, up)", "line 3: bad direction"),
        ("(tipflip, 1, fwd)", "line 3: action for tipflip needs two"),
        ("tipflip, 1, 0, fwd", "line 3: bad action"),
    ):
        with pytest.raises(FormatError, match=pattern):
            parse_path(start + f"step 2: {bad}\n", sf.system)


def test_export_complex_layout():
    sf = agv_grid_fixture(1, 1)
    cx = build_complex(sf.system, sf.seeds)
    text = export_complex(cx)
    lines = text.splitlines()
    assert lines[0] == "fvec: 4 4 1"
    assert "dim 0" in lines and "dim 1" in lines and "dim 2" in lines
    cell_lines = [l for l in lines if l.startswith("cell ")]
    assert len(cell_lines) == 9
    square = cell_lines[-1]
    facets = re.search(r"facets (.*)$", square).group(1).split()
    assert len(facets) == 4
    assert all(0 <= int(i) < 4 for i in facets)


# Malformed move scripts and the exact ``FormatError`` text each raises:
# name -> (system, script, message).  The texts pin the diagnostics,
# line numbers included, so a faster parser reports the same errors.
_ARM_START = "start (0,0,h) (1,0,h)\n"
_ARM_MOVE = "(tipflip, 1, 0, fwd)"
_GRID_START = "start p0.0 p1.0\n"
BAD_SCRIPTS = {
    "duplicate-start": (
        "arm", _ARM_START + f"step 1: {_ARM_MOVE}\n" + _ARM_START,
        "line 3: duplicate start line",
    ),
    "step-before-start": (
        "arm", f"step 1: {_ARM_MOVE}\n" + _ARM_START,
        "line 1: the start line must come first",
    ),
    "neither-start-nor-step": (
        "arm", _ARM_START + f"stop 1: {_ARM_MOVE}\n",
        "line 2: expected a start or step line",
    ),
    "step-without-a-space": (
        "arm", _ARM_START + f"step1: {_ARM_MOVE}\n",
        "line 2: expected a start or step line",
    ),
    "missing-start": ("arm", "# only a comment\n\n", "missing start line"),
    "bad-start-cell": (
        "arm", "start (0,0,h) (1,0)\n",
        "line 1: bad edge-lattice cell '(1,0)', expected (x,y,h|v)",
    ),
    "wrong-index": (
        "arm", _ARM_START + f"step 2: {_ARM_MOVE}\n",
        "line 2: expected step 1, got step 2",
    ),
    "zero-padded-index": (
        "arm", _ARM_START + f"step 1: {_ARM_MOVE}\nstep 007: (tipflip, 1, 0, bwd)\n",
        "line 3: expected step 2, got step 7",
    ),
    "repeated-action": (
        "arm", _ARM_START + f"step 1: {_ARM_MOVE}; {_ARM_MOVE}\n",
        "line 2: step 1 repeats an action",
    ),
    "zero-padded-index-repeating-an-action": (
        "arm", _ARM_START + f"step 01: {_ARM_MOVE}; {_ARM_MOVE}\n",
        "line 2: step 1 repeats an action",
    ),
    "unknown-generator": (
        "arm", _ARM_START + "step 1: (warp, 1, 0, fwd)\n",
        "line 2: unknown generator 'warp'",
    ),
    "bad-direction": (
        "arm", _ARM_START + "step 1: (tipflip, 1, 0, up)\n",
        "line 2: bad direction 'up', expected fwd or bwd",
    ),
    "too-few-offsets": (
        "arm", _ARM_START + "step 1: (tipflip, 1, fwd)\n",
        "line 2: action for tipflip needs two integer offsets",
    ),
    "non-integer-offset": (
        "arm", _ARM_START + "step 1: (tipflip, 1, x, fwd)\n",
        "line 2: action for tipflip needs two integer offsets",
    ),
    "too-few-fields": (
        "arm", _ARM_START + "step 1: (tipflip)\n",
        "line 2: bad action '(tipflip)': too few fields",
    ),
    "unbracketed-action": (
        "arm", _ARM_START + "step 1: tipflip, 1, 0, fwd\n",
        "line 2: bad action 'tipflip, 1, 0, fwd', expected (gid, ..., fwd|bwd)",
    ),
    "graph-node-count": (
        "grid", _GRID_START + "step 1: (token, p0.0, fwd)\n",
        "line 2: action for token needs 2 node fields, got 1",
    ),
    "graph-bad-node": (
        "grid", _GRID_START + "step 1: (token, p0.0, p0 1, fwd)\n",
        "line 2: bad node token 'p0 1'",
    ),
    "graph-mixed-node-labels": (
        "grid", _GRID_START + "step 1: (token, p0.0, p0.1, fwd); (token, 0, 1, fwd)\n",
        "line 2: action node fields mix integer and string labels",
    ),
    "graph-mixed-labels-across-steps": (
        "grid", _GRID_START + "step 1: (token, p0.0, p0.1, fwd)\n"
        "step 2: (token, p0.1, 1, bwd)\n",
        "line 3: action node fields mix integer and string labels",
    ),
    "after-comment-lines": (
        "arm",
        "# a script\n\n   # with notes\n" + _ARM_START + "# then moves\n"
        f"step 1: {_ARM_MOVE}  # a move\n\n# and one more\n"
        "step 2: (tipflip, 1, 0, sideways)\n",
        "line 9: bad direction 'sideways', expected fwd or bwd",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SCRIPTS))
def test_move_script_diagnostics_are_pinned(name):
    systems = {"arm": arm_system(2).system, "grid": agv_grid_fixture(2, 2).system}
    system, script, message = BAD_SCRIPTS[name]
    with pytest.raises(FormatError) as err:
        parse_path(script, systems[system])
    assert str(err.value) == message


# The writers' exact bytes.  A round trip cannot see a trailing blank,
# since the parser strips it, so these pin the text itself: sha256 for
# the long ones, the whole text for the short ones.
_BIRTH = Generator("birth", ((0, 0), (1, 0)), {(0, 0)}, set(), {(0, 0)})
_COFINITE = System(
    Workspace(square_lattice(), None, (), frozenset({(2, 1), (0, -1)})), (_BIRTH,)
)
SYSTEM_SHA256 = {
    "hex-preserving-all": (
        lambda: hex_pivot_system(VARIANT_PRESERVING),
        "8cf54ebb6ef48c2c13eebe1f5bf4067a049b7030c04ff0f9f0172d0f4e16fe03",
    ),
    "sliding-ring-1x1": (
        lambda: sliding_ring_fixture(1, 1),
        "5568d40e4bdfe210452cb7156c4608ddf93a357c99d1e96a61a77fb5aae8f27c",
    ),
    "arm-3": (
        lambda: arm_system(3),
        "02e545b042e87d014fd69266fbea645bbd3ddbd7d24a816236e94fa812bc9815",
    ),
    "hex-trap": (
        lambda: hex_connectivity_trap(True),
        "b3d12a41cb4b7874c13b9903146f9ab90632776dbc1e76af20f3266216bc7b6d",
    ),
}


@pytest.mark.parametrize("name", sorted(SYSTEM_SHA256))
def test_serialize_bytes_are_pinned(name):
    make, digest = SYSTEM_SHA256[name]
    assert hashlib.sha256(serialize(make()).encode()).hexdigest() == digest


def test_an_exclude_line_and_an_empty_field_are_written_exactly():
    assert serialize(_COFINITE) == (
        "lattice square2d\n"
        "workspace all\n"
        "exclude (0,-1) (2,1)\n"
        "generator birth\n"
        "  support (0,0) (1,0)\n"
        "  trace (0,0)\n"
        "  occ0\n"
        "  occ1 (0,0)\n"
        "end\n"
    )


def test_empty_states_and_steps_are_written_without_a_trailing_blank():
    act = make_action(_BIRTH, (3, 4), FORWARD, _COFINITE.workspace.lattice)
    assert serialize_state(frozenset(), _COFINITE) == "state\n"
    path = CubePath(frozenset(), (frozenset(), frozenset({act})), _COFINITE)
    assert serialize_path(path) == "start\nstep 1:\nstep 2: (birth, 3, 4, fwd)\n"
    path = CubePath(frozenset({(5, 5), (-1, 2)}), (frozenset({act}), frozenset()), _COFINITE)
    assert serialize_path(path) == "start (-1,2) (5,5)\nstep 1: (birth, 3, 4, fwd)\nstep 2:\n"
