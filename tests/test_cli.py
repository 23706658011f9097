"""Command line driver, exercised in process."""

import pytest

from cubeplan.cli import main
from cubeplan.cubepaths import CubePath
from cubeplan.errors import CubeplanError
from cubeplan.fileformat import parse_system_file, serialize, serialize_path
from cubeplan.lattice import graph_lattice, square_lattice
from cubeplan.model import Generator, System, Workspace
from cubeplan.systems import agv_grid_fixture, arm_system

from util import NOT_PLACEMENTS


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_homology_of_five_tokens_free_on_k5(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "agv-k5", "--n", "2")
    assert code == 0
    assert "betti: 1 7 1" in out
    assert "chi: -5" in out


def test_stats_counts(capsys):
    code, out, _ = run(capsys, "stats", "--builtin", "sliding-ring", "--p", "2", "--q", "3")
    assert code == 0
    assert "fvec: 38 46 8" in out
    code, out, _ = run(capsys, "stats", "--builtin", "agv-grid", "--m", "3", "--n", "4")
    assert code == 0
    assert "fvec: 20 31 12" in out


def test_check_npc_reports_the_trap_and_still_exits_zero(capsys):
    code, out, _ = run(capsys, "check-npc", "--builtin", "hex-trap")
    assert code == 0
    assert "violation at" in out
    assert "spanned 0 times" in out
    code, out, _ = run(capsys, "check-npc", "--builtin", "hex-trap-free")
    assert code == 0
    assert out.strip() == "OK"


def test_build_text_and_counts(capsys, tmp_path):
    target = tmp_path / "complex.txt"
    code, out, _ = run(
        capsys, "build", "--builtin", "agv-grid", "--m", "1", "--n", "1",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("fvec: 4 4 1")
    assert "dim 2" in text


def test_export_system_round_trips(capsys):
    code, out, _ = run(capsys, "export", "--builtin", "arm", "--n", "3", "--what", "system")
    assert code == 0
    assert parse_system_file(out) == arm_system(3)


def test_export_system_builds_no_complex(capsys, tmp_path):
    """Writing the system text reads neither the seed file nor the cap."""
    code, out, err = run(
        capsys, "export", "--builtin", "arm", "--n", "3", "--what", "system",
        "--seed", str(tmp_path / "missing.state"), "--cap", "2",
    )
    assert (code, err) == (0, "")
    assert parse_system_file(out) == arm_system(3)


def test_shapes_flag_builds_the_quotient(capsys):
    code, out, _ = run(
        capsys, "stats", "--builtin", "hex", "--variant", "preserving",
        "--unbounded", "--shapes",
    )
    assert code == 0
    assert "fvec: 11 24 9" in out


def test_shapes_on_the_square_edge_lattice(capsys, tmp_path):
    """A quotient on squareEdge2d, whose cells are (x, y, orientation),
    translates by the least cell's first two coordinates."""
    system = tmp_path / "elbow.txt"
    system.write_text(
        "lattice squareEdge2d\n"
        "workspace all\n"
        "generator corner\n"
        "  support (0,0,h) (0,0,v) (0,1,h) (1,0,v)\n"
        "  trace (0,0,h) (0,0,v) (0,1,h) (1,0,v)\n"
        "  occ0 (0,0,h) (1,0,v)\n"
        "  occ1 (0,0,v) (0,1,h)\n"
        "end\n"
        "seed (0,0,h) (1,0,v)\n"
    )
    code, out, _ = run(capsys, "stats", "--system", str(system), "--shapes", "--cap", "50")
    assert (code, out) == (0, "fvec: 2 1\n")
    code, out, _ = run(capsys, "check-npc", "--system", str(system), "--shapes")
    assert (code, out) == (0, "OK\n")


def test_random_path_optimize_normalize_pipeline(capsys, tmp_path):
    code, raw, _ = run(
        capsys, "random-path", "--builtin", "agv-grid", "--m", "3", "--n", "3",
        "--length", "14", "--rng-seed", "4",
    )
    assert code == 0
    code, raw2, _ = run(
        capsys, "random-path", "--builtin", "agv-grid", "--m", "3", "--n", "3",
        "--length", "14", "--rng-seed", "4",
    )
    assert raw2 == raw

    script = tmp_path / "walk.txt"
    script.write_text(raw)
    code, out, _ = run(
        capsys, "optimize", "--builtin", "agv-grid", "--m", "3", "--n", "3",
        "--in", str(script),
    )
    assert code == 0
    assert "# length 14 ->" in out

    code, normal, _ = run(
        capsys, "normalize", "--builtin", "agv-grid", "--m", "3", "--n", "3",
        "--in", str(script),
    )
    assert code == 0
    assert "# normal True" in normal

    again = tmp_path / "normal.txt"
    again.write_text(normal)
    code, twice, _ = run(
        capsys, "normalize", "--builtin", "agv-grid", "--m", "3", "--n", "3",
        "--in", str(again),
    )
    assert code == 0
    tail = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert tail(twice) == tail(normal)


def test_lift_success_and_failure_exit_codes(capsys, tmp_path):
    script = tmp_path / "shape_walk.txt"
    code, out, _ = run(
        capsys, "random-path", "--builtin", "hex", "--variant", "preserving",
        "--unbounded", "--shapes", "--length", "6", "--rng-seed", "1",
    )
    assert code == 0
    script.write_text(out)
    code, out, err = run(
        capsys, "lift", "--builtin", "hex", "--variant", "preserving",
        "--radius", "6", "--in", str(script), "--base", "(1,1)",
    )
    assert code == 0
    assert "start" in out

    code, out, err = run(
        capsys, "lift", "--builtin", "hex", "--variant", "preserving",
        "--radius", "1", "--in", str(script), "--base", "(9,9)",
    )
    assert code == 1
    assert "lift failed at step" in err


def test_lift_on_a_finite_graph_is_a_domain_error(capsys, tmp_path):
    script = tmp_path / "walk.txt"
    code, out, _ = run(
        capsys, "random-path", "--builtin", "agv-grid", "--m", "2", "--n", "2",
        "--length", "5", "--rng-seed", "1",
    )
    assert code == 0
    script.write_text(out)
    code, out, err = run(
        capsys, "lift", "--builtin", "agv-grid", "--m", "2", "--n", "2",
        "--in", str(script), "--base", "(0,0)",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "translation-symmetric" in err


def test_domain_errors_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("lattice square2d\nworkspace (0,0\n")
    code, out, err = run(capsys, "stats", "--system", str(bad))
    assert code == 1
    assert "line 2" in err
    code, out, err = run(capsys, "stats", "--system", str(tmp_path / "missing.txt"))
    assert code == 1


def test_over_long_integers_exit_one(capsys, tmp_path):
    """A token past Python's 4,300-digit limit for int() is a refused
    file, not a traceback."""
    long_ = "1" * 5000
    system = tmp_path / "sys.txt"
    system.write_text(f"lattice square2d\nworkspace ({long_},0)\n")
    script = tmp_path / "s.moves"
    script.write_text(f"start (0,0,h) (1,0,h)\nstep {long_}: (tipflip, 1, 0, fwd)\n")
    for argv in (
        ("stats", "--system", str(system)),
        ("optimize", "--builtin", "arm", "--n", "2", "--in", str(script)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: line 2: integer of 5000 digits is too long")


ONES = "1" * 5000
LIFT = ("lift", "--builtin", "hex", "--in", "unread.moves", "--base")

# an over-long flag value -> (arguments, the last line of the refusal)
OVER_LONG_VALUES = {
    "base-digits": (
        (*LIFT, f"({ONES},0)"),
        "cubeplan lift: error: argument --base: integer of 5000 digits is too long",
    ),
    "base-not-a-pair": (
        (*LIFT, f"(1,{ONES}x)"),
        "cubeplan lift: error: argument --base: expected (tx,ty), got "
        f"'(1,{ONES[:37]}'... (5005 characters)",
    ),
    "cap-not-an-int": (
        ("stats", "--builtin", "arm", "--cap", f"{ONES}x"),
        f"cubeplan stats: error: argument --cap: invalid int value: '{ONES[:40]}'"
        "... (5001 characters)",
    ),
}


@pytest.mark.parametrize("argv, last", OVER_LONG_VALUES.values(), ids=OVER_LONG_VALUES)
def test_an_over_long_flag_value_is_refused_without_echoing_it(capsys, argv, last):
    """The refusal gives the digit count, or a short prefix and the
    length, not the value or the type's name."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines()[-1] == last
    assert len(err) < 1000 and "_parse_offset" not in err


NOT_UTF8 = {
    "system": ("stats", "--system", "@"),
    "seed": ("stats", "--builtin", "arm", "--seed", "@"),
    "optimize-in": ("optimize", "--builtin", "arm", "--in", "@"),
    "lift-in": ("lift", "--builtin", "hex", "--base", "(0,0)", "--in", "@"),
}


@pytest.mark.parametrize("argv", NOT_UTF8.values(), ids=NOT_UTF8)
def test_an_input_file_that_is_not_utf8_is_refused_in_one_line(capsys, tmp_path, argv):
    """Every flag that reads a file refuses bytes that do not decode,
    naming the file, with exit code 1 and no traceback."""
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, *(str(path) if a == "@" else a for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"


# a file each flag of NOT_UTF8 reads, which parses
PARSED = {
    "system": "# a comment\nlattice square2d\nworkspace (0,0) (1,0)\nseed (0,0)\n",
    "seed": "state (0,0,h) (1,0,h)\n",
    "optimize-in": "start (0,0,h) (1,0,h)\nstep 1: (tipflip, 1, 0, fwd)\n",
    "lift-in": "start (0,0) (0,1) (1,0)\nstep 1: (pivot1, 1, -1, bwd)\n",
}


@pytest.mark.parametrize("name", NOT_UTF8)
def test_an_input_file_that_starts_with_a_byte_order_mark_is_read_without_it(
    capsys, tmp_path, name
):
    """A UTF-8 file written with a leading byte-order mark reads as the
    same file without it."""
    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / "in.txt"
        path.write_bytes(mark + PARSED[name].encode())
        runs.append(run(capsys, *(str(path) if a == "@" else a for a in NOT_UTF8[name])))
    assert runs[0][0] == 0 and runs[1] == runs[0]


def test_a_refusal_past_a_byte_order_mark_counts_it(capsys, tmp_path):
    """Bytes that are not UTF-8 are refused at their offset in the file."""
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xef\xbb\xbf\xff")
    code, out, err = run(capsys, "stats", "--system", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 3)\n"


MIXED_GENERATOR = (
    "lattice finiteGraph\nnodes 0 1 2\nedges (0,1) (1,2)\nworkspace all\n"
    "generator token\n  support a 1\n  trace a 1\n  occ0 a\n  occ1 1\n"
    "  edges (a,1)\nend\n"
)


@pytest.mark.parametrize(
    "argv, files, line",
    [
        # a generator whose support mixes label types
        (
            ("stats", "--system", "sys.txt"),
            {"sys.txt": MIXED_GENERATOR},
            5,
        ),
        # a move script whose node fields mix label types
        (
            ("optimize", "--builtin", "agv-k5", "--in", "s.moves"),
            {"s.moves": "start 0 1\nstep 1: (token, 0, 2, fwd); (token, x, y, fwd)\n"},
            2,
        ),
    ],
    ids=["generator-support", "script-node-fields"],
)
def test_mixed_label_types_exit_one_without_a_traceback(capsys, tmp_path, argv, files, line):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: line {line}: ") and "mix" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(NOT_PLACEMENTS))
@pytest.mark.parametrize("command", ["optimize", "normalize"])
def test_scripts_naming_no_placement_exit_one(capsys, tmp_path, name, command):
    builtin, _, text, _, reason = NOT_PLACEMENTS[name]
    script = tmp_path / "bad.moves"
    script.write_text(text)
    code, out, err = run(capsys, command, *builtin, "--in", str(script))
    assert code == 1
    assert out == ""
    assert err.startswith("error: input path invalid: ")
    assert f"not a placement of the system ({reason})" in err


@pytest.mark.parametrize("command", ["optimize", "normalize"])
def test_script_starting_outside_the_workspace_exits_one(capsys, tmp_path, command):
    ball = ("--builtin", "hex", "--radius", "2")
    code, raw, _ = run(
        capsys, "random-path", *ball, "--length", "2", "--rng-seed", "1"
    )
    assert code == 0
    start, steps = raw.split("\n", 1)
    script = tmp_path / "outside.moves"
    script.write_text(f"{start} (9,9)\n{steps}")
    code, out, err = run(capsys, command, *ball, "--in", str(script))
    assert code == 1
    assert out == ""
    assert err.startswith("error: input path invalid: start state invalid: ")
    assert "(9, 9) outside workspace" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats"])  # no system source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_threads_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--builtin", "hex", "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command in ("optimize", "normalize", "lift")
        for flag in ("--seed start.state", "--cap 1", "--shapes")
    ]
    + [("random-path", "--cap 1")],
)
def test_flags_a_subcommand_never_reads_are_usage_errors(capsys, command, flag):
    argv = [command, "--builtin", "arm", "--n", "4", *flag.split()]
    if command != "random-path":
        argv += ["--in", "walk.moves"]
    if command == "lift":
        argv += ["--base", "(0,0)"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--builtin", "arm", "--n", "4", "--cap", "0"],
        ["stats", "--builtin", "arm", "--n", "4", "--cap", "-1"],
        ["check-npc", "--builtin", "arm", "--n", "4", "--cap", "0"],
        ["random-path", "--builtin", "arm", "--n", "4", "--length", "-3"],
        ["random-path", "--builtin", "arm", "--n", "4", "--length", "-1", "--shapes"],
    ],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be at least" in err


def test_integer_flags_read_what_int_reads(capsys):
    """A sign, digit underscores and surrounding blanks stay accepted."""
    plain = run(capsys, "random-path", "--builtin", "arm", "--length", "3", "--rng-seed", "10")
    assert plain[0] == 0
    spelled = ("--length", " +3 ", "--rng-seed", "1_0")
    assert run(capsys, "random-path", "--builtin", "arm", *spelled) == plain


def test_the_least_cap_and_length_are_accepted(capsys):
    code, out, err = run(capsys, "stats", "--builtin", "arm", "--n", "4", "--cap", "1")
    assert (code, out) == (0, "fvec: 1\n")
    assert "vertex cap" in err
    code, out, _ = run(capsys, "random-path", "--builtin", "arm", "--n", "4", "--length", "0")
    assert (code, out) == (0, "start (0,0,h) (1,0,h) (2,0,h) (3,0,h)\n")


def test_seed_file_overrides_builtin_seed(capsys, tmp_path):
    sf = agv_grid_fixture(2, 2)
    statefile = tmp_path / "state.txt"
    statefile.write_text("state p0.2 p1.2\n")
    sysfile = tmp_path / "system.txt"
    sysfile.write_text(serialize(sf))
    code, out, _ = run(
        capsys, "stats", "--system", str(sysfile), "--seed", str(statefile)
    )
    assert code == 0
    assert "fvec: 9 12 4" in out


def test_truncation_warns_on_stderr(capsys):
    code, out, err = run(
        capsys, "stats", "--builtin", "agv-grid", "--m", "4", "--n", "4",
        "--cap", "5",
    )
    assert code == 0
    assert "vertex cap" in err


def test_constraint_flag_overrides_the_systems_rule(capsys):
    """``--constraint none`` frees the trap, and ``--constraint
    connected`` traps the free fixture: it then reports exactly the
    trap's 64 violations."""
    code, out, _ = run(capsys, "check-npc", "--builtin", "hex-trap", "--constraint", "none")
    assert (code, out) == (0, "OK\n")
    code, out, _ = run(capsys, "stats", "--builtin", "hex-trap", "--constraint", "none")
    assert (code, out) == (0, "fvec: 64 288 432 216\n")
    _, trapped, _ = run(capsys, "check-npc", "--builtin", "hex-trap")
    assert len(trapped.splitlines()) == 64
    code, out, _ = run(
        capsys, "check-npc", "--builtin", "hex-trap-free", "--constraint", "connected"
    )
    assert (code, out) == (0, trapped)


def test_export_writes_the_complex_by_default(capsys):
    _, built, _ = run(capsys, "build", "--builtin", "arm", "--n", "3")
    code, out, _ = run(capsys, "export", "--builtin", "arm", "--n", "3")
    assert code == 0
    assert out.startswith("fvec: ")
    assert out == built


SQUARE = "lattice square2d\nworkspace (0,0) (1,0)\n"
GRAPH = "lattice finiteGraph\nnodes 0 1\n"

# refusal -> (a call of the library, or CLI arguments where "@TEXT" is a
# file holding TEXT; the exit code; the message)
REFUSALS = {
    "constraint-arity": (
        ("stats", "--system", "@" + SQUARE + "constraint a b\n"), 1,
        "line 3: constraint takes one name",
    ),
    **{
        f"generator-{why}": (
            ("stats", "--system", f"@{SQUARE}generator{ids}\n"), 1,
            "line 3: generator takes one identifier",
        )
        for why, ids in (("no-id", ""), ("two-ids", " a b"), ("not-an-identifier", " 1a"))
    },
    "graph-without-nodes": (
        ("stats", "--system", "@lattice finiteGraph\nworkspace all\n"), 1,
        "line 1: finite graphs need a nodes line",
    ),
    "duplicate-obstacle": (
        ("stats", "--system", "@" + SQUARE + "obstacle (0,0) empty\nobstacle (0,0) occupied\n"),
        1, "line 4: duplicate obstacle cell (0, 0)",
    ),
    "obstacle-outside-workspace": (
        ("stats", "--system", "@" + SQUARE + "obstacle (0,0) empty\nobstacle (5,5) occupied\n"),
        1, "line 4: obstacle cell (5, 5) outside workspace",
    ),
    "bad-second-seed": (
        ("stats", "--system", "@" + SQUARE + "seed (0,0)\nseed (9,9)\n"), 1,
        "line 4: occupied cell (9, 9) outside workspace",
    ),
    "graph-without-a-node": (
        ("stats", "--system", "@lattice finiteGraph\nnodes\nworkspace all\n"), 1,
        "line 2: finiteGraph lattice needs at least one node",
    ),
    "duplicate-graph-edges": (
        ("stats", "--system", "@" + GRAPH + "edges (0,1) (1,0)\nworkspace all\n"), 1,
        "line 3: duplicate graph edges",
    ),
    "graph-edge-loop": (
        ("stats", "--system", "@" + GRAPH + "edges (0,0)\nworkspace all\n"), 1,
        "line 3: bad graph edge (0, 0)",
    ),
    "graph-edge-unknown-node": (
        ("stats", "--system", "@" + GRAPH + "edges (0,7)\nworkspace all\n"), 1,
        "line 3: graph edge (0, 7) uses unknown node",
    ),
    "excluded-cell-invalid": (
        ("stats", "--system", "@" + GRAPH + "workspace all\nexclude 9\n"), 1,
        "line 4: excluded cell 9 invalid for lattice",
    ),
    "unbounded-build": (
        ("stats", "--builtin", "hex", "--unbounded"), 1,
        "WorkspaceNotFinite: complex building needs a finite workspace",
    ),
    "no-start-state": (
        ("stats", "--system", "@" + SQUARE), 1,
        "no start state: pass --seed or use a system file with seed lines",
    ),
    "bad-base": (
        ("lift", "--builtin", "hex", "--in", "@start (0,0)\n", "--base", "(1,x)"), 2,
        "expected (tx,ty), got '(1,x)'",
    ),
    "base-too-long": (
        ("lift", "--builtin", "hex", "--in", "@start (0,0)\n", "--base", f"({'1' * 5000},0)"),
        2, "argument --base: integer of 5000 digits is too long",
    ),
    "cap-too-long": (
        ("stats", "--builtin", "arm", "--cap", "1" * 5000), 2,
        "argument --cap: integer of 5000 digits is too long",
    ),
    "rng-seed-too-long": (
        ("random-path", "--builtin", "arm", "--rng-seed", "1" * 5000), 2,
        "argument --rng-seed: integer of 5000 digits is too long",
    ),
    "signed-length-too-long": (
        ("random-path", "--builtin", "arm", "--length", "+" + "1" * 5000), 2,
        "argument --length: integer of 5000 digits is too long",
    ),
    "underscored-cap-too-long": (
        ("stats", "--builtin", "arm", "--cap", "_".join("1" * 5001)), 2,
        "argument --cap: integer of 5001 digits is too long",
    ),
    "cap-not-an-int": (
        ("stats", "--builtin", "arm", "--cap", "x"), 2, "argument --cap: invalid int value: 'x'",
    ),
    "radius-not-an-int": (
        ("stats", "--builtin", "hex", "--radius", "x"), 2,
        "argument --radius: invalid int value: 'x'",
    ),
    "serialize-what": (lambda: serialize(42), 1, "cannot serialize int"),
    "serialize-generator-id": (
        lambda: serialize(
            System(
                Workspace(square_lattice(), None),
                (Generator("two words", ((0, 0),), ((0, 0),), (), ((0, 0),)),),
            )
        ),
        1, "generator id 'two words' is not serializable",
    ),
    "serialize-node-label": (
        lambda: serialize(System(Workspace(graph_lattice(("a b", "c"), ()), None), ())),
        1, "node label 'a b' is not serializable",
    ),
    "serialize-path-without-system": (
        lambda: serialize_path(CubePath(frozenset([(0, 0)]), (), None)), 1,
        "serializing a path needs its system for cell syntax",
    ),
}


@pytest.mark.parametrize("call, code, message", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_exits_with_its_code_and_message(capsys, tmp_path, call, code, message):
    """A library refusal is a ``CubeplanError``, which the CLI prints
    with exit code 1; a malformed flag is a usage error, exit code 2."""
    if callable(call):
        with pytest.raises(CubeplanError) as exc:
            call()
        assert (code, str(exc.value)) == (1, message)
        return
    argv = []
    for i, arg in enumerate(call):
        if arg.startswith("@"):
            path = tmp_path / f"arg{i}.txt"
            path.write_text(arg[1:])
            arg = str(path)
        argv.append(arg)
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    assert message in err
