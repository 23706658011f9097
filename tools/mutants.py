#!/usr/bin/env python3
"""Run the mutant register: every mutant must fail the tests named for it.

    python3 tools/mutants.py

Each entry of ``REGISTER`` is a mutant: a file under ``src/``, an exact
old text, the text that replaces it, and the tests that must fail on the
result.  For each entry the tool copies ``src/`` into a temporary
directory and patches the copy; an entry whose old text does not occur
exactly once there is refused, so a refactor that moves the code breaks
the entry loudly.  It then runs each named test alone against the copy.
A mutant is killed when every named test fails; the named tests must
first pass together against an unpatched copy.

Prints one line per entry, ``killed`` or ``SURVIVED``.  Exits 0 when
every entry is killed, 1 when one survives and 2 when an entry is
refused, a named test will not run or the named tests fail unpatched.
Standard library only; the tests run under pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # one named test; the slowest killer below takes a few seconds


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # path under src/
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the tree's root


class RegisterError(Exception):
    """An entry that cannot be applied or tested as written."""


STATECOMPLEX = "tests/test_statecomplex.py::"

REGISTER = (
    Mutant(
        "commute-one-sided",
        "cubeplan/model.py",
        "return a.trace.isdisjoint(b.support) and b.trace.isdisjoint(a.support)",
        "return a.trace.isdisjoint(b.support)",
        (
            "tests/test_model.py::test_commute_pair_is_the_set_intersection_rule",
            "tests/test_model.py::test_commuting_actions_apply_in_any_order",
        ),
    ),
    Mutant(
        "embeddings-by-gid",
        "cubeplan/model.py",
        "offsets = self._embeddings.get(gen)\n"
        "            if offsets is None:\n"
        "                offsets = self._embeddings[gen] =",
        "offsets = self._embeddings.get(gen.gid)\n"
        "            if offsets is None:\n"
        "                offsets = self._embeddings[gen.gid] =",
        ("tests/test_cubepaths.py::test_validate_reads_each_move_alike_whatever_ran_before",),
    ),
    Mutant(
        "collapse-drop-without-xor",
        "cubeplan/topology.py",
        "                live[f] ^= i\n",
        "",
        (
            "tests/test_topology.py::test_collapse_finds_the_live_coface_of_a_facet_listed_twice",
            "tests/test_topology.py::test_arm_collapses_to_a_point",
        ),
    ),
    Mutant(
        "pass-1-without-key-check",
        "cubeplan/statecomplex.py",
        "if key not in stored:",
        "if True:",
        (
            "tests/test_shape.py::test_a_lone_sliding_module_is_one_shape_with_loop_edges",
            STATECOMPLEX + "test_random_shape_quotients_span_each_clique_once",
        ),
    ),
    Mutant(
        "pass-1-edge-based-at-own-vertex",
        "cubeplan/statecomplex.py",
        "if rank[w] < rank[vid] or (w == vid and acts[far[0]] < acts[n]):",
        "if False:",
        (
            STATECOMPLEX + "test_an_edge_is_based_at_its_lower_ranked_end[hex-trap]",
            STATECOMPLEX + "test_plain_records_match_the_cubes_rebuilt_from_states",
        ),
    ),
    Mutant(
        "pass-1-loop-tie-reversed",
        "cubeplan/statecomplex.py",
        "acts[far[0]] < acts[n]",
        "acts[n] < acts[far[0]]",
        (
            STATECOMPLEX + "test_an_edge_is_based_at_its_lower_ranked_end[slider-right]",
            STATECOMPLEX + "test_shape_records_match_the_cubes_rebuilt_from_states",
        ),
    ),
    Mutant(
        "pass-1-loop-tie-by-number",
        "cubeplan/statecomplex.py",
        "acts[far[0]] < acts[n]",
        "far[0] < n",
        (STATECOMPLEX + "test_shape_records_match_the_cubes_rebuilt_from_states",),
    ),
    Mutant(
        "embeddings-first-neighbour-only",
        "cubeplan/model.py",
        "for j in checks[i]:",
        "for j in checks[i][:1]:",
        ("tests/test_model.py::test_graph_embeddings_are_the_least_tuple_per_placement",),
    ),
    Mutant(
        "is-normal-sweeps-with-its-system",
        "cubeplan/cubepaths.py",
        "shrink_cube_path(CubePath(path.start, path.steps))",
        "shrink_cube_path(path)",
        ("tests/test_cubepaths.py::test_is_normal_equals_the_set_oracle_on_arbitrary_paths",),
    ),
    Mutant(
        "shape-actions-pattern-only",
        "cubeplan/shape.py",
        "if is_admissible(shape, act, system):",
        "if pattern_matches(shape, act):",
        ("tests/test_shape.py::test_shape_actions_equal_the_build_every_candidate_oracle",),
    ),
    Mutant(
        "lift-pattern-only",
        "cubeplan/shape.py",
        "if not is_admissible(state, cact, system):",
        "if not pattern_matches(state, cact):",
        ("tests/test_shape.py::test_lift_admits_each_move_by_the_global_rule",),
    ),
    Mutant(
        "corners-last-only",
        "cubeplan/model.py",
        "if m & (m - 1))",
        "if m == len(corners) - 1)",
        (
            "tests/test_shape.py::"
            "test_validate_and_lift_accept_a_step_exactly_when_its_cube_is_built",
        ),
    ),
    Mutant(
        "corners-retest-singles",
        "cubeplan/model.py",
        "if m & (m - 1))",
        "if m)",
        ("tests/test_cubepaths.py::test_validate_tests_the_rule_once_per_corner",),
    ),
    Mutant(
        "numbering-ignores-direction",
        "cubeplan/statecomplex.py",
        "return first + act.direction",
        "return first",
        (
            STATECOMPLEX + "test_both_frames_number_each_action_next_to_its_reverse[hex-trap]",
            STATECOMPLEX
            + "test_both_frames_number_each_action_next_to_its_reverse"
            "[five-module-connected-quotient]",
        ),
    ),
    Mutant(
        "leaving-drops-the-shift",
        "cubeplan/statecomplex.py",
        "shifts.append(shift if any(shift) else None)",
        "shifts.append(None)",
        (
            STATECOMPLEX + "test_shape_records_match_the_cubes_rebuilt_from_states",
            STATECOMPLEX + "test_connected_hex_quotients_key_cubes_by_numbers_as_by_names",
        ),
    ),
    Mutant(
        "shape-key-least-number",
        "cubeplan/shape.py",
        "return tuple(sorted(numbers))",
        "return (min(numbers),)",
        (
            STATECOMPLEX + "test_random_quotients_key_cubes_by_numbers_as_by_names",
            STATECOMPLEX + "test_connected_hex_quotients_key_cubes_by_numbers_as_by_names",
        ),
    ),
    Mutant(
        "obstacle-refused-at-first-line",
        "cubeplan/fileformat.py",
        "obstacles[e.index][1]",
        "obstacles[0][1]",
        ("tests/test_cli.py::test_each_refusal_exits_with_its_code_and_message[duplicate-obstacle]",),
    ),
    Mutant(
        "seed-refused-at-first-line",
        "cubeplan/fileformat.py",
        "seeds[e.index][1]",
        "seeds[0][1]",
        ("tests/test_cli.py::test_each_refusal_exits_with_its_code_and_message[bad-second-seed]",),
    ),
    Mutant(
        "sweep-recodes-every-step",
        "cubeplan/cubepaths.py",
        "if row[4] is None:",
        "if True:",
        ("tests/test_cubepaths.py::test_a_sweep_keeps_the_set_of_every_step_it_did_not_change",),
    ),
)


def patched_src(root: Path, mutant: Mutant | None, into: Path) -> Path:
    """A copy of the tree's ``src/`` in ``into``, with the mutant applied."""
    src = into / "src"
    shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / mutant.file
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        found = text.count(mutant.old)
        if found != 1:
            raise RegisterError(
                f"{mutant.name}: old text occurs {found} times in src/{mutant.file}"
            )
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def passes(root: Path, src: Path, tests) -> bool:
    """Whether the tests pass when they import from ``src``; a run that
    is neither a pass nor a test failure (a missing test, a collection
    error) raises ``RegisterError``."""
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *tests,
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        done = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RegisterError(f"{' '.join(tests)}: no result in {TIMEOUT_S} s") from None
    if done.returncode not in (0, 1):
        tail = "\n".join(done.stdout.splitlines()[-15:])
        raise RegisterError(f"{' '.join(tests)}: pytest exited {done.returncode}\n{tail}")
    return done.returncode == 0


def check(root: Path, entries, out=sys.stdout) -> int:
    """Run the entries against the tree at ``root``; the exit status."""
    try:
        with tempfile.TemporaryDirectory() as tmp:
            named = sorted({t for m in entries for t in m.tests})
            if named and not passes(root, patched_src(root, None, Path(tmp)), named):
                raise RegisterError("the named tests fail on the unpatched tree")
        survivors = 0
        for mutant in entries:
            with tempfile.TemporaryDirectory() as tmp:
                src = patched_src(root, mutant, Path(tmp))
                alive = [t for t in mutant.tests if passes(root, src, (t,))]
            survivors += bool(alive)
            verdict = f"SURVIVED (passes {', '.join(alive)})" if alive else "killed"
            print(f"{mutant.name}: {verdict}", file=out, flush=True)
    except RegisterError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 1 if survivors else 0


def main() -> int:
    return check(ROOT, REGISTER)


if __name__ == "__main__":
    sys.exit(main())
