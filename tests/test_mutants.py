"""The mutant register's runner, on a toy tree of one module and its tests."""

import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def toy_tree(root: Path) -> Path:
    (root / "src").mkdir()
    (root / "src" / "toy.py").write_text(
        "def double(x):\n    return 2 * x\n\n\ndef half(x):\n    return x // 2\n"
    )
    (root / "tests").mkdir()
    (root / "tests" / "test_toy.py").write_text(
        "from toy import double, half\n\n\n"
        "def test_double():\n    assert double(3) == 6\n\n\n"
        "def test_half():\n    assert half(4) == 2\n"
    )
    return root


def run(mod, root, *entries):
    out = io.StringIO()
    return mod.check(root, entries, out), out.getvalue()


def test_a_mutant_every_named_test_fails_on_is_killed(tmp_path):
    mod = load_tool()
    root = toy_tree(tmp_path)
    triple = mod.Mutant("triple", "toy.py", "2 * x", "3 * x", ("tests/test_toy.py::test_double",))
    assert run(mod, root, triple) == (0, "triple: killed\n")
    assert (root / "src" / "toy.py").read_text().count("2 * x") == 1


def test_a_mutant_a_named_test_passes_on_survives(tmp_path):
    mod = load_tool()
    root = toy_tree(tmp_path)
    # an equivalent mutant: no test can kill it
    shift = mod.Mutant(
        "shift", "toy.py", "x // 2", "x >> 1",
        ("tests/test_toy.py::test_half", "tests/test_toy.py::test_double"),
    )
    status, text = run(mod, root, shift)
    assert status == 1
    assert text.startswith("shift: SURVIVED (passes tests/test_toy.py::test_half, ")


def test_an_entry_whose_old_text_is_not_there_once_is_refused(tmp_path, capsys):
    mod = load_tool()
    root = toy_tree(tmp_path)
    for old, times in (("return", 2), ("4 * x", 0)):
        entry = mod.Mutant("stale", "toy.py", old, "pass", ("tests/test_toy.py::test_half",))
        assert run(mod, root, entry) == (2, "")
        assert f"occurs {times} times in src/toy.py" in capsys.readouterr().err


def test_a_named_test_that_fails_unpatched_or_is_missing_is_refused(tmp_path, capsys):
    mod = load_tool()
    root = toy_tree(tmp_path)
    (root / "tests" / "test_toy.py").write_text(
        (root / "tests" / "test_toy.py").read_text().replace("== 2", "== 3")
    )
    triple = mod.Mutant("triple", "toy.py", "2 * x", "3 * x", ("tests/test_toy.py::test_half",))
    assert run(mod, root, triple) == (2, "")
    assert "fail on the unpatched tree" in capsys.readouterr().err
    missing = mod.Mutant("triple", "toy.py", "2 * x", "3 * x", ("tests/test_toy.py::test_gone",))
    assert run(mod, root, missing) == (2, "")
    assert "pytest exited 4" in capsys.readouterr().err


def test_the_register_names_each_mutant_once_with_its_killers():
    register = load_tool().REGISTER
    assert len({m.name for m in register}) == len(register)
    for m in register:
        assert m.tests and m.old != m.new
        assert (ROOT / "src" / m.file).read_text().count(m.old) == 1
