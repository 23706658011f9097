"""The checker of a traced run's last line, as the CI steps call it."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("check_run", ROOT / "tools" / "check_run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_file(tmp_path, correct=True, vertices=512):
    record = {
        "workload": "arm-topology", "correct": correct,
        "problems": [] if correct else ["a layer metric reads zero"],
        "metrics": {
            "statecomplex.vertices": {"value": vertices, "unit": "count"},
            "statecomplex.link.s": {"value": 0.01, "unit": "s"},
        },
    }
    path = tmp_path / "run.out"
    path.write_text("cubeplan benchmark: workload arm-topology\n  a table line\n" + json.dumps(record) + "\n")
    return str(path)


PINS = ["statecomplex.vertices=512"]


def test_a_correct_run_holding_its_pins_passes(tmp_path, capsys):
    assert load_tool().main([run_file(tmp_path), *PINS]) == 0
    assert capsys.readouterr().err == ""


def test_a_pin_that_does_not_hold_fails(tmp_path, capsys):
    path = run_file(tmp_path, vertices=511)
    assert load_tool().main([path, *PINS, "statecomplex.cells=3363"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{path}: statecomplex.vertices = 511, pinned at 512",
        f"{path}: statecomplex.cells = None, pinned at 3363",
    ]


def test_an_incorrect_run_fails_even_when_its_pins_hold(tmp_path, capsys):
    path = run_file(tmp_path, correct=False)
    assert load_tool().main([path, *PINS]) == 1
    assert "run is not correct" in capsys.readouterr().err


def test_a_malformed_pin_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        load_tool().main([run_file(tmp_path), "statecomplex.vertices"])
    assert err.value.code == 2


def test_a_metric_pinned_twice_is_a_usage_error(tmp_path, capsys):
    """Even when the second pin holds, the first would go unchecked."""
    with pytest.raises(SystemExit) as err:
        load_tool().main([run_file(tmp_path), "statecomplex.vertices=511", *PINS])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: statecomplex.vertices is pinned twice\n"
    )


NO_RECORD = {"empty": "", "not-json": "cubeplan benchmark: workload arm-topology\n{\"workload\": \n"}


@pytest.mark.parametrize("text", NO_RECORD.values(), ids=NO_RECORD)
def test_a_run_file_with_no_record_fails_in_one_line(tmp_path, capsys, text):
    """An empty run file, or one whose last line is not JSON, is a
    failure on stderr, not a traceback."""
    path = tmp_path / "run.out"
    path.write_text(text)
    assert load_tool().main([str(path), *PINS]) == 1
    assert capsys.readouterr().err == f"{path}: no JSON record on the last line\n"
