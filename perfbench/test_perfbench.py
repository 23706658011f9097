"""Self-tests of the benchmark: statistics, span arithmetic, inputs, checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_inputs  # noqa: E402
import bench_stats  # noqa: E402
import run  # noqa: E402
from bench_spans import Tracer, self_times, span_totals  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (39, 50), (40, 75), (100, 90), (200, 95), (999, 95), (1000, 99), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert bench_stats.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert bench_stats.percentile(values, 50) == 100
    assert bench_stats.percentile(values, 95) == 190
    assert sum(v > bench_stats.percentile(values, 95) for v in values) == 10
    assert bench_stats.percentile([7.0], 95) == 7.0


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        (0, "outer", 0.0, 10.0, None),
        (1, "a", 1.0, 3.0, 0),
        (2, "b", 2.0, 5.0, 0),  # overlaps a: the union counts once
        (3, "c", 8.0, 12.0, 0),  # runs past the parent: clipped at 10
        (4, "d", 2.5, 2.75, 2),  # a grandchild is not the outer span's child
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.25)
    assert selfs[4] == pytest.approx(0.25)
    totals = span_totals(spans)
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": pytest.approx(4.0)}


def test_tracer_records_nesting_operations_and_counters():
    tracer = Tracer("run-1")

    def inner(x):
        time.sleep(0.01)
        return x + 1

    traced_inner = tracer.wrap("m.inner", inner, after=lambda c, r, a, k: c.update({"m.out": r}))

    def outer(x):
        time.sleep(0.01)
        return traced_inner(x) * 2

    traced_outer = tracer.wrap("m.outer", outer)
    tracer.op = "op-7"
    assert traced_outer(1) == 4
    spans = tracer.spans
    assert [s[1] for s in spans] == ["m.outer", "m.inner"]
    assert spans[1][4] == spans[0][0] and spans[0][4] is None
    assert all(s[5] == "run-1" and s[6] == "op-7" for s in spans)
    totals = span_totals(spans)
    outer_row, inner_row = totals["m.outer"], totals["m.inner"]
    assert outer_row["self_s"] == pytest.approx(outer_row["s"] - inner_row["s"])
    assert tracer.counters["m.out"] == 2


def _files(folder: Path) -> dict:
    return {p.relative_to(folder): p.read_bytes() for p in sorted(folder.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_inputs_are_byte_identical_for_the_same_seed(workload, tmp_path):
    a = bench_inputs.generate(workload, 5, tmp_path / "a")
    b = bench_inputs.generate(workload, 5, tmp_path / "b")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_seeds_change_the_inputs(tmp_path):
    bench_inputs.generate("hex-local", 1, tmp_path / "a")
    bench_inputs.generate("hex-local", 2, tmp_path / "b")
    assert (tmp_path / "a" / "system.sys").read_bytes() == (tmp_path / "b" / "system.sys").read_bytes()
    assert (tmp_path / "a" / "system.state").read_bytes() != (tmp_path / "b" / "system.state").read_bytes()


def test_reference_check_rejects_a_wrong_f_vector():
    refs = json.loads(json.dumps({"fvec": bench_inputs.HEX_LOCAL_FVEC}))
    chi = sum(c if k % 2 == 0 else -c for k, c in enumerate(bench_inputs.HEX_LOCAL_FVEC))
    good = {
        "build": {"fvec": list(bench_inputs.HEX_LOCAL_FVEC)},
        "certify": {"ok": True, "violations": 0},
        "invariants": {"chi": chi},
    }
    assert bench_inputs.check("hex-local", refs, good) == []
    wrong = dict(good, build={"fvec": [40334, 90882, 16440, 37]})
    problems = bench_inputs.check("hex-local", refs, wrong)
    assert len(problems) == 1 and problems[0].startswith("build: fvec")
    missing = {k: v for k, v in good.items() if k != "certify"}
    assert bench_inputs.check("hex-local", refs, missing) == ["certify: no output"]


def test_trap_check_needs_the_trap_state_among_the_violations():
    refs = {
        "fvec": list(bench_inputs.HEX_CONNECTED_FVEC),
        "trap_fvec": list(bench_inputs.TRAP_FVEC),
        "trap_violations": 64,
        "trap_state": [[0, 0], [1, 1]],
    }
    outputs = {
        "build": {"fvec": list(bench_inputs.HEX_CONNECTED_FVEC)},
        "certify": {"ok": True, "violations": 0},
        "trap-build": {"fvec": list(bench_inputs.TRAP_FVEC)},
        "trap-certify": {"ok": False, "violations": 64, "violated_states": [[[0, 0], [1, 1]]]},
    }
    assert bench_inputs.check("hex-connected", refs, outputs) == []
    outputs["trap-certify"]["violated_states"] = [[[0, 0], [2, 2]]]
    assert bench_inputs.check("hex-connected", refs, outputs) != []


def test_compare_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [p * 0.8 for p in parent]
    assert bench_stats.compare(parent, faster, "lower", 0.1)["verdict"] == "improved"
    slower = [p * 1.2 for p in parent]
    assert bench_stats.compare(parent, slower, "lower", 0.1)["verdict"] == "regressed"
    same = list(reversed(parent))
    assert bench_stats.compare(parent, same, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [10.0, 14.0] * 5
    assert bench_stats.compare(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert bench_stats.compare(parent[:5], faster[:5], "lower", 0.1)["verdict"] == "unresolved"
    higher = bench_stats.compare(parent, slower, "higher", 0.1)
    assert higher["verdict"] == "improved" and higher["win_frac"] == 1.0
    failing = bench_stats.compare(parent, faster, "lower", 0.1, parent_failed=0, change_failed=1)
    assert failing["verdict"] == "failed"
    assert bench_stats.compare(parent, faster, "lower", 0.1, 2, 2)["verdict"] == "improved"


def test_scaled_times_cancel_the_host_speed():
    fast = {"wall_s": 1.0, "wall_cal_s": run.REF_CAL_S, "setup_s": 0.02, "setup_cal_s": run.REF_CAL_S}
    slow = {"wall_s": 1.3, "wall_cal_s": 1.3 * run.REF_CAL_S, "setup_s": 0.03, "setup_cal_s": 1.5 * run.REF_CAL_S}
    assert run.scaled_wall(slow) == pytest.approx(run.scaled_wall(fast)) == pytest.approx(1.0)
    assert run.scaled_setup(slow) == pytest.approx(run.scaled_setup(fast)) == pytest.approx(0.02)


def test_calibration_times_the_kernel_and_restores_the_collector():
    import bench_worker

    assert bench_worker.calibrate() > 0
    assert gc.isenabled()


def test_coverage_guard_flags_unpredicted_zeros_and_nonzeros():
    values = {name: 1 for name in run.LAYER_METRICS}
    assert "lattice.is_connected.calls: 1 on hex-local, where zero is predicted" in run.coverage_problems(
        "hex-local", values
    )
    values = {name: 0 for name in run.LAYER_METRICS}
    assert any(p.startswith("lattice.is_connected.calls: zero") for p in run.coverage_problems("hex-connected", values))
    del values["runtime.gc_s"]
    assert "runtime.gc_s: missing" in run.coverage_problems("arm-topology", values)


def test_benchmark_json_names_the_metrics_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.LAYER_METRICS.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == bench_inputs.WORKLOADS
