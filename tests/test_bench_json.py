"""The BENCH file writer agrees with the benchmark's own compare."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_json", ROOT / "tools" / "bench_json.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def record(wall, seed, trace=0, commit="abc", correct=True):
    metrics = {"wall_s": wall, "setup_s": 0.03, "peak_rss_mib": 30.0,
               "pipeline_rss_mib": 12.0, "cells_per_s": 1000 / wall}
    if trace:
        metrics = {"statecomplex.link.calls": 3344, "statecomplex.link.s": wall / 100}
    return {
        "workload": "hex-local", "seed": seed, "trace": trace, "seconds": 30.0,
        "correct": correct, "attempted": 3, "failed": 0, "problems": [],
        "metrics": metrics,
        "provenance": {"python": "3.11.7", "nproc": 2, "cpu": "x", "commit": commit,
                       "src_sha256": commit * 2, "seed": seed},
    }


def test_bench_file_carries_the_compare_verdicts(tmp_path):
    tool = load_tool()
    traced_walls = (1.0, 1.3, 1.1)
    parent = [record(1.0 + i / 100, i) for i in range(1, 11)]
    parent += [record(wall, 1, trace=1) for wall in traced_walls]
    change = [record(0.7 + i / 100, i, commit="def") for i in range(1, 11)]
    change.append(record(0.7, 1, trace=1, commit="def", correct=False))
    files = []
    for name, recs in (("parent", parent), ("change", change)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        files.append(str(path))
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--parent", files[0], "--change", files[1], "--pr", "0",
                      "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert list(bench["workloads"]) == ["hex-local"]
    entry = bench["workloads"]["hex-local"]
    wall = entry["end_to_end"]["wall_s"]
    assert wall["verdict"] == "improved"
    assert wall["pairs"] == 10 and wall["win_frac"] == 1.0
    assert entry["end_to_end"]["setup_s"]["verdict"] == "unchanged"
    assert wall["parent"]["median"] == tool.bench_stats.quartiles(
        [r["metrics"]["wall_s"] for r in parent[:10]]
    )[1]
    assert entry["traced"]["coverage_ok"] == {"parent": True, "change": False}
    layers = entry["traced"]["per_layer"]
    # one traced run gives a bare median; three add their quartiles
    assert layers["statecomplex.link.calls"] == {
        "parent": {"runs": 3, "median": 3344, "q1": 3344, "q3": 3344},
        "change": {"runs": 1, "median": 3344},
    }
    link_s = layers["statecomplex.link.s"]["parent"]
    assert (link_s["q1"], link_s["median"], link_s["q3"]) == tool.bench_stats.quartiles(
        [wall / 100 for wall in traced_walls]
    )
    assert bench["provenance"]["change"]["commit"] == ["def"]
    assert bench["provenance"]["parent"]["seeds"] == list(range(1, 11))
