#!/usr/bin/env python3
"""The cubeplan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Run from the root of a checkout holding ``src/cubeplan``.  A run turns
the seed into input files, then starts fresh single-threaded worker
processes one at a time (a closed loop with one client) for about S
seconds: whole pipelines, each followed by a few that only set up.  Every
pipeline's outputs are checked against references.  With ``--trace 0``
the last line of stdout carries the end-to-end metrics; with
``--trace 1`` runs alternate untraced and traced pipelines and it
carries the per-layer metrics of the traced ones.  Each run appends a
full record, with provenance, to ``.perfbench/records.jsonl``.

``--compare`` reads two such record files and gives, for every
workload and end-to-end metric, both sides' medians and quartiles, the
win fraction of paired runs and a verdict: improved, unchanged,
regressed, unresolved, or failed where the change fails more
operations or runs than the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("hex-local", "hex-connected", "arm-topology", "paths-shapes")
# Set-up-only workers run after every pipeline, so set-up is sampled
# across the whole run rather than in one burst.
SETUPS_PER_PIPELINE = 3
RUN_LIMIT_S = 170.0

# The calibration kernel's time (``bench_worker.calibrate``) at the
# reference speed: about its median on the 2-vCPU Xeon VM the bounds
# were set on.  Each measured time is multiplied by this over the
# kernel's time next to it, so times read as seconds at that speed and
# most of the host's drift in CPU speed cancels out.
REF_CAL_S = 0.011


def scaled_wall(res: dict) -> float:
    return res["wall_s"] * REF_CAL_S / res["wall_cal_s"]


def scaled_setup(res: dict) -> float:
    return res["setup_s"] * REF_CAL_S / res["setup_cal_s"]


# End-to-end metrics, reported with tracing off: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pipeline_rss_mib": "MiB",
    "cells_per_s": "1/s",
}

# Per-layer metrics of the traced run: name -> (unit, workloads where
# the value must be nonzero, workloads where it must be exactly zero).
# A workload in neither set may read either way.
HL, HC, AT, PS = WORKLOADS
BUILD = {HL, HC, AT}
ALL = set(WORKLOADS)
LAYER_METRICS = {
    "model.all_actions.s": ("s", BUILD, {PS}),
    "model.admissible_actions.calls": ("count", BUILD, {PS}),
    "model.admissible_actions.s": ("s", BUILD, {PS}),
    "model.actions_tested": ("count", ALL, set()),
    "model.admissible_hits": ("count", ALL, set()),
    "model.hit_ratio": ("ratio", ALL, set()),
    "lattice.is_connected.calls": ("count", {HC}, {HL, AT, PS}),
    "lattice.is_connected.s": ("s", {HC}, {HL, AT, PS}),
    "statecomplex.build_complex.s": ("s", BUILD, {PS}),
    "statecomplex.build_complex.self_s": ("s", BUILD, {PS}),
    "statecomplex.build_complex.rss_mib": ("MiB", {HL, HC}, {PS}),
    "statecomplex.link.calls": ("count", ALL, set()),
    "statecomplex.link.s": ("s", ALL, set()),
    "statecomplex.check_link_condition.s": ("s", ALL, set()),
    "statecomplex.check_link_condition.self_s": ("s", ALL, set()),
    "statecomplex.check_link_condition.rss_mib": ("MiB", {HL, HC}, set()),
    "statecomplex.vertices": ("count", BUILD, {PS}),
    "statecomplex.cells": ("count", BUILD, {PS}),
    "topology.betti_mod2.s": ("s", {AT}, {HL, HC, PS}),
    "topology.boundary_matrix.s": ("s", {AT}, {HL, HC, PS}),
    "topology.greedy_collapse.s": ("s", {AT}, {HL, HC, PS}),
    "topology.collapse_subcomplex.s": ("s", {AT}, {HL, HC, PS}),
    "topology.cells_collapsed": ("count", {AT}, {HL, HC, PS}),
    "cubepaths.time_geodesic.calls": ("count", {PS}, BUILD),
    "cubepaths.time_geodesic.s": ("s", {PS}, BUILD),
    "cubepaths.shrink_cube_path.calls": ("count", {PS}, BUILD),
    "cubepaths.shrink_iterations": ("count", {PS}, BUILD),
    "cubepaths.validate.s": ("s", {PS}, BUILD),
    "cubepaths.steps_in": ("count", {PS}, BUILD),
    "cubepaths.steps_out": ("count", {PS}, BUILD),
    "cubepaths.step_ratio": ("ratio", {PS}, BUILD),
    "shape.build_shape_complex.s": ("s", {PS}, BUILD),
    "shape.shape_actions.calls": ("count", {PS}, BUILD),
    "shape.shape_actions.s": ("s", {PS}, BUILD),
    "shape.shape_cube_key.calls": ("count", {PS}, BUILD),
    "shape.shape_cube_key.s": ("s", {PS}, BUILD),
    "shape.lift_path.calls": ("count", {PS}, BUILD),
    "shape.lift_path.s": ("s", {PS}, BUILD),
    "shape.lifts_ok": ("count", {PS}, BUILD),
    "fileformat.parse_system_file.s": ("s", ALL, set()),
    "fileformat.parse_path.s": ("s", {PS}, BUILD),
    "fileformat.serialize_path.s": ("s", {PS}, BUILD),
    "fileformat.export_complex.s": ("s", {AT}, {HL, HC, PS}),
    "fileformat.export_bytes": ("bytes", {AT}, {HL, HC, PS}),
    "runtime.gc_s": ("s", ALL, set()),
    "runtime.gc_collections": ("count", ALL, set()),
    "trace_overhead_frac": ("ratio", set(), set()),
}

# Per-layer values that are exact counts: they must repeat run to run
# for a fixed seed.
EXACT = tuple(
    name
    for name, (unit, _, _) in LAYER_METRICS.items()
    if unit == "count" and not name.startswith("runtime.")
) + ("fileformat.export_bytes",)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(layers: dict) -> dict:
    """The named per-layer metrics of one traced sample.

    A metric the sample never recorded reads zero here; the coverage
    guard decides whether that zero was predicted.
    """
    out = {name: layers.get(name, 0) for name in LAYER_METRICS}
    out["model.hit_ratio"] = _ratio(layers.get("model.admissible_hits", 0), layers.get("model.actions_tested", 0))
    out["cubepaths.step_ratio"] = _ratio(layers.get("cubepaths.steps_out", 0), layers.get("cubepaths.steps_in", 0))
    return out


def coverage_problems(workload: str, values: dict) -> list:
    """Named per-layer metrics that are missing or read an unpredicted zero."""
    problems = []
    for name, (_, nonzero, zero) in LAYER_METRICS.items():
        if name not in values:
            problems.append(f"{name}: missing")
        elif workload in nonzero and not values[name]:
            problems.append(f"{name}: zero on {workload}, where the layer does work")
        elif workload in zero and values[name]:
            problems.append(f"{name}: {values[name]} on {workload}, where zero is predicted")
    return problems


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Harness:
    """Starts worker processes for one run and collects their results."""

    def __init__(self, workload: str, seed: int, folder: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.folder = folder
        self.started = started
        self.count = 0

    def spawn(self, traced: bool = False, setup_only: bool = False):
        """Run one worker; its result dict, or None if it failed."""
        self.count += 1
        run_id = f"{self.workload}-{self.seed}-{self.count}"
        result = self.folder / f"result-{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "bench_worker.py"),
            "--src", str(SRC), "--inputs", str(self.folder / "inputs"),
            "--workload", self.workload, "--result", str(result), "--run-id", run_id,
        ]
        if traced:
            cmd += ["--trace", str(self.folder / f"spans-{self.count}.tsv")]
        if setup_only:
            cmd.append("--setup-only")
        # One hash seed for every worker, so exact counts repeat; bytecode
        # caching on, so the warm-up worker's compile is not paid again.
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True, timeout=max(left, 1.0)
            )
        except subprocess.TimeoutExpired:
            print(f"worker {run_id} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"worker {run_id} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(result.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool):
    started = time.monotonic()
    folder = WORK / workload
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    import bench_inputs

    refs = bench_inputs.generate(workload, seed, folder / "inputs")
    (folder / "refs.json").write_text(json.dumps(refs, sort_keys=True))
    n_ops = len(bench_inputs.operations(workload, refs))
    harness = Harness(workload, seed, folder, started)

    problems: list = []
    attempted = failed = 0
    # One set-up run fills the bytecode cache, which users do not pay for
    # on every run; it is not measured.
    if harness.spawn(setup_only=True) is None:
        problems.append("warm-up worker failed")
    deadline = time.monotonic() + seconds
    setups = []

    modes = (False, True) if trace else (False,)
    samples = {False: [], True: []}
    took: dict = {}
    k = 0
    while True:
        mode = modes[k % len(modes)]
        t0 = time.monotonic()
        res = harness.spawn(traced=mode)
        k += 1
        attempted += n_ops
        if res is None:
            failed += n_ops
            problems.append(f"pipeline worker {harness.count} failed")
        else:
            bad = bench_inputs.check(workload, refs, res["outputs"])
            failed += len(bad)
            problems.extend(f"run {harness.count}: {p}" for p in bad[:5])
            for op, err in list(res["errors"].items())[:3]:
                problems.append(f"run {harness.count}: {op} raised {err.strip().splitlines()[-1]}")
            samples[mode].append(res)
        for _ in range(SETUPS_PER_PIPELINE):
            done = harness.spawn(setup_only=True)
            if done is None:
                problems.append("set-up worker failed")
            else:
                setups.append(done)
        took[mode] = time.monotonic() - t0
        if k < len(modes):
            continue
        nxt = modes[k % len(modes)]
        now = time.monotonic()
        if now + took[nxt] > deadline or now - started + took[nxt] > RUN_LIMIT_S - 10:
            break
    return setups, samples, attempted, failed, problems


def end_to_end(workload: str, setups: list, untraced: list) -> tuple:
    """(metrics, sample counts, extra report-only metrics)."""
    setup = [scaled_setup(r) for r in setups + untraced]
    walls = [scaled_wall(r) for r in untraced]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median([r["peak_rss_mib"] for r in untraced]),
        "pipeline_rss_mib": statistics.median(
            [r["peak_rss_mib"] - r["setup_rss_mib"] for r in untraced]
        ),
        "cells_per_s": statistics.median([r["cells"] / w for r, w in zip(untraced, walls)]),
    }
    counts = {name: len(untraced) for name in metrics}
    counts["setup_s"] = len(setup)
    extra = {
        "wall_raw_s": (statistics.median([r["wall_s"] for r in untraced]), "s", len(untraced)),
        "setup_raw_s": (statistics.median([r["setup_s"] for r in setups + untraced]), "s", len(setup)),
        "calibration_ms": (
            statistics.median([r["wall_cal_s"] * 1e3 for r in untraced]), "ms", len(untraced)
        ),
    }
    if workload == "paths-shapes":
        lat = [x for r in untraced for x in r["latencies_ms"]]
        extra["moves_per_s"] = (statistics.median([r["moves_in"] / r["script_s"] for r in untraced]), "1/s", len(untraced))
        extra["optimize_p50_ms"] = (bench_stats.percentile(lat, 50), "ms", len(lat))
        tail = bench_stats.tail_percentile(len(lat))
        if tail is not None and tail > 50:
            name = f"optimize_{bench_stats.percentile_label(tail)}_ms"
            extra[name] = (bench_stats.percentile(lat, tail), "ms", len(lat))
    return metrics, counts, extra


def per_layer(workload: str, untraced: list, traced: list) -> tuple:
    """(metrics, sample counts, problems) of the traced samples."""
    problems = []
    rows = [layer_values(r["layers"]) for r in traced]
    for i, row in enumerate(rows):
        problems.extend(f"traced run {i + 1}: {p}" for p in coverage_problems(workload, row))
    for name in EXACT:
        seen = {row[name] for row in rows}
        if len(seen) > 1:
            problems.append(f"{name}: exact count differs between traced runs: {sorted(seen)}")
    metrics = {
        name: statistics.median([row[name] for row in rows]) for name in LAYER_METRICS
    }
    metrics["trace_overhead_frac"] = (
        statistics.median([scaled_wall(r) for r in traced])
        / statistics.median([scaled_wall(r) for r in untraced])
        - 1
    )
    counts = {name: len(rows) for name in LAYER_METRICS}
    counts["trace_overhead_frac"] = min(len(rows), len(untraced))
    return metrics, counts, problems


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> int:
    if not (SRC / "cubeplan" / "__init__.py").is_file():
        print(f"error: no cubeplan package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    setups, samples, attempted, failed, problems = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    untraced, traced = samples[False], samples[True]
    if not untraced or (args.trace and not traced):
        print("error: no pipeline run completed", file=sys.stderr)
        for p in problems[:20]:
            print("  " + p, file=sys.stderr)
        return 1
    e2e, e2e_n, extra = end_to_end(args.workload, setups, untraced)
    extra["fail_frac"] = (failed / attempted, "ratio", attempted)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
    }
    if args.trace:
        layers, layers_n, layer_problems = per_layer(args.workload, untraced, traced)
        problems.extend(layer_problems)
        shown = {name: (value, LAYER_METRICS[name][0], layers_n[name]) for name, value in layers.items()}
    else:
        shown = {name: (value, END_TO_END[name], e2e_n[name]) for name, value in e2e.items()}
        shown.update(extra)
    correct = failed == 0 and not problems

    print(f"cubeplan benchmark: workload {args.workload}, seed {args.seed}, trace {int(args.trace)}")
    print(f"  pipelines: {len(untraced)} untraced, {len(traced)} traced; set-up runs: {len(setups)}")
    for name, (value, unit, n) in shown.items():
        how = "ratio over" if name == "fail_frac" else "median of"
        if name.startswith("optimize_p"):
            how = name.split("_")[1] + " of"
        print(f"  {name:44s} {_fmt(value):>14s} {unit:6s} ({how} {n})")
    print(f"  operations: {attempted} attempted, {failed} failed")
    for p in problems[:40]:
        print(f"  problem: {p}")
        print(f"problem: {p}", file=sys.stderr)
    record.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics={name: v[0] for name, v in shown.items()},
        units={name: v[1] for name, v in shown.items()},
        samples={name: v[2] for name, v in shown.items()},
    )
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    WORK.mkdir(exist_ok=True)
    with open(WORK / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    names = LAYER_METRICS if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": shown[n][0], "unit": shown[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


def compare_mode(parent_file: str, change_file: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    def load(path):
        out: dict = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            if not rec["trace"]:
                out.setdefault(rec["workload"], []).append(rec)
        return out

    def failures(recs):
        return sum(r["failed"] + (not r["correct"]) for r in recs)

    parent, change = load(parent_file), load(change_file)
    print(f"{'workload':14s} {'metric':13s} {'parent: median [q1, q3]':>36s} "
          f"{'change: median [q1, q3]':>36s} {'pairs':>5s} {'wins':>5s}  verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for name, m in metrics.items():
            a = [r["metrics"][name] for r in parent[workload]]
            b = [r["metrics"][name] for r in change[workload]]
            v = bench_stats.compare(
                a, b, m["better"], m["bound"], failures(parent[workload]), failures(change[workload])
            )
            sides = [
                f"{_fmt(x['median'])} [{_fmt(x['q1'])}, {_fmt(x['q3'])}]"
                for x in (v["parent"], v["change"])
            ]
            print(
                f"{workload:14s} {name:13s} {sides[0]:>36s} {sides[1]:>36s} "
                f"{v['pairs']:5d} {v['win_frac']:5.2f}  {v['verdict']}"
            )
        for side, recs in (("parent", parent[workload]), ("change", change[workload])):
            bad = sum(1 for r in recs if r["failed"] or not r["correct"])
            if bad:
                print(f"{workload:14s} {side} runs not correct: {bad} of {len(recs)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cubeplan benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare_mode(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
