#!/usr/bin/env python3
"""Write a change's benchmark record, ``BENCH_<PR>.json``.

    python3 tools/bench_json.py --parent PARENT.jsonl --change CHANGE.jsonl \\
        --pr N [--out FILE]

PARENT and CHANGE are the ``.perfbench/records.jsonl`` files of paired
perfbench runs on the parent commit and on the change.  For every
workload and end-to-end metric of ``BENCHMARK.json`` the output holds
both sides' medians and quartiles and the verdict of
``perfbench/run.py --compare``, computed by the same
``perfbench/bench_stats.compare`` from the same pairing: untraced run i
of a workload on one side against run i on the other, in file order.
Traced runs, where present, add each side's per-layer run count and
median (quartiles too from three runs up) and whether every traced run
passed its coverage guard.  Provenance
(Python, nproc, CPU, commit, source digest, seeds) is taken from the
records.  Standard library only; the benchmark's files are read, never
written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_stats  # noqa: E402

PROVENANCE = ("python", "nproc", "cpu", "commit", "src_sha256")


def load(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def by_workload(records: list, traced: bool) -> dict:
    out: dict = {}
    for rec in records:
        if bool(rec["trace"]) == traced:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def failures(records: list) -> int:
    """Failed operations plus incorrect runs, as ``--compare`` counts them."""
    return sum(r["failed"] + (not r["correct"]) for r in records)


def provenance(records: list) -> dict:
    """Each provenance field's distinct values over the records, and the seeds."""
    out = {
        field: sorted({r["provenance"][field] for r in records}, key=str)
        for field in PROVENANCE
    }
    out["seeds"] = sorted({r["seed"] for r in records})
    out["seconds"] = sorted({r["seconds"] for r in records})
    return out


def side_runs(records: list) -> dict:
    return {
        "runs": len(records),
        "incorrect_runs": sum(not r["correct"] for r in records),
        "failed_operations": sum(r["failed"] for r in records),
        "attempted_operations": sum(r["attempted"] for r in records),
    }


def per_layer(parent: list, change: list) -> dict:
    """Each traced metric's run count and median per side, and from three
    runs up its quartiles, so a layer's spread can be read beside it."""
    names = sorted(set().union(*(r["metrics"] for r in parent + change)))
    out = {}
    for name in names:
        row = {}
        for side, recs in (("parent", parent), ("change", change)):
            values = [r["metrics"][name] for r in recs if name in r["metrics"]]
            if values:
                row[side] = {"runs": len(values), "median": statistics.median(values)}
                if len(values) >= 3:
                    q1, _, q3 = bench_stats.quartiles(values)
                    row[side].update(q1=q1, q3=q3)
        out[name] = row
    return out


def bench_record(parent: list, change: list, spec: dict, pr: int) -> dict:
    metrics = spec["end_to_end"]
    untraced = by_workload(parent, False), by_workload(change, False)
    traced = by_workload(parent, True), by_workload(change, True)
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        p, c = untraced[0].get(name, []), untraced[1].get(name, [])
        if not p or not c:
            continue
        entry = {
            "runs": {"parent": side_runs(p), "change": side_runs(c)},
            "end_to_end": {},
        }
        for m in metrics:
            v = bench_stats.compare(
                [r["metrics"][m["name"]] for r in p],
                [r["metrics"][m["name"]] for r in c],
                m["better"], m["bound"], failures(p), failures(c),
            )
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"], **v,
            }
        tp, tc = traced[0].get(name, []), traced[1].get(name, [])
        if tp and tc:
            entry["traced"] = {
                "runs": {"parent": len(tp), "change": len(tc)},
                "coverage_ok": {
                    "parent": all(r["correct"] for r in tp),
                    "change": all(r["correct"] for r in tc),
                },
                "problems": {
                    "parent": sorted({q for r in tp for q in r["problems"]}),
                    "change": sorted({q for r in tc for q in r["problems"]}),
                },
                "per_layer": per_layer(tp, tc),
            }
        workloads[name] = entry
    return {
        "pr": pr,
        "benchmark": {"command": spec["command"], "run_seconds": spec["run_seconds"]},
        "provenance": {"parent": provenance(parent), "change": provenance(change)},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write BENCH_<PR>.json from paired perfbench records")
    ap.add_argument("--parent", required=True, help="records.jsonl of the parent commit")
    ap.add_argument("--change", required=True, help="records.jsonl of the change")
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--out", help="output file (default: BENCH_<PR>.json in the repo root)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = bench_record(load(args.parent), load(args.change), spec, args.pr)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, entry in record["workloads"].items():
        for metric, v in entry["end_to_end"].items():
            print(f"{name:14s} {metric:17s} {v['parent']['median']:12.6g} "
                  f"{v['change']['median']:12.6g} {v['pairs']:3d} {v['win_frac']:5.2f}  {v['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
