"""One benchmark sample in a fresh interpreter.

    python3 bench_worker.py --src SRC --inputs DIR --workload NAME
        --result FILE [--run-id ID] [--trace SPANS_FILE] [--setup-only]

Set-up (timed as ``setup_s``) imports ``cubeplan`` from SRC, parses the
workload's system and state files and, on the build workloads,
enumerates every system's action catalogue.  The pipeline (timed as
``wall_s``) then runs on those inputs.  Checks that need extra work,
such as re-normalizing an optimized script, run after the timed region;
the outputs go to FILE as JSON for the harness to compare with the
references.  With ``--trace``, public functions of the package's
modules are wrapped in spans before set-up, and the per-layer numbers
of the timed region go into the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from functools import cached_property
from pathlib import Path

from bench_spans import Tracer, patch, span_totals, write_spans

LAYERS = ("lattice", "model", "statecomplex", "topology", "cubepaths", "shape", "fileformat")

# Workloads whose set-up enumerates each system's action catalogue,
# because their pipeline scans it at every state.
SCANNING = ("hex-local", "hex-connected", "arm-topology")


def _cells(view) -> int:
    return sum(view.n_cells(k) for k in range(view.max_dim + 1))


def _count_complex(counters, cx, args, kwargs):
    counters["statecomplex.vertices"] += cx.n_vertices
    counters["statecomplex.cells"] += _cells(cx)


def _count_collapsed(counters, remaining, args, kwargs):
    counters["topology.cells_collapsed"] += _cells(args[0]) - sum(remaining)


def _count_steps(counters, out, args, kwargs):
    counters["cubepaths.steps_in"] += args[0].length
    counters["cubepaths.steps_out"] += out.length


def _count_lift(counters, res, args, kwargs):
    counters["shape.lifts_ok"] += bool(res.ok)


def _count_export(counters, text, args, kwargs):
    counters["fileformat.export_bytes"] += len(text.encode())


# (module, function, counter hook, record resident-set growth)
TRACED = (
    ("model", "admissible_actions", None, False),
    ("lattice", "is_connected", None, False),
    ("statecomplex", "build_complex", _count_complex, True),
    ("statecomplex", "link", None, False),
    ("statecomplex", "check_link_condition", None, True),
    ("topology", "betti_mod2", None, False),
    ("topology", "boundary_matrix", None, False),
    ("topology", "greedy_collapse", _count_collapsed, False),
    ("topology", "collapse_subcomplex", None, False),
    ("cubepaths", "time_geodesic", _count_steps, False),
    ("cubepaths", "shrink_cube_path", None, False),
    ("cubepaths", "validate", None, False),
    ("shape", "build_shape_complex", None, False),
    ("shape", "shape_actions", None, False),
    ("shape", "shape_cube_key", None, False),
    ("shape", "lift_path", _count_lift, False),
    ("fileformat", "parse_system_file", None, False),
    ("fileformat", "parse_path", None, False),
    ("fileformat", "serialize_path", None, False),
    ("fileformat", "export_complex", _count_export, False),
)


def install_tracing(tracer: Tracer, cp) -> list:
    """Wrap the traced functions; returns the admissibility test counter.

    Raises if a traced function is no longer reachable where callers look
    it up, so a moved call site fails loudly instead of reading zero.
    """
    modules = [cp] + [getattr(cp, name) for name in LAYERS]
    for mod_name, fn_name, after, rss in TRACED:
        original = getattr(getattr(cp, mod_name), fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original, after, rss)
        if not patch(modules, fn_name, wrapped, original):
            raise RuntimeError(f"{mod_name}.{fn_name} not found to trace")

    # Admissibility tests are too many for spans; count them and their hits.
    tested = [0, 0]
    is_admissible = cp.model.is_admissible

    def counted(state, action, system):
        ok = is_admissible(state, action, system)
        tested[0] += 1
        if ok:
            tested[1] += 1
        return ok

    if not patch(modules, "is_admissible", counted, is_admissible):
        raise RuntimeError("model.is_admissible not found to trace")

    system_cls = cp.model.System
    catalogue = system_cls.__dict__["all_actions"]
    traced = cached_property(tracer.wrap("model.all_actions", catalogue.func))
    traced.__set_name__(system_cls, "all_actions")
    system_cls.all_actions = traced
    return tested


# A fixed pure-Python kernel, timed just before and just after each
# measured region.  The host's CPU speed drifts by tens of percent over
# seconds to minutes, in CPU time as much as in wall time; the harness
# divides each region's time by the kernel's time next to it.
CAL_KEYS = tuple((i % 7, i % 11, i % 13) for i in range(512))
CAL_TABLE = dict.fromkeys(CAL_KEYS[::2], 1)
CAL_ROUNDS = 300
CAL_REPS = 3


def calibrate() -> float:
    """Median time of the calibration kernel, with the collector off so
    that the heap the package leaves behind cannot slow it."""
    gc.disable()
    try:
        times = []
        for _ in range(CAL_REPS):
            t0 = time.perf_counter()
            hit = None
            for _ in range(CAL_ROUNDS):
                for key in CAL_KEYS:
                    hit = CAL_TABLE.get(key, hit)
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def resident_mib() -> float:
    """The process's resident set now, or its high-water mark where the
    current size cannot be read."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * resource.getpagesize() / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Inputs:
    """The workload's files, parsed during set-up."""

    def __init__(self, cp, folder: Path, scan: bool):
        self.systems = {}
        self.states = {}
        for path in sorted(folder.glob("*.sys")):
            sf = cp.fileformat.parse_system_file(path.read_text())
            self.systems[path.stem] = sf.system
            state_file = path.with_suffix(".state")
            if state_file.exists():
                self.states[path.stem] = cp.fileformat.parse_state(
                    state_file.read_text(), sf.system
                )
            if scan:
                sf.system.all_actions
        self.scripts = {
            p.stem: p.read_text() for p in sorted((folder / "scripts").glob("*.moves"))
        }
        self.lifts = {
            p.stem: p.read_text() for p in sorted((folder / "lifts").glob("*.moves"))
        }
        lpath = folder / "lpath.moves"
        self.l_path = lpath.read_text() if lpath.exists() else None


class Sample:
    """Outputs, failures and timings of one pipeline run."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.outputs: dict = {}
        self.errors: dict = {}
        self.cells = 0
        self.latencies_ms: list = []
        self.moves_in = 0
        self.script_s = 0.0
        self.iterations = 0
        self.deferred: list = []

    def attempt(self, op: str, fn):
        """Run one operation; an exception is recorded against it."""
        if self.tracer is not None:
            self.tracer.op = op
        try:
            return fn()
        except Exception:
            self.errors[op] = traceback.format_exc(limit=3)
            return None

    def record(self, op: str, fn) -> None:
        """Run one operation whose result is its output."""
        out = self.attempt(op, fn)
        if out is not None:
            self.outputs[op] = out


def _complex(cp, s: Sample, op: str, fn):
    """Run a complex-building operation; its output is the f-vector."""

    def built():
        cx = fn()
        fvec = list(cp.topology.f_vector(cx))
        s.cells += sum(fvec)
        s.outputs[op] = {"fvec": fvec}
        return cx

    return s.attempt(op, built)


def _certify(cp, cx, violated_states: bool = False) -> dict:
    rep = cp.statecomplex.check_link_condition(cx)
    out = {"ok": rep.ok, "violations": len(rep.violations)}
    if violated_states:
        out["violated_states"] = sorted(
            {tuple(tuple(c) for c in sorted(v[0])) for v in rep.violations}
        )
    return out


def _state_complex(cp, s: Sample, op: str, inp: Inputs, name: str):
    system, start = inp.systems[name], inp.states[name]
    return _complex(cp, s, op, lambda: cp.statecomplex.build_complex(system, [start]))


def run_hex_local(cp, inp: Inputs, s: Sample):
    cx = _state_complex(cp, s, "build", inp, "system")
    if cx is None:
        return
    s.record("certify", lambda: _certify(cp, cx))
    s.record("invariants", lambda: {"chi": cp.topology.euler_characteristic(cx)})


def run_hex_connected(cp, inp: Inputs, s: Sample):
    cx = _state_complex(cp, s, "build", inp, "system")
    if cx is not None:
        s.record("certify", lambda: _certify(cp, cx))
    trap = _state_complex(cp, s, "trap-build", inp, "trap")
    if trap is not None:
        s.record("trap-certify", lambda: _certify(cp, trap, violated_states=True))


def _export(cp, cx) -> dict:
    text = cp.fileformat.export_complex(cx)
    header = text.split("\n", 1)[0].split()
    return {
        "fvec": [int(x) for x in header[1:]] if header[:1] == ["fvec:"] else None,
        "lines": text.count("\n"),
    }


def run_arm_topology(cp, inp: Inputs, s: Sample):
    cx = _state_complex(cp, s, "build", inp, "system")
    if cx is None:
        return
    s.record("certify", lambda: _certify(cp, cx))
    s.record("betti", lambda: {"betti": list(cp.topology.betti_mod2(cx))})
    s.record("collapse", lambda: {"remaining": list(cp.topology.greedy_collapse(cx))})
    s.record("export", lambda: _export(cp, cx))


def _script(cp, s: Sample, name: str, text: str, system) -> None:
    stop_mode, normalize = cp.cubepaths.STOP_ON_LENGTH, cp.cubepaths.NORMALIZE
    stats = cp.cubepaths.ShrinkStats()
    t0 = time.perf_counter()
    path = cp.fileformat.parse_path(text, system)
    valid = cp.cubepaths.validate(path).ok
    short = cp.cubepaths.time_geodesic(path, stop_mode, stats)
    normal = cp.cubepaths.time_geodesic(path, normalize, stats)
    out_text = cp.fileformat.serialize_path(normal)
    s.latencies_ms.append((time.perf_counter() - t0) * 1e3)
    s.moves_in += path.length
    s.iterations += stats.iterations

    def verify():
        end = path.end
        return {
            "valid": valid,
            "stop": short.length,
            "normal_length": normal.length,
            "normal": cp.cubepaths.is_normal(normal),
            "idempotent": cp.cubepaths.time_geodesic(normal, normalize) == normal,
            "round_trip": cp.fileformat.parse_path(out_text, system) == normal,
            "endpoints": short.end == end and normal.end == end,
        }

    s.deferred.append((name, verify))


def _l_path(cp, s: Sample, text: str, system) -> None:
    stats = cp.cubepaths.ShrinkStats()
    path = cp.fileformat.parse_path(text, system)
    out = cp.cubepaths.time_geodesic(path, cp.cubepaths.NORMALIZE, stats)
    s.iterations += stats.iterations
    s.deferred.append(
        (
            "l-path",
            lambda: {
                "length": out.length,
                "iterations": stats.iterations,
                "normal": cp.cubepaths.is_normal(out),
            },
        )
    )


def _lift(cp, s: Sample, name: str, text: str, plane, ball) -> None:
    res = cp.shape.lift_path(cp.fileformat.parse_path(text, plane), (0, 0), ball)
    s.deferred.append(
        (
            name,
            lambda: {
                "ok": res.ok,
                "valid": bool(res.ok) and cp.cubepaths.validate(res.path).ok,
                "length": res.path.length if res.ok else None,
            },
        )
    )


def run_paths_shapes(cp, inp: Inputs, s: Sample):
    t0 = time.perf_counter()
    for name, text in inp.scripts.items():
        system = inp.systems[name.split("-")[0]]
        s.attempt(name, lambda: _script(cp, s, name, text, system))
    s.script_s = time.perf_counter() - t0
    s.attempt("l-path", lambda: _l_path(cp, s, inp.l_path, inp.systems["lpath"]))
    plane = inp.systems["plane"]
    cx = _complex(
        cp, s, "shape-build", lambda: cp.shape.build_shape_complex(plane, [inp.states["plane"]])
    )
    if cx is not None:
        s.record("shape-certify", lambda: _certify(cp, cx))
    for name, text in inp.lifts.items():
        s.attempt(name, lambda: _lift(cp, s, name, text, plane, inp.systems["ball"]))


PIPELINES = {
    "hex-local": run_hex_local,
    "hex-connected": run_hex_connected,
    "arm-topology": run_arm_topology,
    "paths-shapes": run_paths_shapes,
}


def _layer_metrics(tracer: Tracer, spans: list, tested: list, s: Sample) -> dict:
    out = {}
    for name, row in span_totals(spans).items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    out.update(tracer.counters)
    out["model.actions_tested"] = tested[0]
    out["model.admissible_hits"] = tested[1]
    out["cubepaths.shrink_iterations"] = s.iterations
    out["runtime.gc_s"] = tracer.gc_s
    out["runtime.gc_collections"] = tracer.gc_collections
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(PIPELINES))
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    folder = Path(args.inputs)
    tracer = Tracer(args.run_id) if args.trace else None

    cal_before = calibrate()
    t0 = time.perf_counter()
    sys.path.insert(0, args.src)
    import cubeplan as cp

    if not Path(cp.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise RuntimeError(f"cubeplan imported from {cp.__file__}, not from {args.src}")
    tested = None
    if tracer is not None:
        tested = install_tracing(tracer, cp)
        tracer.op = "setup"
        tracer.start_gc_clock()
    inp = Inputs(cp, folder, args.workload in SCANNING)
    setup_s = time.perf_counter() - t0
    setup_rss = resident_mib()
    cal_setup = calibrate()
    result = {
        "setup_s": setup_s,
        "setup_cal_s": (cal_before + cal_setup) / 2,
        "setup_rss_mib": setup_rss,
    }

    if not args.setup_only:
        s = Sample(tracer)
        t1 = time.perf_counter()
        PIPELINES[args.workload](cp, inp, s)
        wall_s = time.perf_counter() - t1
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["wall_cal_s"] = (cal_setup + calibrate()) / 2
        if tracer is not None:
            # The checks below call traced functions too; only the
            # timed region counts.
            tracer.stop_gc_clock()
            spans = list(tracer.spans)
            result["layers"] = _layer_metrics(tracer, spans, tested, s)
        for name, verify in s.deferred:
            s.record(name, verify)
        result.update(
            wall_s=wall_s,
            peak_rss_mib=peak,
            cells=s.cells,
            outputs=s.outputs,
            errors=s.errors,
            latencies_ms=s.latencies_ms,
            moves_in=s.moves_in,
            script_s=s.script_s,
        )
        if tracer is not None:
            write_spans(args.trace, spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
