"""Spans around calls into the package's modules, kept in memory.

A traced worker replaces public functions at the module attributes
their callers look up, so a call from inside the package is recorded
just like a call from the benchmark.  Each span carries its name,
start, end, parent span, run id and operation id; the spans are written
out once the run ends.  A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter, defaultdict

_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def resident_mib() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MIB


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    ``spans`` are (id, name, start, end, parent, ...) tuples.  Children
    are clipped to their parent's interval before their union is taken.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp[4] is not None:
            children[sp[4]].append((sp[2], sp[3]))
    out = {}
    for sp in spans:
        sid, start, end = sp[0], sp[2], sp[3]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def span_totals(spans) -> dict:
    """Span name -> {"calls", "s", "self_s"} summed over the spans."""
    selfs = self_times(spans)
    out: dict = {}
    for sp in spans:
        row = out.setdefault(sp[1], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += sp[3] - sp[2]
        row["self_s"] += selfs[sp[0]]
    return out


class Tracer:
    """Records spans and counters for one run of one worker process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = None
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._gc_started = None
        self.gc_s = 0.0
        self.gc_collections = 0

    def wrap(self, name: str, fn, after=None, rss: bool = False):
        """A stand-in for ``fn`` that records one span per call.

        ``after(counters, result, args, kwargs)`` may add counters from
        the call's inputs and result; ``rss`` adds the resident-set
        growth over the call to the counter ``<name>.rss_mib``.
        """
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            rss0 = resident_mib() if rss else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.run_id, self.op)
            if rss:
                counters[name + ".rss_mib"] += resident_mib() - rss0
            if after is not None:
                after(counters, result, args, kwargs)
            return result

        return traced

    def start_gc_clock(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_clock(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None


def write_spans(path: str, spans) -> None:
    """Write spans as tab-separated lines, one per span."""
    with open(path, "w") as fh:
        fh.write("id\tname\tstart\tend\tparent\trun\top\n")
        for sid, name, start, end, parent, run, op in spans:
            fh.write(
                f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t"
                f"{'' if parent is None else parent}\t{run}\t{op or ''}\n"
            )


def patch(modules, name: str, replacement, original) -> int:
    """Point every module attribute bound to ``original`` at ``replacement``."""
    hits = 0
    for mod in modules:
        if getattr(mod, name, None) is original:
            setattr(mod, name, replacement)
            hits += 1
    return hits
