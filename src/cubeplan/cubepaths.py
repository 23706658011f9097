"""Cube paths and the optimization that makes them time-optimal.

A cube path is a start state plus an ordered list of action sets; each
set runs simultaneously (its actions pairwise commute) and one set takes
one time unit, so the path's length is its elapsed time.  The optimizer
repeatedly pulls actions of the next step into the current one when
their supports and traces permit, cancels move/undo pairs meeting at a
junction, and drops emptied steps.  Its fixed points are exactly the
normal cube paths, which are the unique time-optimal representatives of
their homotopy class in a nonpositively curved complex.

The sweep runs on integers.  Each ``time_geodesic`` call numbers its
path once: the actions by equality, the cells of their supports and
the placements, so an action is a support bitmask, a trace bitmask and
one placement bit, and a step is one row: its action ids plus the OR
of each.  Junctions are then tested with ``&``.  The rows are handed
from sweep to sweep on the paths they return and die with the call.
``is_normal`` holds when one sweep changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PathError, StateError
from .model import (
    System,
    _rewrite,
    apply_action,
    commute,
    cube_holds,
    is_admissible,
)
from .statecomplex import PlainFrame

STOP_ON_LENGTH = "stopOnLength"
NORMALIZE = "normalize"
MODES = (STOP_ON_LENGTH, NORMALIZE)


@dataclass(frozen=True)
class CubePath:
    """Start state plus steps; each step is a frozenset of actions."""

    start: frozenset
    steps: tuple
    system: System | None = None
    # the sweep's integer coding of the steps (see ``_number``), set only
    # by ``shrink_cube_path``, so a copy or a new path starts without one
    _coding: tuple | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "start", frozenset(self.start))
        object.__setattr__(
            self, "steps", tuple(frozenset(s) for s in self.steps)
        )

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def potential(self) -> int:
        """Sum of position times step dimension; decreases on every change
        the optimizer makes, which is what bounds its running time."""
        return sum((i + 1) * len(s) for i, s in enumerate(self.steps))

    def vertices(self) -> list:
        """The length+1 states the path passes through."""
        out = [self.start]
        cur = self.start
        for step in self.steps:
            for act in sorted(step):
                cur = apply_action(cur, act)
            out.append(cur)
        return out

    @property
    def end(self) -> frozenset:
        return self.vertices()[-1]


@dataclass
class ShrinkStats:
    """Counters for the optimizer's work, for complexity assertions."""

    iterations: int = 0
    shrink_calls: int = 0


def from_edge_path(start, moves, system: System | None = None) -> CubePath:
    """Wrap a sequence of single moves as a cube path of singleton steps.

    The path must pass ``validate``; otherwise ``PathError`` is raised
    with the failing move's ``index`` (-1 for the start state).
    """
    path = CubePath(start, tuple(frozenset((act,)) for act in moves), system)
    report = validate(path)
    if not report.ok:
        raise PathError(f"move {report.index}: {report.reason}", index=report.index)
    return path


def _require_optimizable(path: CubePath) -> None:
    if path.system is not None and not path.system.is_local:
        raise PathError(
            "optimizer requires a local system; global constraints can "
            "invalidate rescheduled intermediate states"
        )


def _row(tables, ids: tuple, step=None) -> tuple:
    """A step's row: its action ids, the OR of each of their masks, and its
    frozenset, or None for a step a sweep changed until the sweep ends."""
    _, sup, tr, pk = tables
    s = t = p = 0
    for j in ids:
        s |= sup[j]
        t |= tr[j]
        p |= pk[j]
    return ids, s, t, p, step


def _number(path: CubePath) -> tuple:
    """The path's coding, ``(tables, rows)``, shared by the sweeps of
    one ``time_geodesic`` call.

    ``tables`` is ``(actions, sup, tr, pk)``, indexed by action id and
    never changed: the actions numbered by equality in order of first
    occurrence, each one's bitmask of support cells, of trace cells,
    and the bit of its placement, over cells and placements numbered in
    the same pass.  ``rows`` holds one row per step (see ``_row``).  A
    sweep works on a copy of the rows and hands its own on.  A step
    object that recurs (a parsed script shares them) is coded once."""
    number, cells, places = {}, {}, {}
    tables = actions, sup, tr, pk = [], [], [], []

    def bits(cell_set) -> int:
        mask = 0
        for c in cell_set:
            mask |= 1 << cells.setdefault(c, len(cells))
        return mask

    coded = {}  # id(step) -> its row
    rows = []
    for step in path.steps:
        row = coded.get(id(step))
        if row is None:
            ids = []
            for act in step:
                j = number.get(act)
                if j is None:
                    j = number[act] = len(actions)
                    actions.append(act)
                    sup.append(bits(act.support))
                    tr.append(bits(act.trace))
                    pk.append(1 << places.setdefault(act.placement_key, len(places)))
                ids.append(j)
            row = coded[id(step)] = _row(tables, tuple(ids), step)
        rows.append(row)
    return tables, rows


def shrink_cube_path(path: CubePath, stats: ShrinkStats | None = None) -> CubePath:
    """One optimization sweep along the path.

    At each position, pull forward whatever commutes out of the next
    step, drop the next step if that empties it, then cancel common
    placements with the previous step, stepping the cursor back after an
    excision so the changed junction is re-examined.  The cursor only
    advances when nothing commuted forward.  The result has the same
    endpoints; its potential is strictly smaller unless nothing changed,
    and the sweep changes nothing exactly when the path is normal.

    The sweep reads, replaces and deletes the rows of the path's integer
    coding (see ``_number``), one row per step: a whole step commutes
    forward when its support and trace masks miss the current step's
    trace and support masks, its actions are tested one by one only
    when that fails and it holds more than one, and two steps share a
    placement when their placement masks meet.  A path from an earlier
    sweep carries the coding; any other path is numbered on entry.  The
    result carries its own coding, and keeps the frozenset of every
    step the sweep did not change.
    """
    _require_optimizable(path)
    if stats is not None:
        stats.shrink_calls += 1
    tables, rows = path._coding if path._coding is not None else _number(path)
    actions, a_sup, a_tr, a_pk = tables
    rows = list(rows)
    iterations = i = 0
    n = len(rows)
    while i < n:
        iterations += 1
        moved = False
        if i + 1 < n:
            cur, c_sup, c_tr, c_pk, _ = rows[i]
            nxt, n_sup, n_tr, n_pk, _ = rows[i + 1]
            if not (c_sup & n_tr or c_tr & n_sup):
                if nxt:
                    # the whole next step runs a step earlier
                    moved = True
                    rows[i] = (cur + nxt, c_sup | n_sup, c_tr | n_tr,
                               c_pk | n_pk, None)
                    del rows[i + 1]
                    n -= 1
            elif len(nxt) > 1:
                go, stay = [], []
                for j in nxt:
                    if a_tr[j] & c_sup or a_sup[j] & c_tr:
                        stay.append(j)
                    else:
                        go.append(j)
                if go:
                    moved = True
                    rows[i] = _row(tables, cur + tuple(go))
                    rows[i + 1] = _row(tables, tuple(stay))
        if i:
            p_pk, c_pk = rows[i - 1][3], rows[i][3]
            shared = p_pk & c_pk
            # a step whose placements all cancel is left empty, and an
            # empty step (an input may hold one) has no placement bit
            if shared or not (p_pk and c_pk):
                empty_prev, empty_cur = p_pk == shared, c_pk == shared
                for k, empty in ((i - 1, empty_prev), (i, empty_cur)):
                    if shared and not empty:
                        kept = tuple(j for j in rows[k][0] if not a_pk[j] & shared)
                        rows[k] = _row(tables, kept)
                if empty_cur or empty_prev:
                    if empty_cur:
                        del rows[i]
                    if empty_prev:
                        del rows[i - 1]
                    n = len(rows)
                    i = max(0, i - (2 if empty_prev else 1))
                    continue
        if not moved:
            i += 1
    if stats is not None:
        stats.iterations += iterations
    for k, row in enumerate(rows):
        if row[4] is None:
            rows[k] = (*row[:4], frozenset([actions[j] for j in row[0]]))
    out = CubePath(path.start, tuple(row[4] for row in rows), path.system)
    object.__setattr__(out, "_coding", (tables, rows))
    return out


def time_geodesic(
    path: CubePath, mode: str = STOP_ON_LENGTH, stats: ShrinkStats | None = None
) -> CubePath:
    """Optimize a path to minimum elapsed time.

    ``stopOnLength`` repeats the sweep until the length stops dropping:
    the result has the least length in the path's homotopy class.
    ``normalize`` repeats until nothing changes at all: the result is the
    unique normal cube path of the class.  Endpoints never change.

    The first sweep numbers the path's actions, cells and placements
    (``_number``), and each sweep hands that coding to the next, so it
    lives for this call only: the returned path carries none.
    """
    if mode not in MODES:
        raise PathError(f"unknown mode {mode!r}")
    cur, done = path, False
    while not done:
        nxt = shrink_cube_path(cur, stats)
        done = nxt == cur if mode == NORMALIZE else nxt.length >= cur.length
        cur = nxt
    return CubePath(cur.start, cur.steps, cur.system)


def is_normal(path: CubePath) -> bool:
    """One sweep leaves the path unchanged.  It sweeps a copy without the
    system, so a path of a non-local system is read too."""
    return shrink_cube_path(CubePath(path.start, path.steps)).steps == path.steps


@dataclass(frozen=True)
class PathReport:
    ok: bool
    index: int | None = None
    reason: str | None = None


def validate(path: CubePath) -> PathReport:
    """Check the structural invariants of a cube path.

    Every step must be a nonempty, pairwise-commuting set of actions,
    each admissible at the state the step starts from, and on a
    non-local system every corner of its cube must satisfy the global
    constraint.  When the path carries a system, its start must fit the
    workspace and satisfy the global constraint (index -1 if not), and
    every action must pass ``System.placement_fault``, the system's own
    check of its placements.  Admissibility is tested at every move, the
    rest once per distinct step (one met again passed them); a step's
    actions commute, so the state advances by their rewrites.
    """
    cur = path.start
    system = path.system
    if system is not None:
        try:
            system.workspace.check_state(cur)
        except StateError as err:
            return PathReport(False, -1, f"start state invalid: {err}")
        if not system.constraint_holds(cur):
            return PathReport(False, -1, "start state violates the global constraint")
    ordered = {}  # step -> its sorted actions, once it passed empty and commute
    for i, step in enumerate(path.steps):
        acts = ordered.get(step)
        fresh = acts is None
        if fresh:
            if not step:
                return PathReport(False, i, "empty step")
            if not commute(step):
                return PathReport(False, i, "step actions do not commute")
            acts = ordered[step] = sorted(step)
        nxt = cur
        for act in acts:
            fault = system.placement_fault(act) if fresh and system is not None else None
            if fault is not None:
                why = f"is not a placement of the system ({fault})"
                return PathReport(False, i, f"action {act.gid} at {act.offset} {why}")
            if not is_admissible(cur, act, system):
                return PathReport(False, i, f"action {act.gid} at {act.offset} not admissible")
            nxt = _rewrite(nxt, act)
        if not cube_holds(cur, acts, system):
            return PathReport(False, i, "state violates the global constraint")
        cur = nxt
    return PathReport(True, None, None)


def oracle_shortest(complex_, u, v) -> int:
    """Fewest cubes between two vertices, by search over cube moves.

    One move jumps from any vertex of a cube to the antipodal vertex:
    corner m of a cube to corner ``~m``.  The moves are read off the
    cells' corners on every call.  Independent of the optimizer: used to
    cross-check its output on complexes small enough to build.
    """
    from collections import deque

    adj = [set() for _ in range(complex_.n_vertices)]
    for k in range(1, complex_.max_dim + 1):
        for i in range(complex_.n_cells(k)):
            corners = complex_.corners(k, i)
            for m, vid in enumerate(corners):
                adj[vid].add(corners[~m])
    src = complex_.vertex_vid(u)
    dst = complex_.vertex_vid(v)
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque((src,))
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for nb in adj[cur]:
            if nb not in dist:
                if nb == dst:
                    return d
                dist[nb] = d
                queue.append(nb)
    raise PathError("states are not connected in the complex")


def random_edge_path(system: System, start, length: int, rng) -> list:
    """A reproducible random admissible move sequence from a state.

    Stops early only if a state has no admissible actions at all.
    """
    return PlainFrame(system).walk(start, length, rng)[1]
