"""Core model: workspaces, states, generators, placed actions.

A state is a frozenset of occupied cells.  A generator is a local rewrite
rule given in generator-local coordinates: a support (the cells the rule
inspects), a trace (the subset allowed to change), and an unordered pair
of local occupancy patterns that agree off the trace.  An action is a
generator placed into the workspace by a rigid translation (or, on a
finite graph, by an embedding of its local support) together with an
explicit direction saying which pattern is the source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import lattice as lat
from .errors import ModelError, NotAdmissibleError, StateError

FORWARD = 0
BACKWARD = 1

# why an action is not a placement (``placement_fault``, ``System.placement_fault``)
REASON_WORKSPACE = "out-of-workspace"
REASON_OBSTACLE = "obstacle-trace"
REASON_EMBEDDING = "not-an-embedding"


@dataclass(frozen=True)
class Generator:
    """A local rewrite rule in generator-local coordinates.

    ``occ0`` and ``occ1`` are the occupied cells of the two local
    patterns.  They must differ, and may differ only inside ``trace``.
    ``local_edges`` gives the adjacency the support must embed along and
    is required exactly when the system lives on a finite graph.

    ``_placed`` is ``make_action``'s table of the actions placed so far,
    keyed by (lattice kind, offset, direction); it lives as long as the
    generator, and equality, the hash and the repr ignore it.
    """

    gid: str
    support: tuple
    trace: frozenset
    occ0: frozenset
    occ1: frozenset
    local_edges: tuple | None = None
    _placed: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        sup = set(self.support)
        if len({type(c) for c in sup}) > 1:
            raise ModelError(f"generator {self.gid}: support mixes label types")
        object.__setattr__(self, "support", tuple(sorted(sup)))
        object.__setattr__(self, "trace", frozenset(self.trace))
        object.__setattr__(self, "occ0", frozenset(self.occ0))
        object.__setattr__(self, "occ1", frozenset(self.occ1))
        if not sup:
            raise ModelError(f"generator {self.gid}: empty support")
        if not self.trace <= sup:
            raise ModelError(f"generator {self.gid}: trace not within support")
        if not (self.occ0 <= sup and self.occ1 <= sup):
            raise ModelError(f"generator {self.gid}: pattern leaves support")
        if self.occ0 == self.occ1:
            raise ModelError(f"generator {self.gid}: degenerate (patterns equal)")
        if (self.occ0 ^ self.occ1) - self.trace:
            raise ModelError(
                f"generator {self.gid}: local states must agree off trace"
            )
        if self.local_edges is not None:
            norm = []
            for e in self.local_edges:
                if len(e) != 2 or e[0] == e[1]:
                    raise ModelError(f"generator {self.gid}: bad local edge {e!r}")
                a, b = e
                if a not in sup or b not in sup:
                    raise ModelError(
                        f"generator {self.gid}: local edge {e!r} leaves support"
                    )
                norm.append((a, b) if a <= b else (b, a))
            object.__setattr__(self, "local_edges", tuple(sorted(set(norm))))


@dataclass(frozen=True)
class Action:
    """A generator placed into the workspace and run in one direction.

    ``offset`` is a translation vector for lattice kinds.  On a finite
    graph it is the tuple of host nodes the local support maps to, in
    local support order.  The placed cell sets and the placement key
    ``(gid, offset)``, which both directions of a placement share, are
    stored by ``make_action``; equality and the repr ignore them.  So
    does ``hash_``, the hash of ``(gid, offset, direction)``, computed
    once by ``make_action`` and ``reverse``, so hashing never walks the
    generator.  ``make_action`` returns one object per distinct placed
    action for as long as its generator lives, so the catalogue, parsed
    scripts, shape frames and lifts share them; ``reverse`` is a plain
    value operation that always builds a new object.
    """

    generator: Generator
    offset: tuple
    direction: int  # FORWARD: occ0 -> occ1, BACKWARD: occ1 -> occ0
    support: frozenset = field(compare=False, repr=False)
    trace: frozenset = field(compare=False, repr=False)
    src_occ: frozenset = field(compare=False, repr=False)
    dst_occ: frozenset = field(compare=False, repr=False)
    placement_key: tuple = field(compare=False, repr=False)
    hash_: int = field(compare=False, repr=False)

    def __hash__(self):
        return self.hash_

    @property
    def gid(self) -> str:
        return self.generator.gid

    @property
    def sort_key(self):
        return (self.generator.gid, self.offset, self.direction)

    def reverse(self) -> "Action":
        direction = BACKWARD if self.direction == FORWARD else FORWARD
        return Action(
            self.generator,
            self.offset,
            direction,
            self.support,
            self.trace,
            self.dst_occ,
            self.src_occ,
            self.placement_key,
            hash((self.generator.gid, self.offset, direction)),
        )

    def __lt__(self, other):
        return self.sort_key < other.sort_key


def make_action(
    generator: Generator, offset: tuple, direction: int, lattice: lat.Lattice
) -> Action:
    """Place the generator at the offset and run it in the direction.

    Returns the generator's one object for this placed action, made on
    the first call (hash-consing).  The key holds the lattice kind,
    since ``translate`` reads it.  An action whose other direction is
    stored is made as that twin's reverse, so both share ``support``,
    ``trace`` and ``placement_key``.
    """
    table = generator._placed
    key = (lattice.kind, offset, direction)
    act = table.get(key)
    if act is not None:
        return act
    twin = table.get((lattice.kind, offset, 1 - direction))
    if twin is not None:
        act = twin.reverse()
    else:
        if lattice.kind == lat.GRAPH:
            mapping = dict(zip(generator.support, offset))
        else:
            mapping = {c: lattice.translate(c, offset) for c in generator.support}
        src, dst = (
            (generator.occ0, generator.occ1)
            if direction == FORWARD
            else (generator.occ1, generator.occ0)
        )
        act = Action(
            generator,
            offset,
            direction,
            frozenset(mapping.values()),
            frozenset(mapping[c] for c in generator.trace),
            frozenset(mapping[c] for c in src),
            frozenset(mapping[c] for c in dst),
            (generator.gid, offset),
            hash((generator.gid, offset, direction)),
        )
    table[key] = act
    return act


def _least_failing(cells, test):
    """The least cell by ``repr`` that fails the test, or None."""
    if all(map(test, cells)):
        return None
    return min((c for c in cells if not test(c)), key=repr)


@dataclass(frozen=True)
class Workspace:
    """The region cells may occupy, plus pinned obstacle bits.

    ``cells`` is a frozenset for a finite workspace or None for the whole
    lattice minus ``excluded`` (a cofinite workspace).  On a finite graph
    None means the graph's nodes minus ``excluded``, kept as that finite
    node set with nothing excluded.  Each obstacle is a (cell, occupied)
    pair; every state must carry exactly that bit there, and no action
    trace may touch an obstacle cell.  A refusal names the least bad
    cell by ``repr``, the same one under every hash seed; an obstacle's
    refusal carries its position in ``obstacles`` as ``index``.
    """

    lattice: lat.Lattice
    cells: frozenset | None
    obstacles: tuple = ()
    excluded: frozenset = frozenset()

    def __post_init__(self):
        lattice, cells, excluded = self.lattice, self.cells, frozenset(self.excluded)
        if cells is None:
            bad = _least_failing(excluded, lattice.is_cell)
            if bad is not None:
                raise ModelError(f"excluded cell {bad!r} invalid for lattice")
            if lattice.kind == lat.GRAPH:
                cells, excluded = frozenset(lattice.nodes) - excluded, frozenset()
        else:
            cells = frozenset(cells)
            bad = _least_failing(cells, lattice.is_cell)
            if bad is not None:
                raise ModelError(f"workspace cell {bad!r} invalid for lattice")
            if excluded:
                raise ModelError("excluded cells apply only to cofinite workspaces")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "excluded", excluded)
        seen = set()
        norm = []
        for i, (cell, bit) in enumerate(self.obstacles):
            if cell in seen:
                raise ModelError(f"duplicate obstacle cell {cell!r}", index=i)
            seen.add(cell)
            if not self.contains(cell):
                raise ModelError(f"obstacle cell {cell!r} outside workspace", index=i)
            norm.append((cell, bool(bit)))
        object.__setattr__(self, "obstacles", tuple(sorted(norm)))

    @property
    def is_finite(self) -> bool:
        return self.cells is not None

    def contains(self, cell) -> bool:
        if self.cells is not None:
            return cell in self.cells
        return self.lattice.is_cell(cell) and cell not in self.excluded

    @cached_property
    def obstacle_cells(self) -> frozenset:
        return frozenset(cell for cell, _ in self.obstacles)

    def check_state(self, occupied) -> frozenset:
        """Validate a state against the workspace; returns it frozen."""
        occ = frozenset(occupied)
        bad = _least_failing(occ, self.contains)
        if bad is not None:
            raise StateError(f"occupied cell {bad!r} outside workspace")
        for cell, bit in self.obstacles:
            if (cell in occ) != bit:
                raise StateError(
                    f"state disagrees with obstacle bit at {cell!r}"
                )
        return occ


# Named global constraints, kept as a registry so systems stay
# serializable and comparable by name.
def _connected_constraint(occupied, workspace: Workspace) -> bool:
    return lat.is_connected(occupied, workspace.lattice)


CONSTRAINTS = {"connected": _connected_constraint}

# the key of actions with an empty source pattern in ``System.actions_by_cell``
NO_SOURCE = object()


@dataclass(frozen=True)
class System:
    """A workspace, a generator catalogue, and an optional global rule.

    Systems with ``constraint_name`` None are local: every move's legality
    is decided by its own support pattern.  A named constraint makes the
    system non-local; it must hold at every state of the system, so a move
    is admissible only if its result still satisfies it.
    """

    workspace: Workspace
    catalogue: tuple
    constraint_name: str | None = None
    # generator -> frozenset of its graph embeddings, for placement_fault
    _embeddings: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "catalogue", tuple(self.catalogue))
        gids = [g.gid for g in self.catalogue]
        if len(set(gids)) != len(gids):
            raise ModelError("duplicate generator ids in catalogue")
        is_graph = self.workspace.lattice.kind == lat.GRAPH
        for g in self.catalogue:
            if is_graph and g.local_edges is None:
                raise ModelError(
                    f"generator {g.gid}: finite-graph systems need local edges"
                )
            if not is_graph:
                if g.local_edges is not None:
                    raise ModelError(
                        f"generator {g.gid}: local edges only apply to graphs"
                    )
                for c in g.support:
                    if not self.workspace.lattice.is_cell(c):
                        raise ModelError(
                            f"generator {g.gid}: support cell {c!r} invalid"
                        )
        if self.constraint_name is not None and self.constraint_name not in CONSTRAINTS:
            raise ModelError(f"unknown constraint {self.constraint_name!r}")

    @property
    def is_local(self) -> bool:
        return self.constraint_name is None

    def constraint_holds(self, occupied) -> bool:
        if self.constraint_name is None:
            return True
        return CONSTRAINTS[self.constraint_name](occupied, self.workspace)

    @cached_property
    def all_actions(self) -> tuple:
        out = []
        for gen in self.catalogue:
            out.extend(placements(gen, self.workspace))
        out.sort()
        return tuple(out)

    @cached_property
    def actions_by_cell(self) -> dict:
        """Positions in ``all_actions`` keyed by the least cell of each
        action's source pattern; actions with an empty source pattern sit
        under ``NO_SOURCE``.  An action matches only a state holding its
        whole source pattern, so the positions under a state's cells and
        ``NO_SOURCE`` include every action admissible there, and
        ``admissible_actions`` tests those whose whole pattern it holds."""
        out: dict = {}
        for i, act in enumerate(self.all_actions):
            key = min(act.src_occ) if act.src_occ else NO_SOURCE
            out.setdefault(key, []).append(i)
        return out

    def placement_fault(self, action: Action) -> str | None:
        """Why the action is not a placement of this system, or None.

        The workspace rule of ``placement_fault``, and on a finite graph
        the offset must also be one of the action's generator's
        embeddings, in its node order.  Each generator's embeddings are
        enumerated on its first check and kept by generator value, so a
        generator the catalogue lacks is checked against its own.
        """
        ws = self.workspace
        fault = placement_fault(action, ws)
        if fault is None and ws.lattice.kind == lat.GRAPH:
            gen = action.generator
            offsets = self._embeddings.get(gen)
            if offsets is None:
                offsets = self._embeddings[gen] = frozenset(_graph_embeddings(gen, ws))
            if action.offset not in offsets:
                fault = REASON_EMBEDDING
        return fault


@dataclass(frozen=True)
class SystemFile:
    """A system bundled with its seed states, as stored in a system file.

    A seed the workspace refuses is refused with its position in ``seeds``.
    """

    system: System
    seeds: tuple = ()

    def __post_init__(self):
        seeds = []
        for i, seed in enumerate(self.seeds):
            try:
                seeds.append(self.system.workspace.check_state(seed))
            except StateError as e:
                raise StateError(str(e), index=i) from None
        object.__setattr__(self, "seeds", tuple(seeds))


def _graph_embeddings(gen: Generator, workspace: Workspace):
    """Injective maps of the local support into the host graph.

    Every local edge must land on a host edge.  Embeddings that place the
    same support, trace, and pattern pair are duplicates of one placement;
    the lexicographically least node tuple represents it.  The search
    grows node tuples in support order over the lattice's sorted nodes, so
    it meets them in lexicographic order: the first tuple per placement is
    the least, and the kept tuples come out sorted.
    """
    graph = workspace.lattice
    sup = gen.support
    # a local edge (a, b) has a < b in the sorted support: check it at b
    checks = [[] for _ in sup]
    for a, b in gen.local_edges or ():
        checks[sup.index(b)].append(sup.index(a))
    hosts = [n for n in graph.nodes if workspace.contains(n)]
    found = {}

    def extend(prefix):
        i = len(prefix)
        if i == len(sup):
            place = dict(zip(sup, prefix))
            trace = frozenset(place[c] for c in gen.trace)
            occ0 = frozenset(place[c] for c in gen.occ0)
            occ1 = frozenset(place[c] for c in gen.occ1)
            found.setdefault((frozenset(prefix), trace, frozenset((occ0, occ1))), prefix)
            return
        for h in hosts:
            if h in prefix:
                continue
            for j in checks[i]:
                if not graph.has_edge(h, prefix[j]):
                    break
            else:
                extend(prefix + (h,))

    extend(())
    return list(found.values())


def placement_fault(action: Action, workspace: Workspace) -> str | None:
    """Why the action is not a placement in the workspace, or None.

    A placement's support lies inside the workspace and its trace
    avoids every obstacle cell.
    """
    if workspace.is_finite:
        inside = action.support <= workspace.cells
    else:
        inside = all(map(workspace.contains, action.support))
    if not inside:
        return REASON_WORKSPACE
    if action.trace & workspace.obstacle_cells:
        return REASON_OBSTACLE
    return None


def placements(generator: Generator, workspace: Workspace) -> list:
    """Every placement of the generator that fits the workspace.

    Each placement is returned in both directions, both made by
    ``make_action``, so the catalogue holds the generator's own objects;
    see ``placement_fault`` for what fits.  Output is sorted by
    (generator id, offset, direction); distinct cells give distinct
    lattice offsets, and graph embeddings come out sorted.
    """
    if not workspace.is_finite:
        raise ModelError("WorkspaceNotFinite: placements need a finite workspace")
    lattice = workspace.lattice
    if lattice.kind == lat.GRAPH:
        offsets = _graph_embeddings(generator, workspace)
    else:
        anchor = generator.support[0]
        offsets = [lattice.offset_between(anchor, w) for w in workspace.cells]
        offsets = sorted(off for off in offsets if off is not None)
    out = []
    for off in offsets:
        act = make_action(generator, off, FORWARD, lattice)
        if placement_fault(act, workspace) is None:
            out.append(act)
            out.append(make_action(generator, off, BACKWARD, lattice))
    return out


def pattern_matches(state: frozenset, action: Action) -> bool:
    """True if the action's source pattern matches the state."""
    return state & action.support == action.src_occ


def _rewrite(state: frozenset, action: Action) -> frozenset:
    """The action's rewrite of a state its source pattern matches."""
    return (state - action.support) | action.dst_occ


def apply_action(state: frozenset, action: Action) -> frozenset:
    """Rewrite the state by one action.

    The state is unchanged off the placed support and carries the target
    pattern on it.  Applying an action and then its reverse is a no-op.
    The match is checked first, for callers holding an action no test
    has passed; the builder rewrites admitted actions without it.
    """
    if not pattern_matches(state, action):
        raise NotAdmissibleError(
            f"NotAdmissible: {action.gid} at {action.offset} does not match"
        )
    return _rewrite(state, action)


def is_admissible(state: frozenset, action: Action, system: System) -> bool:
    """Pattern match plus, for non-local systems, the global rule.

    The global rule is evaluated on the action's result: a move that
    would leave the system in a forbidden state is not admissible.
    """
    if not pattern_matches(state, action):
        return False
    if system.constraint_name is None:
        return True
    return system.constraint_holds(_rewrite(state, action))


def admissible_actions(state: frozenset, system: System) -> list:
    """All admissible actions at a state, sorted and duplicate-free.

    Candidates are indexed by their source pattern's least cell
    (``System.actions_by_cell``), then filtered on the whole source
    pattern, so ``is_admissible`` tests only actions the state can match.
    """
    catalogue, by_cell = system.all_actions, system.actions_by_cell
    candidates = [
        i for cell in state for i in by_cell.get(cell, ()) if catalogue[i].src_occ <= state
    ]
    candidates += by_cell.get(NO_SOURCE, ())
    candidates.sort()
    return [
        catalogue[i] for i in candidates if is_admissible(state, catalogue[i], system)
    ]


def commute_pair(a: Action, b: Action) -> bool:
    """Neither action's trace meets the other's support."""
    return a.trace.isdisjoint(b.support) and b.trace.isdisjoint(a.support)


def commute(actions) -> bool:
    """True if the actions pairwise commute.

    Accepts any iterable; a single action commutes with itself vacuously,
    but two copies of one placement (or one placement in both directions)
    do not commute, since a trace always meets its own support.
    """
    acts = list(actions)
    for i in range(len(acts)):
        for j in range(i + 1, len(acts)):
            if not commute_pair(acts[i], acts[j]):
                return False
    return True
