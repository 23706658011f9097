"""Shape complexes: state complexes up to translation, and path lifting.

The quotient forgets where an aggregate sits in the lattice: a shape is
the canonical translate of a state putting its least occupied cell at
the origin.  Shape complexes are built over an idealized unbounded
workspace with no obstacles, so the quotient is by honest lattice
translations.  A path of shape moves can then be lifted back into a
concrete bounded workspace at a chosen base translation, checking
containment and obstacle rules step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice as lat
from .cubepaths import CubePath
from .errors import ModelError, StateError
from .model import (
    FORWARD,
    BACKWARD,
    REASON_OBSTACLE,
    REASON_WORKSPACE,
    System,
    _rewrite,
    apply_action,
    commute,
    make_action,
    pattern_matches,
)
from .statecomplex import CubeComplex, _build

# lift_path also gives the placement rule's reasons, imported from model
REASON_START = "start-invalid"
REASON_PATTERN = "pattern-mismatch"
REASON_CONSTRAINT = "constraint"
REASON_STEP = "step-malformed"


def canonicalize(state, lattice: lat.Lattice) -> tuple:
    """Translate a state so its least occupied cell sits at the origin.

    Returns (canonical state, shift applied).  Idempotent; the identity
    on finite-graph lattices, which have no translations.
    """
    occ = frozenset(state)
    if not occ:
        raise StateError("cannot canonicalize an empty state")
    if lattice.kind == lat.GRAPH:
        return occ, ()
    # a squareEdge2d cell ``(x, y, o)`` keeps its orientation
    x, y = min(occ)[:2]
    shift = (-x, -y)
    return frozenset(lattice.translate(c, shift) for c in occ), shift


def _shift_offset(offset: tuple, shift: tuple) -> tuple:
    return (offset[0] + shift[0], offset[1] + shift[1])


def shape_cube_key(numbers) -> tuple:
    """The placements of a cube, keyed by the numbers its actions read
    at its all-forward corner, sorted.

    That corner is a canonical shape, so the numbers read there name
    placements in its own frame.  ``ShapeFrame`` numbers each placement
    once, its forward action even, so the sorted numbers name the same
    cube as its sorted ``(gid, offset)`` placements there.
    """
    return tuple(sorted(numbers))


class ShapeFrame:
    """The frame of a shape complex: states are named up to translation.

    Its actions are ``make_action``'s objects, so the cells and the
    build's link record resolve their numbers to one object per distinct
    action, shared with every other user of the system's generators.  It
    numbers them as the plain catalogue does, placements in the order
    first seen: i's forward action is number 2i and its backward 2i + 1.
    """

    def __init__(self, system: System):
        self.system = system
        self.lattice = system.workspace.lattice
        self._first: dict = {}  # placement key -> the forward number
        self.actions: list = []  # number -> action

    def actions_at(self, shape: frozenset) -> list:
        return shape_actions(self.system, shape)

    def canonical(self, state: frozenset) -> frozenset:
        return canonicalize(state, self.lattice)[0]

    def number(self, act) -> int:
        first = self._first.get(act.placement_key)
        if first is None:
            first = self._first[act.placement_key] = len(self.actions)
            for direction in (FORWARD, BACKWARD):
                self.actions.append(
                    make_action(act.generator, act.offset, direction, self.lattice)
                )
        return first + act.direction

    def leaving(self, shape: frozenset, actions) -> tuple:
        """The actions' numbers, the canonical shapes they reach and the
        translations into those shapes' frames: None for none, and None
        in place of the tuple when no action translates."""
        numbers, reached, shifts = [], [], []
        for act in actions:
            numbers.append(self.number(act))
            state, shift = canonicalize(_rewrite(shape, act), self.lattice)
            reached.append(state)
            shifts.append(shift if any(shift) else None)
        return tuple(numbers), reached, tuple(shifts) if any(shifts) else None

    def carry(self, numbers, shift: tuple) -> tuple | None:
        """The numbers of the same actions in the frame the shift
        translates into; None when one was never numbered, so it leaves
        no shape this build has reached."""
        out = []
        for n in numbers:
            gid, offset = self.actions[n].placement_key
            first = self._first.get((gid, _shift_offset(offset, shift)))
            if first is None:
                return None
            out.append(first + (n & 1))
        return tuple(out)

    def cube_key(self, vid: int, numbers: tuple) -> tuple:
        return vid, shape_cube_key(numbers)


def _require_homogeneous(system: System) -> None:
    ws = system.workspace
    # a finite graph's workspace is finite too; name the lattice first
    if ws.lattice.kind == lat.GRAPH:
        raise ModelError("shape complexes need a translation-symmetric lattice")
    if ws.is_finite or ws.obstacles or ws.excluded:
        raise ModelError(
            "ShapeRequiresHomogeneousWorkspace: shape complexes need an "
            "unbounded workspace with no obstacles or holes"
        )
    for gen in system.catalogue:
        if not gen.occ0 or not gen.occ1:
            raise ModelError(
                f"generator {gen.gid}: an all-empty pattern admits no "
                "shape-local placement enumeration"
            )


def shape_actions(system: System, shape: frozenset) -> list:
    """Admissible actions at a canonical shape, in the shape's own frame,
    sorted.

    Placements are found by aligning the least occupied cell of each
    source pattern with each occupied cell of the shape, the rule
    ``System.actions_by_cell`` uses: a matching placement puts that cell
    on the shape, so each is tried exactly once.  An action is built
    only once the pattern's other source cells, translated alike, are
    found in the shape too, as a match needs.  Patterns with no
    occupied cells are rejected up front.
    """
    lattice = system.workspace.lattice
    out = []
    for gen in system.catalogue:
        for direction, src in ((FORWARD, gen.occ0), (BACKWARD, gen.occ1)):
            if not src:
                continue  # an empty source pattern has no cell to align
            local = min(src)
            rest = [c for c in src if c != local]
            for w in shape:
                off = lattice.offset_between(local, w)
                if off is None or any(
                    lattice.translate(c, off) not in shape for c in rest
                ):
                    continue
                act = make_action(gen, off, direction, lattice)
                if pattern_matches(shape, act) and system.constraint_holds(
                    _rewrite(shape, act)
                ):
                    out.append(act)
    out.sort()
    return out


def build_shape_complex(system: System, seed_shapes, cap: int = 1_000_000) -> CubeComplex:
    """Close seed shapes under moves-up-to-translation, then add cubes.
    The complex's frame is a ``ShapeFrame``."""
    _require_homogeneous(system)
    return _build(ShapeFrame(system), seed_shapes, cap)


def random_shape_path(system: System, shape, length: int, rng):
    """A reproducible random walk over canonical shapes.

    Each step holds one action expressed in the frame of the canonical
    shape it acts on, which is the convention ``lift_path`` expects.
    The returned path carries no system: its raw vertices are not
    meaningful, only the per-step frames are.
    """
    _require_homogeneous(system)
    lattice = system.workspace.lattice
    cur, _ = canonicalize(frozenset(shape), lattice)
    start = cur
    steps = []
    for _ in range(length):
        acts = shape_actions(system, cur)
        if not acts:
            break
        act = rng.choice(acts)
        steps.append(frozenset((act,)))
        cur, _ = canonicalize(apply_action(cur, act), lattice)
    return CubePath(start, tuple(steps), None)


@dataclass(frozen=True)
class LiftResult:
    """Outcome of placing a shape path into a concrete workspace.

    ``fail_step`` is the 0-based index of the failing step, or -1 when
    the start state itself cannot be placed.
    """

    ok: bool
    path: object = None
    fail_step: int | None = None
    reason: str | None = None


def lift_path(shape_path, base_offset: tuple, system: System) -> LiftResult:
    """Re-place a shape path into the system's workspace.

    The path's start shape goes in at ``base_offset``; each step is then
    translated along, checking ``System.placement_fault`` (workspace
    containment, obstacle traces), pattern match against the real state
    (occupied obstacles included), and the global constraint, in that
    order.  A step is read in the frame of the canonical shape of the
    modules it acts on: traces never touch obstacle cells, so the
    modules are the state minus its occupied obstacles.  A finite graph
    has no translations to carry the frame along, so it raises
    ``ModelError``, as does a base offset that is not a pair of ints.
    """
    ws = system.workspace
    lattice = ws.lattice
    if lattice.kind == lat.GRAPH:
        raise ModelError("shape paths lift only on a translation-symmetric lattice")
    t = tuple(base_offset) if isinstance(base_offset, (tuple, list)) else None
    if not lat._is_int_pair(t):
        raise ModelError(f"base offset {base_offset!r} is not a pair of integers")
    modules = frozenset(lattice.translate(c, t) for c in shape_path.start)
    if any(not ws.contains(c) for c in modules):
        return LiftResult(False, None, -1, REASON_WORKSPACE)
    if modules & ws.obstacle_cells:
        return LiftResult(False, None, -1, REASON_START)
    occupied_obstacles = frozenset(c for c, bit in ws.obstacles if bit)
    state = modules | occupied_obstacles
    if not system.constraint_holds(state):
        return LiftResult(False, None, -1, REASON_CONSTRAINT)
    start = state
    steps = []
    for i, step in enumerate(shape_path.steps):
        placed = []
        for act in sorted(step):
            cact = make_action(
                act.generator, _shift_offset(act.offset, t), act.direction, lattice
            )
            fault = system.placement_fault(cact)
            if fault is not None:
                return LiftResult(False, None, i, fault)
            if not pattern_matches(state, cact):
                return LiftResult(False, None, i, REASON_PATTERN)
            placed.append(cact)
        if not placed or not commute(placed):
            return LiftResult(False, None, i, REASON_STEP)
        for cact in placed:
            state = apply_action(state, cact)
        if not system.constraint_holds(state):
            return LiftResult(False, None, i, REASON_CONSTRAINT)
        steps.append(frozenset(placed))
        _, shift = canonicalize(state - occupied_obstacles, lattice)
        t = (-shift[0], -shift[1])
    return LiftResult(True, CubePath(start, tuple(steps), system), None, None)
