"""Text formats: system files, state files, move scripts, complex export.

System files are line oriented UTF-8 text; ``#`` starts a comment.  The
first directive must be ``lattice KIND``.  Cells are written ``(x,y)``
on the square and hex lattices, ``(x,y,h)`` or ``(x,y,v)`` on the edge
lattice, and as bare tokens (integers or identifiers) on finite graphs.
``parse_system_file`` and ``serialize`` are mutually inverse on valid
input: parse(serialize(x)) == x by dataclass equality.

Each rule of the syntax has one home: ``_lines`` is the one reader of
lines (comments cut, blanks stripped, empty lines skipped) and
``_cell_line`` the one writer of a head word followed by cells in sort
order.  The rules of the model live in the model: ``Workspace`` owns the
workspace, exclusion and obstacle rules and ``SystemFile`` the seed
rules.  The reader builds them from the file and maps each refusal to
the line of the item it names.
"""

from __future__ import annotations

import re

from . import lattice as lat
from .cubepaths import CubePath
from .errors import FormatError, ModelError, StateError
from .model import (
    CONSTRAINTS,
    Generator,
    System,
    SystemFile,
    Workspace,
    make_action,
)

_INT_RE = re.compile(r"^-?\d+$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
_PAIR_RE = re.compile(r"^\((-?\d+),(-?\d+)\)$")
_EDGE_CELL_RE = re.compile(r"^\((-?\d+),(-?\d+),([hv])\)$")
_GRAPH_PAIR_RE = re.compile(r"^\(([^,()\s]+),([^,()\s]+)\)$")

_ORIENT_LETTER = {lat.HORIZONTAL: "h", lat.VERTICAL: "v"}
_ORIENT_VALUE = {"h": lat.HORIZONTAL, "v": lat.VERTICAL}
_DIRECTION_WORDS = ("fwd", "bwd")  # indexed by model.FORWARD (0) and BACKWARD (1)

_GENERATOR_FIELDS = ("support", "trace", "occ0", "occ1", "edges")
# system-file directives that may appear at most once
_SINGLE_DIRECTIVES = ("lattice", "nodes", "edges", "workspace", "constraint")


def _err(ln: int | None, msg: str) -> FormatError:
    return FormatError(msg if ln is None else f"line {ln}: {msg}")


def _int(tok: str, ln: int | None = None) -> int:
    try:  # int() raises ValueError past Python's digit limit
        return int(tok)
    except ValueError:
        digits = sum(map(str.isdecimal, tok))
        raise _err(ln, f"integer of {digits} digits is too long") from None


# -- token level ------------------------------------------------------------

def _parse_node_token(tok: str, ln: int):
    """Graph node labels and generator-local labels: int or identifier."""
    if _INT_RE.match(tok):
        return _int(tok, ln)
    if _NAME_RE.match(tok):
        return tok
    raise _err(ln, f"bad node token {tok!r}")


def _fmt_node(node) -> str:
    if isinstance(node, int) and not isinstance(node, bool):
        return str(node)
    if isinstance(node, str) and _NAME_RE.match(node):
        return node
    raise FormatError(f"node label {node!r} is not serializable")


def _parse_cell(tok: str, kind: str, ln: int):
    if kind == lat.GRAPH:
        return _parse_node_token(tok, ln)
    if kind == lat.SQUARE_EDGE:
        m = _EDGE_CELL_RE.match(tok)
        if not m:
            raise _err(ln, f"bad edge-lattice cell {tok!r}, expected (x,y,h|v)")
        return (_int(m.group(1), ln), _int(m.group(2), ln), _ORIENT_VALUE[m.group(3)])
    m = _PAIR_RE.match(tok)
    if not m:
        raise _err(ln, f"bad cell {tok!r}, expected (x,y)")
    return (_int(m.group(1), ln), _int(m.group(2), ln))


def _fmt_cell(cell, kind: str) -> str:
    if kind == lat.GRAPH:
        return _fmt_node(cell)
    if kind == lat.SQUARE_EDGE:
        x, y, o = cell
        return f"({x},{y},{_ORIENT_LETTER[o]})"
    x, y = cell
    return f"({x},{y})"


def _parse_graph_pair(tok: str, ln: int) -> tuple:
    m = _GRAPH_PAIR_RE.match(tok)
    if not m:
        raise _err(ln, f"bad edge {tok!r}, expected (a,b)")
    return (
        _parse_node_token(m.group(1), ln),
        _parse_node_token(m.group(2), ln),
    )


def _fmt_graph_pair(pair) -> str:
    a, b = pair
    return f"({_fmt_node(a)},{_fmt_node(b)})"


def _homogeneous(tokens, ln: int, what: str):
    types = {type(t) for t in tokens}
    if len(types) > 1:
        raise _err(ln, f"{what} mix integer and string labels")


def _lines(text: str):
    """(1-based line number, line without its comment and outer blanks)
    for each line that holds more than a comment."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if line:
            yield ln, line


def _cell_line(head: str, cells, kind: str) -> str:
    """The head word and the cells in sort order, one blank apart."""
    return " ".join([head, *(_fmt_cell(c, kind) for c in sorted(cells))])


def _fvec_header(view) -> str:
    """The f-vector line: the complex export's header and ``stats``' output."""
    return "fvec: " + " ".join(str(view.n_cells(k)) for k in range(view.max_dim + 1))


# -- system files -------------------------------------------------------------

def parse_system_file(text: str) -> SystemFile:
    """Parse a system file; diagnostics carry 1-based line numbers.

    The model owns the rules of a system; an obstacle or seed it refuses
    is refused at that obstacle's or seed's line.
    """
    kind = None
    nodes = None
    graph_edges = None
    ws_tokens = None
    excludes = []  # (cells, line)
    obstacles = []  # ((cell, bit), line)
    constraint = None
    generators = []
    gid_lines = {}
    seeds = []  # (frozenset, line)
    line_of = {}  # each single directive met so far -> its line

    lines = _lines(text)
    for ln, line in lines:
        head, *args = line.split()
        if kind is None and head != "lattice":
            raise _err(ln, "the lattice must be declared first")
        if head in _SINGLE_DIRECTIVES:
            if head in line_of:
                raise _err(ln, f"duplicate {head} line")
            line_of[head] = ln

        if head == "lattice":
            if len(args) != 1 or args[0] not in lat.KINDS:
                raise _err(
                    ln, f"lattice kind must be one of {', '.join(lat.KINDS)}"
                )
            kind = args[0]
        elif head in ("nodes", "edges"):
            if kind != lat.GRAPH:
                raise _err(ln, f"{head} line applies only to finite graphs")
            if head == "nodes":
                nodes = tuple(_parse_node_token(t, ln) for t in args)
            else:
                graph_edges = tuple(_parse_graph_pair(t, ln) for t in args)
        elif head == "workspace":
            ws_tokens = args
        elif head == "exclude":
            excludes.append((frozenset(_parse_cell(t, kind, ln) for t in args), ln))
        elif head == "obstacle":
            if len(args) != 2 or args[1] not in ("occupied", "empty"):
                raise _err(ln, "obstacle takes a cell and occupied|empty")
            obstacles.append(
                ((_parse_cell(args[0], kind, ln), args[1] == "occupied"), ln)
            )
        elif head == "constraint":
            if len(args) != 1:
                raise _err(ln, "constraint takes one name")
            if args[0] not in CONSTRAINTS:
                raise _err(ln, f"unknown constraint {args[0]!r}")
            constraint = args[0]
        elif head == "generator":
            if len(args) != 1 or not _NAME_RE.match(args[0]):
                raise _err(ln, "generator takes one identifier")
            if args[0] in gid_lines:
                raise _err(
                    ln,
                    f"generator {args[0]} already defined on line"
                    f" {gid_lines[args[0]]}",
                )
            gid_lines[args[0]] = ln
            generators.append(_read_generator(args[0], ln, lines, kind))
        elif head == "seed":
            cells = frozenset(_parse_cell(t, kind, ln) for t in args)
            seeds.append((cells, ln))
        else:
            raise _err(ln, f"unknown directive {head!r}")

    if kind is None:
        raise FormatError("missing lattice declaration")

    if kind == lat.GRAPH:
        if nodes is None:
            raise _err(line_of["lattice"], "finite graphs need a nodes line")
        try:
            lattice = lat.graph_lattice(nodes, graph_edges or ())
        except ModelError as e:  # an edge refusal is marked, a node one is not
            raise _err(line_of["nodes" if e.index is None else "edges"], str(e)) from e
    else:
        lattice = lat.Lattice(kind)

    if ws_tokens is None:
        raise FormatError("missing workspace line")
    ws_ln = line_of["workspace"]
    if ws_tokens == ["all"]:
        cells = None
    elif "all" in ws_tokens:
        raise _err(ws_ln, "workspace is either all or an explicit cell list")
    else:
        cells = frozenset(_parse_cell(t, kind, ws_ln) for t in ws_tokens)

    # the workspace is refused under its own line, each exclusion under its
    # own, and an obstacle the model refuses under that obstacle's
    ln, excluded = ws_ln, frozenset()
    try:
        Workspace(lattice, cells)
        for skip, ln in excludes:
            excluded |= skip
            Workspace(lattice, cells, (), excluded)
        workspace = Workspace(lattice, cells, tuple(o for o, _ in obstacles), excluded)
    except ModelError as e:
        raise _err(ln if e.index is None else obstacles[e.index][1], str(e)) from e

    try:
        system = System(workspace, tuple(generators), constraint)
    except ModelError as e:
        raise FormatError(str(e)) from e
    try:
        return SystemFile(system, tuple(seed for seed, _ in seeds))
    except StateError as e:
        raise _err(seeds[e.index][1], str(e)) from e


def _read_generator(gid: str, start_ln: int, lines, kind: str) -> Generator:
    """The generator block opened on line ``start_ln``: its field lines,
    taken from the system file's line iterator up to its end line."""
    fields = {}
    for ln, line in lines:
        head, *args = line.split()
        if head == "end":
            if args:
                raise _err(ln, "end takes no arguments")
            break
        if head not in _GENERATOR_FIELDS:
            raise _err(ln, f"expected a generator field or end, got {head!r}")
        if head in fields:
            raise _err(ln, f"duplicate {head} in generator {gid}")
        if head == "edges":
            if kind != lat.GRAPH:
                raise _err(ln, "generator edges apply only to finite graphs")
            fields[head] = tuple(_parse_graph_pair(t, ln) for t in args)
        else:
            fields[head] = tuple(_parse_cell(t, kind, ln) for t in args)
    else:
        raise _err(start_ln, f"generator {gid} is missing its end line")
    for name in _GENERATOR_FIELDS[:-1]:
        if name not in fields:
            raise _err(start_ln, f"generator {gid} is missing its {name} line")
    if kind == lat.GRAPH and "edges" not in fields:
        raise _err(start_ln, f"generator {gid} needs an edges line on a graph")
    try:
        return Generator(
            gid, *(fields[name] for name in _GENERATOR_FIELDS[:-1]), fields.get("edges")
        )
    except ModelError as e:
        raise _err(start_ln, str(e)) from e


def serialize(obj) -> str:
    """Write a System or SystemFile in the system-file format."""
    if isinstance(obj, SystemFile):
        system, seeds = obj.system, obj.seeds
    elif isinstance(obj, System):
        system, seeds = obj, ()
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")
    ws = system.workspace
    kind = ws.lattice.kind
    lines = [f"lattice {kind}"]
    if kind == lat.GRAPH:
        lines.append("nodes " + " ".join(_fmt_node(n) for n in ws.lattice.nodes))
        if ws.lattice.edges:
            lines.append(
                "edges " + " ".join(_fmt_graph_pair(e) for e in ws.lattice.edges)
            )
    if ws.cells is None:
        lines.append("workspace all")
        if ws.excluded:
            lines.append(_cell_line("exclude", ws.excluded, kind))
    else:
        lines.append(_cell_line("workspace", ws.cells, kind))
    for cell, bit in ws.obstacles:
        word = "occupied" if bit else "empty"
        lines.append(f"obstacle {_fmt_cell(cell, kind)} {word}")
    if system.constraint_name is not None:
        lines.append(f"constraint {system.constraint_name}")
    for gen in system.catalogue:
        if not _NAME_RE.match(gen.gid):
            raise FormatError(f"generator id {gen.gid!r} is not serializable")
        lines.append(f"generator {gen.gid}")
        for name in _GENERATOR_FIELDS[:-1]:
            lines.append("  " + _cell_line(name, getattr(gen, name), kind))
        if gen.local_edges is not None:
            body = " ".join(_fmt_graph_pair(e) for e in gen.local_edges)
            lines.append(f"  edges {body}".rstrip())
        lines.append("end")
    lines.extend(_cell_line("seed", seed, kind) for seed in seeds)
    return "\n".join(lines) + "\n"


# -- state files --------------------------------------------------------------

def parse_state(text: str, system: System) -> frozenset:
    """Read a one-line ``state ...`` file against a system's workspace."""
    kind = system.workspace.lattice.kind
    state = None
    for ln, line in _lines(text):
        head, *args = line.split()
        if head != "state":
            raise _err(ln, f"expected a state line, got {head!r}")
        if state is not None:
            raise _err(ln, "duplicate state line")
        cells = frozenset(_parse_cell(t, kind, ln) for t in args)
        try:
            state = system.workspace.check_state(cells)
        except StateError as e:
            raise _err(ln, str(e)) from e
    if state is None:
        raise FormatError("missing state line")
    return state


def serialize_state(state, system: System) -> str:
    return _cell_line("state", state, system.workspace.lattice.kind) + "\n"


# -- move scripts ---------------------------------------------------------------

_STEP_RE = re.compile(r"^step\s+(\d+)\s*:\s*(.*)$")


def _fmt_action(action, kind: str) -> str:
    parts = [action.gid]
    if kind == lat.GRAPH:
        parts.extend(_fmt_node(n) for n in action.offset)
    else:
        parts.extend(str(v) for v in action.offset)
    parts.append(_DIRECTION_WORDS[action.direction])
    return "(" + ", ".join(parts) + ")"


def _parse_action(part: str, system: System, gens_by_gid: dict, ln: int):
    if not (part.startswith("(") and part.endswith(")")):
        raise _err(ln, f"bad action {part!r}, expected (gid, ..., fwd|bwd)")
    items = [p.strip() for p in part[1:-1].split(",")]
    if len(items) < 2:
        raise _err(ln, f"bad action {part!r}: too few fields")
    gid, mid, dir_tok = items[0], items[1:-1], items[-1]
    gen = gens_by_gid.get(gid)
    if gen is None:
        raise _err(ln, f"unknown generator {gid!r}")
    if dir_tok not in _DIRECTION_WORDS:
        raise _err(ln, f"bad direction {dir_tok!r}, expected fwd or bwd")
    direction = _DIRECTION_WORDS.index(dir_tok)
    lattice = system.workspace.lattice
    if lattice.kind == lat.GRAPH:
        offset = tuple(_parse_node_token(t, ln) for t in mid)
        if len(offset) != len(gen.support):
            raise _err(
                ln,
                f"action for {gid} needs {len(gen.support)} node fields,"
                f" got {len(offset)}",
            )
    else:
        if len(mid) != 2 or not all(_INT_RE.match(t) for t in mid):
            raise _err(ln, f"action for {gid} needs two integer offsets")
        offset = (_int(mid[0], ln), _int(mid[1], ln))
    return make_action(gen, offset, direction, lattice)


def parse_path(text: str, system: System) -> CubePath:
    """Read a move script; actions are resolved against the system.

    Actions come from ``make_action``, one object per distinct placed
    action for as long as its generator lives, so a script shares them
    with the catalogue, other scripts and lifts.  One memo lives for
    this call: one frozenset per distinct step text, so a recurring step
    is one object.  A step line's index and body come from one match.
    """
    kind = system.workspace.lattice.kind
    gens_by_gid = {g.gid: g for g in system.catalogue}
    parsed_steps = {}  # stripped step text -> its frozenset, once it was valid
    labels = ()  # a graph's node fields all take the first action's type
    start = None
    steps = []
    for ln, line in _lines(text):
        m = _STEP_RE.match(line)
        if not m:
            head, *args = line.split()
            if head != "start":
                raise _err(ln, "expected a start or step line")
            if start is not None:
                raise _err(ln, "duplicate start line")
            start = frozenset(_parse_cell(t, kind, ln) for t in args)
            continue
        if start is None:
            raise _err(ln, "the start line must come first")
        number, body = m.groups()
        index = len(steps) + 1
        if _int(number, ln) != index:
            raise _err(ln, f"expected step {index}, got step {int(number)}")
        step = parsed_steps.get(body)
        if step is None:
            acts = []
            for part in body.split(";") if body else ():
                act = _parse_action(part.strip(), system, gens_by_gid, ln)
                if kind == lat.GRAPH:
                    labels = labels or act.offset[:1]
                    _homogeneous(labels + act.offset, ln, "action node fields")
                acts.append(act)
            step = frozenset(acts)
            if len(step) != len(acts):
                raise _err(ln, f"step {index} repeats an action")
            parsed_steps[body] = step
        steps.append(step)
    if start is None:
        raise FormatError("missing start line")
    return CubePath(start, tuple(steps), system)


def serialize_path(path: CubePath, system: System | None = None) -> str:
    system = system if system is not None else path.system
    if system is None:
        raise FormatError("serializing a path needs its system for cell syntax")
    kind = system.workspace.lattice.kind
    lines = [_cell_line("start", path.start, kind)]
    for i, step in enumerate(path.steps, 1):
        acts = "; ".join(_fmt_action(a, kind) for a in sorted(step))
        lines.append(f"step {i}: {acts}" if acts else f"step {i}:")
    return "\n".join(lines) + "\n"


# -- complex export --------------------------------------------------------------

def export_complex(view) -> str:
    """Listing of every cell per dimension with facet back references.

    The header repeats the f-vector; facet references are positions in
    the previous dimension's listing.  Cells appear in build order,
    which is deterministic for a given system and seed set.
    """
    lines = [_fvec_header(view)]
    for k in range(view.max_dim + 1):
        lines.append(f"dim {k}")
        column = view.facet_column(k)
        for i, key in enumerate(view.cell_keys(k)):
            if k == 0:
                lines.append(f"cell {i}: {key!r}")
            else:
                refs = " ".join(map(str, column[2 * k * i : 2 * k * (i + 1)]))
                lines.append(f"cell {i}: {key!r} facets {refs}")
    return "\n".join(lines) + "\n"
