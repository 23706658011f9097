"""Cube complexes of reconfigurable lattice systems.

Build the space of reachable states of a local rearrangement system,
certify its curvature through the link condition, read off homology
and surface data, and reschedule move sequences into time-optimal
normal form.
"""

__version__ = "0.1.0"

from .errors import (
    BuildTruncatedError,
    CubeplanError,
    FormatError,
    ModelError,
    NotAdmissibleError,
    PathError,
    StateError,
    TooLargeError,
)
from .lattice import (
    Lattice,
    graph_lattice,
    hex_lattice,
    square_edge_lattice,
    square_lattice,
)
from .model import (
    Action,
    Generator,
    System,
    SystemFile,
    Workspace,
    admissible_actions,
    apply_action,
    commute,
    is_admissible,
    placements,
)
from .statecomplex import (
    CubeComplex,
    LinkConditionReport,
    build_complex,
    check_link_condition,
    link,
)
from .topology import (
    betti_mod2,
    euler_characteristic,
    f_vector,
    greedy_collapse,
    is_closed_surface,
    is_orientable_surface,
)
from .cubepaths import (
    NORMALIZE,
    STOP_ON_LENGTH,
    CubePath,
    ShrinkStats,
    from_edge_path,
    is_normal,
    oracle_shortest,
    random_edge_path,
    shrink_cube_path,
    time_geodesic,
    validate,
)
from .shape import build_shape_complex, canonicalize, lift_path, random_shape_path
from .fileformat import (
    export_complex,
    parse_path,
    parse_state,
    parse_system_file,
    serialize,
    serialize_path,
    serialize_state,
)
