"""Newton maps of polynomials: basins, channel diagrams, Newton graphs,
combinatorial validation, equivalence, and transition-matrix analysis.

The package root holds the documented API (see the README's Library section)
and the error classes; everything else is imported from its own module."""

from .combinatorial import (
    graph_from_json,
    graph_to_json,
    graphs_equivalent,
    validate_newton_graph,
)
from .dynamics import classify_point
from .errors import (
    BranchJump,
    DegreeTooLow,
    EndpointUnmatched,
    InvalidGraph,
    LevelCapExceeded,
    MultipleRoot,
    NewtonGraphError,
    NoConvergence,
    NoEscape,
    NonFiniteCoefficient,
    NonPlanarIncidence,
    NotARoot,
    RayCollision,
    UnresolvedOrbit,
)
from .poly import Polynomial, make_newton_map
from .pullback import (
    compute_newton_graph,
    lift_point,
    locate_face,
    newton_graph_to_json,
)
from .rays import channel_diagram
from .thurston import is_irreducible_obstruction, transition_matrix
from .tolerances import Tolerances

__all__ = [
    "BranchJump",
    "channel_diagram",
    "classify_point",
    "compute_newton_graph",
    "DegreeTooLow",
    "EndpointUnmatched",
    "graph_from_json",
    "graph_to_json",
    "graphs_equivalent",
    "InvalidGraph",
    "is_irreducible_obstruction",
    "LevelCapExceeded",
    "lift_point",
    "locate_face",
    "make_newton_map",
    "MultipleRoot",
    "newton_graph_to_json",
    "NewtonGraphError",
    "NoConvergence",
    "NoEscape",
    "NonFiniteCoefficient",
    "NonPlanarIncidence",
    "NotARoot",
    "Polynomial",
    "RayCollision",
    "Tolerances",
    "transition_matrix",
    "UnresolvedOrbit",
    "validate_newton_graph",
]
