"""Exception types shared across the package."""


class NewtonGraphError(Exception):
    """Base class for all package errors."""


class DegreeTooLow(NewtonGraphError):
    """Polynomial degree below 3; the map's fixed-point structure degenerates."""


class MultipleRoot(NewtonGraphError):
    """Input polynomial has a multiple (or numerically unresolved) root."""


class NonFiniteCoefficient(NewtonGraphError):
    """A coefficient of the polynomial, or of a polynomial derived from it,
    is not finite in floating point."""


class NoConvergence(NewtonGraphError):
    """An iterative solver failed to reach its tolerance."""


class UnresolvedOrbit(NewtonGraphError):
    """A critical orbit neither landed on a fixed point nor could be classified."""


class NotARoot(NewtonGraphError):
    """Point passed as a superattracting fixed point is not one."""


class RayCollision(NewtonGraphError):
    """Ray continuation ran into a critical point or pole."""


class NoEscape(NewtonGraphError):
    """Ray continuation failed to reach the map's ray radius."""


class BranchJump(NewtonGraphError):
    """Edge lift jumped to a different inverse branch between samples."""


class EndpointUnmatched(NewtonGraphError):
    """Lifted edge endpoint could not be identified with a preimage vertex."""


class NonPlanarIncidence(NewtonGraphError):
    """Geometric incidence data inconsistent with an embedding (angle collision,
    vertex collision, or edge crossing away from vertices)."""


class InvalidGraph(NewtonGraphError):
    """Combinatorial graph data violates a structural invariant (bad permutation,
    disconnected dart set, non-spherical Euler count, inconsistent maps), or a
    computed Newton graph fails one of the seven conditions or its face counts;
    the message then names each failed check with its witness."""


class LevelCapExceeded(NewtonGraphError):
    """Pullback iteration hit the level cap before covering all critical points.

    Carries the partial result so callers can inspect how far the construction got.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
