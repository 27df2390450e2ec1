"""Exception hierarchy shared by all modules."""


class SocialPowerError(Exception):
    """Base class for all library errors."""


class ValidationError(SocialPowerError):
    """An interaction matrix or program violates a structural invariant."""


class DimensionTooSmall(ValidationError):
    pass


class NegativeEntry(ValidationError):
    pass


class NonzeroDiagonal(ValidationError):
    pass


class RowSumError(ValidationError):
    pass


class Reducible(ValidationError):
    pass


class ParseError(SocialPowerError):
    """Malformed program or report file."""


class NoConvergence(SocialPowerError):
    """A solver's result misses its residual tolerance."""


class NumericalOverflow(SocialPowerError):
    """An untagged state is too close to a vertex for the map formula."""


class NearVertex(SocialPowerError):
    """State too close to a vertex for well-conditioned Jacobian analysis."""


class StarTopology(SocialPowerError):
    """Operation undefined for star graphs (centre eigenvector entry 0.5)."""


class ProgramMismatch(SocialPowerError):
    """Two trajectories were not produced under the same signal realization."""


class PhaseMismatch(SocialPowerError):
    """Signal log is not periodic with the expected period."""


class ChainInconsistency(SocialPowerError):
    """Per-phase fixed points fail the cyclic mapping property."""
