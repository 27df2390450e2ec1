"""Exception hierarchy shared by all modules."""


class SocialPowerError(Exception):
    """Base class for all library errors."""


class ValidationError(SocialPowerError):
    """An input violates a structural invariant: a matrix (dimension,
    entries, diagonal, row sums, irreducibility), a program, or a run
    (trajectories under different signal realizations, a signal that is
    not periodic or has fewer than two phases)."""


class ParseError(SocialPowerError):
    """Malformed program or report file."""


class NoConvergence(SocialPowerError):
    """A solver's result misses its residual tolerance."""


class NearVertex(SocialPowerError):
    """A state breaks the one vertex rule, some x_i beyond the guard of
    `dynamics`, or has some x_i <= 0 where the certificate is asked for."""


class StarTopology(SocialPowerError):
    """Operation undefined for star graphs (centre eigenvector entry 0.5)."""
