"""Exception and warning types shared across the toolkit."""


class SaddleKitError(Exception):
    """Base class for all toolkit errors."""


class RankDeficient(SaddleKitError):
    """Matrix does not have full column rank."""


class NotSymmetric(SaddleKitError):
    """Matrix is not symmetric to the required tolerance."""


class NonFiniteValue(SaddleKitError):
    """An objective evaluation returned inf or nan."""


class DomainViolation(SaddleKitError):
    """Point lies outside the domain of the objective."""


class SliceEmpty(SaddleKitError):
    """No point of the requested sublevel set was found on the search space."""


class ZeroGradient(SaddleKitError):
    """Gradient too small for the optimality certificate to apply."""


class BadSignature(SaddleKitError):
    """Coefficient sign pattern does not match the requested saddle index."""


class SingularSimplex(SaddleKitError):
    """Simplex vertices are affinely dependent."""


class NotConcave(SaddleKitError):
    """Fitted curvature is not negative definite on the simplex hull."""


class InvalidBracket(SaddleKitError):
    """Lower bound of a bisection bracket is not below the upper bound."""


class LowerBoundViolated(SaddleKitError):
    """Local solver produced a decreasing level, signalling it left the basin."""


class Unbounded(SaddleKitError):
    """Minimization trends to -inf within the trust region; wrong subspace."""


class ConfigError(SaddleKitError):
    """Invalid run configuration."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class TraceParseError(SaddleKitError):
    """Trace file could not be parsed."""


class InsufficientData(SaddleKitError):
    """Too few trace records for the requested analysis."""


class NonUniqueWarning(UserWarning):
    """The diameter-realizing pair of a slice is not unique."""
