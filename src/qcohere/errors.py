"""Exception types raised across the package."""


class QcohereError(ValueError):
    """Base class for all validation and feasibility errors."""


class NormalizationError(QcohereError):
    """Vector fails its normalization requirement."""


class DimensionMismatchError(QcohereError):
    """Operands have incompatible dimensions."""


class MajorizationError(QcohereError):
    """A required majorization relation does not hold."""


class ParameterError(QcohereError):
    """Parameter outside its admissible range."""


class ResourceLimitError(QcohereError):
    """Requested computation exceeds a configured size cap."""


class CompletenessError(QcohereError):
    """Kraus operators do not sum to the identity within tolerance."""


class IncoherenceError(QcohereError):
    """An operator column holds two entries above the threshold (``witness``)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DensityMatrixError(QcohereError):
    """Matrix is not a valid density operator."""


class InfeasibleStepError(QcohereError):
    """Requested two-level measurement step admits no valid operator pair."""


class NoLadderError(QcohereError):
    """Conversion probability is zero, so no ladder exists."""


class FileFormatError(QcohereError):
    """On-disk payload does not match the expected schema."""
