"""Exception types shared across the package."""


class RankDeficientError(ValueError):
    """A column to be added is (numerically) in the span of the current basis."""


class DimensionMismatchError(ValueError):
    """Vector/matrix dimensions are incompatible."""


class EmptyBasisError(ValueError):
    """Operation requires at least one selected column."""


class DomainError(ValueError):
    """Scalar argument outside its mathematical domain."""


class EmptyPathError(ValueError):
    """Operation requires a solution path with at least one step."""


class TooManySubsetsError(ValueError):
    """Exhaustive subset enumeration would exceed the configured guard."""


class ParseError(ValueError):
    """Malformed input text (JSON/CSV)."""


class ValidationError(ValueError):
    """Structurally valid input with inadmissible field values."""
