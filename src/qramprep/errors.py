"""Exception types shared across the package."""


class QramPrepError(Exception):
    """Base class for all errors raised by this package."""


# --- matrix ingestion ---

class ParseError(QramPrepError):
    """Input matrix document is malformed."""


class EmptyMatrixError(QramPrepError):
    """Matrix has no rows or no columns."""


class AllZeroMatrixError(QramPrepError):
    """Every entry is zero; there is no state to prepare."""


class InvalidDimensionsError(QramPrepError):
    """Dimensions are unusable (fewer than two cells after padding, bad shape)."""


class IndexOutOfRangeError(QramPrepError):
    """Row, column, or memory index outside its valid range."""


class InvalidSeedError(QramPrepError):
    """Random-matrix seed is not a non-negative integer."""


class InvalidZeroFractionError(QramPrepError):
    """Random-matrix zero fraction is not a real number in [0, 1]."""


# --- fixed-point codecs ---

class AngleOutOfRangeError(QramPrepError):
    """Angle outside the encodable interval (or not finite)."""


class PrecisionOutOfRangeError(QramPrepError):
    """Bit width t outside the supported range."""


# --- weight tree ---

class NotPowerOfTwoError(QramPrepError):
    """Length or size must be a power of two (and at least two)."""


class AllZeroWeightsError(QramPrepError):
    """Weight sequence sums to zero."""


class InvalidWeightsError(QramPrepError):
    """A weight is negative or not finite."""


# --- angle structures ---

class NotRealMatrixError(QramPrepError):
    """Real_signed mode requested for data with a phase other than 0 or pi."""


# --- memory model ---

class LengthMismatchError(QramPrepError):
    """Field sequences passed to a memory layout have inconsistent lengths."""


class WidthMismatchError(QramPrepError):
    """Register widths of a state do not match the memory image."""


class WrongModeError(QramPrepError):
    """Operation applied to a state or image of the wrong mode."""


# --- simulator ---

class DirtyWorkRegistersError(QramPrepError):
    """Work registers are nonzero where the procedure requires them clean."""


class DirtyStateError(QramPrepError):
    """State cannot be reduced to an address-register vector (work or marker dirty)."""


# --- worked-example replay ---

class ExampleMismatchError(QramPrepError):
    """A replayed quantity disagrees with its recorded value."""
