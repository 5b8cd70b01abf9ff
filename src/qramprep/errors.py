"""Exception types shared across the package, and its one rule for what counts as a number.

Every layer reads its inputs by this rule, and each caller refuses what
fails it with its own error type and its own name for the value:

* an int is an ``Integral`` that is not a bool (numpy ints count);
* a number is a ``Number``, and a real number a ``Real``, that is not a
  bool: strings, bytes, bools, ``None`` and containers never are, though
  numpy reads ``"1"``, ``True`` and ``None`` as numbers;
* an array of numbers is an ndarray of int or float kind (or complex kind
  where complex numbers are allowed), converted with no pass per value and
  no copy where its dtype already fits; anything else is read element by
  element, and an int past the float range or a masked element, also one in
  a masked array nested in lists, is refused;
* a cell count is 2**k with k >= 1.
"""
from __future__ import annotations

from numbers import Integral, Number, Real

import numpy as np


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
    """Lengths that must agree do not: angles and phases, image cells and k, state and oracle."""


class WidthMismatchError(QramPrepError):
    """Register widths of a state do not match the memory image."""


class WrongModeError(QramPrepError):
    """Operation applied to a state or image of the wrong mode."""


# --- simulator ---

class DirtyWorkRegistersError(QramPrepError):
    """Work registers are nonzero where the procedure requires them clean."""


class DirtyStateError(QramPrepError):
    """State cannot be reduced to an address-register vector (work or marker dirty)."""


class InvalidAmplitudeError(QramPrepError):
    """A branch amplitude is not a finite number."""


# --- worked-example replay ---

class ExampleMismatchError(QramPrepError):
    """A replayed quantity disagrees with its recorded value."""


# --- what counts as an int, a number and a cell count

def is_int(x) -> bool:
    """True for an integer that is not a bool: a Python or a numpy int."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def is_number(x, real: bool = False) -> bool:
    """True for a number, or with ``real`` a real number, that is not a bool."""
    return isinstance(x, Real if real else Number) and not isinstance(x, bool)


def number_array(values, dtype, error: type[QramPrepError], what: str) -> np.ndarray:
    """``values`` as an array of ``dtype`` (float64 or complex128), in its own shape.

    An ndarray of int or float kind, or of complex kind for complex128, is
    converted with ``astype(copy=False)``. A masked element is refused, also
    in a masked array nested in lists or tuples. Anything else is read as an
    object array and checked element by element with :func:`is_number`, real
    for float64; the first element refused is named in ``error``.
    """
    real = np.dtype(dtype).kind == "f"
    if type(values) is np.ndarray and values.dtype.kind in ("iuf" if real else "iufc"):
        return values.astype(dtype, copy=False)
    noun = "real numbers" if real else "numbers"
    if _holds_masked(values):  # np.asarray would drop the mask and read what lies under it
        raise error(f"{what} must be {noun}, got a masked element")
    try:
        items = np.asarray(values, dtype=object)
    except ValueError as exc:  # a nesting numpy cannot hold even as objects
        raise error(f"{what} must be {noun} in a regular array") from exc
    for x in items.flat:
        if not is_number(x, real):
            raise error(f"{what} must be {noun}, got {x!r}")
    try:
        return items.astype(dtype)
    except OverflowError as exc:  # an int past the float range
        raise error(f"{what} must be {noun} within the float range") from exc


def _holds_masked(values) -> bool:
    """True if ``values``, or a list or tuple nested in it at any depth, masks an element.

    A level is descended only if it holds a list, a tuple or a masked array,
    so a flat list of numbers costs one pass over its types.
    """
    if np.ma.is_masked(values):
        return True
    if not isinstance(values, (list, tuple)):
        return False
    if not any(issubclass(kind, (list, tuple, np.ma.MaskedArray))
               for kind in set(map(type, values))):
        return False
    return any(map(_holds_masked, values))


def is_cell_count(n) -> bool:
    """True for 2**k with k >= 1: the size of a tree, an image or a leaf layer."""
    return n >= 2 and not n & (n - 1)
