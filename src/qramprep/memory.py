"""Addressable fixed-width memory emulation with XOR query semantics.

A memory image is K cells of uniform width w, one integer bit pattern per
cell. The bit layout inside a cell is fixed: the t-bit angle field occupies
the high bits and the phase field the low bits,

    cell = angle_bits << aux_width | aux_bits

with the phase phi stored as the fraction phi / (2*pi) of a full turn in
aux_width bits: t bits in complex mode, one bit in real_signed mode, where
every phase is 0 or pi and the bit is phi / pi. Cell 0 always carries an
all-zero angle field: index 0 has no sibling pair, the cell exists only to
keep the width uniform, but its phase field (entry 0) is live.

An image holds its cells as two read-only uint64 arrays, the angle fields
and the aux fields (``MemoryImage.field_arrays``); each field is at most 62
bits, so the split fits machine words even where a whole cell (complex mode
above t = 32) does not. Layouts encode a checked ``ComplexAngleTree`` as
whole arrays with the codecs of :mod:`qramprep.fixedpoint` and hand the
field arrays straight in. Cells as Python ints exist only at the boundary:
reading JSON, writing cells wider than 64 bits as JSON,
``MemoryImage(cells=...)`` (checked in bulk, then split) and ``image.cells``
(built on each read, not kept; ``==`` and ``hash`` read it too).

A query XORs the addressed cell into the data registers of every branch of
a superposed state and bumps the query ledger; under pipelined routing one
query costs k time units (one per tree level). It gathers from the field
arrays. A logging ledger also keeps the set of addresses each query reached
as a bitmap of K bits (K/8 bytes); ``QueryLedger.access_log`` decodes them.
A ledger made with ``reached=None`` counts queries and keeps no log: a
precision sweep reads only its states, and the bitmap, a K-byte scatter and
pack on every query, is most of a one-branch query's time at k = 16.
``query`` is the ledger's only writer, and it refuses a ledger of another
address width than the image's before recording anything.

JSON wire format, as ``MemoryImage.to_json`` writes it for ``qramprep
preprocess --output``: {"cells": [unsigned ints], "k": k, "mode": ..., "t": t}
with sorted keys, indented two spaces, one cell per line. One format, two
writers, split where orjson's integers end: cells of at most 64 bits (complex
mode up to t = 32, real_signed at every t) are joined into one uint64 array
that orjson writes; wider cells are joined as Python ints and written by
``json.dumps``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import orjson

from .angles import MODES, ComplexAngleTree, build_angle_structures
from .errors import (
    InvalidDimensionsError,
    LengthMismatchError,
    ParseError,
    WidthMismatchError,
    WrongModeError,
    is_cell_count,
    is_int,
)
from .fixedpoint import check_precision, encode_magnitude_angles, encode_phases
from .matrix import ComplexMatrix

if TYPE_CHECKING:
    from .simulator import BranchState

# the json module's sort_keys=True, indent=2 layout plus its trailing newline
_IMAGE_JSON_OPTIONS = (
    orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
    | orjson.OPT_APPEND_NEWLINE
)


def checked_width(value, what: str) -> int:
    """An address or register width as a Python int; refused unless in [1, 62], room to shift."""
    if not is_int(value) or not 1 <= value <= 62:
        raise InvalidDimensionsError(f"{what} must be in [1, 62], got {value!r}")
    return int(value)


def cell_width(t: int, mode: str) -> int:
    """Bits per cell: a t-bit angle field plus a t-bit (complex) or one-bit phase field."""
    if mode == "complex":
        return 2 * t
    if mode == "real_signed":
        return t + 1
    raise WrongModeError(f"mode must be one of {MODES}, got {mode!r}")


class _Cells:
    """Descriptor behind the ``cells`` field: Python ints built on each read.

    A write (the constructor, ``dataclasses.replace(image, cells=...)``) is
    the image's one loader: it checks the cells against the ``t`` and ``mode``
    already set and keeps only the split ``field_arrays``.
    """

    def __get__(self, image, owner=None):
        if image is None:
            raise AttributeError("cells")  # no default for the dataclass field
        return tuple(image._joined().tolist())

    def __set__(self, image, cells) -> None:
        if not isinstance(cells, (list, tuple)):
            raise WidthMismatchError(f"cells must be a list or tuple, got {type(cells).__name__}")
        n = len(cells)
        if not is_cell_count(n):
            raise LengthMismatchError(f"need 2**k cells (k >= 1), got {n}")
        width = image.width  # also refuses an unknown mode
        object.__setattr__(image, "field_arrays", _split_cells(cells, image.t, width))


@dataclass(frozen=True, init=False)
class MemoryImage:
    """K = 2**k immutable cells of ``cell_width(t, mode)`` bits each.

    ``field_arrays`` is the data: (angle fields, aux fields) of cells
    0..K-1 as read-only uint64 arrays, the same two objects on every read.
    """

    cells: tuple[int, ...] = _Cells()
    t: int
    mode: str

    def __init__(self, cells, t: int, mode: str):
        object.__setattr__(self, "t", check_precision(t))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def _from_fields(cls, angle: np.ndarray, aux: np.ndarray, t: int, mode: str) -> "MemoryImage":
        """An image of encoded field arrays that already fit (the layouts): no Python ints."""
        image = object.__new__(cls)
        fields = (_frozen(angle), _frozen(aux))
        for name, value in (("t", t), ("mode", mode), ("field_arrays", fields)):
            object.__setattr__(image, name, value)
        return image

    @property
    def size(self) -> int:
        return self.field_arrays[0].size

    @property
    def k(self) -> int:
        """Address width: log2 of the cell count."""
        return self.size.bit_length() - 1

    @property
    def width(self) -> int:
        return cell_width(self.t, self.mode)

    @property
    def aux_width(self) -> int:
        """Width of the low (phase) field."""
        return self.width - self.t

    def _joined(self) -> np.ndarray:
        """Cells 0..K-1 joined from the field arrays: uint64, or Python ints past 64 bits."""
        angle, aux = self.field_arrays
        if self.width > 64:  # wider than a machine word: join as Python ints
            angle, aux = angle.astype(object), aux.astype(object)
        cells = angle << self.aux_width
        cells |= aux
        return cells

    def to_json(self) -> str:
        """The image document, as ``qramprep preprocess --output`` writes it.

        Byte for byte ``json.dumps({"mode", "t", "k", "cells"}, sort_keys=True,
        indent=2) + "\\n"``, which writes the cells wider than 64 bits (complex
        mode above t = 32). Cells of at most 64 bits go to orjson as one
        uint64 array, with no Python int built.
        """
        if self.width <= 64:
            doc = {"cells": self._joined(), "k": self.k, "mode": self.mode, "t": self.t}
            return orjson.dumps(doc, option=_IMAGE_JSON_OPTIONS).decode()
        doc = {"cells": self._joined().tolist(), "k": self.k, "mode": self.mode, "t": self.t}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MemoryImage":
        try:
            mode, t, k, cells = doc["mode"], doc["t"], doc["k"], doc["cells"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"memory image document missing key: {exc}") from exc
        if not isinstance(cells, list):
            raise ParseError("cells must be a list of unsigned integers")
        image = cls(cells=cells, t=t, mode=mode)
        if not is_int(k):
            raise InvalidDimensionsError(f"k must be an integer, got {k!r}")
        if k != image.k:
            raise LengthMismatchError(f"k = {k} needs 2**k cells, got {image.size}")
        return image


def _frozen(array: np.ndarray) -> np.ndarray:
    # images and states share arrays (states also cache their label dict), so
    # nothing may write into one
    array.setflags(False)  # write=False, by position: the keyword form costs ~0.3 us more
    return array


def _split_cells(cells, t: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(angle, aux) field arrays of Python-int cells that must each fit ``width`` bits.

    The check is one pass over the types, one conversion and one range test;
    only a refused image is scanned cell by cell, to name its first bad cell.
    """
    aux_width = width - t
    try:
        if set(map(type, cells)) == {int}:  # bool and numpy ints are refused too
            # above 64 bits, split the Python ints before the machine words
            packed = np.array(cells, dtype=np.uint64 if width <= 64 else object)
            angle = (packed >> aux_width).astype(np.uint64, copy=False)
            aux = (packed & ((1 << aux_width) - 1)).astype(np.uint64, copy=False)
            if not np.any(angle >> t):
                return _frozen(angle), _frozen(aux)
    except OverflowError:  # a negative cell, or one too wide for 64 bits
        pass
    z, c = next((z, c) for z, c in enumerate(cells)
                if type(c) is not int or not 0 <= c < 1 << width)
    if type(c) is not int:
        raise WidthMismatchError(f"cell {z} is not an unsigned integer: {c!r}")
    raise WidthMismatchError(f"cell {z} does not fit in {width} bits")


@dataclass
class QueryLedger:
    """Counts queries against one image; routing time is k units per query.

    ``reached`` keeps one bitmap per query, K bits in ``np.packbits`` order
    (K/8 bytes): bit z is set iff the query reached address z. Only
    :func:`query` writes it, and only against an image of address width k.
    With ``reached=None`` the ledger counts queries and keeps no log, and
    its ``access_log`` is empty.
    """

    k: int
    query_count: int = 0
    reached: list[bytes] | None = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.k = checked_width(self.k, "address width k")
        if not is_int(self.query_count) or self.query_count < 0:
            raise WidthMismatchError(
                f"query_count must be a non-negative int, got {self.query_count!r}"
            )
        self.query_count = int(self.query_count)
        if self.reached is not None and not isinstance(self.reached, list):
            raise WidthMismatchError(
                f"reached must be a list or None, got {type(self.reached).__name__}"
            )

    @property
    def routing_time(self) -> int:
        return self.query_count * self.k

    @property
    def access_log(self) -> list[tuple[int, ...]]:
        """The sorted distinct addresses each query reached, decoded from ``reached``.

        Empty for a ledger that keeps no log.
        """
        return [
            tuple(np.flatnonzero(np.unpackbits(np.frombuffer(bitmap, dtype=np.uint8))).tolist())
            for bitmap in self.reached or ()
        ]


def _pack(gamma: ComplexAngleTree, aux_bits: np.ndarray, t: int, mode: str) -> MemoryImage:
    """Image of the tree's encoded angles (cell 0, no sibling pair, holds 0) and ``aux_bits``."""
    t = check_precision(t)
    angle = np.zeros(gamma.size, dtype=np.uint64)
    angle[1:] = encode_magnitude_angles(gamma.thetas, t)
    return MemoryImage._from_fields(angle, aux_bits.astype(np.uint64, copy=False), t, mode)


def layout_complex(gamma: ComplexAngleTree, t: int) -> MemoryImage:
    """Pack the tree's K-1 angles and K phases into K cells of width 2t, in either mode.

    Cell z holds encode(theta_z) in the high t bits and encode(phi_z) in the
    low t bits; the angle field of cell 0 is all zeros.
    """
    return _pack(gamma, encode_phases(gamma.phases, t), t, "complex")


def layout_real_signed(gamma: ComplexAngleTree, t: int) -> MemoryImage:
    """Pack a real_signed tree's K-1 angles and K phases of 0 or pi into K cells of width t+1.

    The one-bit phase field holds phi / pi. Cell 0 keeps the phase bit of
    entry 0 next to its dummy angle field: the leaf query reaches address 0.
    """
    if gamma.mode != "real_signed":
        raise WrongModeError(f"need a real_signed angle structure, got {gamma.mode}")
    return _pack(gamma, gamma.phases == math.pi, t, "real_signed")


def layout_image(gamma: ComplexAngleTree, t: int) -> MemoryImage:
    """Lay out an angle structure's angles and leaf phases at precision t, in its mode."""
    layout = layout_complex if gamma.mode == "complex" else layout_real_signed
    return layout(gamma, t)


def build_memory_image(
    m: ComplexMatrix, t: int, mode: str = "complex"
) -> tuple[MemoryImage, ComplexAngleTree]:
    """Preprocess a matrix all the way to its memory image."""
    gamma = build_angle_structures(m, mode)
    return layout_image(gamma, t), gamma


def query(img: MemoryImage, state: "BranchState", ledger: QueryLedger) -> "BranchState":
    """XOR the addressed cell into the data registers of every branch.

    Amplitudes are untouched; the map permutes basis labels, so it preserves
    the norm exactly and is its own inverse. The query is counted in
    ``ledger``, and a logging ledger also gets the bitmap of the addresses it
    reached; a state or a ledger of another width than the image is refused
    before that.
    """
    # k and the aux width as img.k and img.aux_width compute them, less the
    # property calls: a query runs 2k + 2 times per preparation
    angle, aux = img.field_arrays
    k = angle.size.bit_length() - 1
    if state.k != k:
        raise WidthMismatchError(f"address width {state.k} != image width {k}")
    t = img.t
    aux_width = cell_width(t, img.mode) - t
    if state.t != t or state.aux_width != aux_width:
        raise WidthMismatchError(
            f"data registers {state.t}+{state.aux_width} bits, cells {t}+{aux_width}"
        )
    if ledger.k != k:
        raise WidthMismatchError(f"ledger width {ledger.k} != image width {k}")
    addr = state.addr
    ledger.query_count += 1
    if ledger.reached is not None:
        reached = np.zeros(1 << k, dtype=bool)
        reached[addr] = True
        ledger.reached.append(np.packbits(reached).tobytes())
    return state._evolve(w_angle=state.w_angle ^ angle[addr], w_aux=state.w_aux ^ aux[addr])
