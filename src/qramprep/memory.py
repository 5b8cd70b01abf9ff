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

A query XORs the addressed cell into the data registers of every branch of
a superposed state and bumps the query ledger; under pipelined routing one
query costs k time units (one per tree level). It gathers from per-field
uint64 arrays (``MemoryImage.field_arrays``), derived from the cells once per
image; each field is at most 62 bits, so the split fits machine words even
where a whole cell does not.

Layouts encode whole arrays of angles and phases with the array codecs
of :mod:`qramprep.fixedpoint` and pack each cell as a Python int, so cells
wider than 64 bits (complex mode above t = 32) stay exact.

JSON wire format: {"mode": ..., "t": t, "k": k, "cells": [unsigned ints]}.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from .angles import MODES, ComplexAngleTree, build_angle_structures
from .errors import (
    InvalidDimensionsError,
    LengthMismatchError,
    NotPowerOfTwoError,
    NotRealMatrixError,
    ParseError,
    WidthMismatchError,
    WrongModeError,
)
from .fixedpoint import check_precision, encode_magnitude_angles, encode_phases
from .matrix import ComplexMatrix

if TYPE_CHECKING:
    from .simulator import BranchState


def cell_width(t: int, mode: str) -> int:
    """Bits per cell: a t-bit angle field plus a t-bit (complex) or one-bit phase field."""
    if mode == "complex":
        return 2 * t
    if mode == "real_signed":
        return t + 1
    raise WrongModeError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class MemoryImage:
    """K = 2**k immutable cells of ``cell_width(t, mode)`` bits each."""

    cells: tuple[int, ...]
    t: int
    mode: str

    def __post_init__(self):
        check_precision(self.t)
        object.__setattr__(self, "t", int(self.t))  # fixed-width ints would overflow cell shifts
        n = len(self.cells)
        if n < 2 or n & (n - 1):
            raise LengthMismatchError(f"need 2**k cells (k >= 1), got {n}")
        limit = 1 << self.width  # also refuses an unknown mode
        for z, cell in enumerate(self.cells):
            if type(cell) is not int or not 0 <= cell < limit:
                raise WidthMismatchError(f"cell {z} does not fit in {self.width} bits")

    @property
    def size(self) -> int:
        return len(self.cells)

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

    @cached_property
    def field_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(angle fields, aux fields) of cells 0..K-1 as read-only uint64 arrays."""
        if self.width <= 64:
            cells = np.array(self.cells, dtype=np.uint64)
        else:  # wider than a machine word: split the Python ints first
            cells = np.array(self.cells, dtype=object)
        angle = (cells >> self.aux_width).astype(np.uint64)
        aux = (cells & ((1 << self.aux_width) - 1)).astype(np.uint64)
        angle.flags.writeable = aux.flags.writeable = False
        return angle, aux

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "t": self.t, "k": self.k, "cells": list(self.cells)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MemoryImage":
        try:
            mode, t, k, cells = doc["mode"], doc["t"], doc["k"], doc["cells"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"memory image document missing key: {exc}") from exc
        if not isinstance(cells, list):
            raise ParseError("cells must be a list of unsigned integers")
        image = cls(cells=tuple(cells), t=t, mode=mode)
        if isinstance(k, bool) or not isinstance(k, Integral):
            raise InvalidDimensionsError(f"k must be an integer, got {k!r}")
        if k != image.k:
            raise LengthMismatchError(f"k = {k} needs 2**k cells, got {image.size}")
        return image


@dataclass
class QueryLedger:
    """Counts queries against one image; routing time is k units per query."""

    k: int
    query_count: int = 0
    access_log: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def routing_time(self) -> int:
        return self.query_count * self.k

    def record(self, addresses) -> None:
        """Count one query and log the sorted distinct addresses it reached."""
        reached = np.zeros(1 << self.k, dtype=bool)
        reached[np.asarray(addresses, dtype=np.intp)] = True
        self.query_count += 1
        self.access_log.append(tuple(np.flatnonzero(reached).tolist()))


def _checked_precision(thetas, phases, t: int) -> int:
    """t as an int, once K-1 angles and K phases with K a power of two >= 2 are given."""
    check_precision(t)
    if len(thetas) + 1 != len(phases):
        raise LengthMismatchError(
            f"need K-1 angles for K phases, got {len(thetas)} and {len(phases)}"
        )
    n = len(phases)
    if n < 2 or n & (n - 1):
        raise NotPowerOfTwoError(f"cell count must be a power of two >= 2, got {n}")
    return int(t)


def _pack(thetas, phase_bits: np.ndarray, t: int, mode: str) -> MemoryImage:
    """Cells ``angle << aux_width | phase`` as Python ints, so any width fits.

    Cell 0 has no sibling pair: its angle field holds 0.
    """
    angle_bits = np.concatenate((np.zeros(1, dtype=np.int64), encode_magnitude_angles(thetas, t)))
    aux = cell_width(t, mode) - t
    cells = tuple([(a << aux) | b for a, b in zip(angle_bits.tolist(), phase_bits.tolist())])
    return MemoryImage(cells=cells, t=t, mode=mode)


def layout_complex(thetas, phases, t: int) -> MemoryImage:
    """Pack K-1 angles and K phases into K cells of width 2t.

    Cell z holds encode(theta_z) in the high t bits and encode(phi_z) in the
    low t bits; the angle field of cell 0 is all zeros.
    """
    t = _checked_precision(thetas, phases, t)
    return _pack(thetas, encode_phases(phases, t), t, "complex")


def layout_real_signed(thetas, phases, t: int) -> MemoryImage:
    """Pack K-1 angles and K phases of 0 or pi into K cells of width t+1.

    The one-bit phase field holds phi / pi. Cell 0 keeps the phase bit of
    entry 0 next to its dummy angle field: the leaf query reaches address 0.
    """
    t = _checked_precision(thetas, phases, t)
    phi = np.asarray(phases, dtype=np.float64)
    half_turn = phi == math.pi
    if not np.all(half_turn | (phi == 0.0)):
        raise NotRealMatrixError("real_signed phases must be 0 or pi")
    return _pack(thetas, half_turn.astype(np.int64), t, "real_signed")


def layout_image(gamma: ComplexAngleTree, t: int) -> MemoryImage:
    """Lay out an angle structure's angles and leaf phases at precision t, in its mode."""
    layout = layout_complex if gamma.mode == "complex" else layout_real_signed
    return layout(gamma.thetas, gamma.phases, t)


def build_memory_image(
    m: ComplexMatrix, t: int, mode: str = "complex"
) -> tuple[MemoryImage, ComplexAngleTree]:
    """Preprocess a matrix all the way to its memory image."""
    gamma = build_angle_structures(m, mode)
    return layout_image(gamma, t), gamma


def query(img: MemoryImage, state: "BranchState", ledger: QueryLedger) -> "BranchState":
    """XOR the addressed cell into the data registers of every branch.

    Amplitudes are untouched; the map permutes basis labels, so it preserves
    the norm exactly and is its own inverse.
    """
    if state.k != img.k:
        raise WidthMismatchError(f"address width {state.k} != image width {img.k}")
    if state.t != img.t or state.aux_width != img.aux_width:
        raise WidthMismatchError(
            f"data registers {state.t}+{state.aux_width} bits, cells {img.t}+{img.aux_width}"
        )
    angle, aux = img.field_arrays
    addr = state.addr
    out = state._evolve(w_angle=state.w_angle ^ angle[addr], w_aux=state.w_aux ^ aux[addr])
    ledger.record(addr)
    return out
