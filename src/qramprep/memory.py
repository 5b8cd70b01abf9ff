"""Addressable fixed-width memory emulation with XOR query semantics.

A memory image is K cells of uniform width w, one integer bit pattern per
cell. The bit layout inside a cell is fixed: the t-bit angle field occupies
the high bits and the phase/sign field the low bits,

    cell = angle_bits << aux_width | aux_bits

with aux_width = t in complex mode (phase field) and 1 in real_signed mode
(sign bit). Cell 0 always carries an all-zero angle field: index 0 has no
sibling pair, the cell exists only to keep the width uniform, but its leaf
field (phase or sign of entry 0) is live.

A query XORs the addressed cell into the data registers of every branch of
a superposed state and bumps the query ledger; under pipelined routing one
query costs k time units (one per tree level). It gathers from per-field
uint64 arrays (``MemoryImage.field_arrays``), derived from the cells once per
image; each field is at most 62 bits, so the split fits machine words even
where a whole cell does not.

Layouts encode whole arrays of angles and leaf fields with the array codecs
of :mod:`qramprep.fixedpoint` and pack each cell as a Python int, so cells
wider than 64 bits (complex mode above t = 32) stay exact.

JSON wire format: {"mode": ..., "t": t, "k": k, "cells": [unsigned ints]}.
"""
from __future__ import annotations

import json
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
    ParseError,
    WidthMismatchError,
    WrongModeError,
)
from .fixedpoint import check_precision, encode_magnitude_angles, encode_phases
from .matrix import ComplexMatrix

if TYPE_CHECKING:
    from .simulator import BranchState


def cell_width(t: int, mode: str) -> int:
    """Bits per cell: a t-bit angle field plus a t-bit phase (complex) or one sign bit."""
    if mode == "complex":
        return 2 * t
    if mode == "real_signed":
        return t + 1
    raise WrongModeError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class MemoryImage:
    """K immutable cells of ``width`` bits each; addresses are k bits wide."""

    cells: tuple[int, ...]
    width: int
    t: int
    mode: str
    k: int

    def __post_init__(self):
        check_precision(self.t)
        for name, error in (("width", WidthMismatchError), ("k", InvalidDimensionsError)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise error(f"{name} must be an integer, got {value!r}")
        for name in ("width", "t", "k"):  # fixed-width ints would overflow cell shifts
            object.__setattr__(self, name, int(getattr(self, name)))
        expected = cell_width(self.t, self.mode)
        if self.width != expected:
            raise WidthMismatchError(
                f"{self.mode} cells must be {expected} bits wide, got {self.width}"
            )
        n = len(self.cells)
        # compare bit lengths: 1 << k would build a k-bit int from untrusted JSON
        if self.k < 1 or n & (n - 1) or n.bit_length() != self.k + 1:
            raise LengthMismatchError(f"k = {self.k} needs 2**k cells (k >= 1), got {n}")
        limit = 1 << self.width
        for z, cell in enumerate(self.cells):
            if type(cell) is not int or not 0 <= cell < limit:
                raise WidthMismatchError(f"cell {z} does not fit in {self.width} bits")

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def aux_width(self) -> int:
        """Width of the low (phase or sign) field."""
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
        check_precision(t)
        return cls(cells=tuple(cells), width=cell_width(t, mode), t=t, mode=mode, k=k)


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


def _check_pow2_cells(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise NotPowerOfTwoError(f"cell count must be a power of two >= 2, got {n}")
    return n.bit_length() - 1


def _pack(angle_bits: np.ndarray, aux_bits: np.ndarray, t: int, mode: str, k: int) -> MemoryImage:
    """Cells ``angle << aux_width | aux`` as Python ints, so any width fits."""
    width = cell_width(t, mode)
    aux = width - t
    cells = tuple([(a << aux) | b for a, b in zip(angle_bits.tolist(), aux_bits.tolist())])
    return MemoryImage(cells=cells, width=width, t=t, mode=mode, k=k)


def _angle_fields(thetas, t: int) -> np.ndarray:
    """Encoded angles of cells 0..K-1; cell 0 has no sibling pair and holds 0."""
    return np.concatenate((np.zeros(1, dtype=np.int64), encode_magnitude_angles(thetas, t)))


def layout_complex(thetas, phases, t: int) -> MemoryImage:
    """Pack K-1 angles and K phases into K cells of width 2t.

    Cell z holds encode(theta_z) in the high t bits and encode(phi_z) in the
    low t bits; the angle field of cell 0 is all zeros.
    """
    check_precision(t)
    t = int(t)
    if len(thetas) + 1 != len(phases):
        raise LengthMismatchError(
            f"need K-1 angles for K phases, got {len(thetas)} and {len(phases)}"
        )
    k = _check_pow2_cells(len(phases))
    return _pack(_angle_fields(thetas, t), encode_phases(phases, t), t, "complex", k)


def layout_real_signed(thetas, signs, t: int) -> MemoryImage:
    """Pack K-1 angles and K sign bits into K cells of width t+1.

    Cell 0 keeps the sign of entry 0 next to its dummy angle field: the leaf
    query reaches address 0, so that sign bit is live.
    """
    check_precision(t)
    t = int(t)
    if len(thetas) + 1 != len(signs):
        raise LengthMismatchError(
            f"need K-1 angles for K signs, got {len(thetas)} and {len(signs)}"
        )
    k = _check_pow2_cells(len(signs))
    bits = np.asarray(signs)
    if not np.all((bits == 0) | (bits == 1)):
        raise LengthMismatchError("sign bits must be 0 or 1")
    return _pack(_angle_fields(thetas, t), bits.astype(np.int64), t, "real_signed", k)


def layout_image(gamma: ComplexAngleTree, t: int) -> MemoryImage:
    """Lay out an angle structure's angles and leaf layer at precision t, in its mode."""
    if gamma.mode == "complex":
        return layout_complex(gamma.thetas, gamma.phases, t)
    return layout_real_signed(gamma.thetas, gamma.signs, t)


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
