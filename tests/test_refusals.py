"""Every refusal the package makes, one row each.

A row is a call, its input, the error type and a regex for the whole message:
``call(*args, **kwargs)`` must raise exactly that type, with a message that the
regex matches in full. A new refusal is one more row.
"""
import dataclasses
import io
import json
import math
import operator
import re

import numpy as np
import pytest

from qramprep import errors
from qramprep.angles import ComplexAngleTree, build_angle_structures, splitting_angle
from qramprep.cli import _parse_t_range, build_parser, example_matrix
from qramprep.errors import (
    AllZeroMatrixError,
    AllZeroWeightsError,
    AngleOutOfRangeError,
    DirtyStateError,
    DirtyWorkRegistersError,
    EmptyMatrixError,
    IndexOutOfRangeError,
    InvalidAmplitudeError,
    InvalidDimensionsError,
    InvalidSeedError,
    InvalidWeightsError,
    InvalidZeroFractionError,
    LengthMismatchError,
    NotPowerOfTwoError,
    NotRealMatrixError,
    ParseError,
    PrecisionOutOfRangeError,
    WidthMismatchError,
    WrongModeError,
)
from qramprep.fixedpoint import (
    check_precision,
    encode_magnitude_angle,
    encode_magnitude_angles,
    encode_phase,
    encode_phases,
)
from qramprep.matrix import (
    ComplexMatrix,
    load_matrix,
    parse_complex_literal,
    random_matrix,
    squared_moduli,
)
from qramprep.memory import (
    MemoryImage,
    QueryLedger,
    build_memory_image,
    cell_width,
    layout_real_signed,
    query,
)
from qramprep.simulator import (
    BranchState,
    circular_shift,
    dump_state,
    init_state,
    marker_check,
    prepare_complex,
)
from qramprep.verify import (
    error_bound,
    oracle_state,
    precision_sweep,
    resource_report,
    run_preparation,
    state_error,
)
from qramprep.weight_tree import build_weight_tree


def row(call, *args, error, message, **kwargs):
    """``call(*args, **kwargs)`` raises exactly ``error``; ``message`` matches all of its text."""
    return call, args, kwargs, error, message


def shown(value) -> str:
    """A regex for ``repr(value)``."""
    return re.escape(repr(value))


PRECISION = r"t must be an integer in \[2, 62\], got "
ADDRESS_WIDTH = r"address width k must be in \[1, 62\], got "
MODE = r"mode must be one of \('complex', 'real_signed'\), got "
READ_ONLY = "assignment destination is read-only"

# Values that are not numbers. numpy reads the first five as numbers; every
# entry point that reads a number refuses each one, with its own error type
# and its own name for the value. The last one masks its second element.
NOT_NUMBERS = ["1", b"1", True, np.bool_(True), np.array([True]), None, object(), [1.0],
               np.ma.masked_array([1.0, 2.0], mask=[0, 1])]
NOT_REAL = [*NOT_NUMBERS, 1j]
NOT_INTS = [*NOT_REAL, 2.0]


def not_number_array_rows(call, args, values, error, must):
    """Rows for an entry point that reads an array: ``call(*args(array))`` raises ``error``.

    One row per value as the first element of a list, and one per whole
    ndarray of it: numpy gives bools, strings, bytes and complex numbers
    dtypes of their own, and an ndarray of one must not pass unchecked
    either. The message is ``must`` and the value, or "a masked element" for
    a masked array, which is refused before any value is read. Four more
    rows: a nesting numpy cannot hold even as objects, an int past the float
    range, and a masked array that masks an element, alone and nested in a
    list beside a row of numbers (``np.asarray`` would read the value under
    the mask).
    """
    rows = [row(call, *args([v, 1.0]), error=error,
                message=f"{must}, got " + ("a masked element" if np.ma.is_masked(v) else shown(v)))
            for v in values]
    for v in values:
        array = np.array([v, v])
        if array.dtype.kind not in "fO":
            rows.append(row(call, *args(array), error=error,
                            message=f"{must}, got {shown(array.item(0))}"))
    return [*rows,
            row(call, *args([np.zeros((2, 2)), np.zeros(2)]), error=error,
                message=f"{must} in a regular array"),
            row(call, *args([10 ** 400, 1]), error=error, message=f"{must} within the float range"),
            *(row(call, *args(masked), error=error, message=f"{must}, got a masked element")
              for masked in [np.ma.masked_array([1.0, 1.0], mask=[0, 1]),
                             [np.ma.masked_array([1.0, 2.0], mask=[0, 1]), [3.0, 4.0]]])]


def entries_doc(numbers: list[str]) -> str:
    """A 1 x n matrix whose real parts are the given number literals, written verbatim."""
    pairs = ", ".join(f"[{x}, 1]" for x in numbers)
    return f'{{"rows": 1, "cols": {len(numbers)}, "entries": [{pairs}]}}'


def matrix_doc(rows, cols, entries) -> str:
    return json.dumps({"rows": rows, "cols": cols, "entries": entries}).replace("Infinity", "1e999")


def image_doc(**fields) -> dict:
    return {"mode": "complex", "t": 4, "k": 1, "cells": [0, 3], **fields}


def state(k, t, aux_width, branches) -> BranchState:
    return BranchState(branches=branches, t=t, aux_width=aux_width, k=k)


EXAMPLE = example_matrix()
EXAMPLE_TREE = build_weight_tree(squared_moduli(EXAMPLE))
EXAMPLE_IMAGE = build_memory_image(EXAMPLE, 12, "complex")[0]  # 24-bit cells
PREPARED = prepare_complex(build_memory_image(EXAMPLE, 16, "complex")[0])[0]  # k = 3
ORACLE = oracle_state(EXAMPLE)
CLEAN = state(3, 8, 8, {(1 << 3) | z: complex(a) for z, a in enumerate(ORACLE)})
TWO_CELLS = MemoryImage(cells=(0, 1), t=4, mode="complex")
LOADED = state(2, 8, 8, {1: 0.6, 2: 0.8})  # refused loads must leave it as it is
K4_STATE = state(4, 4, 4, {a: 0.25 + 0j for a in range(16)})
# each way of loading branches at k = 2, t = aux_width = 8
LOADS = [
    lambda branches: state(2, 8, 8, branches),
    lambda branches: setattr(LOADED, "branches", branches),
    lambda branches: dataclasses.replace(LOADED, branches=branches),
]

ROWS = [
    # --- matrix documents
    *(row(load_matrix, doc, "json", error=AllZeroMatrixError, message="matrix is all zero")
      for doc in [matrix_doc(1, 1, [[0, 0]]), matrix_doc(2, 2, [[0, 0]] * 4)]),
    row(load_matrix, matrix_doc(1, 1, [[5, 0]]), "json", error=InvalidDimensionsError,
        message="need at least two cells after padding"),
    *(row(load_matrix, matrix_doc(rows, cols, []), "json", error=EmptyMatrixError,
          message=f"rows={rows}, cols={cols}") for rows, cols in [(0, 4), (4, 0)]),
    *(row(load_matrix, text, "csv", error=EmptyMatrixError, message="CSV input has no rows")
      for text in ["", "\n\n", " \n\t\n", "\ufeff"]),
    row(load_matrix, "1,\n", "csv", error=ParseError, message="empty complex literal"),
    # a line of blank entries is a row, not a blank line; only one mark is dropped
    row(load_matrix, " , \n1,2\n", "csv", error=ParseError, message="empty complex literal"),
    row(load_matrix, "\ufeff\ufeff1,2\n", "csv", error=ParseError,
        message=r"bad complex literal '\\ufeff1'"),
    *(row(load_matrix, doc, "json", error=ParseError, message="invalid JSON: .+")
      for doc in ["{not json", entries_doc(["1" + "0" * 5000, "1"])]),
    row(load_matrix, "[1, 2]", "json", error=ParseError,
        message="top-level JSON value must be an object"),
    row(load_matrix, '{"rows": 2, "cols": 2}', "json", error=ParseError,
        message="missing key 'entries'"),
    row(load_matrix, matrix_doc(2.5, 2, [[1, 0]] * 5), "json", error=ParseError,
        message="rows and cols must be integers"),
    *(row(load_matrix, matrix_doc(1, 2, entries), "json", error=ParseError,
          message="entries must be a list") for entries in [5, None]),
    row(load_matrix, entries_doc(["1" + "0" * 400, "1"]), "json", error=ParseError,
        message="entry 0 real part is too large for a float"),
    # the first bad entry is named
    *(row(load_matrix, matrix_doc(1, len(entries), entries), "json", error=ParseError,
          message=message) for entries, message in [
        ([[1, 0], [1]], r"entry 1 must be a \[re, im\] pair, got \[1\]"),
        ([[1, 0], 5], r"entry 1 must be a \[re, im\] pair, got 5"),
        ([[1, 0], [0, 0], [1, 2, 3], [0, 0]],
         r"entry 2 must be a \[re, im\] pair, got \[1, 2, 3\]"),
        ([[1, 0], ["x", 0]], "entry 1 real part must be a number, got 'x'"),
        ([[1, 0], [True, 0]], "entry 1 real part must be a number, got True"),
        ([[1, 0], [0, None]], "entry 1 imaginary part must be a number, got None"),
        ([[1, 0], [math.inf, 0]], "entry 1 real part must be finite, got inf"),
        ([[1, 0], [1, math.inf], ["x", 0], [0, 0]],
         "entry 1 imaginary part must be finite, got inf"),
    ]),
    row(load_matrix, entries_doc(["NaN", "1"]), "json", error=ParseError,
        message="entry 0 real part must be finite, got nan"),
    row(load_matrix, entries_doc(["1", "-Infinity"]), "json", error=ParseError,
        message="entry 1 real part must be finite, got -inf"),
    # orjson reads these dimensions as floats: each is refused on its exact value
    *(row(load_matrix, matrix_doc(rows, 1, [[1, 0]]), "json", error=ParseError,
          message=f"expected {rows} entries, got 1") for rows in [2 ** 64, 2 ** 64 + 1, 10 ** 30]),
    row(load_matrix, matrix_doc(2, 2, [[1, 0]] * 3), "json", error=ParseError,
        message="expected 4 entries, got 3"),
    # numpy ints count as ints, and must not wrap: 2**32 * 2**32 is 0 in int64
    row(ComplexMatrix.from_json_dict, {"rows": np.int64(1 << 32), "cols": np.int64(1 << 32),
                                       "entries": []},
        error=ParseError, message=f"expected {1 << 64} entries, got 0"),
    *(row(load_matrix, matrix_doc(rows, 1, [[1, 0]]), "json", error=EmptyMatrixError,
          message=f"rows={rows}, cols=1") for rows in [-(2 ** 63) - 1, -(10 ** 30)]),
    row(load_matrix, "1,2\n3\n", "csv", error=ParseError,
        message=r"CSV rows have inconsistent lengths \[1, 2\]"),
    row(load_matrix, "1,2\n3,4x\n", "csv", error=ParseError, message="bad complex literal '4x'"),
    row(load_matrix, "1 2,3\n", "csv", error=ParseError, message="bad complex literal '1 2'"),
    *(row(load_matrix, "1,2\n", fmt, error=ParseError,
          message=f"unknown matrix format '{fmt}'")
      for fmt in ["tsv", "yaml"]),
    # a file object is refused too: callers pass its read() text
    *(row(load_matrix, source, "csv", error=ParseError,
          message=f"source must be str or bytes, got {type(source).__name__}")
      for source in [123, None, [1, 2], io.StringIO("1,2\n")]),
    row(parse_complex_literal, "", error=ParseError, message="empty complex literal"),
    *(row(parse_complex_literal, text, error=ParseError,
          message=f"bad complex literal {shown(text)}")
      for text in ["abc", "1+", "inf", "1+2x",
                   # a space only at the ends and around the joining sign; only the
                   # README grammar, in ASCII digits
                   "1 2", "1e3 5i", "- 2", "2 i", "1 e3", "1+ 2 i", "1\t+2i", "1_000",
                   "(1+2i)", "2j", "2J", "\u0661", "1+-2i", "i2"]),
    *(row(parse_complex_literal, text, error=ParseError,
          message=f"non-finite complex literal {shown(text)}") for text in ["1e999", "-1e999i"]),
    # --- matrix arrays
    row(operator.setitem, EXAMPLE.entries, 0, 0, error=ValueError, message=READ_ONLY),
    *not_number_array_rows(ComplexMatrix.from_array, lambda xs: (xs,), NOT_NUMBERS, ParseError,
                           "matrix entries must be numbers"),
    # numpy read each of these as numbers; None, a dict and a ragged row are named too
    *(row(ComplexMatrix.from_array, arr, error=ParseError,
          message="matrix entries must be numbers, got " + got) for arr, got in [
        ([["1", "2"]], "'1'"), ([[1, "2j"]], "'2j'"), ([[b"1", 2]], "b'1'"),
        ([[True, False]], "True"), (np.array([[True, False]]), "True"),
        ([[1, 2], [3, None]], "None"), (np.array([[1, None]], object), "None"),
        ([[1 + 2j, {}]], "{}"), ([[1, 2], [3]], r"\[1, 2\]")]),
    # the finite and all-zero checks run before the two-cell check
    *(row(ComplexMatrix.from_array, arr, error=ParseError,
          message="matrix contains a non-finite entry")
      for arr in [[[math.nan, 1]], [[1, complex(0, math.inf)]], [[math.nan]]]),
    row(ComplexMatrix.from_array, [[0.0]], error=AllZeroMatrixError, message="matrix is all zero"),
    row(ComplexMatrix.from_array, [[5.0]], error=InvalidDimensionsError,
        message="need at least two cells after padding"),
    *(row(ComplexMatrix.from_array, arr, error=InvalidDimensionsError,
          message=f"expected a 2-d array, got ndim={np.ndim(arr)}")
      for arr in [5.0, [[[1.0, 2.0]]]]),
    *(row(ComplexMatrix.from_array, arr, error=EmptyMatrixError,
          message="matrix has no rows or no columns") for arr in [[], [[]], np.zeros((3, 0))]),
    *(row(ComplexMatrix, rows=rows, cols=cols, entries=np.array(entries, complex),
          original_rows=original[0], original_cols=original[1],
          error=InvalidDimensionsError, message=message)
      for rows, cols, entries, original, message in [
          (3, 2, [1] * 6, (3, 2), "padded dimensions must be powers of two, got 3x2"),
          (2, 2, [1] * 3, (2, 2), "expected 4 entries, got 3"),
          (2, 2, [1] * 4, (3, 2), "original shape exceeds padded shape"),
          (2, 2, [1] * 4, (2, 0), "original shape exceeds padded shape"),
          (2, 2, [1, 0, 0, 1], (1, 2), "padding region must be exactly zero")]),
    # --- random matrices
    row(random_matrix, 1 << 40, 1 << 40, error=InvalidDimensionsError,
        message="1099511627776x1099511627776 is too large: .+"),
    *(row(random_matrix, rows, cols, error=EmptyMatrixError, message=f"rows={rows}, cols={cols}")
      for rows, cols in [(0, 4), (4, 0), (-2, 4), (0, 0)]),
    *(row(random_matrix, 2, 2, seed=seed, error=InvalidSeedError,
          message="seed must be a non-negative integer, got " + shown(seed))
      for seed in [-1, -(1 << 70), *NOT_INTS]),
    *(row(random_matrix, rows, cols, error=InvalidDimensionsError,
          message=f"rows and cols must be integers, got {shown(rows)}, {shown(cols)}")
      for rows, cols in [(2.5, 2), (2, 2.0), *((v, 2) for v in NOT_INTS)]),
    *(row(random_matrix, 2, 2, zero_fraction=fraction, error=InvalidZeroFractionError,
          message=r"zero_fraction must lie in \[0, 1\], got " + shown(fraction))
      for fraction in [math.nan, 2.0, -0.1, math.inf, *NOT_REAL]),
    # --- weight tree
    *(row(build_weight_tree, weights, error=NotPowerOfTwoError,
          message=f"need a power-of-two length >= 2, got {len(weights)}")
      for weights in [[1.0], [4.0], [1.0, 2.0, 3.0], [], [1.0] * 6]),
    row(build_weight_tree, [0.0] * 4, error=AllZeroWeightsError, message="all weights are zero"),
    *(row(build_weight_tree, weights, error=InvalidWeightsError,
          message="squared moduli must be finite and non-negative")
      for weights in [[1.0, -1.0], [1.0, math.nan], [1.0, math.inf]]),
    # every leaf is finite, but the root is not
    *(row(build_weight_tree, weights, error=InvalidWeightsError,
          message="the sum of the squared moduli overflows a float")
      for weights in [[1e308, 1e308], [1e308, 0.0, 0.0, 1e308]]),
    # values that are not real numbers
    *not_number_array_rows(build_weight_tree, lambda xs: (xs,), NOT_REAL, InvalidWeightsError,
                           "weights must be real numbers"),
    *(row(build_weight_tree, weights, error=InvalidWeightsError,
          message="weights must be real numbers, got " + got) for weights, got in [
        (np.array([1.0, None], object), "None"), ({0: 1.0, 1: 2.0}, r"\{0: 1\.0, 1: 2\.0\}"),
        ([[1.0, 2.0], [3.0]], r"\[1\.0, 2\.0\]")]),
    row(operator.setitem, EXAMPLE_TREE.levels[0], 0, 0, error=ValueError, message=READ_ONLY),
    # --- angles and phases
    *(row(splitting_angle, z, EXAMPLE_TREE, error=IndexOutOfRangeError,
          message=rf"memory index {shown(z)} outside \[1, 7\]")
      for z in [0, 8, -1, 2.5, *NOT_INTS]),
    *(row(ComplexAngleTree, *args, error=LengthMismatchError,
          message="need K-1 angles for K phases, got 2 and 4")
      for args in [(np.zeros(2), np.zeros(4), "real_signed"), ([1.0, 1.0], [0.0] * 4, "complex")]),
    *(row(ComplexAngleTree, thetas, np.zeros(n), "complex", error=NotPowerOfTwoError,
          message=rf"need 2\*\*k phases \(k >= 1\), got {n}")
      for thetas, n in [(np.zeros(0), 0), (np.zeros(0), 1), (np.zeros(2), 3), (np.zeros(5), 6),
                        ([1.0] * 2, 3)]),
    # checked before the range tests: NaN, 2*pi and -pi name the mode, not the range
    *(row(ComplexAngleTree, [1.0], [0.0, phase], "real_signed", error=NotRealMatrixError,
          message="real_signed phases must be 0 or pi")
      for phase in [1.0, math.pi / 2, 2 * math.pi, -math.pi, math.nan]),
    *not_number_array_rows(ComplexAngleTree, lambda xs: (xs, [0.0, 0.0], "complex"), NOT_REAL,
                           AngleOutOfRangeError, "theta must be real numbers"),
    *not_number_array_rows(ComplexAngleTree, lambda xs: ([1.0], xs, "complex"), NOT_REAL,
                           AngleOutOfRangeError, "phase must be real numbers"),
    row(ComplexAngleTree, [1.0], [0.0, None], "complex", error=AngleOutOfRangeError,
        message="phase must be real numbers, got None"),
    # the tree is the checked hand-off: every theta in [0, pi], every phase in [0, 2*pi)
    *(row(ComplexAngleTree, np.array([theta]), np.array([phase, 0.0]), "complex",
          error=AngleOutOfRangeError,
          message=(r"theta must lie in \[0, pi\]" if theta else r"phase must lie in \[0, 2\*pi\)")
          + f", got {shown(float(theta or phase))} at index 0")
      for theta, phase in [
          (-1e-300, 0.0), (np.nextafter(math.pi, 4.0), 0.0), (5.0, 0.0), (math.nan, 0.0),
          (0.0, -1e-300), (0.0, -0.5 * math.pi), (0.0, math.tau), (0.0, 2.5 * math.pi),
          (0.0, 2.0 ** 60), (0.0, 1e300), (0.0, math.inf), (0.0, math.nan)]),
    row(build_angle_structures, EXAMPLE, "real_signed", error=NotRealMatrixError,
        message="matrix has nonzero imaginary parts"),
    row(build_angle_structures, EXAMPLE, "octonion", error=WrongModeError,
        message=MODE + "'octonion'"),
    # --- fixed-point codecs
    *(row(check_precision, t, error=PrecisionOutOfRangeError, message=PRECISION + shown(t))
      for t in [1, 63, np.uint8(1), 16.0, *NOT_INTS]),
    # a scalar is named as passed, with no index
    *(row(encode_magnitude_angle, theta, 8, error=AngleOutOfRangeError,
          message=rf"theta must lie in \[0, pi\], got {shown(theta)}")
      for theta in [-0.1, math.pi + 0.01, math.nan, math.inf, np.float64(-1.0), 10 ** 400,
                    *NOT_REAL]),
    *(row(encode_magnitude_angle, 1.0, t, error=PrecisionOutOfRangeError,
          message=PRECISION + str(t))
      for t in [1, 0, -3, 63, 100]),
    *(row(encode_phase, phi, 8, error=AngleOutOfRangeError,
          message="phi must be finite, got " + shown(phi))
      for phi in [math.inf, -math.inf, math.nan, np.float64(math.inf), 10 ** 400, *NOT_REAL]),
    row(encode_phase, 1.0, 63, error=PrecisionOutOfRangeError, message=PRECISION + "63"),
    # an array element is named by its index and its value as a Python float
    row(encode_magnitude_angles, [0.0, 1.0, math.nan, -1.0], 8, error=AngleOutOfRangeError,
        message=r"theta must lie in \[0, pi\], got nan at index 2"),
    row(encode_magnitude_angles, [0.0, math.pi + 1e-9], 8, error=AngleOutOfRangeError,
        message=r"theta must lie in \[0, pi\], got 3\.141592654589793 at index 1"),
    *not_number_array_rows(encode_magnitude_angles, lambda xs: (xs, 8), NOT_REAL,
                           AngleOutOfRangeError, "theta must be real numbers"),
    row(encode_magnitude_angles, [0.0], True, error=PrecisionOutOfRangeError,
        message=PRECISION + "True"),
    *(row(encode_phases, phis, 8, error=AngleOutOfRangeError,
          message=f"phi must be finite, got {got} at index {z}") for phis, got, z in [
        ([0.0, 1.0, -7.0, math.inf], "inf", 3), (np.array([1.0, -math.inf]), "-inf", 1),
        (np.array([math.nan, 0.5]), "nan", 0)]),
    *not_number_array_rows(encode_phases, lambda xs: (xs, 8), NOT_REAL, AngleOutOfRangeError,
                           "phi must be real numbers"),
    row(encode_phases, [0.0], 63, error=PrecisionOutOfRangeError, message=PRECISION + "63"),
    # --- memory layout and images
    row(layout_real_signed, build_angle_structures(EXAMPLE, "complex"), 8, error=WrongModeError,
        message="need a real_signed angle structure, got complex"),
    row(cell_width, 8, "polar", error=WrongModeError, message=MODE + "'polar'"),
    row(MemoryImage.from_json_dict, {"mode": "complex", "t": 8, "k": 1}, error=ParseError,
        message="memory image document missing key: 'cells'"),
    *(row(MemoryImage.from_json_dict, image_doc(cells=cells), error=ParseError,
          message="cells must be a list of unsigned integers")
      for cells in ["ab", 5, None, {"0": 1, "1": 2}]),
    row(MemoryImage.from_json_dict, image_doc(cells=[0, 1 << 8]), error=WidthMismatchError,
        message="cell 1 does not fit in 8 bits"),
    *(row(MemoryImage.from_json_dict, image_doc(cells=cells), error=WidthMismatchError,
          message=message) for cells, message in [
        ([True, 3], "cell 0 is not an unsigned integer: True"),
        *(([0, cell], "cell 1 is not an unsigned integer: " + shown(cell))
          for cell in [False, 3.0, "3", None])]),
    *(row(MemoryImage.from_json_dict, image_doc(k=k), error=InvalidDimensionsError,
          message="k must be an integer, got " + shown(k)) for k in NOT_INTS),
    # a huge k must be refused without building the 2**k-bit int 1 << k
    *(row(MemoryImage.from_json_dict, image_doc(k=k), error=LengthMismatchError,
          message=rf"k = {k} needs 2\*\*k cells, got 2") for k in [0, -1, 2, 20000, 1 << 70]),
    *(row(MemoryImage.from_json_dict, image_doc(t=t), error=PrecisionOutOfRangeError,
          message=PRECISION + shown(t)) for t in [True, 4.0, "4", None]),
    row(MemoryImage, cells=(0, np.int64(3)), t=4, mode="complex", error=WidthMismatchError,
        message=r"cell 1 is not an unsigned integer: np\.int64\(3\)"),
    *(row(MemoryImage, cells=cells, t=4, mode="complex", error=LengthMismatchError,
          message=rf"need 2\*\*k cells \(k >= 1\), got {len(cells)}")
      for cells in [(), (0,), (0,) * 3, (0,) * 6, (17,)]),
    row(MemoryImage, cells=(0, 0), t=4, mode="polar", error=WrongModeError,
        message=MODE + "'polar'"),
    # len() ended in a bare TypeError, and b"ab" split into the bytes 97, 98
    *(row(load, cells=cells, error=WidthMismatchError,
          message=f"cells must be a list or tuple, got {type(cells).__name__}")
      for cells in [5, None, "ab", b"ab", {0: 1, 1: 2}]
      for load in [lambda **kw: MemoryImage(t=4, mode="complex", **kw),
                   lambda **kw: dataclasses.replace(TWO_CELLS, **kw)]),
    row(MemoryImage, cells=(c for c in (0, 1)), t=4, mode="complex", error=WidthMismatchError,
        message="cells must be a list or tuple, got generator"),
    row(dataclasses.replace, TWO_CELLS, cells=(c for c in (0, 1)), error=WidthMismatchError,
        message="cells must be a list or tuple, got generator"),
    # the checks run in this order: t, container, cell count, mode, cells
    row(MemoryImage, cells="a", t=1, mode="complex", error=PrecisionOutOfRangeError,
        message=PRECISION + "1"),
    row(MemoryImage, cells="a", t=4, mode="complex", error=WidthMismatchError,
        message="cells must be a list or tuple, got str"),
    *(row(MemoryImage, cells=cells, t=4, mode=mode, error=LengthMismatchError,
          message=r"need 2\*\*k cells \(k >= 1\), got 3")
      for cells, mode in [((0,) * 3, "polar"), ((0, 1.0, 2), "complex")]),
    row(MemoryImage, cells=(0, 1.0), t=4, mode="polar", error=WrongModeError,
        message=MODE + "'polar'"),
    *(row(operator.setitem, array, 0, 1, error=ValueError, message=READ_ONLY)
      for array in EXAMPLE_IMAGE.field_arrays),
    row(setattr, EXAMPLE_IMAGE, "cells", (0,) * 8, error=dataclasses.FrozenInstanceError,
        message="cannot assign to field 'cells'"),
    # t = 12 complex cells are 24 bits; real_signed cells at t = 12 hold 13
    row(dataclasses.replace, EXAMPLE_IMAGE, mode="real_signed", error=WidthMismatchError,
        message="cell 1 does not fit in 13 bits"),
    # --- queries and the ledger
    *(row(query, EXAMPLE_IMAGE, init_state(k, t, mode), QueryLedger(3), error=WidthMismatchError,
          message=message) for k, t, mode, message in [
        (3, 10, "complex", r"data registers 10\+10 bits, cells 12\+12"),
        (2, 12, "complex", "address width 2 != image width 3"),
        (3, 12, "real_signed", r"data registers 12\+1 bits, cells 12\+12")]),
    *(row(query, MemoryImage(cells=(0,) * 16, t=4, mode="complex"), K4_STATE, QueryLedger(width),
          error=WidthMismatchError, message=f"ledger width {width} != image width 4")
      for width in [2, 6]),
    *(row(QueryLedger, k, error=InvalidDimensionsError, message=ADDRESS_WIDTH + shown(k))
      for k in [-1, 0, 63, True, 3.0, None]),
    # a reached log that is neither a list nor None died at the next query
    # with a bare AttributeError from its append
    *(row(make, reached, error=WidthMismatchError,
          message=f"reached must be a list or None, got {type(reached).__name__}")
      for reached in [5, "ab", (b"\x01",), {}]
      for make in [lambda reached: QueryLedger(4, reached=reached),
                   lambda reached: dataclasses.replace(QueryLedger(4), reached=reached)]),
    # a count that is not a non-negative int gave a routing time of 'aaaa',
    # -12 or 10.0, or a bare TypeError
    *(row(make, count, error=WidthMismatchError,
          message="query_count must be a non-negative int, got " + shown(count))
      for count in [*NOT_INTS, -3, -1, 2.5]
      for make in [lambda count: QueryLedger(4, query_count=count),
                   lambda count: dataclasses.replace(QueryLedger(4), query_count=count)]),
    # --- simulator states
    row(init_state, 0, 8, "complex", error=InvalidDimensionsError, message=ADDRESS_WIDTH + "0"),
    *(row(make, k, error=InvalidDimensionsError, message=ADDRESS_WIDTH + str(k))
      for k in [63, 65, 1 << 70]
      for make in [lambda k: init_state(k, 8, "complex"), lambda k: state(k, 8, 8, {1: 1 + 0j})]),
    *(row(state, k, 8, 8, {1: 1 + 0j}, error=InvalidDimensionsError,
          message=ADDRESS_WIDTH + shown(k)) for k in NOT_INTS),
    row(init_state, 2, 8, "qutrit", error=WrongModeError, message=MODE + "'qutrit'"),
    *(row(state, 2, 8, aux_width, {1: 1 + 0j}, error=InvalidDimensionsError,
          message=r"aux_width must be in \[1, 62\], got " + shown(aux_width))
      for aux_width in [-1, 0, 63, 100, True, 8.0, None]),
    *(row(state, 2, t, 8, {1: 1 + 0j}, error=PrecisionOutOfRangeError, message=PRECISION + shown(t))
      for t in [0, 1, 63, 8.0, True]),
    *(row(init_state, 2, t, "complex", error=PrecisionOutOfRangeError, message=PRECISION + str(t))
      for t in [1, 63]),
    # init_state refuses what the state built from its label refuses
    *(row(make, k, t, mode, error=error, message={
        InvalidDimensionsError: ADDRESS_WIDTH + shown(k),
        PrecisionOutOfRangeError: PRECISION + shown(t), WrongModeError: MODE + shown(mode)}[error])
      for k, t, mode, error in [
          (0, 8, "complex", InvalidDimensionsError), (63, 8, "complex", InvalidDimensionsError),
          (True, 8, "complex", InvalidDimensionsError),
          (2.0, 8, "real_signed", InvalidDimensionsError),
          (None, 8, "complex", InvalidDimensionsError), (3, 1, "complex", PrecisionOutOfRangeError),
          (3, 63, "real_signed", PrecisionOutOfRangeError),
          (3, 8.0, "complex", PrecisionOutOfRangeError),
          (3, True, "complex", PrecisionOutOfRangeError), (3, 8, "qutrit", WrongModeError),
          (3, 8, None, WrongModeError)]
      for make in [init_state,
                   lambda k, t, mode: state(k, t, cell_width(t, mode) - t, {1: 1 + 0j})]),
    # the checks run in this order: k, t, aux_width, container, labels
    row(state, 0, 1, 8, 5, error=InvalidDimensionsError, message=ADDRESS_WIDTH + "0"),
    row(state, 2, 1, 0, 5, error=PrecisionOutOfRangeError, message=PRECISION + "1"),
    row(state, 2, 8, 0, 5, error=InvalidDimensionsError,
        message=r"aux_width must be in \[1, 62\], got 0"),
    row(state, 2, 8, 8, [(1 << 200, 1.0)], error=WidthMismatchError,
        message="branches must be a mapping, got list"),
    row(dataclasses.replace, state(3, 8, 8, {(1 << 19) | 4: 1.0}), k=2, error=WidthMismatchError,
        message=r"label 524292 is not an int in \[0, 2\*\*19\)"),
    # every way of loading branches checks each label and amplitude
    *(row(load, {2: 1.0, label: 1.0}, error=WidthMismatchError,
          message=rf"label {shown(label)} is not an int in \[0, 2\*\*19\)")
      for label in [1 << 19, 1 << 20, 1 << 200, -1, 1.5, True, np.int64(1)] for load in LOADS),
    *(row(load, {1: 1.0, 3: amp}, error=InvalidAmplitudeError,
          message="amplitude of label 3 is not a finite number: " + shown(amp))
      for amp in [math.nan, complex(0, math.inf), 10 ** 400, *NOT_NUMBERS] for load in LOADS),
    *(row(load, branches, error=WidthMismatchError,
          message=f"branches must be a mapping, got {type(branches).__name__}")
      for branches in [5, None, [1, 2], "ab", [(1, 2, 3)], [(3, 1.0)], {3, 1}] for load in LOADS),
    row(setattr, LOADED, "branches", {3: None}, error=InvalidAmplitudeError,
        message="amplitude of label 3 is not a finite number: None"),
    row(setattr, LOADED, "branches", {1 << 20: 1.0}, error=WidthMismatchError,
        message=r"label 1048576 is not an int in \[0, 2\*\*19\)"),
    # --- simulator steps
    row(circular_shift, state(2, 4, 4, {1 << 3: 1 + 0j}), error=DirtyWorkRegistersError,
        message="shift with nonzero work registers: uncompute did not run or failed"),
    row(prepare_complex, build_memory_image(ComplexMatrix.from_array([[1.0, -1.0]]), 8,
                                            "real_signed")[0],
        error=WrongModeError, message="need a complex image, got real_signed"),
    # a bool passed 1 <= h <= k as iteration 1; a float reached numpy's shift
    *(row(marker_check, PREPARED, h, EXAMPLE_TREE, error=IndexOutOfRangeError,
          message=rf"iteration {shown(h)} outside \[1, 3\]")
      for h in [0, 4, np.float64(2.0), *NOT_INTS]),
    row(marker_check, PREPARED, 2, build_weight_tree([1.0, 2.0, 3.0, 4.0]),
        error=IndexOutOfRangeError, message="tree depth 2 != address width 3"),
    row(dump_state, query(EXAMPLE_IMAGE, init_state(3, 12, "complex"), QueryLedger(3)),
        error=DirtyStateError, message="cannot dump a state with nonzero work registers"),
    # --- verification
    row(state_error, state(3, 8, 8, {**CLEAN.branches, 3: 0.5}), ORACLE, error=DirtyStateError,
        message="marker qubit is not set on every branch"),  # a v = 0 branch
    row(state_error, state(3, 8, 8, {**CLEAN.branches, (1 << 3) | (1 << 12): 0.5}), ORACLE,
        error=DirtyStateError, message="work registers are not zero"),  # w_angle = 1
    *(row(state_error, CLEAN, oracle, error=LengthMismatchError,
          message=f"state has 8 cells, oracle shape {shown(np.shape(oracle))}")
      for oracle in [ORACLE[:4], ORACLE.reshape(2, 4), 5]),
    *not_number_array_rows(state_error, lambda xs: (CLEAN, xs), NOT_NUMBERS, InvalidAmplitudeError,
                           "oracle entries must be numbers"),
    *(row(state_error, CLEAN, oracle, error=InvalidAmplitudeError, message=message)
      for oracle, message in [
          (None, "oracle entries must be numbers, got None"),
          ([[1, 2, 3, 4], [5, 6, 7]], r"oracle entries must be numbers, got \[1, 2, 3, 4\]"),
          ([0.5] * 7 + [None], "oracle entries must be numbers, got None"),
          (np.array([None] * 8, object), "oracle entries must be numbers, got None"),
          (np.r_[math.nan, ORACLE[1:]], "oracle entries must be finite numbers"),
          ([complex(0, math.inf)] + [0] * 7, "oracle entries must be finite numbers")]),
    *(row(error_bound, k, 8, error=NotPowerOfTwoError,
          message="k must be a positive integer, got " + shown(k)) for k in [0, *NOT_INTS]),
    row(error_bound, 3, 1, error=PrecisionOutOfRangeError, message=PRECISION + "1"),
    *(row(resource_report, K, t, error=NotPowerOfTwoError,
          message=f"K must be a power of two >= 2, got {shown(K)}")
      for K, t in [(1000, 32), (1, 8), *((K, 8) for K in NOT_INTS)]),
    row(resource_report, 8, 8, "dense", error=WrongModeError, message=MODE + "'dense'"),
    *(row(resource_report, 8, t, error=PrecisionOutOfRangeError, message=PRECISION + str(t))
      for t in [1, 63]),
    *(row(precision_sweep, EXAMPLE, [6, t], error=PrecisionOutOfRangeError,
          message=PRECISION + shown(t)) for t in [7.9, 8.0, "8"]),
    # map() ended in a bare TypeError
    *(row(precision_sweep, EXAMPLE, t_values, error=PrecisionOutOfRangeError,
          message=f"t_values must be iterable, got {t_values!r}") for t_values in [8, None, 8.0]),
    row(run_preparation, EXAMPLE, 8, sim="approximate", error=WrongModeError,
        message=r"sim must be one of \('fixed', 'ideal'\), got 'approximate'"),
    # an ideal run reads the t = 62 image, but checks its t as a fixed run does
    *(row(run_preparation, EXAMPLE, t, sim=sim, error=PrecisionOutOfRangeError,
          message=PRECISION + shown(t)) for sim in ["fixed", "ideal"] for t in [1, 63, 8.0]),
    # --- command line: the replay runs at t = 62, so a --t would change nothing
    row(build_parser().parse_args, ["example", "--t", "16"], error=SystemExit, message="2"),
    *(row(_parse_t_range, spec, error=ParseError, message=f"--t expects N or LO:HI, got '{spec}'")
      for spec in ["16:6", "6:x", "x"]),
]


def _row_id(index: int, call) -> str:
    name = getattr(call, "__qualname__", type(call).__name__).replace("<genexpr>.", "")
    return f"{index}-{name.replace('<lambda>', 'load')}"


@pytest.mark.parametrize("call,args,kwargs,error,message", ROWS,
                         ids=[_row_id(i, r[0]) for i, r in enumerate(ROWS)])
def test_refusal(call, args, kwargs, error, message, capsys):
    # capsys keeps argparse's usage message off the terminal
    with pytest.raises(error) as info:
        call(*args, **kwargs)
    assert type(info.value) is error
    assert re.fullmatch(message, str(info.value)), str(info.value)


def test_every_error_type_has_a_row():
    # the replay's ExampleMismatchError is covered by test_cli.py::TestExampleChecksFail
    types = {cls for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.QramPrepError)}
    assert types - {r[3] for r in ROWS} == {errors.QramPrepError, errors.ExampleMismatchError}
