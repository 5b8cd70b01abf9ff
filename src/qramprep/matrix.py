"""Complex matrix ingestion: parsing, validation, zero padding, flat indexing.

Matrices are stored dense in row-major order and zero-padded so that each
dimension is a power of two. Entry (i, j) lives at flat index z = i * cols + j.

Accepted input formats:

* JSON: ``{"rows": M, "cols": N, "entries": [[re, im], ...]}`` with the
  entries row-major and of length ``M * N``.
* CSV: one matrix row per line, entries written as complex literals of the
  form ``a+bi`` / ``a-bi`` with either part optional (``3``, ``-i``, ``2i``,
  ``1+i``, ``-1+2i``, ``1e-3+2.5i``, ...).
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from numbers import Integral
from typing import NoReturn

import numpy as np

from .errors import (
    AllZeroMatrixError,
    EmptyMatrixError,
    IndexOutOfRangeError,
    InvalidDimensionsError,
    InvalidSeedError,
    ParseError,
)


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ComplexMatrix:
    """Validated, padded complex matrix with row-major flat indexing.

    ``rows`` and ``cols`` are the padded (power-of-two) dimensions;
    ``original_rows`` / ``original_cols`` record the pre-padding shape.
    ``entries`` is the flat row-major array of length ``rows * cols``.
    """

    rows: int
    cols: int
    entries: np.ndarray
    original_rows: int
    original_cols: int

    def __post_init__(self):
        ent = np.ascontiguousarray(self.entries, dtype=np.complex128).reshape(-1)
        if not _is_pow2(self.rows) or not _is_pow2(self.cols):
            raise InvalidDimensionsError(
                f"padded dimensions must be powers of two, got {self.rows}x{self.cols}"
            )
        if ent.size != self.rows * self.cols:
            raise InvalidDimensionsError(
                f"expected {self.rows * self.cols} entries, got {ent.size}"
            )
        if self.rows * self.cols < 2:
            raise InvalidDimensionsError("need at least two cells after padding")
        if not (1 <= self.original_rows <= self.rows and 1 <= self.original_cols <= self.cols):
            raise InvalidDimensionsError("original shape exceeds padded shape")
        if not np.all(np.isfinite(ent.view(np.float64))):
            raise ParseError("matrix contains a non-finite entry")
        if not ent.any():
            raise AllZeroMatrixError("matrix is all zero")
        grid = ent.reshape(self.rows, self.cols)
        if grid[self.original_rows:, :].any() or grid[:, self.original_cols:].any():
            raise InvalidDimensionsError("padding region must be exactly zero")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @property
    def size(self) -> int:
        """Total cell count K = rows * cols (a power of two)."""
        return self.rows * self.cols

    @property
    def depth(self) -> int:
        """Address width k = log2(K)."""
        return self.size.bit_length() - 1

    def flat_index(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRangeError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return i * self.cols + j

    def as_2d(self) -> np.ndarray:
        return self.entries.reshape(self.rows, self.cols)

    @classmethod
    def from_array(cls, arr) -> "ComplexMatrix":
        """Build from a 2-d array-like, padding each dimension to a power of two."""
        a = np.asarray(arr, dtype=np.complex128)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise InvalidDimensionsError(f"expected a 2-d array, got ndim={a.ndim}")
        m0, n0 = a.shape
        if m0 == 0 or n0 == 0:
            raise EmptyMatrixError("matrix has no rows or no columns")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ParseError("matrix contains a non-finite entry")
        if not a.any():
            raise AllZeroMatrixError("matrix is all zero")
        m, n = _next_pow2(m0), _next_pow2(n0)
        padded = np.zeros((m, n), dtype=np.complex128)
        padded[:m0, :n0] = a
        return cls(
            rows=m,
            cols=n,
            entries=padded.reshape(-1),
            original_rows=m0,
            original_cols=n0,
        )

    @classmethod
    def from_json_dict(cls, doc) -> "ComplexMatrix":
        """Build from a parsed JSON document ``{"rows": M, "cols": N, "entries": [...]}``."""
        if not isinstance(doc, dict):
            raise ParseError("top-level JSON value must be an object")
        for key in ("rows", "cols", "entries"):
            if key not in doc:
                raise ParseError(f"missing key {key!r}")
        rows, cols = doc["rows"], doc["cols"]
        if isinstance(rows, bool) or isinstance(cols, bool) \
                or not isinstance(rows, int) or not isinstance(cols, int):
            raise ParseError("rows and cols must be integers")
        if rows <= 0 or cols <= 0:
            raise EmptyMatrixError(f"rows={rows}, cols={cols}")
        entries = doc["entries"]
        if not isinstance(entries, list):
            raise ParseError("entries must be a list")
        if len(entries) != rows * cols:
            raise ParseError(f"expected {rows * cols} entries, got {len(entries)}")
        return cls.from_array(_entry_array(entries).reshape(rows, cols))


def load_matrix(source, fmt: str) -> ComplexMatrix:
    """Parse and validate a matrix from JSON or CSV content.

    ``source`` may be str, bytes, or a file-like object.
    """
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    elif isinstance(source, str):
        text = source
    else:
        data = source.read()
        return load_matrix(data, fmt)
    if fmt == "json":
        return _load_json(text)
    if fmt == "csv":
        return _load_csv(text)
    raise ValueError(f"unknown matrix format {fmt!r}")


def _require_number(x, what: str) -> None:
    if type(x) not in (int, float):
        raise ParseError(f"{what} must be a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError as exc:
        raise ParseError(f"{what} is too large for a float") from exc
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {x!r}")


def _raise_first_bad_entry(entries: list) -> NoReturn:
    """Name the first entry that is not a pair of finite numbers."""
    for z, pair in enumerate(entries):
        if type(pair) is not list or len(pair) != 2:
            raise ParseError(f"entry {z} must be a [re, im] pair, got {pair!r}")
        _require_number(pair[0], f"entry {z} real part")
        _require_number(pair[1], f"entry {z} imaginary part")
    raise ParseError("entries must be [re, im] pairs of finite numbers")


def _entry_array(entries: list) -> np.ndarray:
    """Validate all [re, im] pairs in bulk; only a bad input is scanned entry by entry."""
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2} \
            or not set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}:
        _raise_first_bad_entry(entries)  # also rejects bools, strings and nulls
    try:
        parts = np.fromiter(itertools.chain.from_iterable(entries), dtype=np.float64,
                            count=2 * len(entries))
    except OverflowError:
        _raise_first_bad_entry(entries)  # an integer beyond the float range
    if not np.isfinite(parts).all():
        _raise_first_bad_entry(entries)
    return parts.view(np.complex128)


def _load_json(text: str) -> ComplexMatrix:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    return ComplexMatrix.from_json_dict(doc)


def parse_complex_literal(text: str) -> complex:
    """Parse ``a+bi`` style complex literals (either part optional)."""
    compact = text.strip().replace(" ", "")
    if not compact:
        raise ParseError("empty complex literal")
    try:
        value = complex(compact.replace("i", "j"))
    except ValueError as exc:
        raise ParseError(f"bad complex literal {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"non-finite complex literal {text!r}")
    return value


def _load_csv(text: str) -> ComplexMatrix:
    raw_rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not raw_rows:
        raise EmptyMatrixError("CSV input has no rows")
    widths = {len(r) for r in raw_rows}
    if len(widths) > 1:
        raise ParseError(f"CSV rows have inconsistent lengths {sorted(widths)}")
    parsed = [[parse_complex_literal(cell) for cell in row] for row in raw_rows]
    return ComplexMatrix.from_array(np.array(parsed, dtype=np.complex128))


def squared_moduli(m: ComplexMatrix) -> np.ndarray:
    """Per-entry squared modulus re^2 + im^2, flat row-major, length K."""
    return m.entries.real ** 2 + m.entries.imag ** 2


def scaled_entries(m: ComplexMatrix) -> tuple[np.ndarray, int]:
    """The entries times 2**-e, and e: the frexp exponent of the largest real or imaginary part.

    Scaling by a power of two is exact, so every square, sum and ratio of the
    scaled entries is the raw one times a power of two (the same ratios as
    the raw floats at ordinary scales), while the largest squared modulus
    lies in [1/4, 2): no square overflows, and only squares below ~1e-308
    of the largest underflow, at any scale of the matrix.
    """
    parts = m.entries.view(np.float64)
    e = int(np.frexp(np.abs(parts).max())[1])
    return np.ldexp(parts, -e).view(np.complex128), e


def scaled_moduli(m: ComplexMatrix) -> tuple[np.ndarray, int]:
    """Squared moduli of :func:`scaled_entries`, and the exponent e they were scaled by."""
    ent, e = scaled_entries(m)
    return ent.real ** 2 + ent.imag ** 2, e


def random_matrix(
    rows: int,
    cols: int,
    *,
    seed: int = 0,
    real: bool = False,
    zero_fraction: float = 0.0,
) -> ComplexMatrix:
    """Deterministic random matrix for demos and tests (standard normal entries)."""
    if rows < 1 or cols < 1:
        raise EmptyMatrixError(f"rows={rows}, cols={cols}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise InvalidSeedError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(int(seed))
    values = rng.standard_normal((rows, cols))
    if not real:
        values = values + 1j * rng.standard_normal((rows, cols))
    if zero_fraction > 0.0:
        values = np.where(rng.random((rows, cols)) < zero_fraction, 0.0, values)
    if not values.any():
        values = np.asarray(values, dtype=np.complex128)
        values[0, 0] = 1.0
    return ComplexMatrix.from_array(values)
