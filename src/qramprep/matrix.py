"""Complex matrix ingestion: parsing, validation and zero padding.

Matrices are stored dense in row-major order and zero-padded so that each
dimension is a power of two. Entry (i, j) lives at flat index z = i * cols + j.

Accepted input formats:

* JSON: ``{"rows": M, "cols": N, "entries": [[re, im], ...]}`` with the
  entries row-major and of length ``M * N``. Matrix JSON has two readings.
  A regular document (one array of pairs all parted by one gap of whitespace
  and a comma, no string holding a bracket, comma or backslash; every
  ``json.dumps`` layout) is read flat: orjson reads it with its pair
  brackets blanked, as one list of parts with no list per entry, and its
  values are checked by three byte scans of the array, with no pass per
  value. Any other document (a row-broken one such as
  ``data/example_matrix.json`` too) is read by the stdlib's ``json.loads``,
  the reference reading, and its entries are checked pair by pair.
* CSV: one matrix row per line, entries written as complex literals of the
  form ``a+bi`` / ``a-bi`` with either part optional (``3``, ``-i``, ``2i``,
  ``1+i``, ``-1+2i``, ``1e-3+2.5i``, ...) in ASCII digits, with spaces only
  at the ends and around the sign that joins the parts (``2 + 1i``).
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import (
    AllZeroMatrixError,
    EmptyMatrixError,
    InvalidDimensionsError,
    InvalidSeedError,
    InvalidZeroFractionError,
    ParseError,
    is_int,
    is_number,
    number_array,
)


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)  # it holds arrays: equal and hashed by identity
class ComplexMatrix:
    """Validated, padded complex matrix, stored flat in row-major order.

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
        if not np.all(np.isfinite(ent.view(np.float64))):
            raise ParseError("matrix contains a non-finite entry")
        if not ent.any():
            raise AllZeroMatrixError("matrix is all zero")
        if self.rows * self.cols < 2:
            raise InvalidDimensionsError("need at least two cells after padding")
        if not (1 <= self.original_rows <= self.rows and 1 <= self.original_cols <= self.cols):
            raise InvalidDimensionsError("original shape exceeds padded shape")
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

    @classmethod
    def from_array(cls, arr) -> "ComplexMatrix":
        """Build from a 2-d array-like, padding each dimension to a power of two."""
        a = number_array(arr, np.complex128, ParseError, "matrix entries")
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise InvalidDimensionsError(f"expected a 2-d array, got ndim={a.ndim}")
        m0, n0 = a.shape
        if m0 == 0 or n0 == 0:
            raise EmptyMatrixError("matrix has no rows or no columns")
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
        if not (is_int(rows) and is_int(cols)):
            raise ParseError("rows and cols must be integers")
        rows, cols = int(rows), int(cols)
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

    ``source`` is str or bytes. A regular JSON document (see
    :func:`_regular_matrix`), which every ``json.dumps`` layout of a matrix
    is, is read flat with no per-entry lists; any other JSON is read by the
    stdlib (:func:`read_json_stdlib`) and checked by
    :meth:`ComplexMatrix.from_json_dict`. Both readings give the same matrix
    or the same refusal.
    """
    if not isinstance(source, (str, bytes)):
        raise ParseError(f"source must be str or bytes, got {type(source).__name__}")
    if fmt == "json":
        doc = _read_matrix_json(source)
        return doc if isinstance(doc, ComplexMatrix) else ComplexMatrix.from_json_dict(doc)
    if fmt == "csv":
        return _load_csv(_decode_utf8(source))
    raise ParseError(f"unknown matrix format {fmt!r}")


_NOT_MARK = bytes(sorted(set(range(256)) - set(b'[]{}",')))
_JSON_SPACE = b" \t\n\r"
# a CSV entry, stripped: the README literal forms in ASCII digits
_DECIMAL = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_LITERAL = re.compile(rf"[+-]?(?:{_DECIMAL}(?: *[+-] *(?:{_DECIMAL})?i)?|(?:{_DECIMAL})?i)")


def _read_matrix_json(source: str | bytes):
    """The matrix of a regular document, read flat; for any other, the stdlib's JSON value.

    Any other document is read by :func:`read_json_stdlib`, the reference
    reading, so each refusal keeps the stdlib's type and message and every
    integer stays exact.
    """
    data = source.encode("utf-8", "surrogatepass") if isinstance(source, str) else source
    m = _regular_matrix(data)
    return read_json_stdlib(source) if m is None else m


def _regular_matrix(data: bytes) -> ComplexMatrix | None:
    """The matrix of a regular document, parsed as one flat list; None for any other document.

    Regular: ``data`` holds no backslash, its structural bytes ``[]{}",``
    read ``{,..,[[,],[,],..,[,]],..,}`` once the empty strings ``""`` before
    the first ``[`` and after the last ``]`` are dropped (so no string holds a
    structural byte, the array holds no string, and the object's one array
    is n >= 1 pairs), and in that array one gap of JSON whitespace and a
    comma parts all pairs (see :func:`_blank_pairs`). A pair can then hold
    only numbers and the literals ``true``, ``false`` and ``null``, and no
    JSON number holds any of the bytes ``tfn``: three ``bytes.find`` scans of
    the array, first ``[`` to last ``]``, find every value that is not a
    number, with no pass per value. orjson then reads the text with the pair
    brackets blanked, which nests two levels deep, ``entries`` as
    ``[re0, im0, re1, im1, ...]``. The matrix is built only if that parse
    succeeds and rows, cols and the 2 rows*cols parts are what
    :meth:`ComplexMatrix.from_json_dict` accepts; every other document is
    left to the stdlib reading, so each refusal keeps its type and message.
    """
    if b"\\" in data:
        return None
    marks = data.translate(None, _NOT_MARK)
    first, last = marks.find(b"["), marks.rfind(b"]")
    n = (last - first) // 4
    head, tail = marks[:first].replace(b'""', b""), marks[last + 1:].replace(b'""', b"")
    if n < 1 or head != b"{".ljust(len(head), b",") \
            or marks[first:last + 1] != b"[[,]" + b",[,]" * (n - 1) + b"]" \
            or tail != b"}".rjust(len(tail), b","):
        return None
    outer, close = data.find(b"["), data.rfind(b"]")
    if any(data.find(byte, outer, close) != -1 for byte in b"tfn"):
        return None
    flat = _blank_pairs(data, n)
    if flat is None:
        return None
    try:
        doc = orjson.loads(flat)
    except orjson.JSONDecodeError:
        return None
    del flat  # free each stage before the next one is built: together they set the peak
    rows, cols, entries = doc.get("rows"), doc.get("cols"), doc.get("entries")
    # the CLI reads a document with cells as a memory image
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1 \
            or "cells" in doc or type(entries) is not list or len(entries) != 2 * rows * cols:
        return None
    # orjson 3.8 reads no integer past 64 bits and no number past the double
    # range; these two guards leave such documents to the stdlib reading
    try:
        parts = np.fromiter(entries, dtype=np.float64, count=len(entries))
    except OverflowError:
        return None
    del doc, entries
    if not np.isfinite(parts).all():
        return None
    return ComplexMatrix.from_array(parts.view(np.complex128).reshape(rows, cols))


def _blank_pairs(data: bytes, n: int) -> bytearray | None:
    """``data`` with the brackets of its n pairs blanked; None unless one gap parts them all.

    No string of ``data`` holds a bracket and its array holds no string (see
    :func:`_regular_matrix`), so its first and last bracket enclose the array
    and every ``[`` between them opens a pair. Once the brackets are gone, a
    value outside the pairs would read as an empty part beside it
    (``[1[, 2], ...]``), so the gap between pairs must be whitespace and one
    comma. Each of the n - 1 pair opens after the first must follow ``]`` and
    the first gap, byte for byte: one gather of the array per byte of that
    junction. A document with any other gap (a row break, say) is left to
    the stdlib reading; otherwise the junction brackets and the first and
    last pair bracket are blanked in one copy of ``data``.
    """
    outer, close = data.find(b"["), data.rfind(b"]")
    start, end = data.find(b"[", outer + 1), data.rfind(b"]", outer, close)
    if data[outer + 1:start].strip(_JSON_SPACE) or data[end + 1:close].strip(_JSON_SPACE):
        return None
    if n > 1:
        stop = data.find(b"]", start)
        junction = data[stop:data.find(b"[", stop)]  # the first pair's "]" and the first gap
        if junction[1:].strip(_JSON_SPACE) != b",":
            return None
        text = np.frombuffer(data, dtype=np.uint8)[stop:end]
        # the n - 1 opens in text increase from the first, at len(junction),
        # so no junction start (and no gathered index back + j) is negative:
        # numpy would read a negative one from the far end without a word
        back = np.flatnonzero(text == ord("[")) - len(junction)
        if not all((text[j:][back] == byte).all() for j, byte in enumerate(junction)):
            return None
    flat = bytearray(data)
    if n > 1:
        blank = np.frombuffer(flat, dtype=np.uint8)[stop:end]
        blank[back] = blank[back + len(junction)] = ord(" ")
    flat[start] = flat[end] = ord(" ")
    return flat


def read_json_stdlib(source: str | bytes):
    """The JSON value in ``source``: UTF-8 decoding and ``json.loads``, refusals as ParseError."""
    text = _decode_utf8(source)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


def _decode_utf8(source: str | bytes) -> str:
    if isinstance(source, str):
        return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc


def _require_number(x, what: str) -> None:
    if not is_number(x, real=True):
        raise ParseError(f"{what} must be a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError as exc:
        raise ParseError(f"{what} is too large for a float") from exc
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {x!r}")


def _entry_array(entries: list) -> np.ndarray:
    """The [re, im] pairs as complex128, checked pair by pair: the first bad entry is named."""
    for z, pair in enumerate(entries):
        if type(pair) is not list or len(pair) != 2:
            raise ParseError(f"entry {z} must be a [re, im] pair, got {pair!r}")
        _require_number(pair[0], f"entry {z} real part")
        _require_number(pair[1], f"entry {z} imaginary part")
    parts = np.fromiter(itertools.chain.from_iterable(entries), dtype=np.float64,
                        count=2 * len(entries))
    return parts.view(np.complex128)


def parse_complex_literal(text: str) -> complex:
    """Parse ``a+bi`` style complex literals (either part optional; spaces as the CSV allows)."""
    compact = text.strip()
    if not compact:
        raise ParseError("empty complex literal")
    if not _LITERAL.fullmatch(compact):
        raise ParseError(f"bad complex literal {text!r}")
    value = complex(compact.replace(" ", "").replace("i", "j"))
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
    if not (is_int(rows) and is_int(cols)):
        raise InvalidDimensionsError(f"rows and cols must be integers, got {rows!r}, {cols!r}")
    if rows < 1 or cols < 1:
        raise EmptyMatrixError(f"rows={rows}, cols={cols}")
    if not is_int(seed) or seed < 0:
        raise InvalidSeedError(f"seed must be a non-negative integer, got {seed!r}")
    if not is_number(zero_fraction, real=True) or not 0.0 <= zero_fraction <= 1.0:  # NaN fails too
        raise InvalidZeroFractionError(f"zero_fraction must lie in [0, 1], got {zero_fraction!r}")
    rng = np.random.default_rng(int(seed))
    try:
        values = rng.standard_normal((rows, cols))
    except ValueError as exc:  # a shape past the address space (a huge one raises MemoryError)
        raise InvalidDimensionsError(f"{rows}x{cols} is too large: {exc}") from None
    if not real:
        values = values + 1j * rng.standard_normal((rows, cols))
    if zero_fraction > 0.0:
        values = np.where(rng.random((rows, cols)) < zero_fraction, 0.0, values)
    if not values.any():
        values[0, 0] = 1.0
    return ComplexMatrix.from_array(values)
