import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qramprep import errors, matrix
from qramprep.errors import ParseError, QramPrepError
from qramprep.matrix import (
    ComplexMatrix,
    load_matrix,
    parse_complex_literal,
    random_matrix,
    read_json_stdlib,
    scaled_moduli,
    squared_moduli,
)
from qramprep.memory import build_memory_image
from qramprep.verify import error_bound, oracle_state, run_preparation, state_error

EXAMPLE_JSON = json.dumps(
    {
        "rows": 2,
        "cols": 4,
        "entries": [[2, 1], [-1, 2], [3, 0], [0, -1], [1, -1], [0, 2], [-2, 1], [1, 1]],
    }
)
EXAMPLE_CSV = "2+1i,-1+2i,3,-i\n1-1i,2i,-2+1i,1+1i\n"

MALFORMED_JSON = [
    "{not json",
    json.dumps([1, 2]),
    json.dumps({"rows": 2, "cols": 2}),
    json.dumps({"rows": 2.5, "cols": 2, "entries": [[1, 0]] * 5}),
    json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0]] * 3}),
    json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], [1]]}),
    json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], ["x", 0]]}),
    json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], [float("nan"), 0]]})
    .replace("NaN", "1e999"),
    json.dumps({"rows": 1, "cols": 2, "entries": 5}),
    json.dumps({"rows": 1, "cols": 2, "entries": None}),
]


def _row_doc(entries) -> str:
    return json.dumps({"rows": 1, "cols": len(entries), "entries": entries}).replace(
        "Infinity", "1e999"
    )


FIRST_BAD_ENTRY = [
    ([[1, 0], [True, 0]], "entry 1 real part"),
    ([[1, 0], [0, None]], "entry 1 imaginary part"),
    ([[1, 0], [1, 1e999], ["x", 0], [0, 0]], "entry 1 imaginary part"),
    ([[1, 0], [0, 0], [1, 2, 3], [0, 0]], "entry 2 must be a"),
    ([[1, 0], 5], "entry 1 must be a"),
]


class TestLoadMatrix:
    def test_json_example_dimensions(self):
        m = load_matrix(EXAMPLE_JSON, "json")
        assert (m.rows, m.cols, m.size, m.depth) == (2, 4, 8, 3)
        assert m.entries.tolist() == [
            2 + 1j, -1 + 2j, 3 + 0j, -1j, 1 - 1j, 2j, -2 + 1j, 1 + 1j,
        ]

    def test_csv_matches_json(self):
        assert np.array_equal(
            load_matrix(EXAMPLE_CSV, "csv").entries,
            load_matrix(EXAMPLE_JSON, "json").entries,
        )

    @pytest.mark.parametrize("text", [
        "\ufeff1,2\n3,4\n",  # a spreadsheet export's byte-order mark
        " \n1,2\n\t\n3,4\n  \n",  # whitespace-only lines, as empty lines, are no rows
        "\ufeff\n1,2\n \n3,4",
    ])
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_csv_skips_a_byte_order_mark_and_blank_lines(self, text, as_bytes):
        m = load_matrix(text.encode() if as_bytes else text, "csv")
        assert m.entries.tolist() == [1, 2, 3, 4] and (m.rows, m.cols) == (2, 2)

    def test_bytes_input(self):
        m = load_matrix(EXAMPLE_JSON.encode(), "json")
        assert m.size == 8

    def test_pads_2x3_to_2x4(self):
        doc = json.dumps({"rows": 2, "cols": 3, "entries": [[1, 0]] * 6})
        m = load_matrix(doc, "json")
        assert (m.rows, m.cols) == (2, 4)
        assert (m.original_rows, m.original_cols) == (2, 3)
        assert np.array_equal(m.entries.reshape(m.rows, m.cols)[:, 3], [0, 0])

    def test_pads_3x1_rows(self):
        doc = json.dumps({"rows": 3, "cols": 1, "entries": [[1, 0]] * 3})
        m = load_matrix(doc, "json")
        assert (m.rows, m.cols) == (4, 1)
        assert m.entries[3] == 0

    def test_row_vector_allowed(self):
        doc = json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]]})
        assert load_matrix(doc, "json").size == 2

    def test_large_integers_match_float_conversion(self):
        big = [2 ** 60 + 1, 10 ** 30, -(2 ** 70) - 3]
        doc = json.dumps({"rows": 1, "cols": 4, "entries": [[b, 1] for b in big] + [[0.5, -0.0]]})
        m = load_matrix(doc, "json")
        assert m.entries.tolist() == [complex(float(b), 1.0) for b in big] + [0.5 + 0j]
        assert math.copysign(1.0, m.entries[3].imag) == -1.0

    def test_document_built_with_numpy_numbers(self):
        # a document built in Python may hold numpy numbers, which from_array takes too
        parts = [[np.float64(0.5), np.float32(-2.0)], [np.int64(3), 0.0]]
        m = ComplexMatrix.from_json_dict({"rows": 1, "cols": 2, "entries": parts})
        want = ComplexMatrix.from_array([[0.5 - 2j, 3]])
        assert m.entries.tolist() == want.entries.tolist() == [0.5 - 2j, 3 + 0j]


def _entries_doc(numbers: list[str]) -> str:
    """A 1 x n matrix whose real parts are the given number literals, written verbatim."""
    pairs = ", ".join(f"[{x}, 1]" for x in numbers)
    return f'{{"rows": 1, "cols": {len(numbers)}, "entries": [{pairs}]}}'


def _random_doc(seed: int, **kwargs) -> str:
    m = random_matrix(32, 32, seed=seed, **kwargs)  # K = 2^10
    parts = m.entries.view(np.float64).reshape(-1, 2).tolist()
    return json.dumps({"rows": 32, "cols": 32, "entries": parts})


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


SMALL = '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]]}'
EXAMPLE_FILE = (Path(__file__).resolve().parent.parent / "data" / "example_matrix.json").read_text()


def _pairs(m: ComplexMatrix) -> list:
    return m.entries.view(np.float64).reshape(-1, 2).tolist()


def _layouts(doc: dict) -> list[str]:
    """``doc`` as ``json.dumps`` writes it indented, compact and with its default separators."""
    return [json.dumps(doc, indent=2), json.dumps(doc, separators=(",", ":")), json.dumps(doc)]


def _with_entries(text: str) -> str:
    """SMALL with ``text`` in place of its entries."""
    return SMALL.replace("[[1, 0], [0, 1]]", text)


def _cols(n: int, pairs: str) -> str:
    """A 1 x n matrix document whose entries array holds ``pairs``."""
    return f'{{"rows": 1, "cols": {n}, "entries": [{pairs}]}}'


LAYOUTS = _layouts({"rows": 4, "cols": 4, "entries": _pairs(random_matrix(4, 4, seed=9))})
# documents that load_matrix reads flat, with no list per entry
FLAT_READABLE = [
    *LAYOUTS,
    EXAMPLE_JSON,
    SMALL.replace(" ", ""),
    _with_entries("[ [ 1 , 0 ] ,\n\t[ 0 , 1 ] ]"),
    '{"entries": [[1, 0], [0, 1]], "cols": 2, "rows": 1}',
    '{"id": 7, "rows": 1, "scale": 1.5, "cols": 2, "entries": [[1, 0], [0, 1]], "ok": true,'
    ' "tag": null, "name": "m", "": ""}',
    json.dumps({"rows": 2, "cols": 2, "entries": [[0, 0]] * 4}),  # refused all zero
    json.dumps({"rows": 1, "cols": 1, "entries": [[5, 0]]}),  # refused single cell
    json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0.5], [-2.0, 0]]}),  # ints and floats
    # literals and strings spelled with t, f or n lie outside the array's value scans
    '{"flag": false, "rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]], "note": "tfn"}',
    '{"t": true, "n": null, "f": "fnt", "rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]]}',
    '{"entries": [[1e0, 0], [0, 1E+0]], "rows": 1, "on": true, "cols": 2, "off": false,'
    ' "none": null, "fn": "nft"}',
    # one gap of whitespace other than spaces around the comma, at n = 2 and 3
    *(_with_entries(gap.join(["[1, 0]", "[0, 1]"])) for gap in ["\t,\t", "\n,\n", "\r,\r"]),
    *(_cols(3, gap.join(["[1, 0]", "[0, 1]", "[2, 2]"])) for gap in ["\t,", ",\n", "\r\n,\r\n"]),
    # one long gap: the junction gather reaches far back from each pair open
    _with_entries("[[1, 0]," + " " * 40 + "[0, 1]]"),
    _cols(4, ("," + " " * 40).join(["[1, 0]", "[0, 1]", "[2, 2]", "[3, 3]"])),
    # empty strings next to the object's braces and commas, before and after the array
    '{"":"","rows": 1, "cols": 2,"": "", "entries":[[1, 0], [0, 1]],"":""}',
    '{"": 1, "rows": 1, "": "", "cols": 2, "entries": [[1, 0], [0, 1]], "": ""}',
]
# documents whose gaps between pairs differ, read by the stdlib
ROW_BROKEN = [
    EXAMPLE_FILE,  # a row break is a second gap between pairs
    _with_entries("[[1, 0], [0, 1] ,[1, 1], [2, 2]]").replace('"cols": 2', '"cols": 4'),
    # a long first gap and compact later ones, and the reverse: each pair open
    # is checked against the first gap, so a later one gathers from inside the
    # pair before it, and never from before the first pair's close
    *(_cols(n, "[1, 0]," + " " * 40 + ",".join(["[0, 1]", "[2, 2]", "[3, 3]"][:n - 1]))
      for n in [3, 4]),
    *(_cols(n, ",".join(["[1, 0]", "[0, 1]", "[2, 2]"][:n - 1]) + "," + " " * 40 + "[3, 3]")
      for n in [3, 4]),
    _cols(3, "[1, 0],[0, 1],\n[2, 2]"),
    _cols(3, "[1, 0],\t[0, 1],\n[2, 2]"),
]

READER_CORPUS = [
    # the documents of TestLoadMatrix
    EXAMPLE_JSON,
    json.dumps({"rows": 1, "cols": 1, "entries": [[0, 0]]}),
    json.dumps({"rows": 2, "cols": 2, "entries": [[0, 0]] * 4}),
    json.dumps({"rows": 1, "cols": 1, "entries": [[5, 0]]}),
    json.dumps({"rows": 2, "cols": 3, "entries": [[1, 0]] * 6}),
    json.dumps({"rows": 3, "cols": 1, "entries": [[1, 0]] * 3}),
    json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]]}),
    json.dumps({"rows": 0, "cols": 4, "entries": []}),
    *MALFORMED_JSON,
    *(_row_doc(bad) for bad, _ in FIRST_BAD_ENTRY),
    _entries_doc(["1" + "0" * 400, "1"]),
    _entries_doc(["1" + "0" * 5000, "1"]),
    json.dumps({"rows": 1, "cols": 4,
                "entries": [[2 ** 60 + 1, 1], [10 ** 30, 1], [-(2 ** 70) - 3, 1], [0.5, -0.0]]}),
    "",
    # random K = 2^10 matrices
    _random_doc(1),
    _random_doc(2, real=True),
    _random_doc(3, zero_fraction=0.5),
    # number spellings, subnormals and underflow
    _entries_doc(["1E5", "1e+5", "-0", "-0.0", "5e-324", "2.2250738585072014e-308", "1e-400"]),
    _entries_doc(["1.00000000000000011102230246251565404236316680908203125",
                  "2.4703282292062328e-324", "1.7976931348623158e308", "0e0", "-0e-0"]),
    # integers past 53 and 64 bits
    _entries_doc([str(n) for n in (2 ** 53 + 1, 2 ** 63, 2 ** 64, 2 ** 64 + 1, 10 ** 30,
                                   -(2 ** 70) - 3)]),
    json.dumps({"rows": 2 ** 63, "cols": 1, "entries": [[1, 0]]}),
    # orjson reads these integers as floats: each is refused on its exact value
    *(json.dumps({"rows": n, "cols": 1, "entries": [[1, 0]]})
      for n in [2 ** 64, 2 ** 64 + 1, 10 ** 30, -(2 ** 63) - 1, -(10 ** 30)]),
    json.dumps({"rows": 1, "cols": -(2 ** 64), "entries": [[1, 0]]}),
    # whitespace and duplicate keys
    " \t\r\n" + EXAMPLE_JSON.replace(" ", "\n\t ") + "\r\n ",
    SMALL.replace(" ", ""),
    SMALL.replace(" ", "\x0c"),
    SMALL.replace(" ", "\u00a0"),
    SMALL.replace("[0, 1]", "[0, 1.5e0]").replace(" ", "\x0c"),
    '{"rows": 9, "rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]], "cols": 2}',
    '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]], "entries": [[0, 0], [0, 0]]}',
    # text orjson refuses, and escapes
    "\ufeff" + SMALL,
    SMALL[:-1] + ', "note": "\u00e9\\n\\u00e9\\""}',
    SMALL[:-1] + ', "note": "\\ud800"}',
    SMALL.replace("[1, 0]", '["\\ud800", 0]'),
    SMALL[:-1] + ', "note": "\ud800"}',
    # numbers orjson refuses
    _entries_doc(["NaN", "1"]),
    _entries_doc(["1", "-Infinity"]),
    _entries_doc(["1e999", "1"]),
    _entries_doc(["1.7976931348623159e308", "1"]),
    SMALL[:-1] + ', "note": [NaN, Infinity, 1e999]}',
    SMALL[:-1] + ', "note": ' + "9" * 401 + "}",
    SMALL[:-1] + ', "note": ' + "9" * 5001 + "}",
    # deep nesting, up to and past the stdlib's recursion limit
    _nested(128),
    _nested(129),
    _nested(300),
    SMALL[:-1] + ', "note": ' + _nested(128) + "}",
    SMALL[:-1] + ', "note": ' + _nested(200) + "}",
    SMALL[:-1] + ', "note": "' + "[" * 300 + '"}',
    _nested(2000),
    SMALL.replace("[1, 0]", _nested(2000)),
    SMALL[:-1] + ', "note": ' + _nested(2000) + "}",
    # json.dumps layouts, keys in every order, extra scalar keys
    *FLAT_READABLE,
    *ROW_BROKEN,
    *(json.dumps(dict(keys)) for keys in itertools.permutations(
        [("rows", 1), ("cols", 2), ("entries", [[1, 0], [0.5, -2]])])),
    # strings that hold a structural byte, and other arrays or objects beside the pairs
    *(SMALL[:-1] + f', "note": "{text}"}}' for text in ["[", "]", ",", "a, b", "[,]", "{", '"']),
    '{"]": 1, ' + SMALL[1:],
    _with_entries('[[1, 0], ["[", 1]]'),
    SMALL[:-1] + ', "meta": {"a": 1}}',
    SMALL[:-1] + ', "note": [1, 2]}',
    SMALL[:-1] + ', "cells": [1, 2]}',
    SMALL[:-1] + ', "cells": 3}',
    # pairs of other lengths, and values beside or inside the pairs
    *(_with_entries(text) for text in [
        "[[1, 0], [0]]", "[[1, 0], [0, 1, 2]]", "[[1, 0], []]", "[[1], [0, 1, 2]]",
        "[[1, 0], 5, [0, 1]]", "[5, [1, 0], [0, 1]]", "[[1, 0], [0, 1], 5]",
        "[1[, 0], [0, 1]]", "[[1, 0], [0, ]1]", "[[1, 0]5, [, 1]]", "[[1, 0], 1[, 1]]",
        "[[1, 0], [0, true]]", "[[null, 0], [0, 1]]", '[["1", 0], [0, 1]]', "[[1, 0], [0, -]]",
    ]),
    # a value that is not a number, found by the byte scans of the array
    *(_with_entries(text) for value in ['""', '"e"', "false", "null"]
      for text in [f"[[1, {value}], [0, 1]]", f"[[1, 0], [0, {value}]]"]),
    _with_entries("[[1, 0], [0, 1]1, [, 1], [2, 2]]").replace('"cols": 2', '"cols": 4'),
    _with_entries("[[1, 0], [0, 1], 1[, 1], [2, 2]]").replace('"cols": 2', '"cols": 4'),
    # missing and doubled commas
    *(_with_entries(text) for text in [
        "[[1 0], [0, 1]]", "[[1, 0] [0, 1]]", "[[1,, 0], [0, 1]]", "[[1, 0],, [0, 1]]",
        "[[1, 0], [0, 1],]", "[, [1, 0], [0, 1]]", "[[, 1, 0], [0, 1]]",
    ]),
    SMALL.replace('"rows": 1,', '"rows": 1'),
    SMALL.replace('"rows": 1,', '"rows": 1,,'),
    SMALL + ",",
    SMALL + " 1",
    # dimensions that do not fit the pairs, and duplicate entries
    json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0]] * 5}),
    json.dumps({"rows": 1, "cols": 1, "entries": [[1, 0], [0, 1]]}),
    json.dumps({"rows": 1, "cols": 1, "entries": []}),
    json.dumps({"rows": True, "cols": 2, "entries": [[1, 0], [0, 1]]}),
    json.dumps({"rows": 1.0, "cols": 2, "entries": [[1, 0], [0, 1]]}),
    SMALL[:-1] + ', "entries": 5}',
    '{"entries": 5, ' + SMALL[1:],
    # a memory image
    build_memory_image(random_matrix(2, 4, seed=1), 16, "complex")[0].to_json(),
    # documents that are not objects, or that hide brackets in strings or trail text
    "1",
    "[]",
    '{"a": [[1, 2], {"b": []}]}',
    '["]]]]", [[[]]]]',
    '{"a": "[[[[{{{{"}',
    '["", "[", "]"] [[',
    # one gap, n = 2: a long one either side of the comma
    _with_entries("[[1, 0]" + " " * 40 + ", [0, 1]]"),
    _with_entries("[[1, 0] ,\t\t\t\t\t\t\t\t\t\t[0, 1]]"),
    # strings beside the outer brackets and inside the array
    '{"rows": 1, "cols": 2, "entries":[""[1, 0], [0, 1]]}',
    '{"rows": 1, "cols": 2, "entries":["", [1, 0], [0, 1]]}',
    '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1], ""]}',
    '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]""]}',
    '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]]""}',
    '{"rows": 1, "cols": 2, "entries""[[1, 0], [0, 1]]}',
    '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]],"""":""}',
    '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]], """}',
    '{"""rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]]}',
    '{"rows": 1, "cols": 2, "entries": [[1, ""], [0, 1]]}',
    '{"rows": 1, "cols": 2, "entries": [[1, 0],"" [0, 1]]}',
    # byte-order marks: one leading mark is dropped before either reading, a
    # second one or one after a space is refused
    "\ufeff" + EXAMPLE_FILE,
    "\ufeff\ufeff" + SMALL,
    " \ufeff" + SMALL,
    "\ufeff" + json.dumps({"rows": 1, "cols": 1, "entries": [[1, 0]], "note": "\ufeff"}),
]

BYTE_CORPUS = [
    b"\xef\xbb\xbf" + SMALL.encode(),
    SMALL.encode()[:-1] + b', "note": "\xff"}',
    SMALL.encode()[:-1] + b', "note": "\xc3"}',
    b"\xff" + SMALL.encode(),
    b"\xef\xbb\xbf" * 2 + SMALL.encode(),
    b"\xef\xbb\xbf" + EXAMPLE_FILE.encode(),
    b"\xef\xbb" + SMALL.encode(),  # a mark cut short is not UTF-8
]


def _outcome(read, source):
    try:
        m = read(source)
    except QramPrepError as exc:
        return type(exc), str(exc)
    return m.rows, m.cols, m.original_rows, m.original_cols, m.entries.tobytes()


def _stdlib_reading(source):
    # the reference: one leading byte-order mark dropped, as load_matrix drops it, then the stdlib
    mark = "\ufeff" if isinstance(source, str) else "\ufeff".encode()
    return ComplexMatrix.from_json_dict(read_json_stdlib(source.removeprefix(mark)))


def assert_reads_like_stdlib(source):
    assert _outcome(lambda s: load_matrix(s, "json"), source) == _outcome(_stdlib_reading, source)


class TestReaderDifferential:
    """``load_matrix`` against the stdlib reading: same matrix bit for bit, or same refusal."""

    @pytest.mark.parametrize("doc", READER_CORPUS, ids=range(len(READER_CORPUS)))
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_corpus(self, doc, as_bytes):
        assert_reads_like_stdlib(doc.encode("utf-8", "surrogatepass") if as_bytes else doc)

    @pytest.mark.parametrize("data", BYTE_CORPUS, ids=range(len(BYTE_CORPUS)))
    def test_byte_corpus(self, data):
        assert_reads_like_stdlib(data)

    def test_corpus_reaches_both_readers(self, monkeypatch):
        stdlib = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: stdlib.append(text) or loads(text))
        for doc in READER_CORPUS:
            try:
                matrix._read_matrix_json(doc)
            except QramPrepError:
                pass
        assert 0 < len(stdlib) < len(READER_CORPUS)

    def test_valid_document_never_reaches_the_stdlib(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called on a regular document")

        monkeypatch.setattr(json, "loads", refuse)
        assert load_matrix(EXAMPLE_JSON.encode(), "json").size == 8

    def test_deep_nesting_refused_without_a_crash(self):
        # orjson 3.8 overflows the C stack on arrays ~150k deep instead of refusing them
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "from qramprep.errors import ParseError\n"
            "from qramprep.matrix import load_matrix\n"
            "deep = b'[' * 400000 + b']' * 400000\n"
            "for doc in (deep, b'{\"rows\": 1, \"cols\": 2, \"entries\": ' + deep + b'}'):\n"
            "    try:\n"
            "        load_matrix(doc, 'json')\n"
            "    except ParseError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("ParseError invalid JSON: maximum recursion") for line in lines)

    def test_signed_zeros_kept(self):
        m = load_matrix(_entries_doc(["-0.0", "0.0", "-0"]), "json")
        assert [math.copysign(1.0, x) for x in m.entries.real[:3]] == [-1.0, 1.0, 1.0]

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from([doc.encode() for doc in FLAT_READABLE + ROW_BROKEN]), st.data())
    def test_one_byte_edit(self, doc, data):
        # each edit of a regular document is read flat, nested, or refused, as the stdlib does
        edits = b'[],"1t'
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(doc)))
            edited = doc[:at] + bytes([data.draw(st.sampled_from(edits))]) + doc[at:]
        else:
            at = data.draw(st.sampled_from([i for i, b in enumerate(doc) if b in edits]))
            edited = doc[:at] + doc[at + 1:]
        assert_reads_like_stdlib(edited)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers()),
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers()),
        ),
        min_size=1, max_size=9,
    ))
    def test_finite_floats_and_unbounded_integers(self, pairs):
        doc = json.dumps({"rows": 1, "cols": len(pairs), "entries": pairs})
        assert_reads_like_stdlib(doc)
        assert_reads_like_stdlib(doc.encode())


def _refuse_nested_reading(monkeypatch):
    def refuse(entries):
        raise AssertionError("entries read as a list per entry")

    monkeypatch.setattr(matrix, "_entry_array", refuse)


class TestFlatReading:
    """Which documents are read flat, so that the nested reading (``_entry_array``) never
    runs, and which are not."""

    @pytest.mark.parametrize("doc", FLAT_READABLE, ids=range(len(FLAT_READABLE)))
    def test_read_flat(self, doc, monkeypatch):
        want = _outcome(_stdlib_reading, doc)
        _refuse_nested_reading(monkeypatch)
        assert _outcome(lambda s: load_matrix(s, "json"), doc) == want

    @pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")], ids=["spaced", "compact"])
    def test_large_document_read_flat(self, separators, monkeypatch):
        # 65,536 pairs: the junction gather checks 65,535 gaps
        m = random_matrix(256, 256, seed=33)
        doc = json.dumps({"rows": 256, "cols": 256, "entries": _pairs(m)}, separators=separators)
        want = _outcome(_stdlib_reading, doc)
        _refuse_nested_reading(monkeypatch)
        assert _outcome(lambda s: load_matrix(s, "json"), doc) == want
        assert want[-1] == m.entries.tobytes()

    @pytest.mark.parametrize("doc", ROW_BROKEN, ids=range(len(ROW_BROKEN)))
    def test_row_broken_document_is_read_by_the_stdlib(self, doc, monkeypatch):
        # one gap is blanked everywhere: a second gap leaves the document to
        # the stdlib reading, whose entries reach the pair check once
        want = _outcome(_stdlib_reading, doc)
        calls, entry_array = [], matrix._entry_array
        monkeypatch.setattr(matrix, "_entry_array", lambda e: calls.append(e) or entry_array(e))
        assert _outcome(lambda s: load_matrix(s, "json"), doc) == want
        assert len(calls) == 1


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark is dropped before the JSON is read, flat or by the
    stdlib; the matrix is the one read without it."""

    @staticmethod
    def refuse(text):
        raise AssertionError("json.loads called on a regular document")

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_flat_reading(self, as_bytes, monkeypatch):
        want = load_matrix(EXAMPLE_JSON, "json")
        _refuse_nested_reading(monkeypatch)
        monkeypatch.setattr(json, "loads", self.refuse)
        doc = "\ufeff" + EXAMPLE_JSON
        got = load_matrix(doc.encode() if as_bytes else doc, "json")
        assert got.entries.tobytes() == want.entries.tobytes()
        assert (got.rows, got.cols) == (want.rows, want.cols)

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_stdlib_reading(self, as_bytes, monkeypatch):
        want = load_matrix(EXAMPLE_FILE, "json")
        texts, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text: texts.append(text) or loads(text))
        doc = "\ufeff" + EXAMPLE_FILE  # row-broken: read by the stdlib
        got = load_matrix(doc.encode() if as_bytes else doc, "json")
        assert got.entries.tobytes() == want.entries.tobytes()
        assert texts == [EXAMPLE_FILE]

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_second_mark_is_refused(self, as_bytes):
        doc = "\ufeff\ufeff" + SMALL
        with pytest.raises(ParseError, match="^invalid JSON: Unexpected UTF-8 BOM"):
            load_matrix(doc.encode() if as_bytes else doc, "json")


CSV_PARTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -1e308]))
CSV_FORMS = ["repr", "exponent", "spaced", "real", "imaginary", "unit"]


def csv_literal(re, im, form):
    """(value, README literal) of the parts ``re`` and ``im`` in ``form``.

    Both parts in ``repr`` or 17-digit exponent notation, with or without
    spaces around the joining sign; or one part, the other +0.0; or +-i.
    """
    sign = "-" if math.copysign(1.0, im) < 0 else "+"
    if form == "real":
        return complex(re, 0.0), repr(re)
    if form == "imaginary":
        return complex(0.0, im), f"{im!r}i"
    if form == "unit":
        return complex(0.0, float(f"{sign}1")), sign.lstrip("+") + "i"
    number = "{:.16e}".format if form == "exponent" else repr
    gap = " " if form == "spaced" else ""
    return complex(re, im), f"{gap}{number(re)}{gap}{sign}{gap}{number(abs(im))}i{gap}"


class TestComplexLiteral:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", 3 + 0j),
            ("-i", -1j),
            ("i", 1j),
            ("2i", 2j),
            ("1+i", 1 + 1j),
            ("-1+2i", -1 + 2j),
            ("1.5-0.5i", 1.5 - 0.5j),
            ("1e-3+2.5i", 1e-3 + 2.5j),
            (" 2 + 1i ", 2 + 1j),
        ],
    )
    def test_forms(self, text, value):
        assert parse_complex_literal(text) == value

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.data())
    def test_csv_reads_every_form_back_bit_identical(self, rows, cols, data):
        # a one-part form denotes +0.0 for the other part, as complex() reads it
        n = rows * cols
        parts = data.draw(st.lists(st.tuples(CSV_PARTS, CSV_PARTS), min_size=n, max_size=n))
        forms = data.draw(st.lists(st.sampled_from(CSV_FORMS), min_size=n, max_size=n))
        values, cells = zip(*(csv_literal(re, im, form) for (re, im), form in zip(parts, forms)))
        assume(any(values))

        def document(cells):
            return "".join(",".join(cells[i:i + cols]) + "\n" for i in range(0, n, cols))

        m = load_matrix(document(cells), "csv")
        got = m.entries.reshape(m.rows, m.cols)[:rows, :cols].reshape(-1)
        assert got.view(np.uint64).tolist() == np.array(values).view(np.uint64).tolist()
        # the same values with a space inside one number are refused
        z = values[data.draw(st.integers(0, n - 1))]
        numbers = [repr(abs(z.real)), repr(abs(z.imag))]
        which = data.draw(st.integers(0, 1))
        cut = data.draw(st.integers(1, len(numbers[which]) - 1))
        numbers[which] = numbers[which][:cut] + " " + numbers[which][cut:]
        sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
        bad = f"{'-' if math.copysign(1.0, z.real) < 0 else ''}{numbers[0]}{sign}{numbers[1]}i"
        with pytest.raises(ParseError, match="^bad complex literal"):
            load_matrix(document([bad, *cells[1:]]), "csv")


class TestSquaredModuli:
    def test_example_values(self, example):
        got = squared_moduli(example)
        assert got.tolist() == [5, 5, 9, 1, 2, 4, 5, 2]
        assert math.fsum(got.tolist()) == 33

    def test_uniform(self):
        m = ComplexMatrix.from_array([[1, 1], [1, 1]])
        assert squared_moduli(m).tolist() == [1, 1, 1, 1]

    def test_matches_complex_arithmetic_oracle(self):
        m = random_matrix(8, 8, seed=11)
        oracle = [abs(complex(a)) ** 2 for a in m.entries]
        assert np.allclose(squared_moduli(m), oracle, rtol=1e-14, atol=0)

    def test_frobenius_conservation(self):
        for seed in range(5):
            m = random_matrix(16, 8, seed=seed, zero_fraction=0.3)
            compensated = math.fsum(
                a.real * a.real + a.imag * a.imag for a in map(complex, m.entries)
            )
            assert math.isclose(
                float(np.sum(squared_moduli(m))), compensated, rel_tol=1e-12
            )


class TestScaledModuli:
    @pytest.mark.parametrize("e", [-1000, -600, 0, 600, 1020])
    def test_power_of_two_scaling_is_exact(self, e):
        m = random_matrix(8, 8, seed=4, zero_fraction=0.2)
        grid = m.entries.reshape(m.rows, m.cols)
        scaled = ComplexMatrix.from_array(np.ldexp(grid.real, e) + 1j * np.ldexp(grid.imag, e))
        moduli, exponent = scaled_moduli(scaled)
        want, base = scaled_moduli(m)
        assert exponent == base + e
        assert np.array_equal(moduli, want)

    def test_ordinary_scale_keeps_the_raw_squares(self):
        # at ordinary scales the scaled squares are the raw ones times an exact power of two
        m = random_matrix(8, 8, seed=12)
        moduli, e = scaled_moduli(m)
        assert np.array_equal(np.ldexp(moduli, 2 * e), squared_moduli(m))


class TestPadding:
    def test_padded_entries_are_exact_zero(self):
        m = ComplexMatrix.from_array([[1 + 1j, 2], [3, 4], [5, 6]])
        assert (m.rows, m.cols) == (4, 2)
        assert not m.entries.reshape(m.rows, m.cols)[3, :].any()

    def test_huge_integer_entry_accepted(self):
        m = ComplexMatrix.from_array([[2 ** 70, 1]])
        assert m.entries.tolist() == [2.0 ** 70, 1.0]

    def test_one_dimensional_input_is_one_row(self):
        m = ComplexMatrix.from_array([1, 2, 3])
        assert (m.rows, m.cols, m.original_rows, m.original_cols) == (1, 4, 1, 3)


def _no_scan(x, real=False):
    raise AssertionError(f"a numeric ndarray was checked element by element at {x!r}")


class TestNumericArraysUnscanned:
    """A numeric ndarray is read with no check per element, and no copy where its dtype fits."""

    @pytest.mark.parametrize("make", [
        *(lambda dtype=dtype: ComplexMatrix.from_array(np.arange(1, 9, dtype=dtype).reshape(2, 4))
          for dtype in [np.complex128, np.complex64, np.float64, np.float32, np.int64, np.uint8]),
        lambda: load_matrix(EXAMPLE_JSON, "json"),  # the flat reading
        lambda: load_matrix(EXAMPLE_CSV, "csv"),
        lambda: random_matrix(4, 4, seed=1),
    ])
    def test_pipeline(self, monkeypatch, make):
        monkeypatch.setattr(errors, "is_number", _no_scan)
        m = make()
        for sim in ("fixed", "ideal"):
            state, _, _ = run_preparation(m, 8, sim=sim)
            assert state_error(state, oracle_state(m)) <= 4 * error_bound(m.depth, 8)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_fitting_dtype_is_not_copied(self, dtype):
        values = np.arange(4, dtype=dtype)
        assert errors.number_array(values, dtype, ParseError, "values") is values


class TestRandomMatrix:
    def test_deterministic(self):
        a = random_matrix(4, 4, seed=7)
        b = random_matrix(4, 4, seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_real_mode(self):
        m = random_matrix(4, 4, seed=7, real=True)
        assert not m.entries.imag.any()

    def test_complex_entries_are_two_normal_draws(self):
        rng = np.random.default_rng(0)
        real = rng.standard_normal((4, 4))
        want = real + 1j * rng.standard_normal((4, 4))
        assert np.all(want.imag != 0.0)
        assert np.array_equal(random_matrix(4, 4, seed=0).entries, want.reshape(-1))

    def test_large_and_numpy_integer_seeds(self):
        assert random_matrix(2, 2, seed=1 << 70).entries.any()
        assert np.array_equal(random_matrix(2, 2, seed=np.int64(7)).entries,
                              random_matrix(2, 2, seed=7).entries)

    def test_never_all_zero(self):
        m = random_matrix(2, 2, seed=0, zero_fraction=1.0)
        assert m.entries.any()
