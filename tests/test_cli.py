import dataclasses
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import orjson
import pytest
from hypothesis import given, settings, strategies as st

import qramprep
from qramprep import cli, matrix, simulator, verify
from qramprep.cli import build_parser, main
from qramprep.matrix import ComplexMatrix, load_matrix, random_matrix
from qramprep.memory import MemoryImage, build_memory_image, cell_width
from qramprep.simulator import dump_state, prepare_complex
from qramprep.verify import (
    ERROR_SLACK,
    error_bound,
    oracle_state,
    precision_sweep,
    quantized_oracle,
    resource_report,
    run_preparation,
    state_error,
    sweep_csv,
)
from test_matrix import BYTE_CORPUS, READER_CORPUS

DATA = Path(__file__).resolve().parent.parent / "data" / "example_matrix.json"


@pytest.fixture
def example_path(tmp_path):
    dst = tmp_path / "example_matrix.json"
    shutil.copy(DATA, dst)
    return dst


class TestExampleCommand:
    def test_passes(self, capsys):
        # exact where the values are exact; the round-off deviations only by their form
        assert main(["example"]) == 0
        lines = capsys.readouterr().out.splitlines()
        deviation = r"\d\.\d\de[-+]\d\d"
        want = [
            "worked example: 2x4 complex matrix, K=8, k=3",
            "  squared moduli: ok ([5.0, 5.0, 9.0, 1.0, 2.0, 4.0, 5.0, 2.0])",
            "  normalization: ok (sum 33.0 == 33.0)",
            "  tree level 0: ok ([33.0])",
            "  tree level 1: ok ([20.0, 13.0])",
            "  tree level 2: ok ([10.0, 10.0, 6.0, 7.0])",
            rf"  splitting angles z=1..7: ok \(max deviation {deviation} <= 0.001\)",
            rf"  leaf phases z=0..7: ok \(max deviation {deviation} <= 0.001\)",
            *(line for h in (1, 2, 3) for line in (
                f"  step 1 iteration h={h} branches: ok ({1 << h} branches on the marker addresses)",
                rf"  step 1 iteration h={h} moduli: ok \(max deviation {deviation}\)",
            )),
            rf"  final state vs normalized entries: ok \(l2 error {deviation}\)",
            "  query ledger: ok (8 queries, routing_time 24)",
            "worked example: all checks passed",
        ]
        assert len(lines) == len(want)
        for line, pattern in zip(lines, want):
            assert line == pattern or "\\d" in pattern and re.fullmatch(pattern, line), line


def replay_error(capsys, name: str) -> str:
    """Run a replay that must fail at check ``name``; return the detail of its one error line."""
    assert main(["example"]) == 1
    out, err = capsys.readouterr()
    prefix = f"error: {name}: "
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
    detail = err[len(prefix):-1]
    assert out.splitlines()[-1] == f"  {name}: MISMATCH ({detail})"
    assert "all checks passed" not in out
    return detail


class TestExampleChecksFail:
    """Each check of the replay fails it alone, with its own ``error:`` line."""

    @pytest.mark.parametrize("table,index,name", [
        ("EXAMPLE_SQUARED_MODULI", 2, "squared moduli"),
        ("EXAMPLE_ANGLES", 6, "splitting angles z=1..7"),
        ("EXAMPLE_PHASES", 0, "leaf phases z=0..7"),
    ])
    def test_recorded_entry(self, monkeypatch, capsys, table, index, name):
        values = list(getattr(cli, table))
        values[index] += 0.01
        monkeypatch.setattr(cli, table, values)
        replay_error(capsys, name)

    @pytest.mark.parametrize("h,name", [(0, "normalization"), (1, "tree level 1"),
                                        (2, "tree level 2")])
    def test_recorded_tree_level(self, monkeypatch, capsys, h, name):
        levels = [list(level) for level in cli.EXAMPLE_TREE_LEVELS]
        levels[h][0] += 1.0
        monkeypatch.setattr(cli, "EXAMPLE_TREE_LEVELS", levels)
        replay_error(capsys, name)

    @staticmethod
    def patch_run(monkeypatch, at_iteration=None, at_end=None):
        """Make the replay's run pass its states and result through the given edits."""
        prepare = cli.prepare_complex

        def edited(image, *, on_iteration):
            def hook(h, state):
                on_iteration(h, at_iteration(h, state) if at_iteration else state)

            state, ledger = prepare(image, on_iteration=hook)
            return at_end(state, ledger) if at_end else (state, ledger)

        monkeypatch.setattr(cli, "prepare_complex", edited)

    @staticmethod
    def edit_branches(state, edit):
        branches = dict(state.branches)
        edit(branches)
        return dataclasses.replace(state, branches=branches)

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_iteration_branches(self, monkeypatch, capsys, h):
        def drop_last(at, state):
            return self.edit_branches(state, lambda b: b.pop(max(b))) if at == h else state

        self.patch_run(monkeypatch, at_iteration=drop_last)
        detail = replay_error(capsys, f"step 1 iteration h={h} branches")
        assert detail == f"{(1 << h) - 1} branches on the marker addresses"

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_iteration_moduli(self, monkeypatch, capsys, h):
        def grow_first(at, state):
            if at != h:
                return state
            return self.edit_branches(state, lambda b: b.update({min(b): b[min(b)] * 1.001}))

        self.patch_run(monkeypatch, at_iteration=grow_first)
        detail = replay_error(capsys, f"step 1 iteration h={h} moduli")
        assert detail.startswith("max deviation ") and float(detail.split()[-1]) > 1e-4

    def test_final_state(self, monkeypatch, capsys):
        # a sign flip on one entry keeps every modulus, the norm and the ledger
        def flip_first(state, ledger):
            return self.edit_branches(state, lambda b: b.update({min(b): -b[min(b)]})), ledger

        self.patch_run(monkeypatch, at_end=flip_first)
        detail = replay_error(capsys, "final state vs normalized entries")
        assert detail.startswith("l2 error ") and float(detail.split()[-1]) > 0.1

    def test_query_ledger(self, monkeypatch, capsys):
        def extra_query(state, ledger):
            ledger.query_count += 1
            return state, ledger

        self.patch_run(monkeypatch, at_end=extra_query)
        assert replay_error(capsys, "query ledger") == "9 queries, routing_time 27"


class TestPreprocess:
    def test_writes_image(self, example_path, tmp_path, capsys):
        out_path = tmp_path / "image.json"
        rc = main([
            "preprocess", "--input", str(example_path),
            "--output", str(out_path), "--t", "12",
        ])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["mode"] == "complex" and doc["t"] == 12 and doc["k"] == 3
        assert len(doc["cells"]) == 8
        assert doc["cells"][0] >> 12 == 0  # dummy angle field
        out = capsys.readouterr().out
        assert "preprocessing_ops: 15" in out

    def test_real_matrix_in_complex_mode_ok(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1,-2\n0,3\n")
        rc = main(["preprocess", "--input", str(src), "--output",
                   str(tmp_path / "img.json"), "--mode", "complex"])
        assert rc == 0

    def test_real_signed_mode_rejects_complex(self, example_path, tmp_path, capsys):
        rc = main(["preprocess", "--input", str(example_path), "--output",
                   str(tmp_path / "img.json"), "--mode", "real_signed"])
        assert rc == 1
        assert "imaginary" in capsys.readouterr().err

    def test_deterministic_output(self, example_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["preprocess", "--input", str(example_path), "--output", str(a)])
        main(["preprocess", "--input", str(example_path), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "img.json"
        assert main(["preprocess", "--random", "3x5", "--mode", "real_signed", "--t", "12",
                     "--output", str(out_path)]) == 0
        assert capsys.readouterr().out == (
            "matrix: 3x5 padded to 4x8 (K=32)\n"
            "cells: 32 x 13 bits = 416 bits\n"
            "preprocessing_ops: 63\n"
            f"wrote {out_path}\n"
        )
        assert main(["preprocess", "--random", "3x5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "preprocessing_ops: 63"


def image_document(cells: list[int], t: int, mode: str) -> str:
    """An image document of ``cells`` through the json module's indented encoder."""
    doc = {"mode": mode, "t": t, "k": len(cells).bit_length() - 1, "cells": cells}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def indented_image_json(img: MemoryImage) -> str:
    """The image document through the json module's indented encoder."""
    return image_document(list(img.cells), img.t, img.mode)


def assert_same_text(got: str, want: str) -> None:
    """Name the first differing offset: pytest's diff of megabyte strings takes minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ from offset {at}: {got[at:at + 40]!r} != {want[at:at + 40]!r}")


def edge_cells(width: int, size: int) -> list[int]:
    """``size`` cells of ``width`` bits: 0, the widest, the word edges that fit, then random."""
    words = (2**63 - 1, 2**63, 2**64 - 1, 2**64)
    edges = [0, (1 << width) - 1, *(c for c in words if c >> width == 0)]
    rng = random.Random(width)
    return (edges + [rng.getrandbits(width) for _ in range(size - len(edges))])[:size]


class TestIndentedImageWriter:
    """``MemoryImage.to_json`` against the json module's indented encoder, byte for byte.

    Cells of at most 64 bits take orjson's writer, wider ones the repr writer.
    """

    # widths 64 and 63 fill a machine word; 66 and 124 spill past it
    EDGE_SHAPES = [("complex", 32), ("real_signed", 62), ("complex", 33), ("complex", 62)]

    @pytest.mark.parametrize("size", [2, 4, 2**16])
    @pytest.mark.parametrize("mode,t", EDGE_SHAPES)
    def test_word_edge_cells(self, mode, t, size):
        cells = edge_cells(cell_width(t, mode), size)
        img = MemoryImage(cells=cells, t=t, mode=mode)
        assert_same_text(img.to_json(), image_document(cells, t, mode))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_field_arrays(self, data):
        mode = data.draw(st.sampled_from(["complex", "real_signed"]))
        t = data.draw(st.integers(2, 62))
        aux_width = cell_width(t, mode) - t
        k = data.draw(st.integers(1, 6))
        fields = st.tuples(st.integers(0, 2**t - 1), st.integers(0, 2**aux_width - 1))
        pairs = data.draw(st.lists(fields, min_size=1 << k, max_size=1 << k))
        cells = [angle << aux_width | aux for angle, aux in pairs]
        img = MemoryImage(cells=cells, t=t, mode=mode)
        assert img.to_json() == image_document(cells, t, mode)

    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_matches_json_dumps_at_every_t(self, mode):
        m = random_matrix(4, 4, seed=12, real=mode == "real_signed")
        for t in range(2, 63):
            img, _ = build_memory_image(m, t, mode)
            assert img.to_json() == indented_image_json(img), t

    def test_cli_output_is_json_dumps_with_indent(self, example_path, tmp_path):
        out_path = tmp_path / "image.json"
        assert main(["preprocess", "--input", str(example_path), "--output", str(out_path),
                     "--t", "40"]) == 0
        img, _ = build_memory_image(load_matrix(example_path.read_bytes(), "json"), 40, "complex")
        assert out_path.read_text() == indented_image_json(img)

    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_two_cells(self, mode):
        img, _ = build_memory_image(ComplexMatrix.from_array([[1.0, -1.0]]), 16, mode)
        assert img.size == 2
        assert img.to_json() == indented_image_json(img)

    @pytest.mark.parametrize("t", [32, 40])
    def test_k16_image(self, t):
        # 64-bit cells (t = 32) join as machine words, 80-bit ones (t = 40) as Python ints
        img, _ = build_memory_image(random_matrix(256, 256, seed=16), t, "complex")
        assert_same_text(img.to_json(), indented_image_json(img))


def count_parses(monkeypatch) -> list[str]:
    """The list that names, in call order, the module of every json or orjson ``loads``."""
    calls = []

    def counting(module):
        loads = module.loads

        def parse(*args, **kwargs):
            calls.append(module.__name__)
            return loads(*args, **kwargs)

        monkeypatch.setattr(module, "loads", parse)

    counting(json)
    counting(orjson)
    return calls


class TestJsonInput:
    @pytest.mark.parametrize("command", [["preprocess"], ["prepare"], ["sweep", "--t", "8"]])
    def test_matrix_file_is_parsed_once(self, example_path, monkeypatch, capsys, command):
        # the example file breaks its rows, so the stdlib reads it
        calls = count_parses(monkeypatch)
        assert main([*command, "--input", str(example_path)]) == 0
        assert calls == ["json"]

    def test_matrix_file_is_read_flat(self, tmp_path, monkeypatch, capsys):
        def refuse(entries):
            raise AssertionError("entries read as a list per entry")

        src = tmp_path / "m.json"
        src.write_text(json.dumps(json.loads(DATA.read_text()), indent=2))
        calls = count_parses(monkeypatch)
        monkeypatch.setattr(matrix, "_entry_array", refuse)
        assert main(["preprocess", "--input", str(src)]) == 0
        assert "K=8" in capsys.readouterr().out
        assert calls == ["orjson"]

    def test_matrix_document_with_cells_is_an_image(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        src.write_text('{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]], "cells": 3}')
        assert main(["preprocess", "--input", str(src)]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: memory image document missing key: 'mode'\n")

    @pytest.mark.parametrize(
        "mode,t", [("complex", 16), ("complex", 32), ("complex", 40), ("real_signed", 62)]
    )
    def test_image_file_is_parsed_once(self, tmp_path, monkeypatch, capsys, mode, t):
        img_path = tmp_path / "img.json"
        assert main(["preprocess", "--random", "8x8", "--mode", mode, "--t", str(t),
                     "--output", str(img_path)]) == 0
        calls = count_parses(monkeypatch)
        assert main(["prepare", "--input", str(img_path)]) == 0
        assert calls == ["json"]

    def test_wide_image_cells_read_exactly(self, example_path, tmp_path, monkeypatch, capsys):
        # complex cells at t = 40 are 80 bits wide, past a machine word
        img_path, out_path = tmp_path / "img.json", tmp_path / "state.json"
        assert main(["preprocess", "--input", str(example_path), "--t", "40",
                     "--output", str(img_path)]) == 0
        capsys.readouterr()
        doc = json.loads(img_path.read_text())
        assert max(doc["cells"]) >= 2 ** 64
        calls = count_parses(monkeypatch)
        assert main(["prepare", "--input", str(img_path), "--output", str(out_path)]) == 0
        assert calls == ["json"]
        img = MemoryImage.from_json_dict(doc)
        state, _ = prepare_complex(img)
        assert capsys.readouterr().out == (
            f"queries: 8\nrouting_time: 24\nnorm_error: {abs(state.norm() - 1.0):.6e}\n"
            f"work_clean: True\nmarker_set: True\n"
            f"model_error: {state_error(state, quantized_oracle(img)):.6e}\n"
            f"status: PASS\nwrote {out_path}\n"
        )
        assert out_path.read_text() == json.dumps(dump_state(state), sort_keys=True) + "\n"

    @pytest.mark.parametrize("key,value,message", [
        ("cells", 2**64, "cell 2 does not fit in 64 bits"),
        ("cells", -2**63 - 1, "cell 2 does not fit in 64 bits"),
        ("cells", 1.0, "cell 2 is not an unsigned integer: 1.0"),
        ("t", 2**70, "t must be an integer in [2, 62], got 1180591620717411303424"),
        ("k", 2**70, "k = 1180591620717411303424 needs 2**k cells, got 4"),
    ])
    def test_image_refusals_name_exact_values(self, tmp_path, capsys, key, value, message):
        # integers past a machine word are refused by their exact values
        doc = json.loads(image_document(edge_cells(64, 4), 32, "complex"))
        if key == "cells":
            doc["cells"][2] = value
        else:
            doc[key] = value
        src = tmp_path / "img.json"
        src.write_text(json.dumps(doc))
        assert main(["prepare", "--input", str(src)]) == 1
        assert capsys.readouterr().err == f"error: {src}: {message}\n"

    @pytest.mark.parametrize("cell,shown", [(1.5, "1.5"), (True, "True"), (None, "None"),
                                            ([1], "[1]")])
    def test_non_integer_cell_named(self, tmp_path, capsys, cell, shown):
        src = tmp_path / "img.json"
        src.write_text(json.dumps({"mode": "complex", "t": 4, "k": 1, "cells": [cell, 0]}))
        assert main(["prepare", "--input", str(src)]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: cell 0 is not an unsigned integer: {shown}\n")

    @pytest.mark.parametrize("name,text,message", [
        ("m.json", '{"cols": 2, "entries": []}', "missing key 'rows'"),
        ("img.json", '{"mode": "complex", "t": 4, "k": 3, "cells": [0, 3]}',
         "k = 3 needs 2**k cells, got 2"),
        ("m.csv", "1,2x\n", "bad complex literal '2x'"),
        ("m.csv", "1 2,3\n", "bad complex literal '1 2'"),
    ])
    def test_every_input_refusal_names_the_file(self, tmp_path, capsys, name, text, message):
        src = tmp_path / name
        src.write_text(text)
        assert main(["prepare", "--input", str(src)]) == 1
        assert capsys.readouterr().err == f"error: {src}: {message}\n"

    def test_non_object_document_refused(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        src.write_text("[[1, 0], [2, 0]]")
        assert main(["preprocess", "--input", str(src)]) == 1
        assert "must be an object" in capsys.readouterr().err


def _bad_images() -> list[str]:
    """A valid image document with one bad ``k``, ``mode``, ``t`` or ``cells`` each."""
    base = json.loads(image_document(edge_cells(16, 8), 8, "complex"))
    bad_values = {
        "k": [-1, 0, 2, 2**70, 3.0, "3", None, True],
        "mode": ["bogus", "", 3, None, ["complex"]],
        "t": [0, 1, 63, 2**70, -8, 8.0, "8", None, True],
        "cells": ["x", None, 5, {}, [], [1], [1] * 3, [-1] * 8, [2**200] * 8, [1.5] * 8,
                  [True] * 8, [[1]] * 8, [None] * 8, [1 << 16] * 8],
    }
    docs = [json.dumps({**base, key: value})
            for key, values in bad_values.items() for value in values]
    return docs + [json.dumps({k: v for k, v in base.items() if k != key}) for key in base]


class TestEveryInputEndsCleanly:
    """Any input file ends in exit 0, in one ``error:`` line, or in a reported FAIL."""

    INPUTS = [doc.encode("utf-8", "surrogatepass") for doc in READER_CORPUS + _bad_images()]
    INPUTS += BYTE_CORPUS

    @pytest.mark.parametrize("command", [["preprocess"], ["prepare"], ["sweep", "--t", "8"]])
    def test_no_traceback(self, tmp_path, capsys, command):
        src = tmp_path / "input.json"
        broken = []
        for z, data in enumerate(self.INPUTS):
            src.write_bytes(data)
            try:
                rc = main([*command, "--input", str(src)])
            except Exception as exc:
                broken.append((z, repr(exc)))
                continue
            out, err = capsys.readouterr()
            # a sweep that writes its CSV to stdout reports FAIL on stderr
            clean = rc == 0 or rc == 1 and (
                err.startswith(("error: ", "status: FAIL")) and err.count("\n") == 1
                and err.endswith("\n")
                or not err and "status: FAIL" in out
            )
            if not clean:
                broken.append((z, rc, err))
        assert not broken


class TestPrepare:
    def test_ideal(self, example_path, tmp_path, capsys):
        out_path = tmp_path / "state.json"
        rc = main([
            "prepare", "--input", str(example_path), "--t", "24",
            "--mode", "complex", "--sim", "ideal", "--output", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "queries: 8" in out
        assert "status: PASS" in out
        err = float(next(l for l in out.splitlines() if l.startswith("state_error")).split()[1])
        assert err <= 1e-10
        doc = json.loads(out_path.read_text())
        assert doc["k"] == 3
        addresses = [row["address"] for row in doc["branches"]]
        assert addresses == sorted(addresses) == list(range(8))

    def test_fixed_t8(self, example_path, capsys):
        rc = main(["prepare", "--input", str(example_path), "--t", "8", "--sim", "fixed"])
        assert rc == 0
        out = capsys.readouterr().out
        err = float(next(l for l in out.splitlines() if l.startswith("state_error")).split()[1])
        assert err <= 4 * (3 + math.pi) * 2 ** -8

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["prepare", "--input", str(tmp_path / "nope.json")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")

    def test_no_input_at_all(self, capsys):
        rc = main(["prepare"])
        assert rc == 1
        assert "no input" in capsys.readouterr().err

    def test_prepare_from_memory_image(self, example_path, tmp_path, capsys):
        img_path = tmp_path / "img.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        capsys.readouterr()
        rc = main(["prepare", "--input", str(img_path), "--output",
                   str(tmp_path / "state.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "queries: 8" in out
        assert "routing_time: 24" in out

    def test_matrix_input_output_bytes(self, example_path, tmp_path, capsys):
        out_path = tmp_path / "state.json"
        rc = main(["prepare", "--input", str(example_path), "--t", "16",
                   "--output", str(out_path)])
        assert rc == 0
        m = load_matrix(example_path.read_bytes(), "json")
        state, _, _ = run_preparation(m, 16)
        err = state_error(state, oracle_state(m))
        tol = ERROR_SLACK * error_bound(m.depth, 16)
        model_error = state_error(state, quantized_oracle(build_memory_image(m, 16)[0]))
        assert capsys.readouterr().out == (
            f"queries: 8\nrouting_time: 24\nnorm_error: {abs(state.norm() - 1.0):.6e}\n"
            f"work_clean: True\nmarker_set: True\nmodel_error: {model_error:.6e}\n"
            f"state_error: {err:.6e}\ntolerance: {tol:.6e}\nstatus: PASS\nwrote {out_path}\n"
        )
        assert out_path.read_text() == json.dumps(dump_state(state), sort_keys=True) + "\n"

    @pytest.mark.parametrize("sim", ["fixed", "ideal"])
    def test_matrix_input_builds_one_address_vector(self, example_path, monkeypatch, capsys,
                                                    sim):
        # the model and oracle checks compare one K-long vector, not one each
        calls, vector = [], verify.address_amplitudes
        counting = lambda state: calls.append(state) or vector(state)  # noqa: E731
        monkeypatch.setattr(verify, "address_amplitudes", counting)
        monkeypatch.setattr(cli, "address_amplitudes", counting)
        assert main(["prepare", "--input", str(example_path), "--t", "16", "--sim", sim]) == 0
        out = capsys.readouterr().out
        assert "model_error: " in out and "state_error: " in out
        assert len(calls) == 1

    def test_image_input_output_bytes(self, example_path, tmp_path, capsys):
        img_path, out_path = tmp_path / "img.json", tmp_path / "state.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        capsys.readouterr()
        assert main(["prepare", "--input", str(img_path), "--output", str(out_path)]) == 0
        img = MemoryImage.from_json_dict(json.loads(img_path.read_text()))
        state, _ = prepare_complex(img)
        assert capsys.readouterr().out == (
            f"queries: 8\nrouting_time: 24\nnorm_error: {abs(state.norm() - 1.0):.6e}\n"
            f"work_clean: True\nmarker_set: True\n"
            f"model_error: {state_error(state, quantized_oracle(img)):.6e}\n"
            f"status: PASS\nwrote {out_path}\n"
        )
        assert out_path.read_text() == json.dumps(dump_state(state), sort_keys=True) + "\n"

    def test_image_input_rejects_ideal(self, example_path, tmp_path, capsys):
        img_path = tmp_path / "img.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        rc = main(["prepare", "--input", str(img_path), "--sim", "ideal"])
        assert rc == 1

    def test_image_run_checks_its_result(self, example_path, tmp_path, capsys):
        img_path = tmp_path / "img.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        capsys.readouterr()
        assert main(["prepare", "--input", str(img_path)]) == 0
        out = capsys.readouterr().out
        assert "work_clean: True" in out and "marker_set: True" in out
        assert "status: PASS" in out

    @pytest.mark.parametrize("source", [
        ["--input", "{image}"],
        ["--input", "{matrix}", "--t", "16"],
        ["--input", "{matrix}", "--sim", "ideal"],
        ["--random", "16x16", "--mode", "real_signed", "--t", "16"],
        ["--random", "16x16", "--mode", "real_signed", "--sim", "ideal"],
    ], ids=["image", "matrix-fixed", "matrix-ideal", "real-signed-fixed", "real-signed-ideal"])
    def test_image_run_fails_on_an_over_rotation(self, example_path, tmp_path, capsys,
                                                 monkeypatch, source):
        # every angle 3e-9 too large (relative): the state stays a clean, marked unit
        # vector, and only the image's own quantized state tells the run is wrong; a
        # fixed matrix run stays within its budget, which cannot see the fault
        img_path = tmp_path / "img.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        capsys.readouterr()
        grid = simulator.magnitude_grid
        monkeypatch.setattr(simulator, "magnitude_grid", lambda t: (1 + 3e-9) * grid(t))
        argv = [arg.format(image=img_path, matrix=example_path) for arg in source]
        assert main(["prepare", *argv]) == 1
        out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert float(out["norm_error"]) <= 1e-12
        assert (out["work_clean"], out["marker_set"], out["status"]) == ("True", "True", "FAIL")
        assert float(out["model_error"]) > 1e-9
        assert "model_error" in out["failed"].split(", ")

    def test_matrix_run_at_t62_fails_on_its_cells(self, capsys):
        # the simulator matches the t = 62 cells, but float64 angles put the cells
        # themselves outside the t = 62 budget: only state_error fails
        assert main(["prepare", "--random", "32x32", "--t", "62"]) == 1
        out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert float(out["model_error"]) <= 1e-12
        assert (out["failed"], out["status"]) == ("state_error", "FAIL")

    def test_image_run_fails_on_a_dropped_branch(self, example_path, tmp_path, capsys,
                                                 monkeypatch):
        img_path = tmp_path / "img.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        capsys.readouterr()
        shift = simulator.circular_shift

        def dropping_shift(state):
            out = shift(state)
            branches = dict(out.branches)
            branches.pop(max(branches))
            return dataclasses.replace(out, branches=branches)

        monkeypatch.setattr(simulator, "circular_shift", dropping_shift)
        assert main(["prepare", "--input", str(img_path)]) == 1
        assert "status: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("fault", ["dirty work register", "branch with v = 0"])
    def test_image_run_fails_on_a_bad_final_state(self, example_path, tmp_path, capsys,
                                                  monkeypatch, fault):
        # a unit-norm state that is dirty or unmarked fails its check; the
        # quantized-state comparison, which needs both, is not attempted
        img_path = tmp_path / "img.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        capsys.readouterr()
        prepare = cli._prepare

        def faulty(img):
            state, ledger = prepare(img)
            branches = dict(state.branches)
            label = min(branches)
            if fault == "dirty work register":
                branches[label | (1 << state.angle_shift)] = branches.pop(label)
            else:
                branches[label & ~(1 << state.k)] = branches.pop(label)
            return dataclasses.replace(state, branches=branches), ledger

        monkeypatch.setattr(cli, "_prepare", faulty)
        assert main(["prepare", "--input", str(img_path)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        checks = dict(line.split(": ", 1) for line in out.splitlines())
        flags = {"dirty work register": ("False", "True"), "branch with v = 0": ("True", "False")}
        assert (checks["work_clean"], checks["marker_set"]) == flags[fault]
        assert float(checks["norm_error"]) <= 1e-12
        assert checks["status"] == "FAIL" and "model_error" not in checks

    @pytest.mark.parametrize("k", ["20000", "9" * 5000], ids=["k=20000", "k past the digit limit"])
    def test_image_with_huge_k_is_refused(self, tmp_path, capsys, k):
        # neither 1 << k nor a k past Python's integer digit limit may end in a traceback
        img_path = tmp_path / "img.json"
        img_path.write_text('{"mode": "complex", "t": 4, "k": ' + k + ', "cells": [0, 3]}')
        assert main(["prepare", "--input", str(img_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", [["--random", "0x4"], ["--random=-2x4"], ["--random", "4x0"]])
    def test_random_needs_positive_dimensions(self, capsys, spec):
        assert main(["prepare", *spec]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("raised,message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_random_matrix_out_of_memory(self, monkeypatch, capsys, raised, message):
        def refuse(*args, **kwargs):
            raise raised

        monkeypatch.setattr(cli, "random_matrix", refuse)
        assert main(["prepare", "--random", "1000000x1000000"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_random_shape_past_the_address_space(self, capsys):
        # numpy refuses the shape before it allocates: nothing of that size is asked for
        assert main(["prepare", "--random", "1099511627776x1099511627776"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 1099511627776x1099511627776 is too large: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["4", "4by4", "axb", "2x2x2"])
    def test_random_needs_rows_x_cols(self, capsys, spec):
        assert main(["prepare", "--random", spec]) == 1
        assert "--random expects ROWSxCOLS" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["preprocess"], ["sweep", "--t", "8"]])
    def test_image_input_needs_a_matrix_command(self, example_path, tmp_path, capsys, command):
        img_path = tmp_path / "img.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        capsys.readouterr()
        assert main([*command, "--input", str(img_path)]) == 1
        assert "needs a matrix input, not a memory image" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-170, 1e300])
    def test_tiny_and_huge_entries(self, tmp_path, capsys, scale):
        src = tmp_path / "m.json"
        entries = [[scale, 0.0], [0.0, -scale], [2 * scale, scale], [0.0, 0.0]]
        src.write_text(json.dumps({"rows": 2, "cols": 2, "entries": entries}))
        assert main(["prepare", "--input", str(src), "--sim", "ideal", "--t", "24"]) == 0
        assert "status: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_entry_far_below_its_sibling(self, tmp_path, capsys, mode):
        # 1e-9 squares to 1e-18 of its sibling's weight: the ideal angle must keep it
        src = tmp_path / "m.json"
        src.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [[1e-9, 0.0], [1.0, 0.0]]}))
        assert main(["prepare", "--input", str(src), "--mode", mode, "--sim", "ideal"]) == 0
        assert "status: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", "--seed=-7"], ids=["-1", "=-7"])
    def test_negative_seed_is_refused(self, capsys, seed):
        spec = [seed] if seed.startswith("--") else ["--seed", seed]
        assert main(["prepare", "--random", "2x2", *spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err

    def test_random_matrix_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(["prepare", "--random", "4x4", "--seed", "7",
                       "--sim", "ideal", "--output", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_input(self, tmp_path, capsys):
        src = tmp_path / "m.csv"
        src.write_text("3,-4\n")
        rc = main(["prepare", "--input", str(src), "--mode", "real_signed",
                   "--sim", "ideal"])
        assert rc == 0
        assert "queries: 4" in capsys.readouterr().out


class TestSweep:
    def test_csv_output(self, example_path, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        rc = main(["sweep", "--input", str(example_path), "--t", "6:16",
                   "--output", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,measured_error,bound"
        assert len(lines) == 12
        for line in lines[1:]:
            t, err, bound = line.split(",")
            assert float(err) <= 4 * float(bound)

    def test_stdout_with_output(self, example_path, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", str(example_path), "--t", "6:8",
                     "--output", str(out_path)]) == 0
        assert capsys.readouterr().out == (
            f"wrote {out_path} (3 rows)\n"
            "status: PASS (all errors within 4.0 x bound: True)\n"
        )

    def test_stdout_when_no_output(self, example_path, capsys):
        # stdout is the CSV alone, so `sweep > s.csv` writes a CSV file
        rc = main(["sweep", "--input", str(example_path), "--t", "8"])
        assert rc == 0
        out, err = capsys.readouterr()
        m = load_matrix(example_path.read_bytes(), "json")
        assert out == sweep_csv(precision_sweep(m, [8]))
        assert err == "status: PASS (all errors within 4.0 x bound: True)\n"

    def test_deterministic(self, example_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--input", str(example_path), "--t", "6:10", "--output", str(a)])
        main(["sweep", "--input", str(example_path), "--t", "6:10", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range(self, example_path, capsys):
        rc = main(["sweep", "--input", str(example_path), "--t", "16:6"])
        assert rc == 1

    def test_range_end_past_the_precision_limit(self, example_path, capsys):
        # refused by its end before any list of 10**15 precisions is built
        assert main(["sweep", "--input", str(example_path), "--t", "2:1000000000000000"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: t must be an integer in [2, 62], got 1000000000000000\n")

    def test_range_of_one_precision(self, example_path, capsys):
        assert main(["sweep", "--input", str(example_path), "--t", "8:8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,measured_error,bound"
        assert [line.split(",")[0] for line in lines[1:]] == ["8"]

    def test_failing_sweep_exits_1(self, example_path, capsys):
        # at t = 62 the float64 floor exceeds 4 x the budget (README)
        assert main(["sweep", "--input", str(example_path), "--t", "62"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "t,measured_error,bound"
        assert err == "status: FAIL (all errors within 4.0 x bound: False)\n"


class TestResources:
    def test_scale_row(self, capsys):
        rc = main(["resources", "--K", "1048576", "--t", "32", "--mode", "complex"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["qpu_qubits"] == 85
        assert doc["query_count"] == 42
        assert doc["memory_bits"] == 67108864

    def test_writes_file(self, tmp_path):
        out_path = tmp_path / "report.json"
        rc = main(["resources", "--K", "1024", "--t", "32", "--output", str(out_path)])
        assert rc == 0
        assert json.loads(out_path.read_text())["qpu_qubits"] == 75

    def test_prints_the_indented_report(self, capsys):
        assert main(["resources", "--K", "1024", "--t", "32"]) == 0
        report = dataclasses.asdict(resource_report(1024, 32, "complex"))
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_not_power_of_two(self, capsys):
        rc = main(["resources", "--K", "1000", "--t", "32"])
        assert rc == 1
        assert "power of two" in capsys.readouterr().err


class TestDefaults:
    @pytest.mark.parametrize("argv,t", [
        (["preprocess"], 16), (["prepare"], 16), (["resources", "--K", "4"], 32),
    ])
    def test_precision(self, argv, t):
        assert build_parser().parse_args(argv).t == t

    @pytest.mark.parametrize("command", ["preprocess", "prepare", "sweep"])
    def test_seed(self, command):
        assert build_parser().parse_args([command]).seed == 0

    def test_random_matrix_seed(self):
        default, zero = random_matrix(4, 4), random_matrix(4, 4, seed=0)
        assert default.entries.tobytes() == zero.entries.tobytes()


class TestModuleEntryPoint:
    """``python -m qramprep`` with only the package's parent directory on PYTHONPATH."""

    @staticmethod
    def run_module(cwd, *args):
        src = str(Path(qramprep.__file__).resolve().parent.parent)
        return subprocess.run(
            [sys.executable, "-m", "qramprep", *args],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, cwd=cwd,
        )

    def test_runs_a_command(self, tmp_path):
        out = tmp_path / "report.json"
        run = self.run_module(tmp_path, "resources", "--K", "8", "--t", "4", "--output", str(out))
        assert run.returncode == 0, run.stderr
        assert json.loads(out.read_text())["query_count"] == 8

    def test_reports_errors(self, tmp_path):
        run = self.run_module(tmp_path, "prepare", "--random", "2x2", "--seed", "-1")
        assert run.returncode == 1
        assert run.stderr.startswith("error:")
