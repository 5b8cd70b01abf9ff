import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qramprep
from qramprep import simulator
from qramprep.cli import _image_json_indented, main
from qramprep.matrix import load_matrix, random_matrix
from qramprep.memory import MemoryImage, build_memory_image
from qramprep.simulator import dump_state, prepare_complex
from qramprep.verify import ERROR_SLACK, error_bound, oracle_state, run_preparation, state_error

DATA = Path(__file__).resolve().parent.parent / "data" / "example_matrix.json"


@pytest.fixture
def example_path(tmp_path):
    dst = tmp_path / "example_matrix.json"
    shutil.copy(DATA, dst)
    return dst


class TestExampleCommand:
    def test_passes(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "squared moduli: ok" in out
        assert "8 queries" in out


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


class TestIndentedImageWriter:
    """The direct writer against the json module's indented encoder, byte for byte."""

    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_matches_json_dumps_at_every_t(self, mode):
        m = random_matrix(4, 4, seed=12, real=mode == "real_signed")
        for t in range(2, 63):
            img, _ = build_memory_image(m, t, mode)
            want = json.dumps(img.to_json_dict(), sort_keys=True, indent=2) + "\n"
            assert _image_json_indented(img) == want, t

    def test_cli_output_is_json_dumps_with_indent(self, example_path, tmp_path):
        out_path = tmp_path / "image.json"
        assert main(["preprocess", "--input", str(example_path), "--output", str(out_path),
                     "--t", "40"]) == 0
        img, _ = build_memory_image(load_matrix(example_path.read_bytes(), "json"), 40, "complex")
        want = json.dumps(img.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert out_path.read_text() == want


class TestJsonInput:
    @pytest.mark.parametrize("command", [["preprocess"], ["prepare"], ["sweep", "--t", "8"]])
    def test_matrix_file_is_parsed_once(self, example_path, monkeypatch, capsys, command):
        calls = []
        loads = json.loads

        def counting(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        assert main([*command, "--input", str(example_path)]) == 0
        assert len(calls) == 1

    def test_non_object_document_refused(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        src.write_text("[[1, 0], [2, 0]]")
        assert main(["preprocess", "--input", str(src)]) == 1
        assert "must be an object" in capsys.readouterr().err


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
        assert capsys.readouterr().out == (
            f"queries: 8\nrouting_time: 24\nstate_error: {err:.6e}\ntolerance: {tol:.6e}\n"
            f"status: PASS\nwrote {out_path}\n"
        )
        assert out_path.read_text() == json.dumps(dump_state(state), sort_keys=True) + "\n"

    def test_image_input_output_bytes(self, example_path, tmp_path, capsys):
        img_path, out_path = tmp_path / "img.json", tmp_path / "state.json"
        main(["preprocess", "--input", str(example_path), "--output", str(img_path)])
        capsys.readouterr()
        assert main(["prepare", "--input", str(img_path), "--output", str(out_path)]) == 0
        state, _ = prepare_complex(MemoryImage.from_json_dict(json.loads(img_path.read_text())))
        assert capsys.readouterr().out == (
            f"queries: 8\nrouting_time: 24\nnorm_error: {abs(state.norm() - 1.0):.6e}\n"
            f"work_clean: True\nmarker_set: True\nstatus: PASS\nwrote {out_path}\n"
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

    @pytest.mark.parametrize("scale", [1e-170, 1e300])
    def test_tiny_and_huge_entries(self, tmp_path, capsys, scale):
        src = tmp_path / "m.json"
        entries = [[scale, 0.0], [0.0, -scale], [2 * scale, scale], [0.0, 0.0]]
        src.write_text(json.dumps({"rows": 2, "cols": 2, "entries": entries}))
        assert main(["prepare", "--input", str(src), "--sim", "ideal", "--t", "24"]) == 0
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

    def test_stdout_when_no_output(self, example_path, capsys):
        rc = main(["sweep", "--input", str(example_path), "--t", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("t,measured_error,bound")

    def test_deterministic(self, example_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--input", str(example_path), "--t", "6:10", "--output", str(a)])
        main(["sweep", "--input", str(example_path), "--t", "6:10", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range(self, example_path, capsys):
        rc = main(["sweep", "--input", str(example_path), "--t", "16:6"])
        assert rc == 1


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

    def test_not_power_of_two(self, capsys):
        rc = main(["resources", "--K", "1000", "--t", "32"])
        assert rc == 1
        assert "power of two" in capsys.readouterr().err


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
