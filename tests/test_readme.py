"""README.md runs as written: every ```python block, and the command lines of § Command line."""
import re
import shutil
from pathlib import Path

import pytest

from qramprep.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
# the command block, then the transcript of the run from a memory image
SECTION = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
COMMANDS, TRANSCRIPT = re.findall(r"^```\n(.*?)^```$", SECTION, re.M | re.S)
COMMAND_LINES = [line.split("#", 1)[0].split() for line in COMMANDS.splitlines()]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """A temporary directory holding a copy of ``data/``, as the working directory."""
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_command_lines_run_in_order(data_copy, capsys):
    assert len(COMMAND_LINES) == 7
    for argv in COMMAND_LINES:
        assert argv[0] == "qramprep"
        assert main(argv[1:]) == 0, " ".join(argv)
    assert {p.name for p in data_copy.iterdir()} == {
        "data", "image.json", "state.json", "sweep.csv"
    }


def test_image_run_transcript(data_copy, capsys):
    # the example's image at the default t; model_error's last digits come
    # from numpy's cos/sin, so it is compared by its form and its bound only
    matrix = "data/example_matrix.json"
    assert main(["preprocess", "--input", matrix, "--output", "image.json"]) == 0
    capsys.readouterr()
    assert main(["prepare", "--input", "image.json"]) == 0
    got, want = capsys.readouterr().out.splitlines(), TRANSCRIPT.splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        if want_line.startswith("model_error: "):
            for line in (got_line, want_line):
                value = re.fullmatch(r"model_error: (\d\.\d{6}e[-+]\d\d)", line).group(1)
                assert float(value) <= 1e-12
        else:
            assert got_line == want_line
