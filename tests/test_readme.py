"""Every ```python block of README.md runs, from the repository root, as written."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
