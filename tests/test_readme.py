"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}: Library use", "exec"), {})
    printed = float(capsys.readouterr().out)
    assert printed == pytest.approx(np.sqrt(0.75), abs=1e-8)
