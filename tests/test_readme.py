"""The README's library example runs as written, its contract paragraph names
every member of the contract, and its Determinism section has a note for the
current artifact version."""

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


def test_target_contract_paragraph_names_every_member():
    from duality_bench import TargetModel

    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"\nTarget contract:(.*?)\n\n", text, re.S).group(1)
    named = set(re.findall(r"`(\w+)", paragraph))
    members = {name for name in vars(TargetModel) if not name.startswith("_")}
    assert sorted(members - named) == []


def test_determinism_section_notes_the_current_version():
    from duality_bench import __version__

    section = README.read_text(encoding="utf-8").split("\n## Determinism\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert f"\n- {__version__}:" in section
