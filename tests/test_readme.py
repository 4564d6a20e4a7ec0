"""The README's library quick start runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1.0"  # the brackets span everywhere at level 3
    assert lines[1:] == ["[0.06573477 1.26772064]"]  # Q's eigenvalues at t = 1, seed 7
