"""The README quick start runs as printed, so the docs cannot name removed API."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_start_code() -> str:
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_what_it_says(capsys):
    exec(compile(quick_start_code(), "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["[5. 1. 2. 3. 4.]", "[10. 20. 20. 40. 50.]"]
