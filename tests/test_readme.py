"""The README's quick tour runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_quick_tour_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    assert "| AI |" in capsys.readouterr().out
