"""The README's "Library quick start" block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    exec(compile(code, "README.md quick start", "exec"), {})
    value, _, bound = capsys.readouterr().out.splitlines()[0].split()[:3]
    assert float(bound) > 0.0 and abs(float(value)) <= 1.0
