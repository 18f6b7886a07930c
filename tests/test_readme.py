"""The README's library quick tour runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().split() == ["15"]
