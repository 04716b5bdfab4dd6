"""README.md's library example runs as written: a documented call that
drifts from the real signature fails here."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    # the example prints the ODE-vs-ABM band coverage of a 100-replica ensemble
    assert 0.9 <= float(printed.getvalue()) <= 1.0
