"""The library tour in README.md runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_prints_its_stated_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    summary, swapped, shape = out.getvalue().splitlines()
    assert summary.startswith("idempotent=True spectrum=True")
    assert swapped == "True"
    assert shape == "Xskew(1)"
