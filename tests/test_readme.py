"""The README's library example runs, and its printed pairs agree."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert match, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_pairs_agree():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    pairs = [[float(x) for x in line.split()] for line in out.getvalue().splitlines()]
    assert len(pairs) == 2 and all(len(pair) == 2 for pair in pairs)
    for a, b in pairs:
        assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))
