"""The README's library example runs, and its printed pairs agree; its
sweep examples run and write one row per value."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from spinwehrl.cli import main

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


def sweep_examples() -> list:
    """The argv of each README line that sweeps a bundled config, with the
    config path made absolute."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("spinwehrl sweep --config src/")]
    for argv in commands:
        i = argv.index("--config") + 1
        argv[i] = str(README.parent / argv[i])
    return commands


def test_readme_has_three_sweep_examples():
    assert len(sweep_examples()) == 3


@pytest.mark.parametrize("argv", sweep_examples(), ids=lambda argv: Path(argv[2]).stem)
def test_sweep_example_writes_one_row_per_value(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    (csv,) = tmp_path.glob("*.csv")
    values = argv[argv.index("--values") + 1].split(",")
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == len(values)
    assert [float(row.split(",")[0]) for row in rows] == [float(v) for v in values]
