"""The program names that the benchmark's tracer wraps still exist.

perfbench/spans.py wraps functions named "module:name" (or
"module:Class.method") at run time, so a renamed or removed function would
otherwise fail only the traced benchmark run. The file is parsed here for
its TIMED_LAYERS and COUNTED tables, not imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TABLES = ("TIMED_LAYERS", "COUNTED")


def span_targets() -> list:
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] in ([n] for n in TABLES):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert sorted(tables) == sorted(TABLES)
    return sorted({target for table in tables.values() for targets in table.values() for target in targets})


@pytest.mark.parametrize("target", span_targets())
def test_span_target_resolves(target):
    module_name, _, attr = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_worker_flag_exists():
    # perfbench/worker.py records it in every result.
    from spinwehrl import _kernels

    assert _kernels.USE_NUMBA is False
