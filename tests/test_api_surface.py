"""Every name that spinwehrl exports is reached by something besides the
tests: code in another module of the package (a Name or Attribute node,
not a docstring), the README, or the benchmark's tracer
(perfbench/spans.py, parsed as test_perfbench_targets does). A name that
only tests call belongs in tests/oracles.py or nowhere."""

import ast
import re
from pathlib import Path

import pytest

from test_perfbench_targets import span_targets

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinwehrl"


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def names_in_code() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def names_in_readme() -> set:
    return set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))


def names_in_spans() -> set:
    return {target.partition(":")[2].split(".")[0] for target in span_targets()}


REACHED = names_in_code() | names_in_readme() | names_in_spans()


@pytest.mark.parametrize("name", exported_names())
def test_exported_name_is_reached(name):
    assert name in REACHED, f"{name} is exported but only tests reach it"
