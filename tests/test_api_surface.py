"""Every name that spinwehrl exports is reached by something besides the
tests: code in another module of the package (a Name or Attribute node,
not a docstring) or the README. Neither the tests nor the benchmark's
tracer count: a name that only they reach belongs in its module,
tests/oracles.py or nowhere. No public function takes the coherence
orders of its states, or their dissipator image D(rho), as an argument:
it reads the orders from the states and forms D(rho) itself."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import spinwehrl
from spinwehrl.spin_ops import check_density_entries

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


REACHED = names_in_code() | names_in_readme()


@pytest.mark.parametrize("name", exported_names())
def test_exported_name_is_reached(name):
    assert name in REACHED, f"{name} is exported but only tests reach it"


def exported_functions() -> list:
    functions = [getattr(spinwehrl, name) for name in exported_names()]
    return [f for f in functions if inspect.isfunction(f)] + [check_density_entries]


@pytest.mark.parametrize("function", exported_functions(), ids=lambda f: f.__name__)
def test_no_function_takes_the_orders(function):
    # Classes (Trajectory keeps its states' orders) are left out.
    parameters = inspect.signature(function).parameters
    assert "orders" not in parameters and "d_rho" not in parameters
