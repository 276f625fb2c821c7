"""The tester's own modules stand below the lab, the harness and the front
ends: none of them imports those, not even inside a function."""

import ast
from pathlib import Path

import pytest

import hypercube_tester

PACKAGE = Path(hypercube_tester.__file__).parent
TESTER_MODULES = ("model", "oracle", "rng", "meantest", "uniformity")
ABOVE = {"theory", "blowup", "harness", "cli", "zoo"}


def _package_imports(source: str) -> set[str]:
    """The package's submodules named by any import in source, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ["hypercube_tester"] if node.level else []
            base += node.module.split(".") if node.module else []
            paths = [base + [alias.name] for alias in node.names]
        else:
            continue
        found |= {path[1] for path in paths if path[0] == "hypercube_tester" and len(path) > 1}
    return found


def test_package_imports_sees_every_form():
    source = (
        "from .model import Point\n"
        "from . import rng\n"
        "import hypercube_tester.zoo\n"
        "def f():\n"
        "    from .theory import edge_null_accept\n"
        "    from hypercube_tester.cli import main\n"
        "import numpy\n"
    )
    assert _package_imports(source) == {"model", "rng", "zoo", "theory", "cli"}


@pytest.mark.parametrize("module", TESTER_MODULES)
def test_tester_modules_import_no_lab_harness_or_front_end(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert _package_imports(source) & ABOVE == set()
