"""``pyproject.toml`` declares what the tests import and the version once.

A fresh ``pip install -e .[test]`` must be able to collect every test file,
so each third-party top-level module a test imports is named in
``dependencies`` or in the ``test`` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


def project() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def requirement_name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")


def test_every_third_party_test_import_is_declared():
    local = {p.stem for p in TESTS.glob("*.py")} | {"relaygame"}
    imported = set().union(*(imported_top_level(p) for p in TESTS.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    spec = project()["project"]
    declared = {requirement_name(r)
                for r in spec["dependencies"] + spec["optional-dependencies"]["test"]}
    assert third_party - declared == set()
    assert {"numpy", "pytest"} <= third_party       # the scan sees the imports


def test_version_is_declared_once():
    config = project()
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "relaygame.__version__"}
