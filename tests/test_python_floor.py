"""The package's source parses at the Python floor pyproject.toml declares."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_module_parses_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.MULTILINE)
    assert floor, "requires-python is not a plain >=3.x floor"
    modules = sorted((ROOT / "src" / "czcp").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))
