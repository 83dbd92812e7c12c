"""Packaging metadata agrees with the code it ships.

``pyproject.toml`` is parsed with regexes: Python 3.10 has no ``tomllib``
and the file's arrays are simple enough that a TOML parser buys nothing.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def _requirement_names(array_body: str) -> set[str]:
    """Distribution names in a TOML string array body, specifiers dropped."""
    return {
        re.match(r"[A-Za-z0-9_.\-]+", item).group(0).lower().replace("-", "_")
        for item in re.findall(r'"([^"]+)"', array_body)
    }


def _toml_array(key: str, text: str) -> set[str]:
    match = re.search(rf"^{key}\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert match, f"pyproject.toml has no {key!r} array"
    return _requirement_names(match.group(1))


def _optional_dependencies() -> dict[str, set[str]]:
    section = re.search(
        r"^\[project\.optional-dependencies\]\n(.*?)(?=^\[)", PYPROJECT, re.MULTILINE | re.DOTALL
    )
    assert section, "pyproject.toml has no [project.optional-dependencies] table"
    return {
        name: _requirement_names(body)
        for name, body in re.findall(
            r"^([A-Za-z0-9_\-]+)\s*=\s*\[(.*?)\]", section.group(1), re.MULTILINE | re.DOTALL
        )
    }


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level non-stdlib module → the package files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(PACKAGE)))
    return found


def test_every_third_party_import_is_declared():
    core = _toml_array("dependencies", PYPROJECT)
    imports = _third_party_imports()
    assert "numpy" in imports  # the scan sees the package
    undeclared = {
        module: files for module, files in imports.items() if module not in core
    }
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"


def test_torch_is_neither_imported_nor_an_extra():
    # The package trains on its own numpy autograd; torch is not a backend.
    assert "torch" not in _third_party_imports()
    extras = _optional_dependencies()
    assert "torch" not in extras
    assert not any("torch" in names for names in extras.values())


def test_version_matches_pyproject():
    match = re.search(r'^version\s*=\s*"([^"]+)"', PYPROJECT, re.MULTILINE)
    assert match, "pyproject.toml has no version"
    assert repro.__version__ == match.group(1)
