"""The Python 3.10 floor of requires-python, checked on this interpreter:
every source file parses as 3.10 grammar and names no library addition
of 3.11 or later.  perfbench/ is not covered."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py"))
NEWER_THAN_3_10 = {"file_digest", "tomllib", "ExceptionGroup", "typing.Self", "StrEnum", "datetime.UTC"}


def _names(tree) -> set:
    """Every name a module mentions, bare and, where a module is named
    with it, qualified: `hashlib.file_digest` gives both forms."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_the_floor_covers_every_package_test_and_demo():
    tops = {path.relative_to(ROOT).parts[0] for path in FILES}
    assert tops == {"src", "tests", "demos"} and len(FILES) > 20


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10_and_names_nothing_newer(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    assert not _names(tree) & NEWER_THAN_3_10


@pytest.mark.parametrize(
    "source",
    [
        "import hashlib\nhashlib.file_digest",
        "import tomllib",
        "raise ExceptionGroup('', [])",
        "from typing import Self",
        "import typing\ntyping.Self",
        "from enum import StrEnum",
        "from datetime import UTC",
    ],
)
def test_the_name_check_sees_each_newer_name(source):
    assert _names(ast.parse(source)) & NEWER_THAN_3_10
