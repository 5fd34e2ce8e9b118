"""The package's sources parse as the oldest Python that pyproject.toml's
``requires-python`` admits, 3.10, whatever Python runs the tests."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "deltaprime"


def test_every_source_parses_as_python_3_10():
    files = sorted(SOURCES.glob("*.py"))
    assert len(files) >= 10
    for path in files:  # a SyntaxError names the file and line
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
