"""Every Python file of the package, its scripts and its tests parses at the
oldest Python that pyproject.toml's ``requires-python`` admits.

The floor is read with a regular expression because ``tomllib`` is new in
3.11, and this test also runs on the floor itself.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_at_the_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.M)
    version = (int(floor[1]), int(floor[2]))
    files = [path for top in ("src", "scripts", "tests") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
