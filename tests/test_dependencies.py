import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cdil

PACKAGE = Path(cdil.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def third_party_imports() -> set[str]:
    """Top-level modules imported anywhere in the package, minus the standard
    library and the package itself."""
    names = set()
    for source in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"cdil"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("pyproject.toml is not beside the package sources")
    declared = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert third_party_imports() == {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0]
                                     for d in declared}


def test_cli_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = "import sys, cdil.cli; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert loaded.strip() == "[]"
