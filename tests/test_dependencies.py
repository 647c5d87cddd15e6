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


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports but never reads. A name listed in the
    module's `__all__` counts as read; `__future__` imports are directives."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    unused = {source.name: names for source in sorted(PACKAGE.glob("*.py"))
              if (names := unused_imports(source.read_text(encoding="utf-8")))}
    assert unused == {}


def test_the_unused_import_check_sees_through_all_and_future():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from .core import a, b\n__all__ = ['a']\nprint(system.argv)\n")
    assert unused_imports(source) == ["os", "b"]


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("pyproject.toml is not beside the package sources")
    declared = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert third_party_imports() == {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0]
                                     for d in declared}


def cli_import_loads(package: str) -> list[str]:
    """The modules of `package` that `import cdil.cli` loads in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import sys, cdil.cli; "
             f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def test_cli_import_loads_no_scipy():
    assert cli_import_loads("scipy") == []


def test_cli_import_loads_no_multiprocessing():
    # `write_stream` imports it where it forks, so `cdil run` and `cdil split` start without it
    assert cli_import_loads("multiprocessing") == []
