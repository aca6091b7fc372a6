"""numpy stays the only runtime dependency: every absolute import in the
package names a standard-library module or numpy. The sources are parsed,
not imported, so an import behind a branch is checked too."""

import ast
import glob
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "minit5")
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert sources
    bad = [(os.path.basename(path), name) for path in sources
           for name in _absolute_imports(path)
           if name.split(".")[0] not in ALLOWED]
    assert bad == []
