"""Every name a degmfg module imports is used in that module, and start-up
does not load what only a cross-check needs.

No linter ships with the project, so this AST scan is the check. An import
kept on purpose carries ``# noqa: F401`` on its line.
"""

import ast
import os
import subprocess
import sys

import pytest

import degmfg

SRC = os.path.dirname(os.path.abspath(degmfg.__file__))
MODULES = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))


def unused_imports(source: str) -> list:
    """The names bound by imports in ``source`` that nothing references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    src = ("import os\nimport sys  # noqa: F401\nfrom a import (b,\n"
           "    c)\nimport x.y\nprint(b, x)\n")
    assert unused_imports(src) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_start_up_does_not_import_networkx():
    # only the min-cost-flow cross-check uses networkx; it imports it there
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SRC)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, degmfg.cli; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
