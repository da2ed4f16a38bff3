"""Every name a degmfg module imports is used in that module, no module
reads another's private names, only ``measures`` imports from a private
scipy module (the HiGHS bindings), no call in the package admits a density
path unvalidated, every public name is reached by the package, its scripts
or its benchmark, every defaulted parameter of a public function is passed
by one of them, and start-up loads only the runtime dependencies.

No linter ships with the project, so these AST scans are the check. An
import kept on purpose carries ``# noqa: F401`` on its line.
"""

import ast
import collections
import os
import re
import subprocess
import sys

import pytest

import degmfg

SRC = os.path.dirname(os.path.abspath(degmfg.__file__))
MODULES = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


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


def private_reads(source: str) -> list:
    """The (line, "module._name") reads in ``source`` of another package
    module's private name: ``from .module import _name``, or
    ``alias._name`` where ``from . import module as alias`` bound alias."""
    tree = ast.parse(source)
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.append((node.lineno, "%s.%s"
                                  % (node.module, alias.name)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.append((node.lineno, "%s.%s"
                          % (modules[node.value.id], node.attr)))
    return sorted(reads)


def test_scan_finds_a_private_read():
    src = ("from . import io as dio, grid\nfrom .config import _DEFAULT, "
           "load_config\nfrom .grid import Grid2D\n"
           "print(dio._fmt, grid.x, grid._t, _DEFAULT, load_config, obj._y)\n")
    assert private_reads(src) == [(2, "config._DEFAULT"), (4, "grid._t"),
                                  (4, "io._fmt")]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_reads_across_modules(module):
    # a name another module needs is public, so the reach test below sees it
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert private_reads(fh.read()) == []


def private_scipy_imports(source: str) -> list:
    """The (line, "module.name") of each import in ``source`` of a private
    scipy module or name: a dotted path under scipy with a part that starts
    with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths = ["%s.%s" % (node.module, alias.name)
                     for alias in node.names]
        else:
            continue
        found += [(node.lineno, path) for path in paths
                  if path.split(".")[0] == "scipy"
                  and any(part.startswith("_") for part in path.split("."))]
    return sorted(found)


def test_scan_finds_a_private_scipy_import():
    src = ("import scipy.sparse\nfrom scipy.optimize import linprog\n"
           "from scipy.optimize._highspy import _core as h\n"
           "import scipy.linalg._flapack\nfrom scipy import _lib\n"
           "from ._scipy import _x\nimport _scipy\n")
    assert private_scipy_imports(src) == [
        (3, "scipy.optimize._highspy._core"), (4, "scipy.linalg._flapack"),
        (5, "scipy._lib")]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "measures.py"])
def test_only_measures_imports_private_scipy(module):
    # the transport LP calls the HiGHS bindings scipy ships; one module
    # holds that surface, so a scipy release that moves it breaks one file
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert private_scipy_imports(fh.read()) == []


def unvalidated_paths(source: str) -> list:
    """The lines in ``source`` of each call that passes ``validate_slices``
    anything but the literal True: False, or a value that may be false."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and any(kw.arg == "validate_slices"
                          and not (isinstance(kw.value, ast.Constant)
                                   and kw.value.value is True)
                          for kw in node.keywords))


def test_scan_finds_an_unvalidated_path():
    src = ("DensityPath(g, dt, v, validate_slices=False)\n"
           "DensityPath(g, dt, v)\nf(validate_slices=True)\n"
           "x = dict(validate_slices=False)\n"
           "# DensityPath(g, dt, v, validate_slices=False)\n"
           "DensityPath(g, dt,\n    v, validate_slices=not flag)\n")
    assert unvalidated_paths(src) == [1, 4, 6]


@pytest.mark.parametrize("module", MODULES)
def test_the_package_builds_only_validated_paths(module):
    # every density path a command builds or reads meets the density rule;
    # an unvalidated one is for outside callers (a negative control, say)
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unvalidated_paths(fh.read()) == []


def _referenced(tree, strings=False) -> collections.Counter:
    """The names ``tree`` references: names, attributes, imported names and,
    with ``strings``, string constants."""
    out = collections.Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
        elif strings and isinstance(n, ast.Constant) \
                and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _public_defs(tree):
    """(qualified name, node) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield "%s.%s" % (node.name, m.name), m


def unreached(modules: dict, readers: list) -> list:
    """The public names of ``modules`` (module name -> source) that neither
    the modules nor the ``readers`` reference outside the name's own
    definition. A reader is a (source, strings) pair; with ``strings`` its
    string constants count too, as for attributes wrapped by name."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    seen = collections.Counter()
    for tree in trees.values():
        seen += _referenced(tree)
    for source, strings in readers:
        seen += _referenced(ast.parse(source), strings)
    return sorted("%s.%s" % (mod, name)
                  for mod, tree in trees.items()
                  for name, node in _public_defs(tree)
                  if seen[node.name] <= _referenced(node)[node.name])


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _sources(directory):
    return {n[:-3]: _read(os.path.join(directory, n))
            for n in sorted(os.listdir(directory)) if n.endswith(".py")}


def test_scan_finds_an_unreached_name():
    lib = ("def used():\n    pass\n\ndef orphan():\n    orphan()\n\n"
           "class Box:\n    def wrapped(self):\n        pass\n\n"
           "    def lost(self):\n        pass\n")
    readers = [("from lib import used\n", False),
               ("wrap(Box, 'wrapped')\nprint('lost')\n", True)]
    assert unreached({"lib": lib}, readers) == ["lib.orphan"]
    assert unreached({"lib": lib}, [(readers[1][0], False)]) \
        == ["lib.Box.lost", "lib.Box.wrapped", "lib.orphan", "lib.used"]


def test_every_public_name_is_reached_outside_the_tests():
    # a name that only tests call is a reference; it lives in the tests
    readers = [(source, False) for source in
               _sources(os.path.join(ROOT, "scripts")).values()]
    readers += [(source, True) for source in
                _sources(os.path.join(ROOT, "bench")).values()]
    names = unreached(_sources(SRC), readers)
    assert names == [], "reached only by the tests: %s" % ", ".join(names)


def _defaulted(fn, method):
    """(name, position) of each parameter of ``fn`` with a default; the
    position counts the arguments a call passes (self excluded) and is
    None for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - method) for i, a in enumerate(positional)
           if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def unpassed_defaults(modules: dict, callers: list) -> list:
    """The "module.name(param)" of each defaulted parameter of a public
    function or method of ``modules`` (module name -> source) that no call
    in ``modules`` or ``callers`` (sources) passes, by keyword or by
    position. A call reaches every def of the name it calls, ``f(...)``
    and ``obj.f(...)`` alike; ``Cls(...)`` reaches ``Cls.__init__``. A call
    with ``*args`` or ``**kwargs`` may pass anything."""
    calls = collections.defaultdict(list)
    for source in list(modules.values()) + callers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call) and isinstance(n.func,
                                                      (ast.Name, ast.Attribute)):
                name = getattr(n.func, "id", None) or n.func.attr
                starred = any(isinstance(a, ast.Starred) for a in n.args) \
                    or any(kw.arg is None for kw in n.keywords)
                calls[name].append((len(n.args), starred,
                                    {kw.arg for kw in n.keywords}))
    found = []
    for mod, source in modules.items():
        for qualname, node in _public_defs(ast.parse(source)):
            defs = [(qualname, node.name, node, 0)]
            if isinstance(node, ast.ClassDef):
                defs = [("%s.__init__" % qualname, node.name, m, 1)
                        for m in node.body if isinstance(m, ast.FunctionDef)
                        and m.name == "__init__"]
            elif "." in qualname:
                defs = [(qualname, node.name, node, 1)]
            for label, name, fn, method in defs:
                found += ["%s.%s(%s)" % (mod, label, param)
                          for param, at in _defaulted(fn, method)
                          if not any(starred or param in keywords
                                     or (at is not None and n_args > at)
                                     for n_args, starred, keywords
                                     in calls[name])]
    return sorted(found)


def test_scan_finds_an_unpassed_default():
    lib = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
           "def _hidden(a=1):\n    pass\n\n"
           "class Box:\n    def __init__(self, size=1, fill=0):\n"
           "        pass\n\n    def put(self, x, where=None):\n"
           "        pass\n\n    def _drop(self, x=0):\n        pass\n\n"
           "def g(x=0):\n    pass\n")
    caller = ("f(0, 1, d=2)\nBox(fill=3).put(1)\nobj.put(1, 2)\n"
              "g(*args)\n")
    assert unpassed_defaults({"lib": lib}, [caller]) == [
        "lib.Box.__init__(size)", "lib.f(c)", "lib.f(e)"]
    assert unpassed_defaults({"lib": lib}, []) == [
        "lib.Box.__init__(fill)", "lib.Box.__init__(size)",
        "lib.Box.put(where)", "lib.f(b)", "lib.f(c)", "lib.f(d)", "lib.f(e)",
        "lib.g(x)"]


# defaulted parameters that no call in the package, its scripts or its
# benchmark passes, each kept for a reader outside them
KEPT_DEFAULTS = {
    "measures.sinkhorn_points(iters)":
        "criterion 13 runs the solver at fixed settings (ROADMAP item 8)",
    "measures.sinkhorn_points(tol)":
        "criterion 13 runs the solver at fixed settings (ROADMAP item 8)",
    "fixed_point.picard_solve(initial_path)":
        "criterion 12 starts a run from another path; ROADMAP item 6 "
        "warm-starts the sweep with it",
    "verify.ae_residual_report(tol)":
        "the refinement test compares levels at one common tolerance",
}


def test_every_default_is_passed_outside_the_tests():
    # a default that no caller overrides is a knob that nothing reads
    callers = list(_sources(os.path.join(ROOT, "scripts")).values())
    callers += list(_sources(os.path.join(ROOT, "bench")).values())
    found = unpassed_defaults(_sources(SRC), callers)
    assert found == sorted(KEPT_DEFAULTS), \
        "defaults passed only by the tests: %s" % ", ".join(
            sorted(set(found) - set(KEPT_DEFAULTS)))


def test_runtime_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return [re.match(r"[\w.-]+", r).group() for r in requirements]

    assert names(project["dependencies"]) == ["numpy", "scipy"]
    assert "networkx" in names(project["optional-dependencies"]["dev"])


def test_start_up_does_not_import_networkx():
    # networkx is a test dependency: only the min-cost-flow reference of
    # the tests' references module uses it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SRC)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, degmfg.cli; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
