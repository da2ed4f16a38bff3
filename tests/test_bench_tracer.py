"""The benchmark tracer wraps degmfg names by attribute; each must exist.

``bench/tracer.py`` replaces module and class attributes of the package with
timing wrappers. A name it wraps that is renamed or removed in src breaks
only the traced benchmark run, so installing and uninstalling the tracer is
checked here. Nothing is written under ``bench/``.
"""

import importlib
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def _tree(root):
    return sorted((os.path.relpath(os.path.join(d, f), root),
                   os.path.getmtime(os.path.join(d, f)))
                  for d, _, files in os.walk(root) for f in files)


def test_install_and_uninstall_restore_every_wrapped_name(monkeypatch):
    before = _tree(BENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")

    t = tracer.Tracer()
    tracer.install_degmfg(t)
    try:
        patches = list(t._patches)
        assert patches
        for owner, attr, orig in patches:
            assert getattr(owner, attr) is not orig, (owner, attr)
    finally:
        t.uninstall()
    for owner, attr, orig in patches:
        assert getattr(owner, attr) is orig, (owner, attr)
    assert _tree(BENCH) == before
