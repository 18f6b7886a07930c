"""The benchmark's tracer finds every library name it wraps, and unwraps cleanly.

`perfbench/run.py --trace 1` wraps the functions listed in
`perfbench/tracing.py` by attribute name, so a rename or deletion in the
library would otherwise fail only in traced benchmark runs.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing(monkeypatch):
    """perfbench/tracing.py, imported from its directory without writing bytecode there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [f"{home.__name__}.{name}" for home, name, _, _ in tracing.TRACED
               if not callable(getattr(home, name, None))]
    assert missing == []


def test_install_then_uninstall_restores_every_attribute(monkeypatch):
    tracing = _tracing(monkeypatch)
    names = {name for _, name, _, _ in tracing.TRACED}
    before = {(m.__name__, n): getattr(m, n, None) for m in tracing.MODULES for n in names}
    uninstall = tracing.install(tracing.Tracer())
    try:
        wrapped = [(home.__name__, name) for home, name, _, _ in tracing.TRACED
                   if getattr(home, name) is not before[home.__name__, name]]
    finally:
        uninstall()
    assert len(wrapped) == len({(home.__name__, name) for home, name, _, _ in tracing.TRACED})
    after = {(m.__name__, n): getattr(m, n, None) for m in tracing.MODULES for n in names}
    assert all(after[key] is value for key, value in before.items())
