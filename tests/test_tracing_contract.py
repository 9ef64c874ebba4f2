"""The benchmark's tracer wraps program attributes by name
(``perfbench/tracing.py``).  Renaming or deleting one of them must fail
here, not only in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import retractlab
import retractlab.cli  # noqa: F401  (the tracer patches every loaded module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _attributes() -> dict:
    """Every attribute of every loaded retractlab module and of the
    classes they define, keyed by where it lives."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name != "retractlab" and not name.startswith("retractlab."):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    return snap


def test_tracer_wraps_every_target_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    sys.modules.pop("tracing")
    before = _attributes()
    targets = tracing.targets(retractlab)
    originals = [owner.__dict__[attr] for owner, attr, *_ in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install(retractlab)
        for (owner, attr, *_), original in zip(targets, originals):
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
