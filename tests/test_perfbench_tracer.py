"""The benchmark's tracer (perfbench/tracer.py) wraps setdet by name from
outside the package, so a rename in setdet would break ``--trace 1`` runs.
This checks that every name it wraps still resolves and that it leaves
nothing wrapped behind."""

import importlib
import pkgutil
from pathlib import Path

import setdet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    # every setdet module first: one imported during install would bind
    # wrappers that uninstall does not restore (__main__ runs the CLI)
    for module in pkgutil.iter_modules(setdet.__path__):
        if module.name != "__main__":
            importlib.import_module(f"setdet.{module.name}")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracer")
    bench = importlib.import_module("run")

    assert set(bench.TOP_OPS) <= set(tracing.tensor_ops())
    assert "attention" in tracing.tensor_ops()      # traced runs time the fused ops
    assert "linear" in tracing.tensor_ops()
    tracer = tracing.Tracer()
    tracer.install()         # raises if a FUNCTIONS or METHODS name is gone
    tracer.uninstall()
    assert tracing.wrapped_names() == []
