"""The benchmark's tracer patches logmono functions by name, so every name
it lists must still resolve.  perfbench/tracer.py is loaded from its file
and only read; nothing is patched."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, qualname, _ in tracer.TARGETS:
        # Tracer.install reads a method from its class's own dict and a
        # function from its defining module.
        home = importlib.import_module(f"logmono.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(home, cls_name)), qualname
        else:
            assert callable(getattr(home, qualname, None)), f"{module}.{qualname}"
