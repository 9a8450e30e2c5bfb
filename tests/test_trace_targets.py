"""The benchmark's trace targets resolve against the package.

`perfbench/tracing.py` wraps package functions under the names their
callers import.  A target that no longer resolves is listed, not fatal,
and the benchmark's smoke test then skips its sample-count check, so a
rename would silently switch that check off.  This test catches it.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look the module up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
