"""Every package function that the benchmark's tracer hooks by name still
exists, so a traced run reports all of its per-layer metrics."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "pfdbench" / "tracing.py"


def test_tracer_finds_every_hook(monkeypatch):
    spec = importlib.util.spec_from_file_location("pfdbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().absent == []
