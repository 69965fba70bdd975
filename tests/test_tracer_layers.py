"""The benchmark tracer (perfbench/tracer.py) wraps package functions that
it looks up by name; every (module, function) pair it lists must still
resolve, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import slv  # noqa: F401  (imports every module the tracer patches)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves():
    layers = load_tracer().LAYERS
    assert layers
    missing = [
        f"slv.{m}.{f}"
        for m, f, _ in layers
        if not callable(getattr(importlib.import_module(f"slv.{m}"), f, None))
    ]
    assert missing == []


def test_install_and_restore_leave_no_wrapper():
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        assert tracer.leftover_wrappers()
    finally:
        t.restore()
    assert tracer.leftover_wrappers() == []
