"""The benchmark's tracer wraps mcrsp functions by name; fail fast when a
refactor removes or renames one of them."""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_names_are_mcrsp_functions():
    for short, names in load_tracer().SPANNED.items():
        module = importlib.import_module(f"mcrsp.{short}")
        for name in names or ():
            assert inspect.isfunction(getattr(module, name, None)), \
                f"mcrsp.{short}.{name}"


def test_metrics_declares_its_public_functions():
    import mcrsp.metrics

    assert mcrsp.metrics.__all__
