"""The benchmark's tracer wraps pibisim functions by name; every name it
wraps must still exist, so that renaming one fails here rather than in the
benchmark's own tests."""

import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _span, _layer, owner, attr in layers.FUNCTIONS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
