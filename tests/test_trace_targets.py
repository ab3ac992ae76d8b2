"""The benchmark's outside tracer (perfbench/spans.py) wraps verifier names
by attribute; a rename in src/ must fail here, not only under --trace 1."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    spans = _load_spans()
    for owner, attr in [t[:2] for t in spans.TARGETS] + [spans.CACHE_GET]:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"
        assert callable(owner.__dict__[attr])
    spans.assert_unwrapped()
