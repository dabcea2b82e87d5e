"""The benchmark's tracer wraps library functions by (module, attribute)
name; a name that no longer resolves crashes every traced run."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = _traced_targets()


@pytest.mark.parametrize("metric,module,attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_traced_name_resolves(metric, module, attr):
    import jacobisobolev  # noqa: F401  (the tracer imports the package first)

    assert callable(getattr(importlib.import_module(module), attr, None)), metric
