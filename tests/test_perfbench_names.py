"""The traced benchmark wraps program functions by (module, name); a
rename must fail here, not only in the benchmark's own tests."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPS
    for module, name, _, _ in spans.WRAPS:
        target = getattr(importlib.import_module(module), name, None)
        assert callable(target), f"{module}.{name}"
