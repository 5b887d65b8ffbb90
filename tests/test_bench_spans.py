"""The traced benchmark run wraps finetti's functions by name
(``bench/spans.py``), so a function renamed or removed in the package
breaks that run.  This test catches it without running the benchmark."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"finetti.{module}.{name}"
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"finetti.{module}"), name, None))
    ]
    assert missing == []
