"""The names the benchmark's traced run wraps, and the exported names, exist.

``bench/spans.py`` looks up every ``(module, name)`` of its ``LAYERS`` table
with ``getattr`` on ``graphkms.<module>`` and wraps
``DirectedGraph._analysis``, so deleting or renaming one of them breaks
``bench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import graphkms

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers():
    # spans.py imports only the standard library; load it by path so that
    # bench/ never shadows a module name on sys.path.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_layers_resolve():
    missing = [
        f"graphkms.{mod}.{name}"
        for targets in _layers().values()
        for mod, name in targets
        if not callable(getattr(importlib.import_module(f"graphkms.{mod}"), name, None))
    ]
    assert missing == []
    assert callable(graphkms.DirectedGraph._analysis)


def test_all_names_resolve():
    assert [name for name in graphkms.__all__ if not hasattr(graphkms, name)] == []
