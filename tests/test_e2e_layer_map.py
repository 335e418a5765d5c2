"""The end-to-end benchmark's layer map still names live functions.

``benchmarks/e2e/spans.py`` wraps the functions its ``LAYERS`` table
names to split host time by layer.  A rename in ``src/`` would either
crash the traced rep or, for a wildcard entry, silently drop the layer.
This test loads ``spans.py`` without installing anything and checks
that every entry resolves to at least one callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans_readonly", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in module._PRELOAD:
        importlib.import_module(name)
    return module


SPANS = load_spans()
ENTRIES = [
    (layer, module_name, path)
    for layer, entries in SPANS.LAYERS.items()
    for module_name, path in entries
]


@pytest.mark.parametrize(
    "layer, module_name, path", ENTRIES, ids=[f"{m}:{p}" for _, m, p in ENTRIES]
)
def test_layer_entry_resolves_to_a_callable(layer, module_name, path):
    resolved = [
        owner
        for owner, attr, _ in SPANS._targets(module_name, path)
        if callable(getattr(owner, attr, None))
    ]
    assert resolved, f"layer {layer!r}: {module_name} {path} names no callable"

