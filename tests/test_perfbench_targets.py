"""The benchmark tracer wraps library functions by name.

A renamed or moved function would silently drop out of the per-layer
figures, so every (module, qualified name) it lists must still resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    names = _traced_names()
    assert names
    for mod_name, qualname in names:
        owner = importlib.import_module(f"a1degrees.{mod_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{mod_name}.{qualname}"
