"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` ``Tracer.install()`` looks up each ``LAYERS`` name
with ``getattr``, so deleting or renaming one would break ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines LAYERS; installs nothing
    missing = [f"cylwigner.{layer}.{name}" for layer, names in tracing.LAYERS.items()
               for name in names
               if not hasattr(importlib.import_module(f"cylwigner.{layer}"), name)]
    assert tracing.LAYERS and not missing, missing
