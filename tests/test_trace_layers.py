"""The benchmark's calls into cylwigner still resolve and still bind.

``perfbench/tracing.py`` ``Tracer.install()`` looks up each ``LAYERS`` name
with ``getattr``, so deleting or renaming one would break ``--trace 1``; and
``perfbench/workloads.py`` calls the evaluators positionally, so removing or
reordering a parameter would break its workloads.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from cylwigner import cylindrical

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines LAYERS; installs nothing
    missing = [f"cylwigner.{layer}.{name}" for layer, names in tracing.LAYERS.items()
               for name in names
               if not hasattr(importlib.import_module(f"cylwigner.{layer}"), name)]
    assert tracing.LAYERS and not missing, missing


@pytest.mark.parametrize("name, args", [
    ("wigner_cyl", ("state", "pt")),
    ("oracle_cyl_from_cartesian", ("state", "pt", "rule")),
    ("marginal_angle_oam", ("state", "phi", "ell", "rule")),
    ("marginal_radial", ("state", "r", "ell_max")),
])
def test_benchmark_call_shapes_bind(name, args):
    inspect.signature(getattr(cylindrical, name)).bind(*args)
