"""What the benchmark under perfbench/ needs from the package.

A traced run (``--trace 1``) looks up every name in ``tracing.TRACED``
with getattr and rebinds it, and each job checks that it runs in a
fresh interpreter by reading the size of the Bessel-zero row cache.  A
refactor that renames or removes one of these breaks the benchmark, not
the package's own tests, so they are pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("target", _traced_names())
def test_traced_name_is_public_callable(target):
    module_name, attr = target.split(".")
    module = importlib.import_module(f"diskvort.{module_name}")
    assert not attr.startswith("_")
    assert callable(getattr(module, attr))


def test_zero_row_cache_info():
    from diskvort import specfun

    info = specfun._zero_row.cache_info()
    assert info.currsize >= 0
