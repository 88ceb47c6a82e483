"""The traced benchmark wraps ``vlcurate`` functions by name: every name it
lists must exist, so that a rename cannot quietly break ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name,func_name", tracing.SPANNED,
                         ids=[f"{m}.{f}" for m, f in tracing.SPANNED])
def test_spanned_function_exists(module_name, func_name):
    module = importlib.import_module(f"vlcurate.{module_name}")
    assert callable(getattr(module, func_name, None)), f"vlcurate.{module_name}.{func_name}"


@pytest.mark.parametrize("module_name,class_name", tracing.CLIENT_METHODS,
                         ids=[f"{m}.{c}" for m, c in tracing.CLIENT_METHODS])
def test_client_class_has_score(module_name, class_name):
    cls = getattr(importlib.import_module(f"vlcurate.{module_name}"), class_name, None)
    assert cls is not None, f"vlcurate.{module_name}.{class_name}"
    assert callable(getattr(cls, "score", None))
