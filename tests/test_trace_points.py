"""The traced benchmark run patches mvse functions by name. A refactor that
drops or renames one would only show as a zeroed per-layer metric there,
so this checks, read-only, that every name it patches still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "mvse_bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("mvse_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()
POINTS = (
    [(module, attr) for module, attr, _ in tracing.SPAN_POINTS]
    + [(module, "matvec") for module in tracing.MATVEC_POINTS]
    + [("mvse.training", "loss_from_matrix"), ("mvse.autodiff", "Tape.backward")]
)


@pytest.mark.parametrize("module, attr", POINTS, ids=[f"{m}.{a}" for m, a in POINTS])
def test_trace_point_resolves_to_a_callable(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part, None)
    assert callable(target), f"{module}.{attr} is gone"
