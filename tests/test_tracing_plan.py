"""The benchmark's tracer patches package functions by name; each must exist.

``bench/tracing.py`` looks every name of its wrap plan up with ``getattr`` when
a traced run starts, so deleting or renaming one of them would crash only the
traced half of ``python3 bench/run.py``.  These tests fail first.
"""

import importlib
from pathlib import Path

import pytest

from smallball import mc, paths

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_traced_names_exist(tracing):
    for name in (*tracing.ESTIMATORS, *tracing.ORACLES, "sup_bm_grid_cdf"):
        assert callable(getattr(mc, name, None)), f"mc.{name}"
    for module in (mc, paths):
        for name in ("sup_samples", "clock_interval_increment_samples"):
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_wrap_plan_installs_and_restores(tracing):
    before = mc.probe_smallball_conditional
    with tracing.installed(tracing.Tracer()):
        assert mc.probe_smallball_conditional is not before
    assert mc.probe_smallball_conditional is before
