"""Fast self-test of the benchmark: reference values and every workload at a tiny size.

    python3 bench/selftest.py          # or: python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402

GEOMETRIC_Q = 0.5 ** np.arange(1, 51)


def test_airy_ground_state():
    assert reference.airy_lambda1() == pytest.approx(0.8086165, abs=5e-8)


def test_cosh_laplace_closed_form():
    for lam in (0.5, 1.0, 5.0, 10.0):
        assert reference.cosh_laplace(lam) == pytest.approx(math.cosh(math.sqrt(2 * lam)) ** -0.5, rel=1e-14)


def test_theta_series_matches_reflection_series():
    # P(sup|B| <= x) = 1 - 4 sum_k (-1)^k Qbar((2k+1) x), an independent representation
    for x in (0.7, 1.0, 1.5, 2.5):
        tail = sum((-1) ** k * 0.5 * math.erfc((2 * k + 1) * x / math.sqrt(2)) for k in range(20))
        assert reference.theta_log_cdf(x) == pytest.approx(math.log1p(-4 * tail), rel=1e-12)


def test_trapezoid_spectrum():
    mu = reference.trapezoid_clock_eigenvalues(512)
    assert mu.sum() == pytest.approx(0.5, rel=1e-12)  # E int_0^1 B^2 = 1/2, exact for the trapezoid
    assert mu.max() == pytest.approx(4 / math.pi**2, rel=1e-4)  # first Karhunen-Loeve eigenvalue
    assert mu.min() > 0


def test_matched_and_continuous_chaos_agree():
    mu = reference.trapezoid_clock_eigenvalues(512)
    for eps in (0.4, 0.2):
        mean, var = reference.matched_chaos_smallball(eps, GEOMETRIC_Q, mu)
        assert mean == pytest.approx(reference.sech_product_smallball(eps, GEOMETRIC_Q), rel=1e-4)
        assert 0 < var < mean * (1 - mean)


def test_grid_max_law():
    for eps in (0.5, 1.0):
        assert reference.grid_max_cdf(eps, 1) == pytest.approx(math.erf(eps / math.sqrt(2)), rel=1e-12)
        assert reference.grid_max_cdf(eps, 64, nodes=200) == pytest.approx(reference.grid_max_cdf(eps, 64), rel=1e-10)


def test_z_bound_widens_for_heavy_tails():
    mu = reference.trapezoid_clock_eigenvalues(512)
    assert reference.conditional_z_bound(0.4, GEOMETRIC_Q, mu, 512) == 6.0
    assert reference.conditional_z_bound(0.1, GEOMETRIC_Q, mu, 512) > 6.0


@pytest.fixture(scope="module")
def spec():
    run._import_package()
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (False, True))
def test_workload_tiny(spec, name, trace):
    res = run.run_workload(name, seed=5, seconds=0.0, trace=trace, tiny=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == wanted
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_workloads_match_benchmark_json(spec):
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
