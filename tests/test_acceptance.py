"""Acceptance suite: every contract criterion at its stated tolerance.

Runs the same checks as ``smallball verify`` (seed 42) and prints the
per-criterion PASS/FAIL lines.  The heavy Monte Carlo criteria dominate the
suite's runtime; everything is deterministic given the seed.
"""

import itertools

import numpy as np
import pytest

from smallball import acceptance, mc

SEED = 42


@pytest.fixture(scope="module")
def results():
    res = acceptance.run_all(SEED)
    return {r.cid: r for r in res}


@pytest.mark.parametrize("cid", ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"])
def test_criterion_passes(results, cid):
    r = results[cid]
    assert r.passed, f"{cid} failed: {r.detail}"


@pytest.mark.parametrize("cid", ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"])
def test_criterion_within_budget(results, cid):
    r = results[cid]
    assert r.within_budget, f"{cid} took {r.seconds:.1f}s (budget {r.budget_seconds:.0f}s)"


def test_all_criteria_ran(results):
    assert set(results) == {f"C{i}" for i in range(1, 9)}


def test_lil_demo_is_informational_only():
    # C9: the almost-sure limit laws carry no pass/fail contract; the demo
    # trajectory just has to exist and scale sensibly
    t, ratio, target = acceptance.lil_demo_trajectory(seed=SEED, horizon=100.0, n_steps=2**13, q_terms=10)
    assert np.all(np.isfinite(ratio))
    assert np.all(ratio > 0)
    assert target == pytest.approx(np.pi / 4 * 2 * np.sum(0.5 ** np.arange(1, 11)))


@pytest.mark.parametrize("horizon, n_steps", [(5.0, 2**13), (10.0, 2**13), (np.nan, 2**13), (2000.0, 100)])
def test_lil_demo_rejects_bad_grids(horizon, n_steps, monkeypatch):
    # a horizon of at most 10 or a first checkpoint on node 0 fails before anything is simulated
    monkeypatch.setattr(acceptance.paths, "simulate_path", None)
    with pytest.raises(ValueError, match="t = 10"):
        acceptance.lil_demo_trajectory(seed=SEED, horizon=horizon, n_steps=n_steps, q_terms=10)


def test_stream_ids_are_disjoint():
    # every criterion's streams, counted from its batch layout, against every other's
    def batches(cfg):
        return range(cfg.stream_base, cfg.stream_base + len(mc._batch_sizes(cfg)))

    streams = {
        "C3": [acceptance._STREAM_C3],
        "C4": [acceptance._STREAM_C4],
        "C5a": batches(acceptance._C5A_CONFIG),
        "C5b": batches(acceptance._C5B_CONFIG),
        "C6": range(acceptance._STREAM_C6, acceptance._STREAM_C6 + 2 * acceptance._C6_REPS),
        "C7": batches(acceptance._C7_CONFIG),
        "lil-demo": [acceptance._STREAM_LIL],
    }
    assert len(streams["C5a"]) == 245 and len(streams["C6"]) == 6
    for a, b in itertools.combinations(streams, 2):
        assert not set(streams[a]) & set(streams[b]), (a, b)
