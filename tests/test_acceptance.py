"""Acceptance suite: every contract criterion at its stated tolerance.

Runs the same checks as ``smallball verify`` (seed 42) and prints the
per-criterion PASS/FAIL lines.  The heavy Monte Carlo criteria dominate the
suite's runtime; everything is deterministic given the seed.
"""

import itertools

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
    }
    assert len(streams["C5a"]) == 245 and len(streams["C6"]) == 6
    for a, b in itertools.combinations(streams, 2):
        assert not set(streams[a]) & set(streams[b]), (a, b)
