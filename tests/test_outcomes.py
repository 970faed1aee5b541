"""The outcome fixture: twelve fixed CLI runs still produce what
``tests/outcomes.json`` records (see ``tests/make_outcomes.py``).

A change that moves a rank, a reference rank, a failure census or a
coverage count fails here; so does one that moves a float by more than
the fixture's tolerance.  A change that means to move them regenerates
the fixture and says in CHANGES.md what moved, and why.
"""
import json

import pytest

import make_outcomes

pytestmark = pytest.mark.bitwise

with open(make_outcomes.FIXTURE, encoding="utf-8") as handle:
    FIXTURE = json.load(handle)
RECORDED = {(b["workload"], b["seed"], b["index"]): b for b in FIXTURE["bundles"]}


def test_the_fixture_holds_every_configuration():
    assert sorted(RECORDED) == sorted(make_outcomes.CONFIGS)
    assert FIXTURE["float_rtol"] == make_outcomes.FLOAT_RTOL


@pytest.mark.parametrize("config", make_outcomes.CONFIGS, ids="{0[0]}-seed{0[1]}-op{0[2]}".format)
def test_a_fixed_run_reproduces_its_recorded_outcomes(config):
    recorded = RECORDED[config]
    now = make_outcomes.outcome(*config)
    assert now["input_sha256"] == recorded["input_sha256"], "the workload's inputs changed"
    assert now["discrete_sha256"] == recorded["discrete_sha256"], (
        "ranks, reference rank, census or counts changed"
    )
    assert make_outcomes.float_mismatches(now["floats"], recorded["floats"]) == []


def test_regenerating_keeps_the_groups_a_run_reproduces():
    rtol, _stats = make_outcomes.FLOAT_RTOL, make_outcomes._stats
    then = {
        "intervals.csv": {
            "ols": {"lower": _stats([1.0, -2.0]), "upper": _stats([3.0, 4.0])},
            "wimp": {"lower": _stats([0.5, 0.25])},
        }
    }
    now = {
        "intervals.csv": {
            # within the tolerance: a BLAS's rounding, kept as recorded
            "ols": {"lower": _stats([1.0 + rtol / 10, -2.0]), "upper": _stats([3.0, 4.0])},
            # beyond it: moved, written anew
            "wimp": {"lower": _stats([0.5, 0.25 + 100 * rtol])},
            # not recorded before
            "lavar": {"lower": _stats([7.0])},
        },
        "weights.csv": {"all": {"weight": _stats([0.2, 0.8])}},
    }
    merged = make_outcomes.merge_floats(now, then)
    assert merged["intervals.csv"]["ols"] == then["intervals.csv"]["ols"]
    assert merged["intervals.csv"]["ols"] != now["intervals.csv"]["ols"]
    assert merged["intervals.csv"]["wimp"] == now["intervals.csv"]["wimp"]
    assert merged["intervals.csv"]["lavar"] == now["intervals.csv"]["lavar"]
    assert merged["weights.csv"] == now["weights.csv"]
    # the merged fixture still passes the run it came from
    assert make_outcomes.float_mismatches(now, merged) == []
    # a group that gained a column is written anew
    wider = {"intervals.csv": {"wimp": {**then["intervals.csv"]["wimp"], "point": _stats([1.0])}}}
    assert make_outcomes.merge_floats(wider, then) == wider
