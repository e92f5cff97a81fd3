"""One context per parameter set per process.

``shared_params`` hands the campaign, the CLI and the loader of serialized
modules one ``AmbientParams`` per set of keyword arguments.  A context is
read-only after construction and its tables fill lazily, so what a
(suite, seed) task writes must not depend on which tasks filled the shared
context's tables before it, nor on how the tasks are spread over worker
processes.
"""

import json

import pytest

from flbreuil import campaign as CAM
from flbreuil.ambient import AmbientParams, shared_params
from flbreuil.cli import main


def test_same_keywords_give_the_same_context():
    assert shared_params(p=3, r=2) is shared_params(p=3, r=2)
    # lists are keyed as tuples
    amb = shared_params(p=3, r=2, f=2, a=[2, 1])
    assert shared_params(p=3, r=2, f=2, a=[2, 1]) is amb
    assert shared_params(p=3, r=2, f=2, a=(2, 1)) is amb


@pytest.mark.parametrize("change", [{"N_u": 90}, {"headroom": 25}, {"N_gamma": 30},
                                    {"a": 2}, {"f": 2}])
def test_one_differing_keyword_gives_another_context(change):
    base = {"p": 3, "r": 2, "N_u": 84, "headroom": 24, "N_gamma": 28, "a": -1, "f": 1}
    amb = shared_params(**{**base, **change})
    assert amb is not shared_params(**base)
    assert amb is shared_params(**{**base, **change})
    assert all(getattr(amb, k) != getattr(shared_params(**base), k) for k in change)


def _report(params, runs) -> list[str]:
    """The records of each (suite, seed, config) run as ``flbreuil verify``
    writes them."""
    return ["".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                    for rec in CAM.run_suite_seed(params, *run))
            for run in runs]


def test_records_do_not_depend_on_the_tables_filled_before(monkeypatch):
    params = {"p": 3, "r": 1, "headroom": 24}   # used by no other test
    runs = [("ring-laws", 2, {"samples": 30})]
    amb = shared_params(**params)
    assert amb.phi_table(0)[2] == []            # no c^i built yet: cold
    cold = _report(params, runs)
    filled = len(amb.phi_table(0)[2])
    _report(params, [("section", 3, {}), ("lemfil1", 1, {"elements": 10})])
    assert len(amb.phi_table(0)[2]) > filled    # other suites grew the tables
    warm = _report(params, runs)
    monkeypatch.setattr(CAM, "shared_params", AmbientParams)
    fresh = _report(params, runs)
    assert cold == warm == fresh


def test_verify_over_two_jobs_writes_the_one_job_report(tmp_path):
    args = ["verify", "--suite", "ring-laws", "--suite", "unipotence", "--seeds", "1..4",
            "--samples", "5", "--r", "2"]
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert main(args + ["--jobs", "1", "--out", str(one)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
