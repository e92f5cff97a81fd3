"""One context per parameter set per process.

``shared_params`` hands the campaign, the CLI and the loader of serialized
modules one ``AmbientParams`` per set of keyword arguments.  A context is
read-only after construction and its tables fill lazily, so what a
(suite, seed) task writes must not depend on which tasks filled the shared
context's tables before it, nor on how the tasks are spread over worker
processes.
"""

import inspect
import json

import pytest

from flbreuil import ambient, witt
from flbreuil import campaign as CAM
from flbreuil.ambient import AmbientParams, _resolve_params, shared_params
from flbreuil.cli import main
from flbreuil.serialize import _params_from_json, _params_to_json


def test_same_keywords_give_the_same_context():
    assert shared_params(p=3, r=2) is shared_params(p=3, r=2)
    # lists are keyed as tuples
    amb = shared_params(p=3, r=2, f=2, a=[2, 1])
    assert shared_params(p=3, r=2, f=2, a=[2, 1]) is amb
    assert shared_params(p=3, r=2, f=2, a=(2, 1)) is amb


@pytest.mark.parametrize("change", [{"N_p": 5}, {"headroom": 25}, {"N_gamma": 30},
                                    {"a": 2}, {"f": 2}])
def test_one_differing_keyword_gives_another_context(change):
    base = {"p": 3, "r": 2, "headroom": 24, "N_gamma": 28, "a": -1, "f": 1}
    amb = shared_params(**{**base, **change})
    assert amb is not shared_params(**base)
    assert amb is shared_params(**{**base, **change})
    assert all(getattr(amb, k) != getattr(shared_params(**base), k) for k in change)


def test_one_context_per_parameters_however_they_are_spelled():
    amb = shared_params(p=3, r=2, f=2, a=-1)
    # the defaults, a padded to f coefficients and reduced mod p^cap, and
    # the modulus that the defaults pick
    assert shared_params(p=3, r=2, f=2, a=[amb.ring.pk[amb.cap] - 1, 0], N_p=6,
                         N_gamma=amb.N_gamma, headroom=amb.headroom,
                         m_coeffs=list(amb.ring.m)) is amb
    # the fields of a serialized module
    doc = _params_to_json(amb)
    assert shared_params(**{**doc, "a": [int(c) for c in doc["a"]["coeffs"]]}) is amb


def test_the_default_modulus_is_searched_once(monkeypatch):
    # the search builds one ring at one digit per candidate, T^2 and then
    # T^2 + 1 at p = 3, f = 2: a new context runs it once, a cached one not
    built = []
    ring = witt._WittRing

    def counted(p, f, m, cap):
        if cap == 1:
            built.append(m)
        return ring(p, f, m, cap)

    monkeypatch.setattr(witt, "_WittRing", counted)
    monkeypatch.setattr(ambient, "_SHARED", {})
    witt._find_irreducible.cache_clear()
    amb = shared_params(p=3, r=1, f=2)
    assert built == [(0, 0, 1), (1, 0, 1)]
    assert shared_params(p=3, r=1, f=2) is amb
    assert len(built) == 2


def test_the_params_document_names_every_parameter_of_a_context():
    # one field per keyword: nothing a context depends on is left out of
    # a file, so every context reloads into itself
    doc_fields = set(_params_to_json(shared_params(p=3, r=2)))
    assert set(inspect.signature(_resolve_params).parameters) == doc_fields
    # a context that differs from the defaults in every field
    amb = shared_params(p=5, r=2, f=2, N_p=4, N_gamma=12, headroom=7, a=[2, 1],
                        m_coeffs=[2, 0, 1])
    defaults = shared_params(p=5, r=3)
    assert all(_params_to_json(amb)[k] != _params_to_json(defaults)[k]
               for k in doc_fields - {"p"})
    assert _params_from_json(_params_to_json(amb)) is amb
    assert amb.N_u == amb.p * amb.N_gamma


def test_cli_and_campaign_share_one_context(tmp_path, monkeypatch):
    monkeypatch.setattr(ambient, "_SHARED", {})
    kisin, breuil = tmp_path / "k.json", tmp_path / "b.json"
    assert main(["gen", "kisin-gls", "--p", "3", "--d", "2", "--out", str(kisin)]) == 0
    assert main(["section", "--in", str(kisin), "--out", str(tmp_path / "s.json")]) == 0
    assert main(["apply", "mfl", "--adjoin-zero-n", "--in", str(kisin), "--out", str(breuil)]) == 0
    assert CAM.run_suite_seed({"p": 3, "r": 1}, "ring-laws", 1, {"samples": 2})
    assert len(ambient._SHARED) == 1


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
    # the packed tables are built whole with the context, before any run
    for table in (amb.c_table, amb.u_table, amb.u_div_table, amb.f0_table):
        assert len(table.cols) == amb.N_gamma
    cold = _report(params, runs)
    _report(params, [("section", 3, {}), ("lemfil1", 1, {"elements": 10})])
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
