"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Desk scale: p in {3, 5}, f = 1, N_p = 6, gamma truncation from the ambient
defaults, d <= 3, seeds as stated per criterion.  Every check is exact at
the public precision (tolerance zero modulo p^N_p).
"""

import pytest

from flbreuil.campaign import run_suite_seed

PRIMES = (3, 5)


def _run(p, r, suite, seeds, cfg=None):
    recs = []
    for seed in seeds:
        recs.extend(run_suite_seed({"p": p, "r": r}, suite, seed, cfg or {}))
    return recs


def _only(records, check):
    out = [r for r in records if r["check"] == check]
    assert out, f"no records for {check}"
    return out


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {label}: {status}{detail}")
    assert ok, f"criterion {num} failed ({label}){detail}"


# shared heavy runs ---------------------------------------------------------

@pytest.fixture(scope="module")
def section_records():
    return {p: _run(p, p - 1, "section", range(1, 51)) for p in PRIMES}


@pytest.fixture(scope="module")
def lemfil_records():
    return {p: _run(p, p - 1, "lemfil1", range(1, 51), {"elements": 200}) for p in PRIMES}


# criteria ------------------------------------------------------------------

def test_criterion_01_ring_laws():
    bad = []
    for p in PRIMES:
        recs = _run(p, p - 1, "ring-laws", [1], {"samples": 100})
        bad.extend(r for r in recs if not r["ok"])
    _report(1, "ring laws and structure maps, 100 samples each", not bad,
            f" ({len(bad)} failing checks)" if bad else "")


def test_criterion_02_easylemma():
    bad = []
    n = 0
    for p in PRIMES:
        recs = _run(p, p - 1, "easylemma", range(1, 6), {"samples": 20})
        n += len(recs)
        bad.extend(r for r in recs if not r["ok"])
    _report(2, f"one-step filtration descent, {n} record groups", not bad)


def test_criterion_03_two_filtrations_agree(lemfil_records):
    bad = []
    total = 0
    for p in PRIMES:
        recs = _only(lemfil_records[p], "tensor-vs-hat")
        total += len(recs)
        bad.extend(r for r in recs if not r["ok"])
    _report(3, f"tensor vs recursive filtration on {total} modules x 200 elements",
            not bad)


def test_criterion_04_section_telescopes(section_records):
    bad = []
    total = 0
    for p in PRIMES:
        recs = _only(section_records[p], "section-telescopes-on-base-change")
        total += len(recs)
        bad.extend(r for r in recs if not r["ok"])
    _report(4, f"section is the identity with 0 iterations on {total} base-change "
               f"modules", not bad)


def test_criterion_05_section_certificates(section_records):
    bad = []
    total = 0
    for p in PRIMES:
        for check in ("section-rate-bound", "section-fixed-point-certificate"):
            recs = _only(section_records[p], check)
            total += len(recs)
            bad.extend(r for r in recs if not r["ok"])
    _report(5, f"section rate bound + fixed-point certificate on {total // 2} "
               f"normal-form instances", not bad)


def test_criterion_06_first_iterate_claim(section_records):
    bad = []
    total = 0
    for p in PRIMES:
        recs = _only(section_records[p], "section-first-iterate-claim")
        total += len(recs)
        bad.extend(r for r in recs if not r["ok"])
    _report(6, f"p(B_0 - I) lies in u^p S on {total} instances", not bad)


def test_criterion_07_roundtrip_fl():
    bad = []
    total = 0
    for p in PRIMES:
        recs = _run(p, p - 2, "roundtrip-fl", range(1, 51))
        recs += _run(p, p - 1, "roundtrip-fl", range(1, 26))
        total += len(recs)
        bad.extend(r for r in recs if not r["ok"])
    _report(7, f"FL -> S -> FL reproduces jumps and Ftil exactly on {total} modules",
            not bad)


def test_criterion_08_roundtrip_breuil():
    recs = []
    for p in PRIMES:
        recs += _run(p, p - 2, "roundtrip-breuil", range(1, 51))
    total = len(recs)
    converged = [r for r in recs if r.get("converged")]
    ok_rate = len(converged) >= 0.95 * total
    exact_ok = all(r["ok"] for r in converged)
    _report(8, f"S -> FL -> S on perturbed bases: {len(converged)}/{total} converged, "
               f"converged cases exact", ok_rate and exact_ok)


def test_criterion_09_unipotence_preserved():
    bad = []
    total = 0
    for p in PRIMES:
        recs = _run(p, p - 1, "unipotence", range(1, 51))
        total += len(recs)
        bad.extend(r for r in recs if not r["ok"])
    _report(9, f"unipotence verdicts agree across the base change ({total} records, "
               f"crafted families included)", not bad)


def test_criterion_10_kisin_transfer_consistency():
    bad = []
    total = 0
    for p in PRIMES:
        recs = _run(p, p - 1, "kisin-breuil-consistency", range(1, 26),
                    {"elements": 200})
        total += len(recs)
        bad.extend(r for r in recs if not r["ok"])
    _report(10, f"raw vs adapted top filtration + strong divisibility on "
                f"{total // 2} transferred instances", not bad)


def test_criterion_11_strongness_transfers(lemfil_records):
    bad = []
    pos = neg = 0
    for p in PRIMES:
        good = _only(lemfil_records[p], "mls-image-validates")
        flip = _only(lemfil_records[p], "mls-notstrong-detected")
        pos += len(good)
        neg += len(flip)
        bad.extend(r for r in good + flip if not r["ok"])
    _report(11, f"strong iff strongly divisible image ({pos} strong + {neg} "
                f"non-strong instances)", not bad)
