"""Each verdict reads only the digits its operands are cut to.

``breuil_validate`` forms its products from Phi, Nmat and C cut to N_p + r
digits, the Kisin raw checker its matrix from A and Y cut to N_p, the
round trip of ``roundtrip-breuil`` its checks from g, Bmat and Nmat cut to
N_p, and the section suite its Kisin section by ``section_compute(...,
prec=N_p)``.  The contract behind each cut: adding random multiples of
p^(N_p + r), respectively p^N_p, to the operands changes no verdict, on
base-change images, rebased modules, Kisin-derived modules and the
square-only and Griffiths-failing controls of ``test_breuil``; and the
section suite writes the same records with the cut section as with the
full one.  A witness of valuation N_p - 1 pins the raw checker's
precision from below.
"""

import random

import pytest

from flbreuil import functors as FU
from flbreuil.ambient import shared_params
from flbreuil.breuil import (
    BreuilModule,
    _random_fil_member,
    _random_vector,
    _rebase,
    breuil_validate,
    fil_lower,
)
from flbreuil.campaign import _random_congruent_identity, _roundtrip_breuil_checks, run_suite_seed
from flbreuil.fl import FLModule, _random_fl
from flbreuil.functors import breuil_to_fl, fl_to_breuil, section_compute
from flbreuil.kisin import KisinModule, _kisin_raw_fil_checker, kisin_to_breuil, random_gls
from flbreuil.matrix import RingMatrix
from flbreuil.pd import _pd_gamma, _pd_zero
from test_breuil import griffiths_failing_module, square_only_module

CONTEXTS = [{"p": 3, "r": 2}, {"p": 5, "r": 3}, {"p": 3, "r": 2, "f": 2}]


def jolt(x, k, rng):
    """x, over W(k)[[u]] or S, plus p^k times a random element of its ring
    with N_gamma coefficients."""
    amb = x.amb
    return x + type(x)(amb, [amb.ring.random(rng) for _ in range(amb.N_gamma)]).mul_p_pow(k)


def jolt_all(M, k, rng):
    """A matrix or vector with every entry jolted by p^k."""
    if isinstance(M, RingMatrix):
        return RingMatrix([[jolt(x, k, rng) for x in row] for row in M.entries])
    return tuple(jolt(x, k, rng) for x in M)


def samples(B, rng, n):
    return [_random_fil_member(B, rng, rng.randrange(B.amb.r + 1)) if i % 2 == 0
            else _random_vector(B, rng, 6) for i in range(n)]


def modules(amb, rng):
    """Base-change images, rebased modules, Kisin-derived modules (no
    monodromy) and a base change of a module that is not strong."""
    out = []
    for d in (1, 2, 3):
        M = _random_fl(amb, rng, d)
        out.append(fl_to_breuil(M))
        out.append(_rebase(fl_to_breuil(M), _random_congruent_identity(amb, rng, d)))
        out.append(kisin_to_breuil(random_gls(amb, rng, d)))
    out.append(fl_to_breuil(FLModule(amb, M.jumps, M.Ftil.mul_p_pow(1))))
    return out


@pytest.mark.parametrize("params", CONTEXTS, ids=str)
def test_validate_reads_n_p_plus_r_digits(params):
    amb = shared_params(**params)
    rng = random.Random(f"validate:{params}")
    # the Griffiths-failing module needs r = 2, the square-only one r = p - 2
    if amb.r == 2:
        controls, failed = [griffiths_failing_module(amb)], (True, False, False, True)
    else:
        controls, failed = [square_only_module(5, s) for s in (1, 2)], (True, True, False, True)
    verdicts = set()
    for B in modules(amb, rng) + controls:
        k = B.amb.N_p + B.amb.r
        rep = breuil_validate(B)
        verdicts.add(tuple(rep))
        for _ in range(2):
            Nmat = None if B.Nmat is None else jolt_all(B.Nmat, k, rng)
            moved = BreuilModule(B.amb, jolt_all(B.Phi, k, rng), Nmat, jolt_all(B.C, k, rng),
                                 B.jumps)
            assert breuil_validate(moved) == rep
    # valid, not strong, without monodromy, and the control's failure
    assert verdicts == {(True,) * 4, (False, True, True, True), (True, None, None, None), failed}


@pytest.mark.parametrize("params", CONTEXTS, ids=str)
def test_raw_kisin_checker_reads_n_p_digits(params):
    amb = shared_params(**params)
    rng = random.Random(f"raw:{params}")
    for d in (1, 2, 3):
        K = random_gls(amb, rng, d)
        B = kisin_to_breuil(K)
        raw = _kisin_raw_fil_checker(K)
        moved = _kisin_raw_fil_checker(KisinModule(
            amb, jolt_all(K.X, amb.N_p, rng), K.jumps, jolt_all(K.Y, amb.N_p, rng)))
        for x in samples(B, rng, 12):
            verdict = raw(x)
            assert verdict == fil_lower(B, amb.r, x)
            assert moved(jolt_all(x, amb.N_p, rng)) == verdict


@pytest.mark.parametrize("params", CONTEXTS, ids=str)
def test_raw_kisin_checker_sees_digit_n_p(params):
    # p^(N_p - 1) e_j leaves Fil^r when r_j < r: its image is p^(N_p - 1)
    # times column j of X diag(E^(r_i)), whose coefficient r_j is a unit
    # in some row, nonzero mod p^N_p and zero mod p^(N_p - 1)
    amb = shared_params(**params)
    K = random_gls(amb, random.Random(f"witness:{params}"), 2, (0, amb.r))
    raw = _kisin_raw_fil_checker(K)
    zero = _pd_zero(amb)
    w = _pd_gamma(amb, 0).mul_p_pow(amb.N_p - 1)
    assert not raw((w, zero))
    assert not fil_lower(kisin_to_breuil(K), amb.r, (w, zero))
    assert raw((zero, w))


@pytest.mark.parametrize("params", CONTEXTS, ids=str)
def test_roundtrip_breuil_checks_read_n_p_digits(params):
    amb = shared_params(**params)
    at = amb.N_p
    rng = random.Random(f"roundtrip:{params}")
    verdicts = set()
    for d in (1, 2, 3):
        g = _random_congruent_identity(amb, rng, d)
        Bt = _rebase(fl_to_breuil(_random_fl(amb, rng, d)), g)
        sec = section_compute(Bt)
        transport = breuil_to_fl(Bt, section=sec)
        xs = samples(Bt, rng, 8)
        # the section itself, and one off in digit N_p - 1
        for Bm in (sec.Bmat, jolt_all(sec.Bmat, at - 1, rng)):
            t = transport._replace(section=sec._replace(Bmat=Bm))
            verdict = _roundtrip_breuil_checks(Bt, g, t, xs)
            verdicts.add(verdict)
            moved = BreuilModule(amb, Bt.Phi, jolt_all(Bt.Nmat, at, rng), Bt.C, Bt.jumps)
            t = transport._replace(section=sec._replace(Bmat=jolt_all(Bm, at, rng)))
            assert _roundtrip_breuil_checks(moved, jolt_all(g, at, rng), t,
                                            [jolt_all(x, at, rng) for x in xs]) == verdict
    assert (True, True, True) in verdicts and (False, False, True) in verdicts


@pytest.mark.parametrize("params", [{"p": 3, "r": 2}, {"p": 5, "r": 4}, {"p": 3, "r": 2, "f": 2}],
                         ids=str)
def test_section_suite_records_match_the_uncut_section(params, monkeypatch):
    full, precs = FU.section_compute, []

    def seen(B, prec=None):
        precs.append(prec)
        return full(B, prec)

    monkeypatch.setattr(FU, "section_compute", seen)
    cut = [run_suite_seed(params, "section", seed, {}) for seed in (1, 2, 3, 4)]
    # the base change's section runs uncut, the Kisin module's at N_p
    assert precs == [None, shared_params(**params).N_p] * 4
    monkeypatch.setattr(FU, "section_compute", lambda B, prec=None: full(B))
    assert [run_suite_seed(params, "section", seed, {}) for seed in (1, 2, 3, 4)] == cut
