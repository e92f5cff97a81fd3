"""The N_p = 1 universes: every strong FL module of a tiny context, in a
fixed order with no draw, not a sample.

At p = 3, r = 1, f = 1 and N_p = 1 a module of rank d <= 2 is a jump
sequence in {0, 1} and an Ftil in GL_d(F_3): 4 modules of rank one and
3 * 48 of rank two.  At f = 2 the rank-one modules take Ftil in F_9^x.
Each one runs FL -> S -> FL, which must give back its jumps and Ftil on
the nose, and ``breuil_validate`` of its image in S, which must be
``all_true``.  The image carries the derivation alone as its N, so each
rank-two module is also re-presented by two fixed bases of S whose N is
not zero, and the Griffiths and phi/N-square checks then run on a real N.
"""

from itertools import combinations_with_replacement, product

import pytest

from flbreuil.ambient import AmbientParams
from flbreuil.breuil import _rebase, breuil_validate
from flbreuil.fl import FLModule, fl_validate
from flbreuil.functors import breuil_to_fl, fl_to_breuil, section_compute
from flbreuil.matrix import RingMatrix
from flbreuil.pd import _pd_gamma, _pd_one, _pd_zero


def universe(amb, d: int):
    """Every strong FL module of rank d over W_(N_p)(k), jumps ascending,
    Ftil's entries the residues (c_0, ..., c_(f-1)) in lexicographic order."""
    residues = list(product(range(amb.p), repeat=amb.f))
    for jumps in combinations_with_replacement(range(amb.r + 1), d):
        for entries in product(residues, repeat=d * d):
            Ftil = RingMatrix([[amb.ring.make(entries[i * d + j]) for j in range(d)]
                               for i in range(d)])
            M = FLModule(amb, jumps, Ftil)
            if fl_validate(M):
                yield M


def rebases(amb):
    """h = [[1, gamma_1], [0, 1]] and [[1 + gamma_1, 0], [gamma_1, 1]]."""
    one, zero, g1 = _pd_one(amb), _pd_zero(amb), _pd_gamma(amb, 1)
    return [RingMatrix([[one, g1], [zero, one]]), RingMatrix([[one + g1, zero], [g1, one]])]


def assert_round_trip_and_valid(B, M):
    back = breuil_to_fl(B, section=section_compute(B)).M
    assert back.jumps == M.jumps
    assert back.Ftil.eq_at(M.Ftil, M.amb.N_p)
    assert breuil_validate(B).all_true()


@pytest.fixture(scope="module")
def amb_f1():
    return AmbientParams(3, 1, N_p=1)


def test_the_universes_have_their_size(amb_f1):
    assert [sum(1 for _ in universe(amb_f1, d)) for d in (1, 2)] == [4, 144]
    assert sum(1 for _ in universe(AmbientParams(3, 1, f=2, N_p=1), 1)) == 16


@pytest.mark.parametrize("d", [1, 2])
def test_every_module_of_the_f1_universe_round_trips_and_validates(amb_f1, d):
    for M in universe(amb_f1, d):
        assert_round_trip_and_valid(fl_to_breuil(M), M)


def test_every_rank_two_module_round_trips_and_validates_in_two_other_bases(amb_f1):
    hs = rebases(amb_f1)
    for M in universe(amb_f1, 2):
        B = fl_to_breuil(M)
        for h in hs:
            Bh = _rebase(B, h)
            assert not Bh.Nmat.is_zero_at(amb_f1.N_p)
            assert_round_trip_and_valid(Bh, M)


def test_every_rank_one_module_at_f2_round_trips_and_validates():
    amb = AmbientParams(3, 1, f=2, N_p=1)
    for M in universe(amb, 1):
        assert_round_trip_and_valid(fl_to_breuil(M), M)
