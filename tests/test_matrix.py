import random

import pytest

from flbreuil.errors import NotDivisible, NotInvertible
from flbreuil.matrix import RingMatrix, converges_to_zero, scaled_inverse, twisted_chain
from flbreuil.pd import pd_gamma, pd_one, pd_random, pd_zero
from flbreuil.series import SigmaSeries
from flbreuil.witt import WittScalar

sigma = WittScalar.frobenius


def wmat(amb, rows):
    return RingMatrix([[amb.w(v) for v in row] for row in rows])


def wident(amb, d):
    return RingMatrix.identity(d, amb.ring.zero(), amb.ring.one())


def test_invert_identity_and_swap(amb3):
    I = wident(amb3, 2)
    assert I.invert().eq_at(I, amb3.cap)
    sw = wmat(amb3, [[0, 1], [1, 0]])
    assert sw.invert().eq_at(sw, amb3.cap)


def test_invert_unipotent_pd(amb3):
    g1 = pd_gamma(amb3, 1)
    A = RingMatrix([[pd_one(amb3), g1], [pd_zero(amb3), pd_one(amb3)]])
    inv = A.invert()
    assert (inv @ A).eq_at(RingMatrix.identity(2, pd_zero(amb3), pd_one(amb3)), amb3.cap)
    assert (inv.entries[0][1] + g1).is_zero_at(amb3.cap)


def test_invert_rejects_residue_singular(amb3):
    with pytest.raises(NotInvertible):
        wmat(amb3, [[3, 0], [0, 1]]).invert()


def test_invert_random_all_rings(amb3, amb9):
    # one hundred certified inversions per scalar type
    rng = random.Random(0)
    for amb in (amb3, amb9):
        done = 0
        while done < 100:
            A = RingMatrix([[amb.ring.random(rng) for _ in range(3)] for _ in range(3)])
            if not A.residue_invertible():
                continue
            assert (A.invert() @ A).eq_at(wident(amb, 3), amb.cap)
            done += 1
    done = 0
    while done < 100:
        A = RingMatrix(
            [[SigmaSeries(amb3, [amb3.ring.random(rng) for _ in range(4)]) for _ in range(2)]
             for _ in range(2)],
        )
        if not A.residue_invertible():
            continue
        assert (A.invert() @ A).eq_at(RingMatrix.identity(2, amb3.useries([]), amb3.useries([1])), amb3.cap)
        done += 1
    done = 0
    while done < 100:
        A = RingMatrix([[pd_random(amb3, rng, 4) for _ in range(2)] for _ in range(2)])
        if not A.residue_invertible():
            continue
        assert (A.invert() @ A).eq_at(RingMatrix.identity(2, pd_zero(amb3), pd_one(amb3)), amb3.N_p)
        done += 1


def test_twisted_chain_basics(amb3):
    A = wmat(amb3, [[2, 1], [0, 1]])
    assert twisted_chain(A, 0, sigma).eq_at(A, amb3.cap)
    # f = 1 makes sigma trivial, so the chain is a plain power
    P = twisted_chain(A, 2, sigma)
    assert P.eq_at(A @ A @ A, amb3.cap)
    D = wmat(amb3, [[3, 0], [0, 1]])
    assert twisted_chain(D, 1, sigma).eq_at(wmat(amb3, [[9, 0], [0, 1]]), amb3.cap)


def test_twisted_chain_composition_identity(amb3, amb9):
    rng = random.Random(1)
    for amb in (amb3, amb9):
        A = RingMatrix([[amb.ring.random(rng) for _ in range(2)] for _ in range(2)])
        for m, n in [(0, 1), (1, 1), (2, 0)]:
            lhs = twisted_chain(A, m + n + 1, sigma)
            tail = twisted_chain(A, n, sigma)
            for _ in range(m + 1):
                tail = tail.map_entries(sigma)
            rhs = twisted_chain(A, m, sigma) @ tail
            assert lhs.eq_at(rhs, amb.cap)


def test_converges_examples(amb3):
    pI = wmat(amb3, [[3, 0], [0, 3]])
    v = converges_to_zero(pI, sigma, amb3.N_p)
    assert v.zero and v.steps == amb3.N_p - 1
    v = converges_to_zero(wident(amb3, 2), sigma, amb3.N_p)
    assert not v.zero and v.witness is not None
    M = wmat(amb3, [[0, 9], [1, 0]])
    assert converges_to_zero(M, sigma, amb3.N_p).zero


def test_converges_invariant_under_conjugation(amb3):
    rng = random.Random(2)
    for _ in range(10):
        A = RingMatrix([[amb3.ring.random(rng) for _ in range(2)] for _ in range(2)])
        g = None
        while g is None or not g.residue_invertible():
            g = RingMatrix([[amb3.ring.random(rng) for _ in range(2)] for _ in range(2)])
        conj = g @ A @ g.invert()
        # f = 1: every g is fixed by sigma
        assert converges_to_zero(A, sigma, amb3.N_p).zero == \
            converges_to_zero(conj, sigma, amb3.N_p).zero


def test_denominator_alignment(amb3):
    A = RingMatrix([[amb3.w(9)]], denom_exp=2)   # stands for 1
    B = RingMatrix([[amb3.w(1)]])
    assert A.eq_at(B, amb3.N_p)
    assert (A - B).is_zero_at(amb3.N_p)
    assert A.normalize().denom_exp == 0
    with pytest.raises(NotDivisible):
        RingMatrix([[amb3.w(1)]], denom_exp=1).normalize()


def test_scaled_inverse(amb3):
    A0 = wmat(amb3, [[1, 0], [0, 9]])
    S = scaled_inverse(A0, 2)
    assert S.eq_at(wmat(amb3, [[9, 0], [0, 1]]), amb3.N_p)
    with pytest.raises(NotDivisible):
        scaled_inverse(wmat(amb3, [[27]]), 2)  # p^2 / p^3 is not integral


def test_det_adjugate_identity(amb3):
    rng = random.Random(3)
    for d in (1, 2, 3):
        A = RingMatrix([[amb3.ring.random(rng) for _ in range(d)] for _ in range(d)])
        det = A.det()
        prod = A @ A.adjugate()
        expect = wident(amb3, d).scale(det)
        assert prod.eq_at(expect, amb3.cap)
