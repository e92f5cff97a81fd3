import random

import pytest

from flbreuil.breuil import breuil_validate, fil_lower, random_fil_member, random_vector
from flbreuil.errors import MissingGLSForm, NotInvertible, SingularMatrix
from flbreuil.kisin import (
    KisinModule,
    kisin_classify,
    kisin_gls_construct,
    kisin_height_check,
    kisin_raw_fil_checker,
    kisin_to_breuil,
    random_gls,
)
from flbreuil.matrix import RingMatrix
from flbreuil.pd import embed_sigma, fil_valuation


def smat(amb, rows):
    return RingMatrix([[amb.useries(e) for e in row] for row in rows])


def series_ints(s):
    return [c.coeffs[0] for c in s.coeffs]


def test_height_check_examples(amb3):
    E2 = amb3.E_series * amb3.E_series
    res = kisin_height_check(amb3, RingMatrix([[E2]]))
    assert res.ok and res.e_power == 2
    assert series_ints(res.B.entries[0][0]) == [1]

    res = kisin_height_check(amb3, smat(amb3, [[[1]]]))
    assert res.ok and res.e_power == 0
    assert res.B.entries[0][0].eq_at(E2, amb3.cap)

    res = kisin_height_check(amb3, smat(amb3, [[[0, 1]]]))  # A = (u)
    assert not res.ok
    assert "unit times a power of E" in res.witness["reason"]


def test_height_check_builds_B_only_when_read(amb3, amb5):
    for amb in (amb3, amb5):
        rng = random.Random(f"lazy-B:{amb.p}")
        for d in (1, 3):
            K = random_gls(amb, rng, d)
            res = kisin_height_check(amb, K.A)
            assert res.ok and "B" not in res.__dict__
            B = res.B
            assert res.B is B
            # the value the check used to build eagerly, and A B = E^r I
            unit_inv = res.unit.invert()
            assert [[(x.planes, x.prec) for x in row] for row in B.entries] == \
                [[((y * unit_inv).planes, (y * unit_inv).prec) for y in row]
                 for row in res.quotient.entries]
            Er = amb.E_pow(amb.r)
            zero = amb.useries([])
            assert (K.A @ B).eq_at(RingMatrix.identity(d, zero, Er), amb.N_p)
    res = kisin_height_check(amb3, smat(amb3, [[[0, 1]]]))
    assert not res.ok and res.B is None


def test_height_check_singular(amb3):
    with pytest.raises(SingularMatrix):
        kisin_height_check(amb3, smat(amb3, [[[0]]]))


def test_gls_construct_examples(amb3):
    I2 = RingMatrix.identity(2, amb3.useries([]), amb3.useries([1]))
    K = kisin_gls_construct(amb3, I2, (0, 2), I2)
    assert series_ints(K.A.entries[0][0]) == [1]
    assert K.A.entries[1][1].eq_at(amb3.E_series * amb3.E_series, amb3.cap)
    assert K.A.entries[0][1].degree == -1

    Y = smat(amb3, [[[1], [0, 1]], [[0], [1]]])
    K = kisin_gls_construct(amb3, I2, (1, 1), Y)
    # A = [[E, E*u], [0, E]] with E = u - 3
    assert K.A.entries[0][1].eq_at(amb3.E_series * amb3.useries([0, 1]), amb3.cap)
    assert K.A.entries[0][0].eq_at(amb3.E_series, amb3.cap)

    with pytest.raises(NotInvertible):
        kisin_gls_construct(amb3, smat(amb3, [[[3]]]), (1,), smat(amb3, [[[1]]]))


def test_gls_always_passes_height(amb3, amb5):
    for amb in (amb3, amb5):
        rng = random.Random(0)
        for _ in range(10):
            K = random_gls(amb, rng, rng.randrange(1, 4))
            assert kisin_height_check(amb, K.A).ok


def test_classify_examples(amb3):
    E2 = amb3.E_series * amb3.E_series
    c = kisin_classify(KisinModule(amb3, 1, RingMatrix([[E2]])))
    assert c.etale and not c.multiplicative and not c.unipotent.zero
    c = kisin_classify(KisinModule(amb3, 1, smat(amb3, [[[1]]])), max_steps=25)
    assert c.multiplicative and not c.etale and c.unipotent.zero
    zero = amb3.useries([])
    D = RingMatrix([[amb3.useries([1]), zero], [zero, E2]])
    c = kisin_classify(KisinModule(amb3, 2, D))
    assert not c.etale and not c.multiplicative


def test_to_breuil_rank_one(amb3):
    I1 = RingMatrix.identity(1, amb3.useries([]), amb3.useries([1]))
    for s in range(amb3.r + 1):
        K = kisin_gls_construct(amb3, I1, (s,), I1)
        B = kisin_to_breuil(K)
        expect = amb3.c_pow(s).mul_p_pow(s)
        assert B.Phi.entries[0][0].eq_at(expect, amb3.cap - 1)
        assert B.jumps == (s,)
        assert breuil_validate(B).strongly_divisible


def test_to_breuil_diagonal(amb3):
    I2 = RingMatrix.identity(2, amb3.useries([]), amb3.useries([1]))
    B = kisin_to_breuil(kisin_gls_construct(amb3, I2, (0, 2), I2))
    one = amb3.c_pow(0)
    assert B.Phi.entries[0][0].eq_at(one, amb3.cap - 1)
    assert B.Phi.entries[1][1].eq_at(amb3.c_pow(2).mul_p_pow(2), amb3.cap - 1)
    assert B.Phi.entries[0][1].is_zero_at(amb3.N_p)


def test_to_breuil_needs_normal_form(amb3):
    K = KisinModule(amb3, 1, smat(amb3, [[[1]]]))
    with pytest.raises(MissingGLSForm):
        kisin_to_breuil(K)
    with pytest.raises(MissingGLSForm):
        kisin_raw_fil_checker(K)


def raw_fil_checker_unbounded(K):
    """The raw top-filtration test with every product computed in full:
    embed(A) * embed(Y)^(-1) * w, then filtration valuation >= r in each
    component.  Kept as the reference for the two bounded tests."""
    amb = K.amb
    full = K.A.map_entries(embed_sigma) @ K.gls[2].map_entries(embed_sigma).invert()

    def check(w):
        return all(fil_valuation(x, amb.N_p) >= amb.r for x in full.matvec(w))

    return check


def test_raw_vs_adapted_membership(amb3):
    rng = random.Random(1)
    for _ in range(5):
        K = random_gls(amb3, rng, rng.randrange(1, 3))
        B = kisin_to_breuil(K)
        raw = kisin_raw_fil_checker(K)
        ref = raw_fil_checker_unbounded(K)
        for k in range(30):
            if k % 2 == 0:
                x = random_fil_member(B, rng, amb3.r)
            else:
                x = random_vector(B, rng, 5)
            assert fil_lower(B, amb3.r, x) == raw(x) == ref(x)


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_E_powers_are_the_running_products(name, request):
    amb = request.getfixturevalue(name)
    expect = amb.useries([1])
    for n in range(2 * amb.r + 1):
        got = amb.E_pow(n)
        assert got.planes == expect.planes and got.prec == expect.prec
        assert amb.E_pow(n) is got
        expect = expect * amb.E_series
