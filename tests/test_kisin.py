import random

import pytest

from flbreuil.ambient import AmbientParams
from flbreuil.breuil import _random_fil_member, _random_vector, breuil_validate, fil_lower
from flbreuil.campaign import run_suite_seed
from flbreuil.errors import NotInvertible, SingularMatrix
from flbreuil.functors import breuil_to_fl
from flbreuil import kisin
from flbreuil.kisin import (
    KisinModule,
    _kisin_raw_fil_checker,
    kisin_to_breuil,
    random_gls,
)
from flbreuil.matrix import RingMatrix
from flbreuil.pd import _embed_sigma, _fil_valuation, phi_S
from height_reference import kisin_height_check


def smat(amb, rows):
    return RingMatrix([[amb.useries(e) for e in row] for row in rows])


def series_ints(s):
    return [c.coeffs[0] for c in s.coeffs]


def test_height_check_examples(amb3):
    E2 = amb3.E_series * amb3.E_series
    res = kisin_height_check(amb3, RingMatrix([[E2]]))
    assert res.ok and res.e_power == 2

    res = kisin_height_check(amb3, smat(amb3, [[[1]]]))
    assert res.ok and res.e_power == 0

    res = kisin_height_check(amb3, smat(amb3, [[[0, 1]]]))  # A = (u)
    assert not res.ok
    assert "unit times a power of E" in res.witness["reason"]


def test_height_check_rejects_height_above_r(amb3):
    # det(A) = E^(r+1) is within r*d factors of E, but E^r adj(A) has the
    # entry E^r, which E^(r+1) does not divide
    one = amb3.useries([1])
    zero = amb3.useries([])
    res = kisin_height_check(amb3, RingMatrix([[amb3.E_pow(amb3.r + 1), zero], [zero, one]]))
    assert not res.ok
    assert res.witness["entry"] == (0, 0) and res.witness["division"] == amb3.r


def test_height_check_singular(amb3):
    with pytest.raises(SingularMatrix):
        kisin_height_check(amb3, smat(amb3, [[[0]]]))


def test_gls_construct_examples(amb3):
    I2 = RingMatrix.identity(2, amb3.useries([]), amb3.useries([1]))
    K = KisinModule(amb3, I2, (0, 2), I2)
    assert series_ints(K.A.entries[0][0]) == [1]
    assert K.A.entries[1][1].eq_at(amb3.E_series * amb3.E_series, amb3.cap)
    assert K.A.entries[0][1].degree == -1

    Y = smat(amb3, [[[1], [0, 1]], [[0], [1]]])
    K = KisinModule(amb3, I2, (1, 1), Y)
    # A = [[E, E*u], [0, E]] with E = u - 3
    assert K.A.entries[0][1].eq_at(amb3.E_series * amb3.useries([0, 1]), amb3.cap)
    assert K.A.entries[0][0].eq_at(amb3.E_series, amb3.cap)

    with pytest.raises(NotInvertible):
        KisinModule(amb3, smat(amb3, [[[3]]]), (1,), smat(amb3, [[[1]]]))


def test_gls_always_passes_height(amb3, amb5):
    for amb in (amb3, amb5):
        rng = random.Random(0)
        for _ in range(10):
            K = random_gls(amb, rng, rng.randrange(1, 4))
            assert kisin_height_check(amb, K.A).ok


@pytest.mark.parametrize("name, d_max", [("amb3", 7), ("amb5", 5)])
def test_height_reference_agrees_with_the_normal_form(name, d_max, request):
    # the kernel never re-proves the height of a module it builds; the
    # reference reads A alone (Berkowitz and synthetic division by E)
    amb = request.getfixturevalue(name)
    rng = random.Random(f"height:{amb.p}")
    for d in range(1, d_max + 1):
        K = random_gls(amb, rng, d)
        res = kisin_height_check(amb, K.A)
        assert res.ok and res.e_power == sum(K.jumps)
        B, Er = normal_form_B(K)
        assert (K.A @ B).eq_at(Er, amb.N_p)


def normal_form_B(K):
    """B = Y^(-1) diag(E^(r - r_i)) X^(-1), built from the E powers
    directly, and E^r I: A B = E^r I when A has height <= r."""
    amb, d = K.amb, K.d
    B = K.Y.invert() @ RingMatrix(
        [[amb.E_pow(amb.r - K.jumps[i]) if i == j else amb.useries([])
          for j in range(d)] for i in range(d)]) @ K.X.invert()
    return B, RingMatrix.identity(d, amb.useries([]), amb.E_pow(amb.r))


def test_classify_reads_the_jumps(amb3, amb5):
    # etale iff B = E^r A^(-1) is residue-invertible, multiplicative iff A is
    for amb in (amb3, amb5):
        rng = random.Random(f"classify:{amb.p}")
        for d in (1, 2, 3):
            for jumps in ((0,) * d, (amb.r,) * d, None):
                K = random_gls(amb, rng, d, jumps)
                B, Er = normal_form_B(K)
                assert (K.A @ B).eq_at(Er, amb.N_p)
                assert all(j == amb.r for j in K.jumps) == B.residue_invertible()
                assert all(j == 0 for j in K.jumps) == K.A.residue_invertible()


def test_to_breuil_rank_one(amb3):
    I1 = RingMatrix.identity(1, amb3.useries([]), amb3.useries([1]))
    for s in range(amb3.r + 1):
        K = KisinModule(amb3, I1, (s,), I1)
        B = kisin_to_breuil(K)
        expect = amb3.c_pow(s).mul_p_pow(s)
        assert B.Phi.entries[0][0].eq_at(expect, amb3.cap - 1)
        assert B.jumps == (s,)
        assert breuil_validate(B).strongly_divisible


def test_to_breuil_diagonal(amb3):
    I2 = RingMatrix.identity(2, amb3.useries([]), amb3.useries([1]))
    B = kisin_to_breuil(KisinModule(amb3, I2, (0, 2), I2))
    one = amb3.c_pow(0)
    assert B.Phi.entries[0][0].eq_at(one, amb3.cap - 1)
    assert B.Phi.entries[1][1].eq_at(amb3.c_pow(2).mul_p_pow(2), amb3.cap - 1)
    assert B.Phi.entries[0][1].is_zero_at(amb3.N_p)


def states(M):
    return [[(x.planes, x.prec) for x in row] for row in M.entries]


def test_to_breuil_reuses_X_Lambda(amb3, amb9, monkeypatch):
    # the module keeps X * Lambda from its own A = X * Lambda * Y, and the
    # base change multiplies only Y by phi(X * Lambda)
    for amb in (amb3, amb9):
        K = random_gls(amb, random.Random(f"XL:{amb.f}"), 3)
        XL = K.X @ kisin._E_diag(amb, K.jumps)
        assert states(K.XL) == states(XL) and states(K.A) == states(XL @ K.Y)
        products = []
        matmul = RingMatrix.__matmul__
        monkeypatch.setattr(RingMatrix, "__matmul__",
                            lambda a, b: products.append(1) or matmul(a, b))
        Phi = kisin_to_breuil(K).Phi
        monkeypatch.undo()
        assert len(products) == 1
        want = kisin._embed_matrix(K.Y) @ kisin._embed_matrix(XL).map_entries(phi_S)
        assert states(Phi) == states(want)


def raw_fil_checker_unbounded(K):
    """The raw top-filtration test with every product computed in full:
    embed(A) * embed(Y)^(-1) * w, then filtration valuation >= r in each
    component.  Kept as the reference for the two bounded tests."""
    amb = K.amb
    full = K.A.map_entries(_embed_sigma) @ K.Y.map_entries(_embed_sigma).invert()

    def check(w):
        return all(_fil_valuation(x, amb.N_p) >= amb.r for x in full.matvec(w))

    return check


def test_raw_vs_adapted_membership(amb3):
    rng = random.Random(1)
    for _ in range(5):
        K = random_gls(amb3, rng, rng.randrange(1, 3))
        B = kisin_to_breuil(K)
        raw = _kisin_raw_fil_checker(K)
        ref = raw_fil_checker_unbounded(K)
        for k in range(30):
            if k % 2 == 0:
                x = _random_fil_member(B, rng, amb3.r)
            else:
                x = _random_vector(B, rng, 5)
            assert fil_lower(B, amb3.r, x) == raw(x) == ref(x)


@pytest.mark.parametrize("flip", [False, True])
def test_kisin_breuil_consistency_counts_the_mismatches(monkeypatch, flip):
    # negative control: a raw checker that answers the opposite of the real
    # one disagrees with fil_lower on every element, and the suite's record
    # must say so; the real checker agrees on the same draws
    if flip:
        real = kisin._kisin_raw_fil_checker
        monkeypatch.setattr(kisin, "_kisin_raw_fil_checker",
                            lambda K: (lambda x, raw=real(K): not raw(x)))
    recs = run_suite_seed({"p": 3, "r": 2}, "kisin-breuil-consistency", 1, {"elements": 6})
    [rec] = [r for r in recs if r["check"] == "kisin-breuil-fil-agreement"]
    assert rec["elements"] == 6
    if flip:
        assert rec["ok"] is False and rec["mismatches"] == 6
        assert rec["instance"]["kind"] == "KisinModule"
    else:
        assert rec["ok"] is True and rec["mismatches"] == 0 and rec["instance"] is None


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_E_powers_are_the_running_products(name, request):
    amb = request.getfixturevalue(name)
    expect = amb.useries([1])
    for n in range(2 * amb.r + 1):
        got = amb.E_pow(n)
        assert got.planes == expect.planes and got.prec == expect.prec
        assert amb.E_pow(n) is got
        expect = expect * amb.E_series


def high_degree_module(amb, seed: int, kind: str) -> KisinModule:
    """A rank-3 module with series degrees past N_gamma, built from
    ``random_gls``: its dual (rev X^(-T), the jumps r - r_i reversed,
    rev Y^(-T), with rev reversing rows and columns), whose inverses fill
    every degree below N_u, or the module with X replaced by X*U, U
    unipotent with the one entry u^(N_gamma + 5)."""
    K = random_gls(amb, random.Random(seed), 3)
    if kind == "dual":
        def rev_inv_t(M):
            return RingMatrix([row[::-1] for row in M.invert().transpose().entries[::-1]])

        return KisinModule(amb, rev_inv_t(K.X), [amb.r - j for j in reversed(K.jumps)],
                           rev_inv_t(K.Y))
    U = smat(amb, [[[1], [], [0] * (amb.N_gamma + 5) + [1]], [[], [1], []], [[], [], [1]]])
    return KisinModule(amb, K.X @ U, K.jumps, K.Y)


@pytest.mark.parametrize("kind", ["dual", "xu"])
@pytest.mark.parametrize("p, r, f", [(3, 1, 1), (5, 3, 1), (3, 1, 2)])
def test_high_degree_modules_agree_with_a_wider_truncation(p, r, f, kind):
    # the part of u^n past N_gamma that S drops is invisible at N_p: a
    # context with 3 N_gamma gives the same jumps, Ftil and section
    # coefficients below N_gamma mod p^N_p (iteration counts may differ)
    small = AmbientParams(p, r, f=f, N_p=6)
    big = AmbientParams(p, r, f=f, N_p=6, N_gamma=3 * small.N_gamma)
    N, N_p = small.N_gamma, small.N_p

    def at_N_p(T):
        return (T.M.jumps,
                [[x.truncate(N_p).coeffs for x in row] for row in T.M.Ftil.entries],
                [[[c.coeffs for c in x.truncate(N_p).coeffs[:N]] for x in row]
                 for row in T.section.Bmat.entries])

    for seed in (1, 2, 3):
        K = high_degree_module(small, seed, kind)
        assert any(x.degree >= N for row in K.A.entries for x in row)
        B = kisin_to_breuil(K)
        T = breuil_to_fl(B, adjoin_zero_n=True)
        wide = breuil_to_fl(kisin_to_breuil(high_degree_module(big, seed, kind)),
                            adjoin_zero_n=True)
        assert at_N_p(T) == at_N_p(wide)
