import random

import pytest

from flbreuil.errors import MalformedJumps, NotStrong
from flbreuil.fl import (
    FLModule,
    _fl_frobenius_matrix,
    _fl_from_frobenius,
    _fl_v_matrix,
    _random_fl,
    _random_unipotent_fl,
    fl_transport,
    fl_unipotent,
    fl_validate,
)
from flbreuil.matrix import RingMatrix, _converges_to_zero
from flbreuil.witt import WittScalar


def wmat(amb, rows):
    return RingMatrix([[amb.w(v) for v in row] for row in rows])


def nilpotent(M):
    """Whether the twisted product of F vanishes mod p^N_p."""
    return _converges_to_zero(_fl_frobenius_matrix(M), WittScalar.frobenius, M.amb.N_p)


def test_validate_examples(amb3):
    assert fl_validate(FLModule(amb3, (1,), wmat(amb3, [[1]])))
    assert not fl_validate(FLModule(amb3, (0,), wmat(amb3, [[3]])))
    assert fl_validate(FLModule(amb3, (0, 2), wmat(amb3, [[0, 1], [1, 0]])))


def test_malformed_jumps(amb3):
    with pytest.raises(MalformedJumps):
        FLModule(amb3, (2, 0), wmat(amb3, [[1, 0], [0, 1]]))
    with pytest.raises(MalformedJumps):
        FLModule(amb3, (3,), wmat(amb3, [[1]]))


def test_non_integer_jumps_are_malformed(amb3):
    # a jump is an integer: no float is truncated, and no bool passes as 0 or 1
    Ftil = wmat(amb3, [[1, 0], [0, 1]])
    for jumps in ((0.7, 1.9), (0, 1.0), (False, True), ("0", "1")):
        with pytest.raises(MalformedJumps, match="must be integers"):
            FLModule(amb3, jumps, Ftil)
    assert FLModule(amb3, [0, 1], Ftil).jumps == (0, 1)


def test_negative_rank_is_malformed(amb3):
    from flbreuil.fl import _check_jumps

    with pytest.raises(MalformedJumps, match="rank must be at least 0, got -1"):
        _check_jumps(amb3, -1, ())
    assert _check_jumps(amb3, 0, ()) == ()


def test_v_matrix_examples(amb3):
    # rank 1, jump 1, r = 2: F = V = (p)
    M = FLModule(amb3, (1,), wmat(amb3, [[1]]))
    assert _fl_frobenius_matrix(M).eq_at(wmat(amb3, [[3]]), amb3.cap)
    assert _fl_v_matrix(M).eq_at(wmat(amb3, [[3]]), amb3.cap)
    M = FLModule(amb3, (0, 2), wmat(amb3, [[1, 0], [0, 1]]))
    assert _fl_frobenius_matrix(M).eq_at(wmat(amb3, [[1, 0], [0, 9]]), amb3.cap)
    assert _fl_v_matrix(M).eq_at(wmat(amb3, [[9, 0], [0, 1]]), amb3.cap)
    V = _fl_v_matrix(FLModule(amb3, (0, 2), wmat(amb3, [[0, 1], [1, 0]])))
    assert V.eq_at(wmat(amb3, [[0, 9], [1, 0]]), amb3.cap)


def test_fv_is_p_to_r(amb3, amb5):
    for amb in (amb3, amb5):
        rng = random.Random(0)
        for _ in range(25):
            M = _random_fl(amb, rng, rng.randrange(1, 4))
            F, V = _fl_frobenius_matrix(M), _fl_v_matrix(M)
            expect = RingMatrix.identity(M.d, amb.ring.zero(), amb.ring.one()).mul_p_pow(amb.r)
            assert (F @ V).eq_at(expect, amb.cap - amb.r)
            assert (V @ F).eq_at(expect, amb.cap - amb.r)


def test_v_matrix_needs_strong(amb3):
    with pytest.raises(NotStrong):
        _fl_v_matrix(FLModule(amb3, (0,), wmat(amb3, [[3]])))


def test_classify_examples(amb3):
    # etale (jump r) is not unipotent; jump 1 and the swap module are
    assert not fl_unipotent(FLModule(amb3, (amb3.r,), wmat(amb3, [[1]])))
    assert fl_unipotent(FLModule(amb3, (1,), wmat(amb3, [[1]])))
    swap = FLModule(amb3, (0, amb3.r), wmat(amb3, [[0, 1], [1, 0]]))
    assert fl_unipotent(swap) and nilpotent(swap)


def test_positional_exclusions(amb3):
    # an etale module (every jump r) is never unipotent, a multiplicative
    # one (every jump 0) never nilpotent
    rng = random.Random(1)
    for _ in range(30):
        M = _random_fl(amb3, rng, rng.randrange(1, 4))
        if all(j == amb3.r for j in M.jumps):
            assert not fl_unipotent(M)
        if all(j == 0 for j in M.jumps):
            assert not nilpotent(M)


def test_random_fl_is_strong(amb3):
    rng = random.Random(2)
    for _ in range(50):
        assert fl_validate(_random_fl(amb3, rng, rng.randrange(1, 4)))


def test_random_unipotent_screen(amb3):
    rng = random.Random(3)
    for _ in range(10):
        M = _random_unipotent_fl(amb3, rng, 2)
        assert fl_unipotent(M)


def random_flag_preserving(amb, rng, jumps) -> RingMatrix:
    """Random g in GL_d(W) with g_{ij} = 0 unless r_i >= r_j, so the change
    of basis e -> e g preserves every filtration step."""
    d = len(jumps)
    while True:
        ent = [[amb.ring.random(rng) if jumps[i] >= jumps[j] else amb.ring.zero()
                for j in range(d)] for i in range(d)]
        g = RingMatrix(ent)
        if g.residue_invertible():
            return g


def test_classification_invariant_under_flag_base_change(amb3):
    rng = random.Random(4)
    for _ in range(15):
        jumps = tuple(sorted(rng.randrange(amb3.r + 1) for _ in range(2)))
        M = _random_fl(amb3, rng, 2, jumps)
        g = random_flag_preserving(amb3, rng, jumps)
        M2 = fl_transport(M, g)
        assert fl_validate(M2)
        assert M2.jumps == M.jumps
        assert fl_unipotent(M) == fl_unipotent(M2)
        assert nilpotent(M) == nilpotent(M2)


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_fl_from_frobenius_inverts_the_scaling(name, request):
    amb = request.getfixturevalue(name)
    rng = random.Random(f"from-frobenius:{name}")
    for d in (1, 2, 3):
        M = _random_fl(amb, rng, d)
        M2 = _fl_from_frobenius(amb, _fl_frobenius_matrix(M), M.jumps)
        assert M2.jumps == M.jumps
        assert M2.Ftil.eq_at(M.Ftil, amb.N_p)


def test_fl_transport_refuses_a_mis_sized_basis(amb3):
    # a 3 x 3 basis change of a rank-2 module fails in the product g^(-1) F
    M = _random_fl(amb3, random.Random(7), 2)
    g = RingMatrix.identity(3, amb3.ring.zero(), amb3.ring.one())
    with pytest.raises(ValueError, match="dimension mismatch"):
        fl_transport(M, g)


def test_fl_from_frobenius_rejects_a_column_short_of_its_power(amb3):
    # an invertible Ftil has a unit in every column, so read as F with
    # jumps (0, r) its second column is not divisible by p^r
    M = _random_fl(amb3, random.Random(5), 2, (0, amb3.r))
    with pytest.raises(NotStrong, match="not integral"):
        _fl_from_frobenius(amb3, M.Ftil, (0, amb3.r))


def test_fl_transport_rejects_a_flag_breaking_basis(amb3):
    # g_01 = 1 with r_0 = 0 < r_1 = r moves e_1 out of Fil^r
    M = _random_fl(amb3, random.Random(6), 2, (0, amb3.r))
    g = wmat(amb3, [[1, 1], [0, 1]])
    with pytest.raises(NotStrong, match="not integral"):
        fl_transport(M, g)
