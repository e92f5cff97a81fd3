import random

import pytest

from flbreuil.errors import NotAUnit, PrecisionExhausted
from flbreuil.series import SigmaSeries, _series_from_ints
from height_reference import weierstrass_divide


def ints(s):
    return [c.coeffs[0] for c in s.coeffs]


def test_weierstrass_cube(amb3):
    # u^3 = (u^2 + 3u + 9)(u - 3) + 27
    q, rem = weierstrass_divide(amb3.useries([0, 0, 0, 1]))
    assert ints(q) == [9, 3, 1]
    assert rem.coeffs[0] == 27


def test_weierstrass_e_and_constant(amb3):
    q, rem = weierstrass_divide(amb3.E_series)
    assert ints(q) == [1] and rem.is_zero_at(rem.prec)
    q, rem = weierstrass_divide(amb3.useries([5]))
    assert q.degree == -1 and rem.coeffs[0] == 5


def test_weierstrass_reconstruction(amb3):
    rng = random.Random(0)
    for _ in range(50):
        f = SigmaSeries(amb3, [amb3.ring.random(rng) for _ in range(rng.randrange(1, 9))])
        q, rem = weierstrass_divide(f)
        back = q * amb3.E_series + _series_from_ints(amb3, [0]) + SigmaSeries(amb3, [rem])
        assert back.eq_at(f, f.prec)


def test_series_inverse(amb3):
    rng = random.Random(1)
    one = _series_from_ints(amb3, [1])
    for _ in range(25):
        coeffs = [amb3.ring.random_unit(rng)] + [amb3.ring.random(rng) for _ in range(5)]
        f = SigmaSeries(amb3, coeffs)
        assert (f * f.invert()).eq_at(one, f.prec)
    with pytest.raises(NotAUnit):
        amb3.useries([0, 1]).invert()


def test_phi_moves_degrees(amb3):
    u = amb3.useries([0, 1])
    assert ints(u.phi()) == [0, 0, 0, 1]
    f = amb3.useries([2, 0, 5])
    assert ints(f.phi()) == [2, 0, 0, 0, 0, 0, 5]


def test_phi_uses_arithmetic_frobenius(amb9):
    t = amb9.ring.make([0, 1])
    f = SigmaSeries(amb9, [t, t])
    img = f.phi()
    assert img.coeff(0) == -t  # sigma(T) = -T for T^2 + 1
    assert img.coeff(amb9.p) == -t


def test_truncation_drops_high_degrees(amb3):
    m = amb3.useries([0] * (amb3.N_u - 1) + [1])
    cut = m * amb3.useries([0, 1])
    assert cut.degree == -1  # pushed past the bound
    assert m.phi().degree == -1


def test_constant_and_unit(amb3):
    f = amb3.useries([4, 1])
    assert f.coeff(0).coeffs[0] == 4
    assert f.is_unit()
    assert not amb3.useries([3, 1]).is_unit()


def test_mul_matches_naive_convolution(amb3):
    rng = random.Random(2)
    for _ in range(30):
        xs = [rng.randrange(50) for _ in range(4)]
        ys = [rng.randrange(50) for _ in range(5)]
        f, g = amb3.useries(xs), amb3.useries(ys)
        conv = [0] * 8
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                conv[i + j] += a * b
        assert (f * g).eq_at(amb3.useries(conv), f.prec)


def test_zero_series_precision_cannot_fall_below_one(amb3):
    zero = SigmaSeries(amb3, [], 5)
    with pytest.raises(PrecisionExhausted):
        zero.div_p_exact(7)
    with pytest.raises(PrecisionExhausted):
        zero.div_p_exact(5)
    with pytest.raises(PrecisionExhausted):
        zero.truncate(0)
    assert zero.div_p_exact(4).prec == 1
    assert zero.truncate(2).prec == 2


def test_zero_series_precision_is_checked_at_construction(amb3):
    assert SigmaSeries(amb3, [], 999).prec == amb3.cap
    assert (-SigmaSeries(amb3, [], 999)).prec == amb3.cap
    assert SigmaSeries(amb3, [], 1).prec == 1
    for bad in (0, -3):
        with pytest.raises(PrecisionExhausted):
            SigmaSeries(amb3, [], bad)
    one = amb3.ring.one().truncate(4)
    assert SigmaSeries(amb3, [one], 999).prec == 4
    with pytest.raises(PrecisionExhausted):
        SigmaSeries(amb3, [one], 0)


def test_scalar_list_is_trimmed_after_the_precision_cut(amb3):
    s = SigmaSeries(amb3, [amb3.w(1), amb3.w(27)], prec=3)
    assert s.degree == 0 and s.prec == 3
    assert s.planes == SigmaSeries(amb3, [amb3.w(1)], prec=3).planes
    assert len(s.coeffs) == 1
    low_zero = SigmaSeries(amb3, [amb3.w(1), amb3.ring.zero(2)])
    assert low_zero.degree == 0 and low_zero.prec == 2
