"""The flat precision contract, written once on ``witt._FlatValue``, checked
on the three kinds of value that inherit it."""

import pytest

from flbreuil.ambient import _min_N_gamma, shared_params
from flbreuil.errors import NotDivisible, PrecisionExhausted
from flbreuil.pd import PDElement, _all_in_u_power_ideal, _fil_valuation, _pd_gamma, _pd_zero, n_S
from flbreuil.series import SigmaSeries

KINDS = {
    "scalar": lambda amb, cs: cs[0],
    "series": lambda amb, cs: SigmaSeries(amb, cs),
    "pd": lambda amb, cs: PDElement(amb, cs),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fixture", ["amb3", "amb9"])
def test_precision_contract(request, fixture, kind):
    amb = request.getfixturevalue(fixture)
    ring, p, cap = amb.ring, amb.p, amb.cap
    build = KINDS[kind]
    # valuation exactly 2: p^2 times a unit, and p^2 times p^3
    x = build(amb, [ring.make([p**2 * 5, p**2 * 2][:ring.f]), ring.make([p**5])])
    zero = build(amb, [ring.zero()])
    assert x.prec == cap and x.valuation() == 2

    with pytest.raises(PrecisionExhausted):
        x.truncate(0)
    with pytest.raises(PrecisionExhausted):
        x.div_p_exact(cap)
    with pytest.raises(NotDivisible):
        x.div_p_exact(3)

    y = x.div_p_exact(2)
    assert y.prec == cap - 2 and y.valuation() == 0
    back = y.mul_p_pow(2)
    assert back.prec == cap and back.eq_at(x, cap)
    assert x.mul_p_pow(3).prec == cap
    low = x.truncate(4).mul_p_pow(cap)
    assert low.prec == cap and low.is_zero_at(cap)
    assert (-x + x).is_zero_at(cap) and not (-x).is_zero_at(cap)

    with pytest.raises(PrecisionExhausted):
        x.truncate(5).is_zero_at(6)
    for k in (1, 3, cap):
        assert zero.truncate(k).valuation() == k

    # a negative power of p is no shift the other way, and no precision to
    # test at; at p^0 every value is zero
    for k in (-1, -cap):
        with pytest.raises(ValueError):
            x.mul_p_pow(k)
        with pytest.raises(ValueError):
            zero.div_p_exact(k)
        with pytest.raises(ValueError):
            x.is_zero_at(k)
        with pytest.raises(ValueError):
            zero.is_zero_at(k)
    assert x.is_zero_at(0) and x.is_zero_at(2) and not x.is_zero_at(3)


def test_filtration_tests_at_a_negative_precision_raise(amb3):
    # p in S: zero mod p, so in Fil^N_gamma and in u S at precision 1
    x = PDElement(amb3, [amb3.w(amb3.p)])
    assert _fil_valuation(x, 1) == _fil_valuation(x, 0) == amb3.N_gamma
    assert _fil_valuation(x) == 0 and _all_in_u_power_ideal([x], 1, at=1)
    for at in (-1, -amb3.cap):
        with pytest.raises(ValueError):
            _fil_valuation(x, at)
        with pytest.raises(ValueError):
            _all_in_u_power_ideal([x], 1, at=at)


def test_pd_eq_at_skips_the_top_coefficient(amb3):
    # the dropped tail can reach index N_gamma - 1, so no comparison in S
    # reads it; every index below it is compared
    N, k = amb3.N_gamma, amb3.cap
    zero = _pd_zero(amb3)
    top = _pd_gamma(amb3, N - 1)
    assert top.eq_at(zero, k) and zero.eq_at(top, k) and not top.is_zero_at(k)
    for i in range(N - 1):
        assert not _pd_gamma(amb3, i).eq_at(zero, k)


@pytest.mark.parametrize("p, r", [(3, 1), (5, 3)])
def test_n_s_is_a_derivation_below_the_top_coefficient(p, r):
    # x = gamma_1, y = gamma_(N_gamma - 1): x*y drops gamma_(N_gamma), whose
    # image under N reaches index N_gamma - 1 of the left side only, so the
    # two sides of the Leibniz rule differ there and nowhere below
    amb = shared_params(p=p, r=r)
    x, y = _pd_gamma(amb, 1), _pd_gamma(amb, amb.N_gamma - 1)
    lhs, rhs = n_S(x * y), n_S(x) * y + x * n_S(y)
    assert lhs.eq_at(rhs, amb.cap)
    assert not (lhs - rhs).is_zero_at(amb.cap)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_the_minimum_N_gamma_bounds_phi_from_the_top_index_on(p):
    # phi(gamma_i) carries p^(i - v_p(i!)): at the smallest N_gamma a
    # context accepts, every index from N_gamma - 1 on, which comparisons
    # do not read, lands in p^(N_p + r)
    def v_fact(i):
        return sum(i // p**j for j in range(1, i.bit_length() + 1))

    for r in range(p):
        for N_p in range(1, 60):
            N = _min_N_gamma(p, r, N_p)
            assert all(i - v_fact(i) >= N_p + r for i in range(N - 1, N + p * p))
