"""The flat precision contract, written once on ``witt._FlatValue``, checked
on the three kinds of value that inherit it."""

import pytest

from flbreuil.errors import NotDivisible, PrecisionExhausted
from flbreuil.pd import PDElement, _all_in_u_power_ideal, _fil_valuation, _pd_gamma, _pd_zero
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


def test_pd_eq_at_skips_the_top_coefficient_only_on_a_dirty_difference(amb3):
    N, k = amb3.N_gamma, amb3.cap
    zero = _pd_zero(amb3)
    top = _pd_gamma(amb3, N - 1)
    dirty_top = PDElement(amb3, top.coeffs, tail_dirty=True)
    assert not top.eq_at(zero, k) and not zero.eq_at(top, k)
    assert dirty_top.eq_at(zero, k) and zero.eq_at(dirty_top, k)
    # below the top the dirty flag changes nothing
    below = PDElement(amb3, _pd_gamma(amb3, N - 2).coeffs, tail_dirty=True)
    assert not below.eq_at(zero, k)
