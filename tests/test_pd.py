import random

import pytest

from flbreuil.errors import DegreeOverflow
from flbreuil.pd import (
    PDElement,
    _all_in_u_power_ideal,
    _embed_sigma,
    _eval_f0,
    _eval_fpi,
    _fil_valuation,
    _pd_from_scalar,
    _pd_gamma,
    _pd_one,
    _pd_random_calibrated,
    _pd_shift,
    _pd_zero,
    n_S,
    phi_S,
    to_u_divided,
)
from flbreuil.ambient import AmbientParams
from flbreuil.campaign import _easylemma_holds, run_suite_seed
from inverse_reference import newton_inverse
from sampler_reference import pd_random_calibrated as ref_pd_random_calibrated


def ints(x, n=6):
    return [c.coeffs[0] for c in x.coeffs[:n]]


def as_signed(x, n=6):
    out = []
    for c in x.coeffs[:n]:
        v = c.coeffs[0]
        mod = c.ring.pk[c.prec]
        out.append(v - mod if v > mod // 2 else v)
    return out


# --- multiplication ---

def test_gamma_product_binomials(amb3):
    g1, g2, g3 = (_pd_gamma(amb3, i) for i in (1, 2, 3))
    assert ints(g1 * g1) == [0, 0, 2, 0, 0, 0]
    assert ints(g2 * g3)[5] == 10
    rng = random.Random(0)
    x = PDElement(amb3, [amb3.ring.random(rng) for _ in range(6)])
    assert (_pd_one(amb3) * x).eq_at(x, x.prec)


def test_gamma_product_past_the_truncation_is_zero(amb3):
    # gamma_(N_gamma - 1) gamma_2 lies in Fil^(N_gamma + 1): nothing is left
    top = _pd_gamma(amb3, amb3.N_gamma - 1)
    prod = top * _pd_gamma(amb3, 2)
    assert (prod.planes, prod.prec) == (([],), amb3.cap)
    # below the cut the product is C(3, 1) gamma_3
    low = _pd_gamma(amb3, 1) * _pd_gamma(amb3, 2)
    assert low.planes == PDElement(amb3, [amb3.w(0)] * 3 + [amb3.w(3)]).planes


def test_series_and_s_do_not_combine(amb3):
    # the two kinds share one arithmetic path but stay two rings
    s, x = amb3.useries([1, 2]), _pd_gamma(amb3, 1)
    with pytest.raises(TypeError):
        s + x
    with pytest.raises(TypeError):
        x - s
    with pytest.raises(TypeError):
        s * x


# --- the embedding of the series ring ---

def test_embed_examples(amb3):
    # p = 3, a = -1, E = u - 3
    assert ints(_embed_sigma(amb3.useries([0, 1]))) == [3, 1, 0, 0, 0, 0]
    assert ints(_embed_sigma(amb3.useries([0, 0, 1]))) == [9, 6, 2, 0, 0, 0]
    assert ints(_embed_sigma(amb3.useries([1]))) == [1, 0, 0, 0, 0, 0]


def test_embed_is_ring_map(amb3):
    # the last degree makes the product reach past N_gamma, where both
    # sides drop the tail
    rng = random.Random(3)
    for n in [5] * 20 + [amb3.N_gamma // 2 + 3] * 5:
        f = amb3.useries([rng.randrange(81) for _ in range(n)])
        g = amb3.useries([rng.randrange(81) for _ in range(n)])
        lhs = _embed_sigma(f * g)
        rhs = _embed_sigma(f) * _embed_sigma(g)
        assert lhs.eq_at(rhs, lhs.prec)


def test_embed_past_the_truncation_is_the_wider_embedding_cut(amb3):
    # every degree below N_u embeds as in a context with 3 N_gamma, cut
    # below N_gamma; only a list of N_gamma + 1 gamma-coefficients is refused
    N = amb3.N_gamma
    big = AmbientParams(3, 2, N_gamma=3 * N)
    rng = random.Random(14)
    for n in (N, N + 1, 2 * N + 3, amb3.N_u - 1):
        coeffs = [rng.randrange(3**8) for _ in range(n)] + [1]
        x, y = _embed_sigma(amb3.useries(coeffs)), _embed_sigma(big.useries(coeffs))
        assert x.prec == y.prec
        assert x.planes == y._head(N).planes
    with pytest.raises(DegreeOverflow):
        PDElement(amb3, [amb3.ring.one()] * (N + 1))


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_u_powers_are_the_binomial_expansion(name, request):
    # u = gamma_1 - p*a, so u^n = sum_k C(n, k) k! (-p*a)^(n-k) gamma_k
    import math

    amb = request.getfixturevalue(name)
    for n in range(amb.N_gamma):
        expect = [amb.ring.from_int(math.comb(n, k) * math.factorial(k)) * amb.neg_pa ** (n - k)
                  for k in range(n + 1)]
        got = amb.u_pow(n)
        assert got.prec == amb.cap
        assert all(got.coeff(k) == e for k, e in enumerate(expect))
    # past N_gamma, u^n is the power of a context with 3 N_gamma, cut
    big = AmbientParams(amb.p, amb.r, f=amb.f, N_gamma=3 * amb.N_gamma)
    for n in range(amb.N_gamma, amb.N_u):
        got = amb.u_pow(n)
        assert got.prec == amb.cap
        assert got.planes == big.u_pow(n)._head(amb.N_gamma).planes
    for power in (amb.u_pow, amb.c_pow):
        with pytest.raises(DegreeOverflow):
            power(-1)


@pytest.mark.parametrize("name", ["amb3", "amb9", "amb27"])
def test_factorial_unit_inverses_are_the_newton_inverses(name, request):
    # unit(i!)^-1 is the integer inverse mod p^cap; the Newton inversion of
    # ``inverse_reference`` is the reference at every index of the table
    import math

    amb = request.getfixturevalue(name)
    n = len(amb.vfact)
    for i in range(n):
        unit = math.factorial(i) // amb.p ** amb.vfact[i]
        assert amb.fact_unit_inv(i) == newton_inverse(amb.ring.from_int(unit))
    for table in (amb.fact_unit_inv, amb.pa_div_fact):
        for i in (-1, n, 200):
            with pytest.raises(DegreeOverflow):
                table(i)



@pytest.mark.parametrize("kw", [dict(p=3, r=2), dict(p=5, r=4), dict(p=3, r=2, f=2, a=[2, 1])])
def test_pa_div_fact_from_running_powers_is_square_and_multiply(kw):
    # (p*a)^i/i! from the running powers of a, asked for from the top index
    # down on a fresh context, gives the ints of a^i by square-and-multiply
    amb = AmbientParams(**kw)
    for i in reversed(range(len(amb.vfact))):
        ref = ((amb.a ** i) * amb.fact_unit_inv(i)).mul_p_pow(i - amb.vfact[i])
        assert amb.pa_div_fact(i) == ref

# --- Frobenius ---

def test_phi_examples(amb3):
    assert ints(phi_S(_pd_gamma(amb3, 0))) == [1, 0, 0, 0, 0, 0]
    assert ints(phi_S(_pd_gamma(amb3, 1))) == [24, 27, 18, 6, 0, 0]
    assert ints(phi_S(_pd_gamma(amb3, 1)).div_p_exact(1)) == [8, 9, 6, 2, 0, 0]


def test_phi_c_consistency(amb3):
    # phi(E) = p*c and phi_1(E) = c
    assert phi_S(_pd_gamma(amb3, 1)).div_p_exact(1).eq_at(amb3.c, amb3.cap - 1)


def test_phi_is_its_table_of_images(amb3, amb9):
    # phi(x) = sum_i sigma(x_i) phi(gamma_i), with the images
    # phi(gamma_i) = p^(i - v_p(i!)) unit(i!)^-1 c^i.  The elements sit at
    # N_p + r digits and carry nonzero coefficients at indices whose power
    # of p is N_p + r or more, whose terms vanish at that precision
    rng = random.Random(21)
    for amb in (amb3, amb9):
        k = amb.N_p + amb.r
        high = [i for i in range(amb.N_gamma) if i - amb.vfact[i] >= k]
        assert high
        for _ in range(6):
            x = _pd_random_calibrated(amb, rng, amb.N_gamma, 2).truncate(k)
            assert any(not x.coeff(i).is_zero_at(k) for i in high)
            expect = _pd_zero(amb)
            for i in range(amb.N_gamma):
                s = (x.coeff(i).frobenius() * amb.fact_unit_inv(i)).mul_p_pow(i - amb.vfact[i])
                expect = expect + _pd_from_scalar(amb, s) * amb.c_pow(i)
            y = phi_S(x)
            assert y.prec == k and (y - expect).is_zero_at(k)


def test_phi_multiplicative(amb3):
    rng = random.Random(4)
    for _ in range(60):
        x = _pd_random_calibrated(amb3, rng, 5, 2)
        y = _pd_random_calibrated(amb3, rng, 5, 2)
        assert phi_S(x * y).eq_at(phi_S(x) * phi_S(y), amb3.N_p)


# --- the derivation ---

def test_n_examples(amb3):
    assert ints(n_S(_pd_gamma(amb3, 0))) == [0, 0, 0, 0, 0, 0]
    assert as_signed(n_S(_pd_gamma(amb3, 2)), 4) == [0, -3, -2, 0]
    u = _embed_sigma(amb3.useries([0, 1]))
    assert (n_S(u) + u).is_zero_at(amb3.cap)


def n_S_by_the_packed_product(x):
    """n_S with p*a packed, convolved by ``_WittRing.dot_acc`` and unfolded
    on every call."""
    amb = x.amb
    ring = amb.ring
    k = x.prec
    mod = ring.pk[k]
    shifted = tuple(pl[1:] for pl in x.planes)
    pax = ring.unfold(*ring.dot_acc(((shifted, ring.to_planes([amb.pa.coeffs], amb.cap)),),
                                    len(x.planes[0])), k)
    planes = tuple([(c - m * b) % mod for m, (c, b) in enumerate(zip(cp, pl))]
                   for cp, pl in zip(pax, x.planes))
    return PDElement(amb, (), k, planes)


@pytest.mark.parametrize("kw", [dict(p=3, r=2), dict(p=5, r=4), dict(p=3, r=2, f=2, a=[2, 1]),
                                dict(p=3, r=2, f=3, a=[1, 2, 1])])
def test_n_through_the_pa_matrix_is_the_packed_product(kw):
    # the f x f matrix of p*a on T-planes (with a T-coefficient in a at
    # f = 2 and 3) gives the planes and precision of the packed product
    amb = AmbientParams(**kw)
    rng = random.Random(12)
    for i in range(250):
        x = _pd_random_calibrated(amb, rng, rng.randrange(amb.N_gamma + 1), 2)
        if i % 3 == 1:
            x = x.truncate(rng.randrange(1, amb.cap + 1))
        got, ref = n_S(x), n_S_by_the_packed_product(x)
        assert (got.planes, got.prec) == (ref.planes, ref.prec)


def test_n_leibniz(amb3):
    rng = random.Random(5)
    for _ in range(60):
        x = _pd_random_calibrated(amb3, rng, 6, 2)
        y = _pd_random_calibrated(amb3, rng, 6, 2)
        lhs = n_S(x * y)
        rhs = n_S(x) * y + x * n_S(y)
        assert lhs.eq_at(rhs, amb3.N_p)


def test_n_phi_commutation(amb3):
    # N phi = p phi N, valid termwise on positive gamma indices
    for i in range(1, 6):
        g = _pd_gamma(amb3, i)
        assert n_S(phi_S(g)).eq_at(phi_S(n_S(g)).mul_p_pow(1), amb3.N_p)


# --- filtration ---

def test_fil_valuation_examples(amb3):
    assert _fil_valuation(_pd_gamma(amb3, 2, amb3.w(2))) == 2
    x = _pd_gamma(amb3, 2) + _pd_from_scalar(amb3, amb3.w(3))
    assert _fil_valuation(x) == 0
    assert _fil_valuation(PDElement(amb3, [])) == amb3.N_gamma


def test_fil_multiplicative(amb3):
    rng = random.Random(6)
    for _ in range(60):
        x = _pd_random_calibrated(amb3, rng, 6, 2)
        y = _pd_random_calibrated(amb3, rng, 6, 2)
        vx, vy = _fil_valuation(x, amb3.N_p), _fil_valuation(y, amb3.N_p)
        v = _fil_valuation(x * y, amb3.N_p)
        assert v >= min(vx + vy, amb3.N_gamma)
    # equality with unit leading coefficients
    x = _pd_gamma(amb3, 2, amb3.w(2)) + _pd_gamma(amb3, 4)
    y = _pd_gamma(amb3, 1, amb3.w(4))
    assert _fil_valuation(x * y, amb3.N_p) == 3


# --- evaluations ---

def test_f0_examples(amb3):
    assert _eval_f0(_pd_gamma(amb3, 0)).coeffs[0] == 1
    assert as_signed(_pd_from_scalar(amb3, _eval_f0(_pd_gamma(amb3, 1))), 1) == [-3]
    assert _eval_f0(_embed_sigma(amb3.useries([0, 1]))).is_zero_at(amb3.cap)


def test_fpi_examples(amb3):
    assert _eval_fpi(_pd_gamma(amb3, 0)).coeffs[0] == 1
    for i in range(1, 4):
        assert _eval_fpi(_pd_gamma(amb3, i)).is_zero_at(amb3.cap)
    assert _eval_fpi(_embed_sigma(amb3.useries([0, 1]))).coeffs[0] == 3  # pi = 3


def test_f0_intertwines_phi(amb3, amb9):
    for amb in (amb3, amb9):
        rng = random.Random(7)
        for _ in range(40):
            x = PDElement(amb, [amb.ring.random(rng) for _ in range(7)])
            assert _eval_f0(phi_S(x)).eq_at(_eval_f0(x).frobenius(), amb.N_p)


def test_fpi_of_embedding_evaluates_at_pi(amb3):
    rng = random.Random(8)
    for _ in range(30):
        s = amb3.useries([rng.randrange(3**8) for _ in range(5)])
        acc = amb3.ring.zero()
        power = amb3.ring.one()
        for i in range(5):
            acc = acc + s.coeff(i) * power
            power = power * amb3.neg_pa
        assert _eval_fpi(_embed_sigma(s)).eq_at(acc, amb3.N_p)


# --- the one-step filtration descent ---

def test_easylemma_positive_and_witness(amb3):
    rng = random.Random(9)
    for i in range(1, amb3.r):
        for _ in range(30):
            body = _pd_random_calibrated(amb3, rng, 8, 2)
            s = PDElement(amb3, [amb3.ring.zero()] * (i + 1) + list(body.coeffs[:8]))
            assert _easylemma_holds(amb3, s, i)
        g = _pd_gamma(amb3, i)
        assert _fil_valuation(n_S(g), amb3.N_p) == i - 1  # hypothesis visibly fails
        assert _easylemma_holds(amb3, g, i)  # so the lemma holds vacuously


def test_easylemma_precision_boundary(amb3):
    # s = p^(N_p - 1) gamma_1: the hypothesis holds at N_p, the conclusion
    # only one digit lower; the at-precision form of the statement loses
    # exactly one digit at the boundary.
    s = _pd_gamma(amb3, 1, amb3.w(3 ** (amb3.N_p - 1)))
    assert _fil_valuation(s, amb3.N_p) >= 1
    assert _fil_valuation(n_S(s), amb3.N_p) >= 1
    assert _fil_valuation(s, amb3.N_p) == 1
    assert _fil_valuation(s, amb3.N_p - 1) >= 2


@pytest.mark.parametrize("p, r", [(3, 2), (5, 4)])
def test_easylemma_witness_at_one_digit(p, r):
    # the witness coefficient p a of N(gamma_i) vanishes mod p, so the
    # suite must read it at two digits even when N_p is 1
    for seed in (1, 2, 3):
        recs = run_suite_seed({"p": p, "r": r, "N_p": 1}, "easylemma", seed, {})
        assert [rec for rec in recs if not rec["ok"]] == []


# --- u-divided coordinates and ideal membership ---

def test_u_divided_of_embedding(amb3):
    import math

    rng = random.Random(10)
    s = amb3.useries([rng.randrange(3**8) for _ in range(5)])
    coords = to_u_divided(_embed_sigma(s))
    for i in range(5):
        assert coords[i].eq_at(s.coeff(i) * amb3.w(math.factorial(i)), amb3.N_p)
    for i in range(5, 9):
        assert coords[i].is_zero_at(amb3.N_p)


def test_u_power_ideal_membership(amb3):
    p = amb3.p
    up = _embed_sigma(amb3.useries([0] * p + [1]))
    assert _all_in_u_power_ideal([up], p)
    assert not _all_in_u_power_ideal([_pd_one(amb3)], p)
    assert not _all_in_u_power_ideal([_embed_sigma(amb3.useries([0] * (p - 1) + [1]))], p)
    rng = random.Random(11)
    for _ in range(20):
        x = _pd_random_calibrated(amb3, rng, 6, 1)
        assert _all_in_u_power_ideal([up * x], p)
    # u^p = p*(c - sigma(a)) lies in the ideal by construction
    diff = (amb3.c - _pd_from_scalar(amb3, amb3.sigma_a)).mul_p_pow(1)
    assert _all_in_u_power_ideal([diff], p)


def test_pd_inverse(amb3):
    rng = random.Random(12)
    one = _pd_one(amb3)
    for _ in range(20):
        x = _pd_random_calibrated(amb3, rng, 5, 1) + one
        if not x.is_unit():
            continue
        assert (x * x.invert()).eq_at(one, x.prec)


def test_coeff_out_of_range_is_degree_overflow(amb3):
    x = _pd_gamma(amb3, 1)
    N = amb3.N_gamma
    assert x.coeff(-N) == x.coeff(0)
    assert x.coeff(-1).coeffs == (0,)
    for i in (N, N + 5, -N - 1):
        with pytest.raises(DegreeOverflow):
            x.coeff(i)
    for i in (N, -1):
        with pytest.raises(DegreeOverflow):
            _pd_gamma(amb3, i)


def test_valuation_and_shift_match_the_coefficients(amb3, amb9):
    rng = random.Random(13)
    for amb in (amb3, amb9):
        N = amb.N_gamma
        for _ in range(20):
            x = _pd_random_calibrated(amb, rng, rng.randrange(N + 1), 3)
            # a zero coefficient counts as the element's precision
            assert x.valuation() == min(c.valuation() for c in x.coeffs)
            t = rng.randrange(N + 3)
            ref = PDElement(amb, ([amb.ring.zero()] * t + list(x.coeffs))[:N])
            y = _pd_shift(x, t)
            assert y.prec == ref.prec and y.planes == ref.planes
        # zero stays zero at any shift, also past N_gamma
        for t in range(N + 3):
            y = _pd_shift(_pd_zero(amb), t)
            assert y.planes == _pd_zero(amb).planes
        with pytest.raises(DegreeOverflow):
            _pd_shift(_pd_gamma(amb, 1), -1)
        low = PDElement(amb, [amb.ring.zero(5)])
        assert low.valuation() == 5


@pytest.mark.parametrize("p, r, f", [(3, 1, 1), (5, 4, 1), (3, 2, 2)])
def test_pd_random_calibrated_follows_the_reference_stream(p, r, f):
    # same planes and precision, and the same Mersenne Twister state after
    # every call; max_val = 0 still draws one bit per valuation
    amb = AmbientParams(p, r, f=f)
    a, b = random.Random(f"calibrated:{p}:{f}"), random.Random(f"calibrated:{p}:{f}")
    for max_val in (0, 2, amb.cap + 1):
        for max_index in (0, 6, amb.N_gamma + 3):
            for _ in range(3):
                got = _pd_random_calibrated(amb, a, max_index, max_val)
                want = ref_pd_random_calibrated(amb, b, max_index, max_val)
                assert (got.planes, got.prec) == (want.planes, want.prec)
                assert a.getstate() == b.getstate()
    with pytest.raises(ValueError):
        _pd_random_calibrated(amb, a, 6, -1)
