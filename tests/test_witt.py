import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flbreuil.ambient import AmbientParams
from flbreuil.errors import NotAUnit, NotDivisible, PrecisionExhausted
from flbreuil.witt import WittScalar, _find_irreducible, _WittRing
from flag_reference import build_redrows
from inverse_reference import newton_inverse
from sampler_reference import draw_below, drawn, random_tuple, random_unit_tuple

HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"


@pytest.fixture(scope="module")
def zp():
    return _WittRing(3, 1, cap=8)


@pytest.fixture(scope="module")
def w9():
    # W(F_9) with the deterministic modulus T^2 + 1
    return _WittRing(3, 2, cap=8)


def test_find_irreducible_deterministic():
    assert _find_irreducible(3, 1) == (0, 1)
    assert _find_irreducible(3, 2) == (1, 0, 1)
    m5 = _find_irreducible(5, 2)
    assert len(m5) == 3 and m5[2] == 1


@pytest.mark.parametrize("cap", [1, 4, 29])
@pytest.mark.parametrize("f", [2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_reduction_rows_match_the_reference(p, f, cap):
    # T^(f+i) mod m(T) read off the ring's make is the old recurrence's row,
    # for the default modulus and for one lifted by multiples of p
    rng = random.Random(f"redrows:{p}:{f}:{cap}")
    m = _find_irreducible(p, f)
    lifted = [c + p * rng.randrange(p**cap) for c in m[:-1]] + [1]
    for coeffs in (m, lifted):
        ring = _WittRing(p, f, coeffs, cap)
        assert len(ring._redrows) == f - 1
        assert ring._redrows == build_redrows(ring)


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p, f", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
                                  (7, 3), (11, 2)])
def test_irreducible_count_matches_gauss(p, f):
    # Gauss: (1/f) * sum over d | f of mu(d) * p^(f/d) monic irreducibles
    expected = sum(_mobius(d) * p ** (f // d) for d in range(1, f + 1) if f % d == 0) // f
    count = 0
    for n in range(p**f):
        try:
            _WittRing(p, f, [n // p**t % p for t in range(f)] + [1], 1)
        except ValueError:
            continue
        count += 1
    assert count == expected


# the default modulus of each (p, f), computed by trial division by every
# monic polynomial of degree <= f/2
DEFAULT_MODULI = {
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 13): (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 14): (2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 15): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (13, 1): (0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (101, 1): (0, 1),
    (101, 2): (2, 0, 1),
    (101, 3): (1, 1, 0, 1),
    (1021, 1): (0, 1),
    (1021, 2): (2, 0, 1),
    (1021, 3): (5, 0, 0, 1),
}


@pytest.mark.parametrize("p, f", sorted(DEFAULT_MODULI))
def test_default_modulus_is_pinned(p, f):
    assert _find_irreducible(p, f) == DEFAULT_MODULI[p, f]


def test_residue_degree_64_builds():
    m = _find_irreducible(3, 64)
    assert len(m) == 65 and m[-1] == 1 and all(0 <= c < 3 for c in m)
    assert _WittRing(3, 64, m, 1).m == m


def test_invert_one(zp):
    one = zp.one()
    assert one.invert() == one


def test_invert_two_matches_euclid_oracle(zp):
    # independent oracle: extended Euclid modulo 3^4
    expected = pow(2, -1, 3**4)
    assert expected == 41
    x = zp.from_int(2, prec=4)
    assert x.invert().coeffs[0] == expected


def test_invert_p_fails(zp, w9):
    with pytest.raises(NotAUnit):
        zp.from_int(3).invert()
    with pytest.raises(NotAUnit):
        WittScalar(w9, (3, 6), 4).invert()


def test_invert_random_units(zp, w9):
    rng = random.Random(0)
    for ring in (zp, w9, _WittRing(3, 3, cap=8), _WittRing(5, 3, cap=20)):
        for _ in range(100):
            x = ring.random_unit(rng)
            assert x.invert() * x == ring.one()


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_invert_is_the_newton_inverse(p, f):
    # the inverse by the norm against Newton's iteration, in coefficients
    # and precision at every precision; non-units raise on both
    ring = _WittRing(p, f, cap=20)
    rng = random.Random(f"invert:{p}:{f}")
    for k in range(1, ring.cap + 1):
        for _ in range(8):
            x = drawn(ring, rng, k, True)
            got, want = x.invert(), newton_inverse(x)
            assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
            # the Frobenius of a scalar is that of its one-entry planes
            planes = ring.frobenius_planes(tuple([c] for c in x.coeffs), k)
            assert x.frobenius().coeffs == tuple(pl[0] for pl in planes)
            y = x.mul_p_pow(1) if k < ring.cap else ring.zero(k)
            for inv in (WittScalar.invert, newton_inverse):
                with pytest.raises(NotAUnit):
                    inv(y)


def test_invert_checks_that_the_norm_is_in_Zp():
    # with sigma replaced by the identity, a * sigma(a) = a^2 leaves Z_p
    ring = _WittRing(3, 2, cap=6)
    ring._spow = ((0, 1),)
    with pytest.raises(ArithmeticError):
        ring.make([1, 1]).invert()


def test_frobenius_trivial_for_prime_field(zp):
    rng = random.Random(1)
    for _ in range(20):
        x = zp.random(rng)
        assert x.frobenius() == x


def test_frobenius_of_generator_is_minus(w9):
    # T^3 = -T in Z[T]/(T^2+1), exactly; the Hensel lift must find it
    t = w9.make([0, 1])
    img = t.frobenius()
    assert img == -t


@pytest.mark.parametrize("p, f", [(3, 2), (3, 3), (5, 3)], ids=["F9", "F27", "F125"])
def test_frobenius_order_and_homomorphism(p, f):
    ring = _WittRing(p, f, cap=8)
    rng = random.Random(2)
    for _ in range(200):
        x, y = ring.random(rng), ring.random(rng)
        sx, sy = x.frobenius(), y.frobenius()
        assert (x + y).frobenius() == sx + sy
        assert (x * y).frobenius() == sx * sy
        sfx = x
        for _ in range(f):
            sfx = sfx.frobenius()
        assert sfx == x  # sigma^f = id
        assert (sx - x ** p).is_zero_at(1)  # reduces to x -> x^p mod p


small = st.integers(min_value=-3**8, max_value=3**8)


@given(small, small, small)
@settings(max_examples=60, deadline=None)
def test_ring_laws_prime_field(a, b, c):
    ring = _WittRing(3, 1, cap=8)
    x, y, z = ring.from_int(a), ring.from_int(b), ring.from_int(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x


@given(small, small, small, small)
@settings(max_examples=40, deadline=None)
def test_ring_laws_degree_two(a0, a1, b0, b1):
    ring = _WittRing(3, 2, cap=6)
    x = ring.make([a0, a1])
    y = ring.make([b0, b1])
    z = ring.make([a1, b0])
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_precision_min_combines(zp):
    x = zp.from_int(5, prec=6)
    y = zp.from_int(7, prec=3)
    assert (x + y).prec == 3
    assert (x * y).prec == 3


def test_divide_exact_p(zp):
    x = zp.from_int(18, prec=5)
    q = x.div_p_exact()
    assert q.coeffs[0] == 6 and q.prec == 4
    with pytest.raises(NotDivisible):
        zp.from_int(5).div_p_exact()
    with pytest.raises(PrecisionExhausted):
        zp.from_int(9, prec=2).div_p_exact(2)


def test_mul_p_pow_raises_precision(zp):
    x = zp.from_int(2, prec=3)
    y = x.mul_p_pow(2)
    assert y.prec == 5 and y.coeffs[0] == 18
    assert y.div_p_exact(2) == x


def test_mul_p_pow_beyond_cap_is_zero(zp):
    # p^k x vanishes mod p^cap once k >= cap; k past the cap must not index
    # outside the power table
    x = zp.from_int(2, prec=3)
    for k in (zp.cap, zp.cap + 1, 2 * zp.cap):
        y = x.mul_p_pow(k)
        assert y.prec == zp.cap and y.is_zero_at(zp.cap)


def test_valuation_and_zero_tests(zp):
    assert zp.from_int(9, prec=5).valuation() == 2
    assert zp.from_int(0, prec=5).valuation() == 5
    assert zp.from_int(27, prec=5).is_zero_at(3)
    assert not zp.from_int(27, prec=5).is_zero_at(4)
    with pytest.raises(PrecisionExhausted):
        zp.from_int(1, prec=2).is_zero_at(3)


def test_truncate(zp):
    x = zp.from_int(40, prec=5)
    t = x.truncate(2)
    assert t.prec == 2 and t.coeffs[0] == 40 % 9


def benchmark_moduli():
    """p^cap of every context that the benchmark's workloads build."""
    harness = sys.modules.get("perfbench_harness")
    if harness is None:
        spec = importlib.util.spec_from_file_location("perfbench_harness", HARNESS)
        harness = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = harness  # its dataclasses look their module up
        spec.loader.exec_module(harness)
    ambs = [AmbientParams(**kw) for w in harness.WORKLOADS.values() for kw in w.ambients]
    return {amb.ring.pk[amb.cap] for amb in ambs}


def test_draw_below_is_randrange():
    moduli = benchmark_moduli()
    assert len(moduli) >= 3
    sizes = {1, 2, 3} | moduli | {2 ** k + e for k in range(1, 70) for e in (-1, 0, 1)}
    for n in sorted(sizes):
        a, b = random.Random(n), random.Random(n)
        assert [draw_below(a, n) for _ in range(12)] == [b.randrange(n) for _ in range(12)]
        assert a.getstate() == b.getstate()
    with pytest.raises(ValueError):
        draw_below(random.Random(0), 0)


@pytest.mark.parametrize("p, r, f", [(3, 1, 1), (5, 4, 1), (3, 2, 2)])
def test_random_scalars_follow_the_reference_stream(p, r, f):
    # same values and same Mersenne Twister state after every call
    R = AmbientParams(p, r, f=f).ring
    a, b = random.Random(f"stream:{p}:{f}"), random.Random(f"stream:{p}:{f}")
    for _ in range(20):
        for draw, ref in ((R.random, random_tuple), (R.random_unit, random_unit_tuple)):
            got = draw(a)
            assert (got.coeffs, got.prec) == (ref(R, b, R.cap), R.cap)
            assert a.getstate() == b.getstate()


@pytest.mark.parametrize("prec", [0, -1, "cap+1"])
@pytest.mark.parametrize("draw", ["random", "random_unit"])
def test_random_checks_the_precision_before_drawing(draw, prec):
    # a draw stands at the cap, inside [1, cap] before a digit is drawn;
    # prec 0 would give a scalar below the one-digit floor, and cap + 1
    # would index past the power table, so make refuses both for the drawn
    # coefficients, leaving the stream where the draw left it
    R = _WittRing(3, cap=8)
    prec = R.cap + 1 if prec == "cap+1" else prec
    rng = random.Random(0)
    x = getattr(R, draw)(rng)
    assert x.prec == R.cap and R.make(x.coeffs, x.prec) == x
    state = rng.getstate()
    with pytest.raises(PrecisionExhausted, match=rf"^precision {prec} outside \[1, 8\]$"):
        R.make(x.coeffs, prec)
    with pytest.raises(PrecisionExhausted, match=rf"^precision {prec} outside \[1, 8\]$"):
        R.make([1], prec)
    assert rng.getstate() == state


@pytest.mark.parametrize("f", [1, 2])
def test_make_reduces_any_length_mod_m(f):
    # a list longer than a product's 2f - 1 coefficients gives the value of
    # the polynomial at T, by Horner's rule in the ring
    R = _WittRing(3, f, cap=4)
    T = R.make([-R.m[0]]) if f == 1 else R.make([0, 1])
    rng = random.Random(f"make:{f}")
    for n in (2 * f, 2 * f + 1, 3 * f + 4):
        coeffs = [rng.randrange(-10**6, 10**6) for _ in range(n)]
        horner = R.zero()
        for c in reversed(coeffs):
            horner = horner * T + R.from_int(c)
        got = R.make(coeffs)
        assert got.coeffs == horner.coeffs and got.prec == R.cap
