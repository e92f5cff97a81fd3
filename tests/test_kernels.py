"""The flat product kernels of S and W(k)[[u]] against schoolbook references.

The references multiply coefficient by coefficient with ``WittScalar``
arithmetic, reading elements only through their scalar coefficients:
the gamma product with the binomial table, the series product, the
derivation n_S, the Frobenius phi_S (with its own powers of c), the
u-divided coordinates and the embedding of the series ring.  Inputs
are drawn by hypothesis at f = 1 (p = 3 and p = 5), f = 2 and f = 3, with
independent precisions and supports, so that products cross the gamma
truncation and mix precisions.

The fused dot products (one accumulator and one unfold, its fold through
m(T) and reduction, for a whole row; ``unfold`` is checked against the
unpack and the fold it fuses) are checked against the left fold of those schoolbook products
under the elements' own addition, and the scalar dot against the fold of
scalar products and sums; the fused kernel cut below an index must be
the full one cut there.  A deterministic worst case (every entry
p^cap - 1 at full length) runs the packed convolution of the fused kernel
at its slot-width bound, and phi_S, _embed_sigma and the u-divided
coordinates on the same elements against the one width of the context's
packed tables.

A product of two matrices over S or the series ring runs the packed
matrix kernel; it must equal the fused dot entry by entry (planes and
precision) on dense, sparse, square and rectangular
matrices with odd and even inner dimension, also at its own slot-width
bound, and over S its scaling must give the binomial sum itself, at p up
to 13 with N_gamma past p^2.  A product over S with an all-constant
factor, on either side, packs unscaled at the width of p^K (K the highest
precision of an output entry) and must still equal the fused dot.
"""

import functools
import random
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flbreuil import witt
from flbreuil.ambient import AmbientParams, _min_N_gamma
from flbreuil.pd import (
    PDElement,
    _embed_sigma,
    _eval_f0,
    n_S,
    phi_S,
    to_u_divided,
)
from flbreuil.matrix import RingMatrix
from flbreuil.series import SigmaSeries
from flbreuil.witt import WittScalar, _conv_into, _FlatVector
from sampler_reference import drawn

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.fixture(scope="session", params=["amb3", "amb5", "amb9", "amb27"])
def amb(request):
    return request.getfixturevalue(request.param)


def draw_scalars(draw, amb, n, prec):
    mod = amb.ring.pk[prec]
    coeff = st.one_of(st.just(0), st.integers(0, mod - 1))
    return [amb.ring.make(draw(st.lists(coeff, min_size=amb.f, max_size=amb.f)), prec)
            for _ in range(n)]


def draw_pd(draw, amb):
    prec = draw(st.integers(1, amb.cap))
    n = draw(st.integers(0, amb.N_gamma))
    coeffs = draw_scalars(draw, amb, n, prec)
    return PDElement(amb, coeffs)


def draw_series(draw, amb):
    prec = draw(st.integers(1, amb.cap))
    n = draw(st.integers(0, amb.N_u // 2 + 8))
    return SigmaSeries(amb, draw_scalars(draw, amb, n, prec))


def assert_pd(got, coeffs, prec):
    amb = got.amb
    zero = amb.ring.zero(prec)
    full = list(coeffs) + [zero] * (amb.N_gamma - len(coeffs))
    support = max((i + 1 for i, c in enumerate(full) if any(c.coeffs)), default=0)
    assert got.coeffs == tuple(full)
    assert (got.prec, got.support()) == (prec, support)


# --- the schoolbook references ---

def scalar_mul(x, w):
    """The product of an element of S or W(k)[[u]] by the constant w."""
    return x * type(x)(x.amb, [w], prec=w.prec)


def ref_gamma_multiply(x, y):
    amb = x.amb
    ring = amb.ring
    N = amb.N_gamma
    k = min(x.prec, y.prec)
    xs, ys = x.coeffs, y.coeffs
    xsup, ysup = x.support(), y.support()
    out = [ring.zero(k)] * N
    for i in range(xsup):
        a = xs[i]
        if not any(a.coeffs):
            continue
        for j in range(min(ysup, N - i)):
            b = ys[j]
            if any(b.coeffs):
                term = a * b
                w, mod = amb.comb[i][j], ring.pk[k]
                term = WittScalar(ring, tuple(c * w % mod for c in term.coeffs), k)
                out[i + j] = out[i + j] + term
    return out, k


def ref_series_mul(x, y):
    amb = x.amb
    k = min(x.prec, y.prec)
    xs, ys = x.coeffs, y.coeffs
    if not xs or not ys:
        return [], k
    n = min(len(xs) + len(ys) - 1, amb.N_u)
    out = [amb.ring.zero(k)] * n
    for i, a in enumerate(xs):
        if not any(a.coeffs):
            continue
        for j in range(min(len(ys), n - i)):
            b = ys[j]
            if any(b.coeffs):
                out[i + j] = out[i + j] + a * b
    while out and not any(out[-1].coeffs):
        out.pop()
    return out, k


def ref_n_S(x):
    amb = x.amb
    k = x.prec
    xs = x.coeffs
    out = []
    for m in range(x.support()):
        t = xs[m] * amb.ring.from_int(-m, k)
        if m + 1 < amb.N_gamma:
            t = t + amb.pa * xs[m + 1]
        out.append(t)
    return out, k


@functools.cache
def ref_c_pow(amb, i):
    if i == 0:
        return PDElement(amb, [amb.ring.one()])
    out, k = ref_gamma_multiply(ref_c_pow(amb, i - 1), amb.c)
    return PDElement(amb, out, k)


def ref_phi_S(x):
    amb = x.amb
    k = x.prec
    out = [amb.ring.zero(k)] * amb.N_gamma
    xs = x.coeffs
    for i in range(x.support()):
        b = xs[i]
        if not any(b.coeffs):
            continue
        e = i - amb.vfact[i]
        if e >= k:
            continue
        cp = ref_c_pow(amb, i)
        scal = (b.frobenius() * amb.fact_unit_inv(i)).mul_p_pow(e)
        out = [acc + c * scal for acc, c in zip(out, cp.coeffs)]
    return out, k


def ref_to_u_divided(x):
    amb = x.amb
    xs = x.coeffs
    out = []
    for j in range(amb.N_gamma):
        acc = amb.ring.zero(x.prec)
        for i in range(j, amb.N_gamma):
            acc = acc + xs[i] * amb.pa_div_fact(i - j)
        out.append(acc)
    return tuple(out)


def ref_embed_sigma(s):
    amb = s.amb
    out = [amb.ring.zero(s.prec)] * amb.N_gamma
    for n, c in enumerate(s.coeffs):
        out = [acc + b * c for acc, b in zip(out, amb.u_pow(n).coeffs)]
    return out


# --- the kernels against them ---

@SETTINGS
@given(data=st.data())
def test_gamma_multiply_matches_schoolbook(amb, data):
    x, y = draw_pd(data.draw, amb), draw_pd(data.draw, amb)
    out, k = ref_gamma_multiply(x, y)
    assert_pd(x * y, out, k)
    assert_pd(y * x, out, k)


def test_gamma_multiply_crossing_the_truncation(amb):
    N = amb.N_gamma
    top = PDElement(amb, [amb.ring.zero()] * (N - 2) + [amb.ring.one(), amb.ring.one()])
    lin = PDElement(amb, [amb.ring.one().truncate(7), amb.ring.one().truncate(7)])
    out, k = ref_gamma_multiply(top, lin)
    assert k == 7
    assert_pd(top * lin, out, k)
    # a crossing product whose terms all lie past the cut is zero
    g = PDElement(amb, [amb.ring.zero()] * (N - 1) + [amb.ring.one()])
    assert_pd(g * g, [], amb.cap)


@SETTINGS
@given(data=st.data())
def test_series_product_matches_schoolbook(amb, data):
    x, y = draw_series(data.draw, amb), draw_series(data.draw, amb)
    out, k = ref_series_mul(x, y)
    got = x * y
    assert got.coeffs == tuple(out) and got.prec == k
    w = draw_scalars(data.draw, amb, 1, data.draw(st.integers(1, amb.cap)))[0]
    scaled = scalar_mul(x, w)
    expected = [c * w for c in x.coeffs]
    while expected and not any(expected[-1].coeffs):
        expected.pop()
    assert scaled.coeffs == tuple(expected) and scaled.prec == min(x.prec, w.prec)


@SETTINGS
@given(data=st.data())
def test_n_S_matches_schoolbook(amb, data):
    x = draw_pd(data.draw, amb)
    assert_pd(n_S(x), *ref_n_S(x))
    w = draw_scalars(data.draw, amb, 1, data.draw(st.integers(1, amb.cap)))[0]
    k = min(x.prec, w.prec)
    assert_pd(scalar_mul(x, w), [c * w for c in x.coeffs], k)


@SETTINGS
@given(data=st.data())
def test_phi_S_matches_schoolbook(amb, data):
    x = draw_pd(data.draw, amb)
    assert_pd(phi_S(x), *ref_phi_S(x))


@SETTINGS
@given(data=st.data())
def test_u_divided_and_embedding_match_schoolbook(amb, data):
    x = draw_pd(data.draw, amb)
    coords = ref_to_u_divided(x)
    assert to_u_divided(x) == coords
    assert _eval_f0(x) == coords[0]
    prec = data.draw(st.integers(1, amb.cap))
    s = SigmaSeries(amb, draw_scalars(data.draw, amb, data.draw(st.integers(0, amb.N_gamma)), prec))
    assert_pd(_embed_sigma(s), ref_embed_sigma(s), s.prec)


# --- fused dot products against the left fold of products and sums ---

def draw_row(draw, amb, n, elem, zero):
    """n entries, about a quarter of them zero(prec) at a drawn
    precision."""
    return [zero(draw(st.integers(1, amb.cap)))
            if draw(st.integers(0, 3)) == 0 else elem(draw, amb)
            for _ in range(n)]


def ref_pd_dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        out, k = ref_gamma_multiply(x, y)
        term = PDElement(x.amb, out, k)
        acc = term if acc is None else acc + term
    return acc


def ref_series_dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        out, k = ref_series_mul(x, y)
        term = SigmaSeries(x.amb, out, k)
        acc = term if acc is None else acc + term
    return acc


def pd_state(x):
    return x.planes, x.prec


@SETTINGS
@given(data=st.data())
def test_pd_dot_matches_fold_of_products(amb, data):
    def zero(prec):
        return PDElement(amb, [], prec)

    n = data.draw(st.integers(1, 4))
    xs, ys = (draw_row(data.draw, amb, n, draw_pd, zero) for _ in range(2))
    ref = ref_pd_dot(xs, ys)
    assert pd_state(PDElement.dot(xs, ys)) == pd_state(ref)
    assert pd_state(RingMatrix([xs]).matvec(ys)[0]) == pd_state(ref)


@SETTINGS
@given(data=st.data())
def test_series_dot_matches_fold_of_products(amb, data):
    def zero(prec):
        return SigmaSeries(amb, [], prec)

    n = data.draw(st.integers(1, 4))
    xs, ys = (draw_row(data.draw, amb, n, draw_series, zero) for _ in range(2))
    ref = ref_series_dot(xs, ys)
    got = SigmaSeries.dot(xs, ys)
    assert (got.planes, got.prec) == (ref.planes, ref.prec)


@SETTINGS
@given(data=st.data())
def test_scalar_dot_matches_fold_of_products(amb, data):
    n = data.draw(st.integers(1, 4))
    xs, ys = [], []
    for _ in range(n):
        xs += draw_scalars(data.draw, amb, 1, data.draw(st.integers(1, amb.cap)))
        ys += draw_scalars(data.draw, amb, 1, data.draw(st.integers(1, amb.cap)))
    ref = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        ref = ref + x * y
    assert WittScalar.dot(xs, ys) == ref


def pd_head_state(x, bound):
    """The state of x with its coefficients at index bound and beyond
    dropped, and its precision kept."""
    return pd_state(PDElement(x.amb, (), x.prec, tuple(pl[:bound] for pl in x.planes)))


def pd_cut_state(xs, ys, bound):
    """The state of the fused kernel's sum over S cut below ``bound``: its
    planes and precision."""
    amb = xs[0].amb
    planes, k = _FlatVector._dot_planes(xs, ys, min(bound, amb.N_gamma), amb.comb, amb.comb_max)
    return pd_state(PDElement(amb, (), k, planes))


@SETTINGS
@given(data=st.data())
def test_bounded_dot_and_matvec_are_the_full_ones_cut(amb, data):
    # coefficient m of a product reads only the coefficients <= m of its
    # factors, so the kernel cut below a bound is the full sum cut there
    def zero(prec):
        return PDElement(amb, [], prec)

    N = amb.N_gamma
    n = data.draw(st.integers(1, 3))
    rows = [draw_row(data.draw, amb, n, draw_pd, zero)
            for _ in range(data.draw(st.integers(1, 3)))]
    vec = draw_row(data.draw, amb, n, draw_pd, zero)
    bound = data.draw(st.sampled_from([0, 1, N - 1, N, N + 1, N + 5]) | st.integers(0, N))
    for row, x in zip(rows, RingMatrix(rows).matvec(vec)):
        assert pd_state(PDElement.dot(row, vec)) == pd_state(x)
        assert pd_cut_state(row, vec, bound) == pd_head_state(x, bound)


def test_bounded_dot_across_the_truncation_is_the_product_cut(amb):
    ring, N = amb.ring, amb.N_gamma
    one = ring.one()
    top = PDElement(amb, [ring.zero()] * (N - 1) + [one])
    lin = PDElement(amb, [one, one], prec=4)
    # top * lin crosses N_gamma; below index 3 it is zero, at the lower
    # precision
    for bound in (0, 3):
        planes, k = pd_cut_state((top,), (lin,), bound)
        assert (planes[0], k) == ([], 4)
    assert pd_cut_state((top,), (lin,), N) == pd_state(top * lin)


def test_dot_of_edge_rows_drops_the_crossing_term_at_the_lowest_precision(amb):
    ring, N = amb.ring, amb.N_gamma
    one = ring.one()
    top = PDElement(amb, [ring.zero()] * (N - 1) + [one])
    lin = PDElement(amb, [one, one])
    low = PDElement(amb, [ring.one().truncate(3)])
    # only the second pair crosses N_gamma, and its top term is dropped
    row = PDElement.dot((low, top), (low, lin))
    assert pd_state(row) == pd_state(ref_pd_dot((low, top), (low, lin)))
    assert row.prec == 3 and row.support() == N
    # a row of zeros keeps the lowest precision
    zeros = [PDElement(amb, [], 5), PDElement(amb, [], 2)]
    got = PDElement.dot(zeros, [lin, top])
    assert (got.planes[0], got.prec) == ([], 2)
    # series whose products pass N_u are cut there
    big = SigmaSeries(amb, [one] * (amb.N_u // 2 + 3))
    got = SigmaSeries.dot((big, big), (big, SigmaSeries(amb, [], 4)))
    ref = ref_series_dot((big, big), (big, SigmaSeries(amb, [], 4)))
    assert (got.planes, got.prec) == (ref.planes, ref.prec) and got.prec == 4
    assert got.degree == amb.N_u - 1


# --- the packed convolution at its slot-width bound ---

@functools.cache
def tight_ambient(f):
    # p^cap = 3^41 lies just below 2^65 and N_u = p*N_gamma = 84: with
    # every entry p^cap - 1, the middle T-degree of a full-length series
    # product fills its slot to more than half of 2^W, so a width of W - 1
    # would carry
    return AmbientParams(3, 2, f=f, headroom=35)


def full_row(amb, cls, length, n):
    top = amb.ring.make([amb.ring.pk[amb.cap] - 1] * amb.f)
    return [cls(amb, [top] * length) for _ in range(n)]


def slot_width(amb, n_pairs, n, w_max):
    """The slot width W that ``_WittRing.dot_acc`` documents."""
    return (n_pairs * n * amb.f * w_max).bit_length() + 2 * amb.ring.pk[amb.cap].bit_length()


@pytest.mark.parametrize("f", [2, 3])
@pytest.mark.parametrize("n_pairs", [1, 3, 8])
def test_dot_at_the_slot_width_bound(f, n_pairs):
    amb = tight_ambient(f)
    ring = amb.ring
    # S at full length, so the row meets the largest binomial weights
    xs = full_row(amb, PDElement, amb.N_gamma, n_pairs)
    assert pd_state(PDElement.dot(xs, xs)) == pd_state(ref_pd_dot(xs, xs))
    ss = full_row(amb, SigmaSeries, amb.N_u, n_pairs)
    got, ref = SigmaSeries.dot(ss, ss), ref_series_dot(ss, ss)
    assert (got.planes, got.prec) == (ref.planes, ref.prec)
    # before the fold, the slots of the packed accumulator are the
    # per-plane convolutions, at the width slot_width documents
    for row, n, weights, w_max in ((xs, amb.N_gamma, amb.comb, amb.comb_max),
                                   (ss, amb.N_u, None, 1)):
        pairs = [(x.planes, x.planes) for x in row]
        acc = [[0] * n for _ in range(2 * f - 1)]
        for a, b in pairs:
            for s, xa in enumerate(a):
                for t, yb in enumerate(b):
                    _conv_into(acc[s + t], xa, yb, weights)
        packed, width = ring.dot_acc(pairs, n, weights, w_max)
        assert width == slot_width(amb, n_pairs, n, w_max)
        assert ring._unpack(packed, width) == acc
    # the series case is tight: its largest slot needs the top bit of W
    assert max(map(max, acc)).bit_length() == slot_width(amb, n_pairs, amb.N_u, 1)


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_unfold_is_fold_of_unpack(p, f):
    # the one-pass unfold against unpack-then-fold, at every precision, on
    # random packed accumulators and on one with every slot at 2^W - 1
    ring = witt._WittRing(p, f, cap=12)
    rng = random.Random(f"unfold:{p}:{f}")
    width = ring.packing(7 * f)[0]
    slots = 2 * f - 1
    full = sum(((1 << width) - 1) << (d * width) for d in range(slots))
    acc = [full] + [rng.getrandbits(slots * width) for _ in range(20)] + [0]
    for k in range(1, ring.cap + 1):
        assert ring.unfold(acc, width, k) == ring.fold(ring._unpack(acc, width), k)


@pytest.mark.parametrize("f", [2, 3])
def test_phi_S_at_the_slot_width_bound(f):
    amb = tight_ambient(f)
    ring = amb.ring
    # the context's three tables pack at the width _PackedTable documents
    for table in (amb.c_table, amb.u_table, amb.u_div_table, amb.f0_table):
        assert table.width == slot_width(amb, 1, amb.N_gamma, 1)
    top = ring.make([ring.pk[amb.cap] - 1] * f)
    x = PDElement(amb, [top] * amb.N_gamma)
    out, k = ref_phi_S(x)
    assert pd_state(phi_S(x)) == pd_state(PDElement(amb, out, k))


@pytest.mark.parametrize("f", [2, 3])
def test_embed_sigma_at_the_slot_width_bound(f):
    amb = tight_ambient(f)
    s = full_row(amb, SigmaSeries, amb.N_gamma, 1)[0]
    assert pd_state(_embed_sigma(s)) == pd_state(PDElement(amb, ref_embed_sigma(s), s.prec))


@pytest.mark.parametrize("f", [2, 3])
def test_u_divided_at_the_slot_width_bound(f):
    amb = tight_ambient(f)
    x = full_row(amb, PDElement, amb.N_gamma, 1)[0]
    coords = ref_to_u_divided(x)
    assert to_u_divided(x) == coords
    assert _eval_f0(x) == coords[0]


# --- matrix products: the packed kernel against the fused dot ---

def entry_state(x):
    return x.planes, x.prec


def assert_matmul_is_entrywise_dot(A, B):
    C = A @ B
    assert (C.rows, C.cols) == (A.rows, B.cols)
    for row, line in zip(A.entries, C.entries):
        for j, got in enumerate(line):
            assert entry_state(got) == entry_state(row[0].dot(row, B.col(j)))


def random_entry(rng, amb, cls):
    """An entry as draw_row makes them, from a seeded generator: a quarter
    are zero, the others have a random support, up to N_gamma over S and
    past N_u / 2 for series; each has a random precision."""
    prec = rng.randrange(1, amb.cap + 1)
    n = rng.randrange(amb.N_gamma + 1 if cls is PDElement else amb.N_u // 2 + 9)
    coeffs = [drawn(amb.ring, rng, prec) if rng.randrange(3) else amb.ring.zero(prec)
              for _ in range(n if rng.randrange(4) else 0)]
    if cls is PDElement:
        return PDElement(amb, coeffs, prec)
    return SigmaSeries(amb, coeffs, prec)


@pytest.mark.parametrize("cls", [PDElement, SigmaSeries])
@settings(SETTINGS, max_examples=60)
@given(d=st.integers(1, 6), e=st.integers(1, 6), g=st.integers(1, 6), seed=st.integers(0, 2**32))
def test_matmul_matches_entrywise_dot(amb, cls, d, e, g, seed):
    rng = random.Random(seed)
    A = RingMatrix([[random_entry(rng, amb, cls) for _ in range(e)] for _ in range(d)])
    B = RingMatrix([[random_entry(rng, amb, cls) for _ in range(g)] for _ in range(e)])
    assert_matmul_is_entrywise_dot(A, B)


def test_matmul_crossing_the_truncations(amb):
    # full-length S entries reach past N_gamma, long series past N_u, and
    # both are cut there; zero rows keep their precision
    ring, N = amb.ring, amb.N_gamma
    rng = random.Random(5)
    full = [PDElement(amb, [drawn(ring, rng, rng.randrange(1, amb.cap + 1)) for _ in range(N)])
            for _ in range(6)]
    zero = PDElement(amb, [], 3)
    A = RingMatrix([full[:3], [zero, full[3], zero]])
    B = RingMatrix([[full[4], zero], [full[5], zero], [zero, zero]])
    assert_matmul_is_entrywise_dot(A, B)
    assert (A @ B)[0, 0].support() == N and (A @ B)[1, 1].planes[0] == []
    long = [SigmaSeries(amb, [ring.random(rng) for _ in range(amb.N_u // 2 + 3)])
            for _ in range(4)]
    S = RingMatrix([long[:2], [long[2], SigmaSeries(amb, [], 4)]])
    T = RingMatrix([[long[3]], [long[0]]])
    assert_matmul_is_entrywise_dot(S, T)
    assert (S @ T)[0, 0].degree == amb.N_u - 1


@pytest.mark.parametrize("f", [2, 3])
@pytest.mark.parametrize("e", [1, 3, 6])
def test_matmul_at_the_slot_width_bound(f, e, monkeypatch):
    amb = tight_ambient(f)
    ring = amb.ring
    seen = []

    def read(sums, width, k, post=None, inner=ring.read):
        seen.append((width, max(map(max, ring._unpack(sums, width))).bit_length()))
        return inner(sums, width, k, post)

    def packed_product(cls, n):
        # a full-length row times its column, every entry p^cap - 1: one
        # output entry, one read; returns its width and largest slot
        row = full_row(amb, cls, n, e)
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(ring, "read", read)
            got = (RingMatrix([row]) @ RingMatrix([[x] for x in row]))[0, 0]
        assert entry_state(got) == entry_state(cls.dot(row, row))
        [out] = seen
        return out

    # series: W = bit_length(e*N_u*f) + 2*bit_length(p^cap), and the
    # largest slot needs its top bit, so a width of W - 1 would carry
    width, top = packed_product(SigmaSeries, amb.N_u)
    assert width == top == slot_width(amb, e, amb.N_u, 1)
    # S: the same rule at p^(K+V), the bound of its scaled entries, and
    # no slot before the division by q carries; every entry is at the cap,
    # so K = cap
    V = amb.gamma_scale()[0]
    width, top = packed_product(PDElement, amb.N_gamma)
    assert width == (e * amb.N_gamma * f).bit_length() + 2 * (amb.p ** (amb.cap + V)).bit_length()
    assert top <= width


@functools.cache
def carry_ambient(p):
    # N_gamma past p^2, so v_p(i!) steps by two inside the truncation
    return AmbientParams(p, 1, N_gamma=max(p * p + 2, _min_N_gamma(p, 1, 6)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_matmul_scaling_is_the_binomial_product(p):
    amb = carry_ambient(p)
    ring, N, cap = amb.ring, amb.N_gamma, amb.cap
    rng = random.Random(p)
    top = ring.pk[cap] - 1

    def entry(k, kind):
        vals = [top] * N if kind == "top" else [
            rng.randrange(ring.pk[k]) * (ring.pk[rng.randrange(k)] if kind == "deep" else 1)
            for _ in range(N)]
        return PDElement(amb, [ring.from_int(v, k) for v in vals])

    def binomial_sum(row, col):
        k = min(x.prec for x in row + col)
        x0s = [x.planes[0] + [0] * (N - x.support()) for x in row]
        y0s = [y.planes[0] + [0] * (N - y.support()) for y in col]
        out = [sum(comb(m, i) * xs[i] * ys[m - i] for xs, ys in zip(x0s, y0s)
                   for i in range(m + 1)) % ring.pk[k] for m in range(N)]
        while out and not out[-1]:
            out.pop()
        return (out,), k

    row = [entry(cap, "top"), entry(cap, "random"), entry(cap - 3, "deep")]
    col = [entry(cap, "top"), entry(cap - 1, "deep"), entry(cap, "random")]
    for r, c in ((row[:2], col[::2]), (row, col)):
        got = (RingMatrix([r]) @ RingMatrix([[y] for y in c]))[0, 0]
        assert (got.planes, got.prec) == binomial_sum(r, c)


# --- the product by the constant one: a copy of the other factor ---

def convolved(xs, ys, bound, weights=None, w_max=1):
    """The pair of ``_FlatVector._dot_planes`` from the convolution path
    alone: ``dot_acc`` and ``unfold``, called directly."""
    ring = xs[0].ring
    k = min(min(x.prec for x in xs), min(y.prec for y in ys))
    pairs = [(x.planes, y.planes) for x, y in zip(xs, ys) if x.planes[0] and y.planes[0]]
    reach = max((len(a[0]) + len(b[0]) - 1 for a, b in pairs), default=0)
    return ring.unfold(*ring.dot_acc(pairs, min(reach, bound), weights, w_max), k), k


def route_rows(amb, cls):
    """(xs, ys, copies) triples: rows whose one nonzero pair has the
    constant one as a factor (copies), and rows that must convolve."""
    ring = amb.ring
    rng = random.Random(f"route:{amb.p}:{amb.f}:{cls.__name__}")

    def elem(coeffs, prec=None):
        return cls(amb, coeffs, prec)

    body = [ring.random(rng) for _ in range(5)] + [ring.random_unit(rng)]
    x, y = elem(body), elem([ring.random(rng) for _ in range(3)])
    one, one3, two = elem([ring.one()]), elem([ring.one().truncate(3)]), elem([ring.from_int(2)])
    zero2 = elem([], prec=2)
    rows = [
        ((one,), (x,), True),
        ((x,), (one,), True),
        ((one, zero2), (x, y), True),   # k = 2 < prec of x
        ((zero2, x), (y, one), True),
        ((one3,), (x,), True),          # the one sets k = 3
        ((one,), (one,), True),
        ((one, x), (x, y), False),      # two nonzero pairs
        ((two,), (x,), False),
        ((x,), (two,), False),
    ]
    if amb.f > 1:
        rows.append(((elem([ring.make([1, 1])]),), (x,), False))  # 1 + T is not one
    return rows


@pytest.mark.parametrize("cls", [PDElement, SigmaSeries])
def test_product_by_one_is_the_convolution(amb, cls, monkeypatch):
    ring, N = amb.ring, amb.N_gamma
    convolutions = []
    dot_acc = type(ring).dot_acc
    monkeypatch.setattr(type(ring), "dot_acc",
                        lambda self, *a, **kw: convolutions.append(1) or dot_acc(self, *a, **kw))
    for xs, ys, copies in route_rows(amb, cls):
        if cls is SigmaSeries:
            want = convolved(xs, ys, amb.N_u)
            del convolutions[:]
            assert _FlatVector._dot_planes(xs, ys, amb.N_u) == want
            got, ref = SigmaSeries.dot(xs, ys), SigmaSeries(amb, (), want[1], want[0])
            assert (got.planes, got.prec) == (ref.planes, ref.prec)
            assert bool(convolutions) is not copies
            continue
        for n in (N, 0, 2):
            want = convolved(xs, ys, n, amb.comb, amb.comb_max)
            del convolutions[:]
            assert _FlatVector._dot_planes(xs, ys, n, amb.comb, amb.comb_max) == want
            assert bool(convolutions) is not copies
        planes, k = convolved(xs, ys, N, amb.comb, amb.comb_max)
        del convolutions[:]
        assert pd_state(PDElement.dot(xs, ys)) == pd_state(PDElement(amb, (), k, planes))
        assert bool(convolutions) is not copies


# --- dense, sparse and constant operands of the matrix kernel ---

def dense_entry(rng, amb, cls, zero_chance=0.0):
    """A full-support entry (N_gamma over S, N_u / 2 for series) at a random
    precision; zero with the chance given, at its own precision."""
    prec = rng.randrange(1, amb.cap + 1)
    n = amb.N_gamma if cls is PDElement else amb.N_u // 2
    coeffs = [] if rng.random() < zero_chance else \
        [drawn(amb.ring, rng, prec) for _ in range(n - 1)] + [drawn(amb.ring, rng, prec, True)]
    if cls is PDElement:
        return PDElement(amb, coeffs, prec)
    return SigmaSeries(amb, coeffs, prec)


@pytest.mark.parametrize("cls", [PDElement, SigmaSeries])
@pytest.mark.parametrize("d", range(1, 9))
def test_dense_square_matmul_pairs_and_matches_dot(amb, cls, d):
    """A pair of dense d x d matrices multiplies to the entrywise dot of rows and columns."""
    rng = random.Random(f"dense:{amb.p}:{amb.f}:{cls.__name__}:{d}")
    A = RingMatrix([[dense_entry(rng, amb, cls) for _ in range(d)] for _ in range(d)])
    B = RingMatrix([[dense_entry(rng, amb, cls) for _ in range(d)] for _ in range(d)])
    assert_matmul_is_entrywise_dot(A, B)


@pytest.mark.parametrize("cls", [PDElement, SigmaSeries])
@pytest.mark.parametrize("d, e, g", [(2, 3, 4), (4, 3, 2), (3, 4, 5), (5, 5, 2), (1, 7, 3),
                                     (6, 2, 6), (3, 6, 1), (7, 1, 3)])
def test_rectangular_sparse_matmul_matches_dot(amb, cls, d, e, g):
    rng = random.Random(f"rect:{amb.p}:{amb.f}:{cls.__name__}:{d}:{e}:{g}")
    A = RingMatrix([[dense_entry(rng, amb, cls, 0.2) for _ in range(e)] for _ in range(d)])
    B = RingMatrix([[dense_entry(rng, amb, cls, 0.2) for _ in range(g)] for _ in range(e)])
    assert_matmul_is_entrywise_dot(A, B)


def constant_entry(rng, amb):
    """An element of S of support at most one: zero, or a constant at a
    random precision."""
    prec = rng.randrange(1, amb.cap + 1)
    coeffs = [] if rng.randrange(4) == 0 else [drawn(amb.ring, rng, prec)]
    return PDElement(amb, coeffs, prec)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("e", [1, 2, 3, 5])
def test_constant_factor_packs_unscaled(amb, side, e, monkeypatch):
    ring, N, f = amb.ring, amb.N_gamma, amb.f
    rng = random.Random(f"const:{amb.p}:{f}:{side}:{e}")
    consts = [[constant_entry(rng, amb) for _ in range(e)] for _ in range(3)]
    dense = [[dense_entry(rng, amb, PDElement, 0.2) for _ in range(3)] for _ in range(e)]
    A, B = RingMatrix(consts), RingMatrix(dense)
    if side == "right":
        A, B = B.transpose(), A.transpose()

    def packing_widths(A, B):
        # the widths the product reads its sums at, by the product alone
        widths = []
        read = ring.read
        with monkeypatch.context() as m:
            m.setattr(ring, "read", lambda sums, w, *a: widths.append(w) or read(sums, w, *a))
            A @ B
        assert_matmul_is_entrywise_dot(A, B)
        return set(widths)

    def top_prec(A, B):
        # K: the highest precision of an output entry
        return min(max(min(x.prec for x in row) for row in A.entries),
                   max(min(y.prec for y in col) for col in B.transpose().entries))

    # the weights are C(m, 0) = 1: no gamma_scale and the width of p^K
    assert packing_widths(A, B) == \
        {(e * N * f).bit_length() + 2 * ring.pk[top_prec(A, B)].bit_length()}
    # one entry of support two brings the scaling back
    entries = [list(row) for row in (A if side == "left" else B).entries]
    entries[0][0] = PDElement(amb, [ring.one(), ring.one()])
    if side == "left":
        A = RingMatrix(entries)
    else:
        B = RingMatrix(entries)
    V = amb.gamma_scale()[0]
    assert packing_widths(A, B) == \
        {(e * N * f).bit_length() + 2 * (amb.p ** (top_prec(A, B) + V)).bit_length()}
