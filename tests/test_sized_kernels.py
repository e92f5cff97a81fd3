"""Packed products sized by their operands' precision, and the table maps
of S over many vectors at once.

The matrix kernel (``_FlatVector._matmul_planes``) packs every coefficient
reduced mod p^(K+V), K = min(largest row precision, largest column
precision), and reads each entry up to its reach from the supports; the
triangular solve (``_FlatVector._solve_planes``) packs mod p^(k+V), k the
lowest precision among A and R.  On operands of mixed precision, some
with a top coefficient that vanishes mod p^K, the products must equal the
fused dot (``_dot_planes``) entry by entry in planes and precision, and
the solves the elimination (``_scaled_inverse``) in planes and
precision, at f in {1, 2, 3}, with rank-0 matrices too.

``_PackedTable.apply`` maps a list of vectors; the matrix
maps built on it (``functors._phi_matrix``, ``pd._phi_S_all``,
``pd._embed_sigma_all``, ``pd._all_in_u_power_ideal``) must equal the
entrywise maps on 0 x 0, 1 x 1, constant and zero entries, and
series past N_gamma.  The blocks of the packed layout (``witt._join``,
``witt._split``) must round-trip, with one block as its own int, a block
at 2^(8B) - 1 and reads past the blocks present.  The loader of series
and S (``serialize``) builds planes directly and must give the elements
the scalar constructors give, with the same errors in the same order.
"""

import random

import pytest

from flbreuil import serialize as SER
from flbreuil.ambient import AmbientParams
from flbreuil.errors import PrecisionMismatch, SchemaMismatch
from flbreuil.functors import _phi_matrix
from flbreuil.matrix import RingMatrix, _scaled_inverse
from flbreuil.pd import (
    PDElement,
    _all_in_u_power_ideal,
    _embed_sigma,
    _embed_sigma_all,
    _phi_S_all,
    phi_S,
)
from flbreuil.series import SigmaSeries
from flbreuil.witt import _FlatVector, _join, _split
from sampler_reference import drawn

# (p, f, N_gamma): small cuts keep the references quick; v_p((N_gamma-1)!)
# >= 1, so the products and solves over S scale by gamma_scale
CONTEXTS = [(3, 1, 10), (5, 1, 12), (3, 2, 8), (3, 3, 6)]


def _amb(p, f, n_gamma):
    return AmbientParams(p, 1, f=f, N_p=2, N_gamma=n_gamma)


def _entry(amb, cls, rng, prec, support, deep_top=None, unit=None):
    """An entry of support ``support`` at ``prec``, whose constant term is a
    unit (``unit`` true), a multiple of p (false) or random (None); with
    ``deep_top`` its top coefficient, when that is not a unit constant
    term, is p^deep_top times a unit, so it vanishes mod p^deep_top."""
    ring = amb.ring
    coeffs = [drawn(ring, rng, prec) for _ in range(support)]
    if support and unit is not None:
        coeffs[0] = drawn(ring, rng, prec, True) if unit else coeffs[0].mul_p_pow(1).truncate(prec)
    if support and deep_top is not None and not (unit and support == 1):
        coeffs[-1] = drawn(ring, rng, prec, True).mul_p_pow(deep_top).truncate(prec)
    return cls(amb, coeffs, prec)


def _mixed(amb, cls, rng, e, cut, lows, deep):
    """Lines of e entries, line i with one entry at precision lows[i] and
    the others at it or at the cap; the nonzero entries above p^deep have
    a top coefficient divisible by p^deep, and some entries are zero."""
    lines = []
    for low in lows:
        line = []
        for c in range(e):
            prec = low if c == 0 else rng.choice([low, amb.cap])
            deep_top = deep if prec > deep else None
            support = rng.choice([1, 2, cut // 2, cut] + [0] * (deep_top is None))
            line.append(_entry(amb, cls, rng, prec, support, deep_top))
        rng.shuffle(line)
        lines.append(line)
    return lines


@pytest.mark.parametrize("cls", [PDElement, SigmaSeries])
@pytest.mark.parametrize("p, f, n_gamma", CONTEXTS)
def test_mixed_precision_matmul_is_the_entrywise_dot(p, f, n_gamma, cls, monkeypatch):
    amb = _amb(p, f, n_gamma)
    ring = amb.ring
    cut = amb.N_gamma if cls is PDElement else amb.N_u
    rng = random.Random(f"sized-matmul:{p}:{f}:{cls.__name__}")
    widths = []
    read = ring.read
    monkeypatch.setattr(ring, "read", lambda sums, w, *a: widths.append(w) or read(sums, w, *a))
    for d, e, g in ((1, 1, 1), (2, 3, 2), (3, 2, 4), (4, 4, 4)):
        K = rng.randrange(2, amb.cap - 1)
        row_lows = [rng.randrange(1, K + 1) for _ in range(d - 1)] + [K]
        col_lows = [K + 1] + [rng.randrange(1, amb.cap + 1) for _ in range(g - 1)]
        assert K == min(max(row_lows), max(col_lows))
        rows = _mixed(amb, cls, rng, e, cut, row_lows, K)
        cols = _mixed(amb, cls, rng, e, cut, col_lows, K)
        # the deep top coefficients vanish mod p^K, but not at their own
        # precision: the reach must still count them
        assert any(x.prec > K and not any(pl[-1] % ring.pk[K] for pl in x.planes)
                   for line in rows + cols for x in line if x.planes[0])
        weights, w_max = (amb.comb, amb.comb_max) if cls is PDElement else (None, 1)
        scale = None if cls is SigmaSeries else amb.gamma_scale()
        del widths[:]
        grid = _FlatVector._matmul_planes(rows, cols, cut, scale)
        V = scale[0] if scale else 0
        assert set(widths) == {ring.packing(e * cut * f, p ** (K + V))[0]}
        for row, line in zip(rows, grid):
            for col, got in zip(cols, line):
                assert got == _FlatVector._dot_planes(row, col, cut, weights, w_max)
        # the element products
        C = RingMatrix(rows) @ RingMatrix([list(r) for r in zip(*cols)])
        for row, line in zip(rows, C.entries):
            for col, got in zip(cols, line):
                want = cls.dot(row, col)
                assert (got.planes, got.prec) == (want.planes, want.prec)


@pytest.mark.parametrize("cls", [PDElement, SigmaSeries])
@pytest.mark.parametrize("p, f, n_gamma", CONTEXTS)
def test_mixed_precision_solve_is_the_elimination(p, f, n_gamma, cls, monkeypatch):
    amb = _amb(p, f, n_gamma)
    ring = amb.ring
    cut = amb.N_gamma if cls is PDElement else amb.N_u
    rng = random.Random(f"sized-solve:{p}:{f}:{cls.__name__}")
    widths = []
    read = ring.read
    monkeypatch.setattr(ring, "read", lambda sums, w, *a: widths.append(w) or read(sums, w, *a))
    for d, g in ((1, 1), (2, 3), (3, 1), (4, 4)):
        k = rng.randrange(2, amb.cap - 1)

        def entry(unit, prec=None):
            # at k or above; those above k have a top coefficient p^k * unit.
            # A unit diagonal over multiples of p keeps A_0 invertible
            if prec is None:
                prec = rng.choice([k, rng.randrange(k, amb.cap + 1), amb.cap])
            return _entry(amb, cls, rng, prec, rng.choice([1, 2, cut // 2, cut]),
                          k if prec > k else None, unit)

        A = RingMatrix([[entry(i == j) for j in range(d)] for i in range(d)])
        R = RingMatrix([[entry(None, k if (i, j) == (0, 0) else None) for j in range(g)]
                        for i in range(d)])
        assert k == min(x.prec for M in (A, R) for row in M.entries for x in row)
        del widths[:]
        X = A.solve(R)
        V = amb.gamma_scale()[0] if cls is PDElement else 0
        assert set(widths) == {ring.packing(cut * d * f, p ** (k + V))[0]}
        want = (_scaled_inverse(A, 0) @ R).truncate(k)
        assert [[(x.planes, x.prec) for x in row] for row in X.entries] == \
            [[(y.planes, k) for y in row] for row in want.entries]


@pytest.mark.parametrize("cls", [PDElement, SigmaSeries])
def test_rank_zero_products_and_solves(amb3, cls):
    empty = RingMatrix([])
    assert (empty @ empty).entries == ()
    assert empty.solve(empty) is empty and empty.invert() is empty
    # d x 0 times 0 x 0: d empty rows, no kernel call
    x = cls(amb3, [amb3.ring.one()])
    thin = RingMatrix([[], []])
    assert (thin @ empty).entries == ((), ())
    assert (RingMatrix([[x]]) @ RingMatrix([[x]]))[0, 0].planes == x.planes


# --- the table maps over many vectors ---

def _map_entries(amb, rng):
    """Entries of S for the maps: zero at several precisions, constants,
    short and full supports, mixed precisions."""
    ring, N = amb.ring, amb.N_gamma
    out = [PDElement(amb, [], 3), PDElement(amb, [], amb.cap),
           PDElement(amb, [drawn(ring, rng, 5, True)]),
           PDElement(amb, [ring.random(rng)])]
    for support in (2, N // 2, N, N):
        prec = rng.randrange(1, amb.cap + 1)
        out.append(PDElement(amb, [drawn(ring, rng, prec) for _ in range(support)], prec))
    return out


def _state(x):
    return (x.planes, x.prec) if isinstance(x, PDElement) else x


@pytest.mark.parametrize("name", ["amb3", "amb5", "amb9", "amb27"])
def test_matrix_maps_are_the_entrywise_maps(name, request):
    amb = request.getfixturevalue(name)
    rng = random.Random(f"maps:{name}")
    xs = _map_entries(amb, rng)
    rng.shuffle(xs)
    shapes = [(0, 0), (1, 1), (2, 4), (len(xs) // 2, 2)]
    for d, e in shapes:
        M = RingMatrix([xs[i * e:(i + 1) * e] for i in range(d)])
        got, want = _phi_matrix(M), M.map_entries(phi_S)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert [list(map(_state, r)) for r in got.entries] == \
            [list(map(_state, r)) for r in want.entries]
    # a map of constants only
    consts = [x for x in xs if x.support() <= 1]
    assert list(map(_state, _phi_S_all(consts))) == [_state(phi_S(x)) for x in consts]
    assert _phi_S_all([]) == [] and _embed_sigma_all([]) == []
    # the embedding: zero, constant and short series at mixed precisions,
    # and series past N_gamma, which _embed_sigma splits
    ring, N = amb.ring, amb.N_gamma
    ss = [SigmaSeries(amb, [], 4), SigmaSeries(amb, [drawn(ring, rng, 3, True)])]
    for n in (2, N - 1, N, N + 1, 2 * N + 3):
        prec = rng.randrange(1, amb.cap + 1)
        ss.append(SigmaSeries(amb, [drawn(ring, rng, prec) for _ in range(n)], prec))
    rng.shuffle(ss)
    for part in (ss, ss[:1], [s for s in ss if len(s.planes[0]) > N]):
        assert list(map(_state, _embed_sigma_all(part))) == [_state(_embed_sigma(s)) for s in part]


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_ideal_test_over_a_list_is_the_single_test(name, request):
    amb = request.getfixturevalue(name)
    rng = random.Random(f"ideal:{name}")
    up = amb.u_pow(amb.p)
    xs = _map_entries(amb, rng) + [up, up * _map_entries(amb, rng)[-1], up.mul_p_pow(1)]
    seen = set()
    for n in (0, 1, amb.p):
        for at in (None, 0, 1, amb.N_p):
            singles = [_all_in_u_power_ideal([x], n, at) for x in xs]
            seen.update(singles)
            for part in (xs, [x for x, ok in zip(xs, singles) if ok], xs[:1]):
                assert _all_in_u_power_ideal(part, n, at) == \
                    all(_all_in_u_power_ideal([x], n, at) for x in part)
    assert seen == {True, False}
    assert _all_in_u_power_ideal([], amb.p)


@pytest.mark.parametrize("name", ["amb3", "amb27"])
def test_table_apply_over_a_list_is_each_apply(name, request):
    amb = request.getfixturevalue(name)
    rng = random.Random(f"apply:{name}")
    xs = _map_entries(amb, rng)
    for table in (amb.c_table, amb.u_table, amb.u_div_table, amb.f0_table):
        singles = [table.apply([x.planes], [x.prec])[0] for x in xs]
        assert table.apply([x.planes for x in xs], [x.prec for x in xs]) == singles
    assert amb.c_table.apply([], []) == []


# --- the block layout ---

@pytest.mark.parametrize("B", [1, 3, 17])
def test_join_and_split_round_trip(B):
    rng = random.Random(f"blocks:{B}")
    top = (1 << 8 * B) - 1
    cases = [[rng.getrandbits(8 * B) for _ in range(n)] for n in (1, 2, 5, 16, 17, 33, 100)]
    cases += [[top], [0], [top, 0, top], [0, top], [top, top, 0, 0]]
    # past 16 blocks _split reads in halves: a top half of zeros, one
    # nonzero block at either end, and full blocks on both sides of the cut
    cases += [[top] * 3 + [0] * 30, [0] * 99 + [top], [top] + [0] * 32, [top] * 17]
    for ints in cases:
        v = _join(ints, B)
        assert _split(v, B, len(ints)) == ints
        # n past the blocks present reads zeros; n below them the first n
        assert _split(v, B, len(ints) + 3) == ints + [0, 0, 0]
        assert _split(v, B, 1) == ints[:1] and _split(v, B, 0) == []
        for n in (16, 17, 33):
            assert _split(v, B, n) == (ints + [0] * n)[:n]
    # one block is its own int, also at 2^(8B) - 1
    x = rng.getrandbits(8 * B)
    assert _join([x], B) is x and _split(x, B, 1)[0] is x
    assert _join([top], B) == top and _split(top, B, 1) == [top]
    assert _join([], B) == 0 and _split(0, B, 2) == [0, 0]


# --- the loader builds the planes directly ---

def _doc(amb, coeffs, prec):
    return {"coeffs": [str(c) for c in coeffs], "prec": prec}


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_loader_planes_are_the_scalar_constructors(name, request):
    amb = request.getfixturevalue(name)
    ring, f = amb.ring, amb.f
    rng = random.Random(f"loader:{name}")
    for n in (0, 1, 5, amb.N_gamma):
        docs = [_doc(amb, [rng.randrange(-ring.pk[amb.cap], 2 * ring.pk[amb.cap])
                           for _ in range(f)], rng.randrange(1, amb.cap + 1))
                for _ in range(n)]
        scalars = [SER._entry_from_json(amb, "witt", d) for d in docs]
        s = SER._entry_from_json(amb, "series", {"ucoeffs": docs})
        want = SigmaSeries(amb, scalars)
        assert (s.planes, s.prec) == (want.planes, want.prec)
        # the vestige key is read as any boolean and changes nothing
        want = PDElement(amb, scalars)
        for vestige in (False, True):
            x = SER._entry_from_json(amb, "pd", {"gcoeffs": docs, "tail_dirty": vestige})
            assert (x.planes, x.prec) == (want.planes, want.prec)


def test_loader_errors_keep_their_order(amb3):
    good = _doc(amb3, [1], 4)
    over = _doc(amb3, [1], amb3.cap + 1)
    short = {"coeffs": [], "prec": 4}
    # a bad coefficient is reported before the count of coefficients, and
    # the first bad coefficient before a later one
    for key, kind, n in (("ucoeffs", "series", amb3.N_u), ("gcoeffs", "pd", amb3.N_gamma)):
        extra = {"tail_dirty": "no"} if key == "gcoeffs" else {}
        with pytest.raises(PrecisionMismatch):
            SER._entry_from_json(amb3, kind, {key: [good] * n + [over, short], **extra})
        with pytest.raises(SchemaMismatch, match="coefficients$"):
            SER._entry_from_json(amb3, kind, {key: [short, over], **extra})
        with pytest.raises(SchemaMismatch, match="too many"):
            SER._entry_from_json(amb3, kind, {key: [good] * (n + 1), **extra})
    with pytest.raises(SchemaMismatch, match="tail_dirty"):
        SER._entry_from_json(amb3, "pd", {"gcoeffs": [good], "tail_dirty": "no"})
