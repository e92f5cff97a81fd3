import random

import pytest

from flbreuil.ambient import AmbientParams
from flbreuil.breuil import _rebase
from flbreuil.campaign import _random_congruent_identity
from flbreuil.errors import NotDivisible, NotInvertible, PrecisionExhausted, SingularMatrix
from flbreuil.fl import _random_fl
from flbreuil.functors import _f0_matrix, fl_to_breuil
from flbreuil.kisin import kisin_to_breuil, random_gls
from flbreuil.matrix import RingMatrix, _converges_to_zero, _diagonalise, _scaled_inverse
from flbreuil.pd import PDElement, _pd_gamma, _pd_one, _pd_zero
from flbreuil.series import SigmaSeries
from flbreuil.witt import WittScalar, _FlatVector
from sampler_reference import drawn
from height_reference import (
    berkowitz_det,
    berkowitz_det_adjugate,
    berkowitz_scaled_inverse,
    kisin_height_check,
)

sigma = WittScalar.frobenius


def wmat(amb, rows):
    return RingMatrix([[amb.w(v) for v in row] for row in rows])


def wident(amb, d):
    return RingMatrix.identity(d, amb.ring.zero(), amb.ring.one())


def test_invert_identity_and_swap(amb3):
    I = wident(amb3, 2)
    assert I.invert().eq_at(I, amb3.cap)
    sw = wmat(amb3, [[0, 1], [1, 0]])
    assert sw.invert().eq_at(sw, amb3.cap)


def test_invert_unipotent_pd(amb3):
    g1 = _pd_gamma(amb3, 1)
    A = RingMatrix([[_pd_one(amb3), g1], [_pd_zero(amb3), _pd_one(amb3)]])
    inv = A.invert()
    assert (inv @ A).eq_at(RingMatrix.identity(2, _pd_zero(amb3), _pd_one(amb3)), amb3.cap)
    assert (inv.entries[0][1] + g1).is_zero_at(amb3.cap)


def test_invert_rejects_residue_singular(amb3):
    with pytest.raises(NotInvertible):
        wmat(amb3, [[3, 0], [0, 1]]).invert()


def test_invert_random_all_rings(amb3, amb9):
    # one hundred certified inversions per scalar type
    rng = random.Random(0)
    for amb in (amb3, amb9):
        done = 0
        while done < 100:
            A = RingMatrix([[amb.ring.random(rng) for _ in range(3)] for _ in range(3)])
            if not A.residue_invertible():
                continue
            assert (A.invert() @ A).eq_at(wident(amb, 3), amb.cap)
            done += 1
    done = 0
    while done < 100:
        A = RingMatrix(
            [[SigmaSeries(amb3, [amb3.ring.random(rng) for _ in range(4)]) for _ in range(2)]
             for _ in range(2)],
        )
        if not A.residue_invertible():
            continue
        assert (A.invert() @ A).eq_at(RingMatrix.identity(2, amb3.useries([]), amb3.useries([1])), amb3.cap)
        done += 1
    done = 0
    while done < 100:
        A = RingMatrix([[PDElement(amb3, [amb3.ring.random(rng) for _ in range(4)])
                         for _ in range(2)] for _ in range(2)])
        if not A.residue_invertible():
            continue
        ident = RingMatrix.identity(2, _pd_zero(amb3), _pd_one(amb3))
        assert (A.invert() @ A).eq_at(ident, amb3.N_p)
        done += 1


def twisted_chain(A: RingMatrix, n: int, twist) -> RingMatrix:
    """A * twist(A) * twist^2(A) * ... * twist^n(A), twisting entrywise."""
    prod = A
    term = A
    for _ in range(n):
        term = term.map_entries(twist)
        prod = prod @ term
    return prod


def test_twisted_chain_basics(amb3):
    A = wmat(amb3, [[2, 1], [0, 1]])
    assert twisted_chain(A, 0, sigma).eq_at(A, amb3.cap)
    # f = 1 makes sigma trivial, so the chain is a plain power
    P = twisted_chain(A, 2, sigma)
    assert P.eq_at(A @ A @ A, amb3.cap)
    D = wmat(amb3, [[3, 0], [0, 1]])
    assert twisted_chain(D, 1, sigma).eq_at(wmat(amb3, [[9, 0], [0, 1]]), amb3.cap)


def test_twisted_chain_composition_identity(amb3, amb9):
    rng = random.Random(1)
    for amb in (amb3, amb9):
        A = RingMatrix([[amb.ring.random(rng) for _ in range(2)] for _ in range(2)])
        for m, n in [(0, 1), (1, 1), (2, 0)]:
            lhs = twisted_chain(A, m + n + 1, sigma)
            tail = twisted_chain(A, n, sigma)
            for _ in range(m + 1):
                tail = tail.map_entries(sigma)
            rhs = twisted_chain(A, m, sigma) @ tail
            assert lhs.eq_at(rhs, amb.cap)


def test_converges_examples(amb3):
    assert _converges_to_zero(wmat(amb3, [[3, 0], [0, 3]]), sigma, amb3.N_p)
    assert not _converges_to_zero(wident(amb3, 2), sigma, amb3.N_p)
    M = wmat(amb3, [[0, 9], [1, 0]])
    assert _converges_to_zero(M, sigma, amb3.N_p)


def test_converges_window_reaches_d_times_at_factors(amb3):
    # A^2 = p I, so the first partial product that vanishes mod p^N_p has
    # d * N_p = 12 factors: a window of 11 factors would answer False
    A = wmat(amb3, [[0, 1], [3, 0]])
    assert A.rows * amb3.N_p == 12
    assert _converges_to_zero(A, sigma, amb3.N_p)


def test_converges_invariant_under_conjugation(amb3):
    rng = random.Random(2)
    for _ in range(10):
        A = RingMatrix([[amb3.ring.random(rng) for _ in range(2)] for _ in range(2)])
        g = None
        while g is None or not g.residue_invertible():
            g = RingMatrix([[amb3.ring.random(rng) for _ in range(2)] for _ in range(2)])
        conj = g @ A @ g.invert()
        # f = 1: every g is fixed by sigma
        assert _converges_to_zero(A, sigma, amb3.N_p) == _converges_to_zero(conj, sigma, amb3.N_p)


def test_scaled_inverse(amb3):
    A0 = wmat(amb3, [[1, 0], [0, 9]])
    S = _scaled_inverse(A0, 2)
    assert S.eq_at(wmat(amb3, [[9, 0], [0, 1]]), amb3.N_p)
    with pytest.raises(NotDivisible):
        _scaled_inverse(wmat(amb3, [[27]]), 2)  # p^2 / p^3 is not integral


def _pdiag(amb, vals):
    return wmat(amb, [[amb.p ** v if i == j else 0 for j in range(len(vals))]
                      for i, v in enumerate(vals)])


@pytest.mark.parametrize("vals, s, outcome", [
    ((28, 28), 0, SingularMatrix),        # t = 56 >= k = 29
    ((29,), 0, SingularMatrix),           # a zero 1x1: no pivot
    ((10, 10), 10, PrecisionExhausted),   # t > s and k - 2t + s = -1
    ((3,), 2, NotDivisible),              # v = 3 > s
    ((7, 7), 7, 8),                       # k - 2t + s = 8 digits kept
], ids=["t-at-k", "zero", "exhausted", "not-integral", "eight-digits"])
def test_scaled_inverse_contract(vals, s, outcome):
    # p = 3, r = 1: every entry at the cap k = 29
    amb = AmbientParams(3, 1)
    assert amb.cap == 29
    A = _pdiag(amb, vals)
    if not isinstance(outcome, int):
        with pytest.raises(outcome):
            _scaled_inverse(A, s)
        return
    out = _scaled_inverse(A, s)
    assert {x.prec for row in out.entries for x in row} == {outcome}
    assert out.eq_at(wident(amb, len(vals)), outcome)


def test_scaled_inverse_contract_edges():
    amb = AmbientParams(3, 1)
    with pytest.raises(ValueError):
        _scaled_inverse(wmat(amb, [[1, 2]]), 1)
    empty = RingMatrix([])
    assert _scaled_inverse(empty, 1) is empty


def _outcome(fn, A, s):
    """The exception class fn raises, or the stored ints and precision of
    every entry of its result."""
    try:
        out = fn(A, s)
    except (SingularMatrix, PrecisionExhausted, NotDivisible) as exc:
        return type(exc)
    return [[_key(x) for x in row] for row in out.entries]


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_scaled_inverse_matches_the_determinant_route_over_w(name, request):
    # X diag(p^t_i) Y cut to a random precision, against adj(A) det(A)^(-1)
    # with p^t factored out of det(A): ints, precision or exception class
    amb = request.getfixturevalue(name)
    rng = random.Random(f"scaled:{name}")
    seen = set()
    for _ in range(120):
        d = rng.randrange(1, 5)
        X = Y = None
        while X is None or not X.residue_invertible():
            X = RingMatrix([[amb.ring.random(rng) for _ in range(d)] for _ in range(d)])
        while Y is None or not Y.residue_invertible():
            Y = RingMatrix([[amb.ring.random(rng) for _ in range(d)] for _ in range(d)])
        ts = [rng.choice((0, 0, 1, 2, 3, 7, 20)) for _ in range(d)]
        A = (X @ _pdiag(amb, ts) @ Y).truncate(rng.randrange(10, amb.cap + 1))
        s = rng.randrange(0, 8)
        got = _outcome(_scaled_inverse, A, s)
        assert got == _outcome(berkowitz_scaled_inverse, A, s)
        seen.add(got if isinstance(got, type) else "ok")
    assert seen == {"ok", SingularMatrix, PrecisionExhausted, NotDivisible}
    # f_0 of the Breuil Frobenius of a Kisin module, at s = r
    for d in range(1, 5):
        A0 = _f0_matrix(kisin_to_breuil(random_gls(amb, rng, d)).Phi)
        got = _outcome(_scaled_inverse, A0, amb.r)
        assert not isinstance(got, type) and got == _outcome(berkowitz_scaled_inverse, A0, amb.r)


def test_scaled_inverse_matches_the_determinant_route_over_s(amb3):
    # Phi of modules from the three constructions, at s = r
    rng = random.Random("scaled:S")
    for d in (1, 2, 3):
        B = fl_to_breuil(_random_fl(amb3, rng, d))
        for Phi in (B.Phi, _rebase(B, _random_congruent_identity(amb3, rng, d)).Phi,
                    kisin_to_breuil(random_gls(amb3, rng, d)).Phi):
            got = _outcome(_scaled_inverse, Phi, amb3.r)
            assert not isinstance(got, type) and got == _outcome(berkowitz_scaled_inverse, Phi, amb3.r)


def test_det_adjugate_identity(amb3):
    rng = random.Random(3)
    for d in (1, 2, 3):
        A = RingMatrix([[amb3.ring.random(rng) for _ in range(d)] for _ in range(d)])
        prod = A @ berkowitz_det_adjugate(A)[1]
        dA = berkowitz_det(A)
        expect = wident(amb3, d).map_entries(lambda x: x * dA)
        assert prod.eq_at(expect, amb3.cap)


# --- the characteristic polynomial against cofactor expansion ---

def cofactor_det(rows):
    """Laplace expansion along the first column: the reference for det."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for i in range(len(rows)):
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = rows[i][0] * cofactor_det(minor)
        if i % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def cofactor_adjugate(A):
    """The transposed matrix of signed (d-1)-minors: the reference for adj."""
    d = A.rows
    if d == 1:
        x = A.entries[0][0]
        return RingMatrix([[x.lift_residue((1,) + (0,) * (x.ring.f - 1))]])
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [[A.entries[a][b] for b in range(d) if b != j] for a in range(d) if a != i]
            cof = cofactor_det(minor)
            out[j][i] = -cof if (i + j) % 2 else cof
    return RingMatrix(out)


def same(x, y) -> bool:
    """Equal at the common precision, every stored coefficient compared."""
    diff = x - y
    return diff.is_zero_at(diff.prec)


def assert_matches_cofactor(A):
    dA, adj = berkowitz_det_adjugate(A)
    assert same(dA, cofactor_det(A.entries))
    assert same(berkowitz_det(A), dA)
    ref = cofactor_adjugate(A)
    for row, ref_row in zip(adj.entries, ref.entries):
        for x, y in zip(row, ref_row):
            assert same(x, y)


def random_entry_makers(amb3, amb9, rng):
    return {
        "W": lambda: amb3.ring.random(rng),
        "W f=2": lambda: amb9.ring.random(rng),
        "series": lambda: SigmaSeries(amb3, [amb3.ring.random(rng) for _ in range(3)]),
        "S": lambda: PDElement(amb3, [amb3.ring.random(rng) for _ in range(3)]),
    }


def test_det_adjugate_match_cofactor(amb3, amb9):
    rng = random.Random(4)
    for make in random_entry_makers(amb3, amb9, rng).values():
        for d in range(1, 6):
            assert_matches_cofactor(RingMatrix([[make() for _ in range(d)] for _ in range(d)]))


def test_det_p_power_times_unit_matches_cofactor(amb3, amb9):
    rng = random.Random(5)
    for amb in (amb3, amb9):
        for d in range(1, 6):
            X = Y = None
            while X is None or not X.residue_invertible():
                X = RingMatrix([[amb.ring.random(rng) for _ in range(d)] for _ in range(d)])
            while Y is None or not Y.residue_invertible():
                Y = RingMatrix([[amb.ring.random(rng) for _ in range(d)] for _ in range(d)])
            ts = [rng.randrange(3) for _ in range(d)]
            D = RingMatrix([[amb.w(amb.p ** ts[i] if i == j else 0) for j in range(d)]
                            for i in range(d)])
            A = X @ D @ Y
            assert_matches_cofactor(A)
            dA = berkowitz_det(A)
            assert dA.valuation() == sum(ts)
            assert dA.div_p_exact(sum(ts)).is_unit()
            assert A.residue_invertible() == (sum(ts) == 0)


def test_det_kisin_shape_matches_cofactor(amb3):
    # A = X * diag(E^{r_i}) * Y: det is a unit times E^(sum r_i)
    rng = random.Random(6)
    for d in range(1, 5):
        K = random_gls(amb3, rng, d)
        assert_matches_cofactor(K.A)
        assert kisin_height_check(amb3, K.A).e_power == sum(K.jumps)


def test_invert_series_rank_4_to_6(amb3):
    rng = random.Random(7)
    for d in (4, 5, 6):
        ident = RingMatrix.identity(d, amb3.useries([]), amb3.useries([1]))
        A = None
        while A is None or not A.residue_invertible():
            A = RingMatrix(
                [[SigmaSeries(amb3, [amb3.ring.random(rng) for _ in range(3)]) for _ in range(d)]
                 for _ in range(d)])
        inv = A.invert()
        assert (A @ inv).eq_at(ident, amb3.cap)
        assert (inv @ A).eq_at(ident, amb3.cap)


def _key(x):
    """The stored ints and the precision."""
    ints = x.coeffs if isinstance(x, WittScalar) else x.planes
    return ints, x.prec


def _same_entries(X: RingMatrix, Y: RingMatrix) -> bool:
    """Entrywise equality of the stored ints and the precision."""
    return [[_key(x) for x in row] for row in X.entries] == \
        [[_key(y) for y in row] for row in Y.entries]


def _berkowitz_inverse(A: RingMatrix) -> RingMatrix:
    dA, adj = berkowitz_det_adjugate(A)
    u = dA.invert()
    return adj.map_entries(lambda x: x * u)


@pytest.mark.parametrize("kind", ["w", "w-f2", "series", "pd-near-identity", "pd-full"])
def test_invert_matches_berkowitz(kind, amb3, amb9):
    # the elimination against adj(A) * det(A)^(-1): the same planes and
    # precision, d = 1 .. 6
    amb = amb9 if kind == "w-f2" else amb3
    ring = amb.ring
    rng = random.Random(f"gj:{kind}")

    def entry(diag: bool):
        if kind in ("w", "w-f2"):
            return ring.random(rng)
        if kind == "series":
            return SigmaSeries(amb, [ring.random(rng) for _ in range(4)])
        if kind == "pd-full":
            return PDElement(amb, [ring.random(rng) for _ in range(amb.N_gamma)])
        # the identity plus p times a short perturbation
        coeffs = [ring.random(rng).mul_p_pow(1) for _ in range(4)]
        if diag:
            coeffs[0] = coeffs[0] + ring.one()
        return PDElement(amb, coeffs)

    for d in range(1, 7):
        A = None
        while A is None or not A.residue_invertible():
            A = RingMatrix([[entry(i == j) for j in range(d)] for i in range(d)])
        assert _same_entries(A.invert(), _berkowitz_inverse(A))


def test_invert_swaps_rows_and_cuts_to_the_lowest_precision(amb3):
    # a non-unit (0, 0) entry sends the first pivot search below the diagonal
    A = wmat(amb3, [[3, 1, 2], [1, 0, 5], [2, 7, 1]])
    assert not A[0, 0].is_unit() and A.residue_invertible()
    inv = A.invert()
    assert _same_entries(inv, _berkowitz_inverse(A))
    assert (inv @ A).eq_at(wident(amb3, 3), amb3.cap)
    # mixed precisions: the inverse comes back at the lowest one
    rng = random.Random(9)
    for d in (2, 3, 4):
        A = None
        while A is None or not A.residue_invertible():
            A = RingMatrix([[PDElement(amb3, [drawn(amb3.ring, rng, rng.randrange(2, amb3.cap + 1))
                                              for _ in range(3)])
                             for _ in range(d)] for _ in range(d)])
        low = min(x.prec for row in A.entries for x in row)
        inv = A.invert()
        assert {x.prec for row in inv.entries for x in row} == {low}
        assert _same_entries(inv, _berkowitz_inverse(A))


def test_random_gls_rank_7_passes_height_check():
    amb = AmbientParams(3, 1)
    K = random_gls(amb, random.Random(8), 7)
    res = kisin_height_check(amb, K.A)
    assert res.ok and res.e_power == sum(K.jumps)


def test_rank_zero(amb3):
    empty = RingMatrix([])
    inv = empty.invert()
    assert (inv.rows, inv.cols) == (0, 0)
    assert empty.residue_invertible()


def _eliminates(A):
    """The verdict of the full elimination, L and R included, on the
    one-digit lifts of A's residues: a unit pivot at every step."""
    lifts = RingMatrix([[x.ring.make(x.residue(), 1) for x in row] for row in A.entries])
    try:
        _diagonalise(lifts, 1)
    except SingularMatrix:
        return False
    return True


@pytest.mark.parametrize("kind", ["witt", "series", "pd"])
def test_residue_invertible_is_the_elimination_verdict(amb3, amb9, kind):
    for amb in (amb3, amb9):
        ring = amb.ring
        rng = random.Random(f"residue:{kind}:{amb.f}")

        def entry():
            if kind == "witt":
                return ring.random(rng)
            coeffs = [ring.random(rng) for _ in range(rng.randrange(1, 4))]
            return (SigmaSeries if kind == "series" else PDElement)(amb, coeffs)

        verdicts = []
        for d in (1, 2, 3, 4, 5) * 6:
            rows = [[entry() for _ in range(d)] for _ in range(d)]
            kind_of = rng.randrange(3)
            if kind_of == 1 and d > 1:      # a row that is the sum of two others
                rows[-1] = [x + y for x, y in zip(rows[0], rows[d // 2 - 1 if d > 2 else 0])]
            elif kind_of == 2:              # a column divisible by p
                for row in rows:
                    row[rng.randrange(d) if d > 1 else 0] = row[0].mul_p_pow(1)
            A = RingMatrix(rows)
            verdicts.append(A.residue_invertible())
            assert verdicts[-1] == _eliminates(A)
        assert True in verdicts and False in verdicts


def test_residue_invertible_of_empty_and_non_square(amb3, amb9):
    assert RingMatrix([]).residue_invertible()
    for amb in (amb3, amb9):
        one = amb.ring.one()
        for shape in ((1, 2), (2, 1), (2, 3)):
            assert not RingMatrix([[one] * shape[1]] * shape[0]).residue_invertible()


def test_det_rejects_non_square_and_denominators(amb3):
    with pytest.raises(NotInvertible):
        wmat(amb3, [[1, 2]]).invert()
    assert not wmat(amb3, [[1, 2]]).residue_invertible()


def test_sum_difference_and_comparison_check_shapes(amb3):
    wide, narrow = wmat(amb3, [[1, 5]]), wmat(amb3, [[1]])
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a.eq_at(b, amb3.N_p)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(wide, narrow)
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(narrow, wide)
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(wide, wide.transpose())
    assert wide.eq_at(wide + wmat(amb3, [[0, 0]]), amb3.N_p)


def test_ragged_rows_and_a_mis_sized_vector_are_refused(amb3):
    one = amb3.w(1)
    for rows in ([[one, one], [one]], [[one], []], [[], [one]]):
        with pytest.raises(ValueError, match="ragged matrix"):
            RingMatrix(rows)
    m = wmat(amb3, [[1, 5], [2, 3]])
    for vec in ([], [one], [one] * 3):
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.matvec(vec)
    assert m.matvec([one, amb3.w(2)]) == (amb3.w(11), amb3.w(8))


def test_matmul_edges_and_the_choice_of_path(amb3, amb9, monkeypatch):
    """W(k) products stay on the entrywise dot; series and S products take
    the packed kernel once per product; both keep the edge behaviour."""
    calls = []
    kernel = _FlatVector._matmul_planes

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(_FlatVector, "_matmul_planes", staticmethod(counted))
    rng = random.Random(3)
    makers = {
        "w": lambda amb: amb.ring.random(rng),
        "series": lambda amb: SigmaSeries(amb, [amb.ring.random(rng) for _ in range(3)]),
        "pd": lambda amb: PDElement(amb, [amb.ring.random(rng) for _ in range(3)]),
    }
    for amb in (amb3, amb9):
        for kind, make in makers.items():
            A = RingMatrix([[make(amb) for _ in range(3)] for _ in range(2)])
            B = RingMatrix([[make(amb) for _ in range(2)] for _ in range(3)])
            calls.clear()
            C = A @ B
            assert len(calls) == (0 if kind == "w" else 1)
            assert _same_entries(C, RingMatrix(
                [[row[0].dot(row, B.col(j)) for j in range(2)] for row in A.entries]))
            with pytest.raises(ValueError, match="dimension mismatch"):
                A @ A
            # an empty right factor gives an empty result on either path
            assert (A @ RingMatrix([[] for _ in range(3)])).entries == ((), ())
    # rank 0, and an empty inner dimension: @ can only meet it with a 0x0
    # right factor, which gives the d x 0 result; a dot raises
    empty = RingMatrix([])
    assert (empty @ empty).entries == () and (RingMatrix([[], []]) @ empty).entries == ((), ())
    with pytest.raises(ValueError, match="empty inner dimension"):
        RingMatrix([[], []]).matvec(())
