"""The triangular solve over W(k)[[u]] and S against the elimination.

``RingMatrix.solve`` (and ``invert``, its case R = I, over the series
ring and S) runs one pass over the grading, ``_FlatVector._solve_planes``;
``_scaled_inverse(A, 0)``, the valuation-pivoted elimination that still
serves W(k) and the p-power pivots of ``breuil_unipotent``, is the reference.
The inverse at precision k is unique in the truncated rings, so the two
must agree in planes and precision.  Inputs mix precisions, short
supports and supports past half the cut, at p in {3, 5, 7} and f in
{1, 2, 3}, with d from 0 to 6.  A right-hand side with other than d
columns is checked against the product _scaled_inverse(A, 0) R and against
A X = R.  The element inverse, the 1 x 1 case, is checked against
Newton's iteration (``inverse_reference``).
"""

import random

import pytest

from flbreuil.ambient import AmbientParams
from flbreuil.errors import NotAUnit, NotDivisible, NotInvertible, PrecisionExhausted, SingularMatrix
from flbreuil.matrix import RingMatrix, _scaled_inverse
from flbreuil.pd import PDElement
from flbreuil.series import SigmaSeries
from flbreuil.witt import WittScalar
from sampler_reference import drawn
from inverse_reference import newton_element_inverse

# (p, f, N_gamma): small cuts keep the elimination quick, and
# v_p((N_gamma - 1)!) >= 1 makes every S solve scale by gamma_scale
CONTEXTS = [(3, 1, 10), (3, 2, 8), (3, 3, 6), (5, 1, 12), (5, 2, 8), (7, 1, 15)]


def _amb(p, f, n_gamma):
    return AmbientParams(p, 1, f=f, N_p=2, N_gamma=n_gamma)


def _scalar(ring, rng, prec, unit):
    x = drawn(ring, rng, prec, True) if unit else drawn(ring, rng, prec)
    if unit is False:
        x = WittScalar(ring, tuple(c * ring.p % ring.pk[prec] for c in x.coeffs), prec)
    return x


def _element(amb, kind, rng, prec, support, unit):
    """An entry with a unit, non-unit or random (None) constant term, its
    other coefficients random up to ``support``."""
    ring = amb.ring
    n = rng.randint(1, support)
    coeffs = [_scalar(ring, rng, prec, unit)] + [drawn(ring, rng, prec) for _ in range(n - 1)]
    return (PDElement if kind == "S" else SigmaSeries)(amb, coeffs)


def _matrix(amb, kind, rng, rows, cols, cut, diag=True):
    support = rng.choice([1, 2, 3, cut // 2 + 1, cut])
    mixed = rng.random() < 0.5

    def prec():
        return rng.randrange(2, amb.cap + 1) if mixed else amb.cap

    return RingMatrix([[_element(amb, kind, rng, prec(), support,
                                 (True if i == j else rng.choice([False, None])) if diag else None)
                        for j in range(cols)] for i in range(rows)])


def _key(x):
    return x.planes, x.prec


def _state(X):
    return [[_key(x) for x in row] for row in X.entries]


def _outcome(fn, *args):
    try:
        return _state(fn(*args))
    except (NotInvertible, SingularMatrix, PrecisionExhausted, NotDivisible):
        return "singular"


def _shuffled(A, rng):
    rows = list(A.entries)
    rng.shuffle(rows)
    return RingMatrix(rows)


@pytest.mark.parametrize("kind", ["series", "S"])
@pytest.mark.parametrize("p, f, n_gamma", CONTEXTS)
def test_inverse_is_the_elimination_inverse(p, f, n_gamma, kind):
    amb = _amb(p, f, n_gamma)
    cut = amb.N_gamma if kind == "S" else amb.N_u
    rng = random.Random(f"solve:{p}:{f}:{kind}")
    one = PDElement(amb, [amb.ring.one()]) if kind == "S" else amb.useries([1])
    singular = 0
    for d in range(0, 7 if f == 1 else 5):
        for trial in range(4):
            # rows shuffled, so that the elimination searches for its pivots;
            # trial 2 draws every constant term at random, and trial 3 makes
            # the constant terms of one column multiples of p
            A = _shuffled(_matrix(amb, kind, rng, d, d, cut, diag=trial < 2), rng)
            if trial == 3 and d:
                j = rng.randrange(d)
                A = RingMatrix([[x.mul_p_pow(1).truncate(x.prec) if c == j else x
                                 for c, x in enumerate(row)] for row in A.entries])
            want = _outcome(_scaled_inverse, A, 0)
            assert _outcome(RingMatrix.invert, A) == want
            assert _outcome(A.solve, RingMatrix.identity(d, one - one, one)) == want
            singular += want == "singular"
    assert singular  # the random constant terms include residue-singular matrices


@pytest.mark.parametrize("kind", ["series", "S"])
@pytest.mark.parametrize("p, f, n_gamma", CONTEXTS[::2])
def test_solve_of_a_rectangular_right_side(p, f, n_gamma, kind):
    amb = _amb(p, f, n_gamma)
    cut = amb.N_gamma if kind == "S" else amb.N_u
    rng = random.Random(f"solve-rect:{p}:{f}:{kind}")
    for d in range(1, 5):
        for g in (0, 1, 3):
            # a unit diagonal over random constants can still be singular
            # mod p: redraw until it is not
            A = _shuffled(_matrix(amb, kind, rng, d, d, cut), rng)
            while not A.residue_invertible():
                A = _shuffled(_matrix(amb, kind, rng, d, d, cut), rng)
            R = _matrix(amb, kind, rng, d, g, cut, diag=False)
            X = A.solve(R)
            assert (X.rows, X.cols) == (d, g)
            k = min(x.prec for M in (A, R) for row in M.entries for x in row)
            want = (_scaled_inverse(A, 0) @ R).truncate(k) if g else R
            assert [[(x.planes, x.prec) for x in row] for row in X.entries] == \
                [[(y.planes, k) for y in row] for row in want.entries]
            assert (A @ X).eq_at(R, k)


def test_solve_rejects_singular_and_non_square(amb3, amb9):
    for amb in (amb3, amb9):
        ring = amb.ring
        for cls in (SigmaSeries, PDElement):
            one, unit = cls(amb, [ring.one()]), cls(amb, [ring.one(), ring.one()])
            p_u = cls(amb, [ring.from_int(3), ring.one()])
            zero = one - one
            singular = RingMatrix([[p_u, one], [p_u.mul_p_pow(1), unit]])
            with pytest.raises(NotInvertible):
                singular.solve(RingMatrix.identity(2, zero, one))
            with pytest.raises(NotInvertible):
                singular.invert()
            wide = RingMatrix([[one, unit]])
            with pytest.raises(NotInvertible):
                wide.solve(RingMatrix([[one]]))
            with pytest.raises(NotInvertible):
                wide.invert()
            with pytest.raises(ValueError):
                RingMatrix([[unit]]).solve(RingMatrix([[one], [one]]))
    empty = RingMatrix([])
    assert empty.solve(empty) is empty and empty.invert() is empty


@pytest.mark.parametrize("kind", ["series", "S"])
@pytest.mark.parametrize("p, f, n_gamma", CONTEXTS)
def test_element_inverse_is_the_newton_inverse(p, f, n_gamma, kind):
    amb = _amb(p, f, n_gamma)
    cut = amb.N_gamma if kind == "S" else amb.N_u
    rng = random.Random(f"element-inverse:{p}:{f}:{kind}")
    for _ in range(16):
        support = rng.choice([1, 2, cut // 2 + 1, cut])
        prec = amb.cap if rng.random() < 0.5 else rng.randrange(1, amb.cap + 1)
        x = _element(amb, kind, rng, prec, support, True)
        got, want = x.invert(), newton_element_inverse(x)
        assert (got.planes, got.prec) == (want.planes, want.prec)
        y = _element(amb, kind, rng, amb.cap, support, False)
        for inv in (type(y).invert, newton_element_inverse):
            with pytest.raises(NotAUnit):
                inv(y)
