"""Independent references: Berkowitz's determinant and adjugate, and the
E-height test of a Kisin module's Frobenius matrix, read from A alone.

The kernel inverts by one valuation-pivoted elimination and has no
determinant.  Here the characteristic polynomial comes from Berkowitz's
division-free recursion (S. J. Berkowitz, Inf. Process. Lett. 18, 1984) in
O(d^4) ring operations, with the adjugate by Cayley-Hamilton in Horner
form; the tests check the elimination's inverses against adj(A) det(A)^(-1)
and these against cofactor expansion.

The kernel builds every Kisin module in its normal form
A = X * diag(E^{r_i}) * Y, which has height at most r by construction, so
it never runs the height test.  The tests run it as an independent
reference on the kernel's modules: it factors det(A) (Berkowitz, over the
series ring) as a unit times a power of E by repeated synthetic division,
then divides E^r times the adjugate by that power.
"""

from collections import namedtuple

from flbreuil.errors import NotDivisible, PrecisionExhausted, SingularMatrix
from flbreuil.matrix import RingMatrix
from flbreuil.series import SigmaSeries
from flbreuil.witt import WittScalar


def _dot(xs, ys):
    return xs[0].dot(xs, ys)


def berkowitz_charpoly(A: RingMatrix, what: str) -> list:
    """[c_1, ..., c_d] with det(tI - A) = t^d + c_1 t^(d-1) + ... + c_d.

    Berkowitz's recursion: with A split as [[a, R], [C, M]], the
    coefficient vector of A is the lower triangular Toeplitz matrix with
    first column (1, -a, -RC, -RMC, ..., -RM^(n-1)C) times that of M
    (n = size of M).  It runs from the trailing 1x1 corner outwards, with
    ring operations only, so it is exact in every truncated ring.
    """
    if A.rows != A.cols:
        raise ValueError(f"{what} of a non-square matrix")
    if not A.rows:
        raise ValueError(f"{what} of a 0x0 matrix: no entry gives the ring")
    a = A.entries
    d = A.rows
    cs = []
    for k in range(d - 1, -1, -1):
        n = d - 1 - k
        row = a[k][k + 1:]
        M = [a[i][k + 1:] for i in range(k + 1, d)]
        v = [a[i][k] for i in range(k + 1, d)]
        w = [a[k][k]]                      # w_1 = a, w_(j+2) = R M^j C
        for j in range(n):
            w.append(_dot(row, v))
            if j + 1 < n:
                v = [_dot(mrow, v) for mrow in M]
        # c'_i = c_i - (w_i + sum over 0 < j < i of w_j c_(i-j)), c_(n+1) = 0
        new = []
        for i in range(1, n + 2):
            acc = w[i - 1] + _dot(w[:i - 1], cs[i - 2::-1]) if i > 1 else w[0]
            new.append(cs[i - 1] - acc if i <= n else -acc)
        cs = new
    return cs


def berkowitz_det(A: RingMatrix):
    return _det_from(berkowitz_charpoly(A, "determinant"))


def berkowitz_det_adjugate(A: RingMatrix):
    """det(A) and adj(A), both from one characteristic polynomial."""
    cs = berkowitz_charpoly(A, "adjugate")
    return _det_from(cs), _adjugate_from(A, cs)


def _det_from(cs):
    """det(A) = (-1)^d c_d."""
    return -cs[-1] if len(cs) % 2 else cs[-1]


def _adjugate_from(A: RingMatrix, cs) -> RingMatrix:
    """Cayley-Hamilton in Horner form:
    adj(A) = (-1)^(d-1) (A^(d-1) + c_1 A^(d-2) + ... + c_(d-1) I)."""
    d = A.rows
    if d == 1:
        x = A.entries[0][0]
        return RingMatrix([[x.lift_residue((1,) + (0,) * (x.ring.f - 1))]])
    B = _plus_diag(A, cs[0])
    for c in cs[1:-1]:
        B = _plus_diag(A @ B, c)
    return -B if d % 2 == 0 else B


def _plus_diag(B: RingMatrix, c) -> RingMatrix:
    """B + c I, adding c on the diagonal."""
    return RingMatrix([[x + c if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(B.entries)])


def berkowitz_scaled_inverse(A: RingMatrix, scale_pow: int) -> RingMatrix:
    """p^scale_pow * A^(-1) by the determinant route: det(A) = p^t times a
    unit u, and adj(A) u^(-1) divided by p^(t - scale_pow).

    Raises SingularMatrix when det vanishes at precision or is not p^t
    times a unit, PrecisionExhausted or NotDivisible from the division."""
    if not A.rows:
        return A
    det, adj = berkowitz_det_adjugate(A)
    t = 0
    while not det.is_unit():
        try:
            det = det.div_p_exact(1)
        except NotDivisible:
            raise SingularMatrix("determinant is not p-power times a unit") from None
        except PrecisionExhausted:
            raise SingularMatrix("determinant vanishes at working precision") from None
        t += 1
    u = det.invert()
    num = adj.map_entries(lambda x: x * u)
    if scale_pow >= t:
        return num.mul_p_pow(scale_pow - t)
    return num.map_entries(lambda x: x.div_p_exact(t - scale_pow))


def weierstrass_divide(fnum: SigmaSeries) -> tuple[SigmaSeries, WittScalar]:
    """Synthetic division by E(u) = u - pi, with pi = -p*a:
    fnum = q*E + rem with rem in W(k), in scalar arithmetic."""
    amb = fnum.amb
    k = fnum.prec
    cs = fnum.coeffs
    if not cs:
        return SigmaSeries(amb, [], k), amb.ring.zero(k)
    q = [None] * (len(cs) - 1)
    carry = cs[-1]
    for i in range(len(cs) - 1, 0, -1):
        q[i - 1] = carry
        carry = cs[i - 1] + amb.neg_pa * carry
    return SigmaSeries(amb, q, k), carry


class HeightResult(namedtuple("HeightResult", "ok e_power witness", defaults=(None, None))):
    """Verdict of the height check: on success the power s of E in det(A)
    as ``e_power``, on failure a ``witness`` dict."""

    __slots__ = ()


def kisin_height_check(amb, A: RingMatrix) -> HeightResult:
    """Decide whether A B = E^r I is solvable over the series ring.

    det(A) must be a unit times E^s with s <= r*d, and every entry of
    E^r * adj(A) must be divisible by det(A).  Remainder tests run at the
    public precision N_p, so the verdict is an at-precision semidecision.
    """
    d = A.rows
    at = amb.N_p
    det, adj = berkowitz_det_adjugate(A)
    if det.is_zero_at(min(at, det.prec)):
        raise SingularMatrix("det(A) vanishes at working precision")
    q = det
    s = 0
    while not q.is_unit():
        if s >= amb.r * d:
            return HeightResult(False, witness={"reason": "det needs more than r*d factors of E"})
        q, rem = weierstrass_divide(q)
        if not rem.is_zero_at(min(at, rem.prec)):
            return HeightResult(
                False,
                witness={"reason": "det is not a unit times a power of E",
                         "division": s, "remainder": rem},
            )
        s += 1
    Er = amb.E_pow(amb.r)
    for i in range(d):
        for j in range(d):
            y = Er * adj.entries[i][j]
            for k in range(s):
                y, rem = weierstrass_divide(y)
                if not rem.is_zero_at(min(at, rem.prec)):
                    return HeightResult(
                        False,
                        witness={"reason": "entry of E^r * adj(A) not divisible by det",
                                 "entry": (i, j), "division": k, "remainder": rem},
                    )
    return HeightResult(True, e_power=s)
