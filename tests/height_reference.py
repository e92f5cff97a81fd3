"""The E-height test of a Kisin module's Frobenius matrix, read from A alone.

The kernel builds every Kisin module in its normal form
A = X * diag(E^{r_i}) * Y, which has height at most r by construction, so
it never runs this test.  The tests run it as an independent reference on
the kernel's modules: it factors det(A) (Berkowitz, over the series ring)
as a unit times a power of E by repeated synthetic division, then divides
E^r times the adjugate by that power.
"""

from collections import namedtuple

from flbreuil.errors import SingularMatrix
from flbreuil.matrix import RingMatrix
from flbreuil.series import SigmaSeries
from flbreuil.witt import WittScalar


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
    det, adj = A.det_adjugate()
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
