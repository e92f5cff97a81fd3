"""Reference inverses by Newton's iteration, as the kernel ran them before
it inverted a scalar by the norm (``WittScalar.invert``) and a series or
an element of S by one triangular pass (``_FlatVector._solve_planes``).

The residue inverse a^(p^f - 2) in the field F_{p^f} is lifted by
z <- z(2 - az), which doubles the number of right digits per step; a unit
of W(k)[[u]] or S is inverted the same way from the inverse of its
constant coefficient.  The inverse at precision k is unique in the
truncated rings, so the kernel's inverses must equal these in
coefficients and precision.
"""

from flbreuil.errors import NotAUnit, NotDivisible
from flbreuil.pd import PDElement
from flbreuil.witt import WittScalar


def newton_inverse(a: WittScalar) -> WittScalar:
    """a^(-1) at a's precision, by Newton's iteration from the residue
    inverse; NotAUnit when a is zero modulo p."""
    if not a.is_unit():
        raise NotAUnit("cannot invert: zero modulo p")
    r, k = a.ring, a.prec
    z = a.truncate(1) ** (r.p**r.f - 2)
    two = WittScalar(r, (2,) + (0,) * (r.f - 1), k)
    cur = 1
    while cur < k:
        cur = min(2 * cur, k)
        # z is right to half of cur digits; one step makes its
        # representative right to cur digits, so read it at cur
        z = WittScalar(r, z.coeffs, cur)
        z = z * (two - a * z)
    return z


def newton_element_inverse(x):
    """x^(-1) for a unit x of W(k)[[u]] or S, by Newton's iteration
    z <- z(2 - xz) from the inverse of the constant coefficient, as the
    kernel ran it before it inverted by one triangular pass
    (``_FlatVector._solve_planes``).  It stops at the first step whose xz is
    1 at x's precision in every coefficient, the top gamma coefficient
    included (which ``PDElement.eq_at`` does not read), after at most bit_length(max(cut, prec)) + 2 steps
    (the cut N_gamma over S, N_u over the series ring); NotAUnit for a
    non-unit, NotDivisible when it does not converge."""
    if not x.is_unit():
        raise NotAUnit("cannot invert: zero modulo p")
    amb, prec, cls = x.amb, x.prec, type(x)
    cut = amb.N_gamma if isinstance(x, PDElement) else amb.N_u
    z = cls(amb, [newton_inverse(x.coeff(0))])
    one = cls(amb, [amb.ring.one().truncate(prec)])
    two = cls(amb, [amb.ring.from_int(2, prec)])
    for _ in range(max(cut, prec).bit_length() + 2):
        xz = x * z
        z = z * (two - xz)
        if (xz - one).is_zero_at(prec):
            break
    if not (x * z - one).is_zero_at(prec):
        raise NotDivisible("Newton's iteration did not converge at precision")
    return z
