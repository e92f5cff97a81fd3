"""The reference inverse of a unit of W(F_{p^f}): Newton's iteration, as the
kernel ran it before it inverted by the norm (``WittScalar.invert``).

The residue inverse a^(p^f - 2) in the field F_{p^f} is lifted by
z <- z(2 - az), which doubles the number of right digits per step.  The
inverse at precision k is unique, so the kernel's inverse must equal this
one in coefficients and precision.
"""

from flbreuil.errors import NotAUnit
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
