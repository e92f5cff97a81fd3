"""Truncated power series over W(k): the ring W(k)[[u]] cut at degree N_u.

Coefficients share one uniform precision (normalised to the minimum on
construction).  The Frobenius acts by u -> u^p and the arithmetic Frobenius
on coefficients; degrees at or above the truncation bound are dropped, which
is the intended (p, u)-adic semantics.

Storage.  A series holds its precision ``prec`` and its coefficients as
plain ints in the flat layout of ``_WittRing.to_planes``: f int lists, list
t holding the T^t coefficients of W(k) = Z[T]/(p^N, m(T)), entry i of each
list belonging to u^i, every entry reduced mod p^prec.  Trailing zero
coefficients are dropped, so the length of the lists is degree + 1.
Arithmetic is that of ``_FlatVector``, shared with S: ``_grading`` gives
the cut N_u and no weights, so a product or a sum of products (``dot``) is
the fused kernel ``_FlatVector._dot_planes`` unweighted, a product of two
matrices (``matmul``) the packed kernel ``_FlatVector._matmul_planes``
unscaled, and a solve, and with it every inverse, the triangular kernel
``_FlatVector._solve_planes``, one pass over the u-degree.  The cut at N_u is
this ring's own truncation, so comparisons read every degree below it.
``WittScalar`` objects are built only at the scalar boundary: ``coeff``,
``coeffs``, the constant part that a solve inverts over W(k), ``repr`` and
the constructor from a list of scalars.
"""

from __future__ import annotations

from .witt import WittScalar, _FlatVector, _trimmed


class SigmaSeries(_FlatVector):
    """Polynomial-truncated element of W(k)[[u]].

    ``SigmaSeries(amb, coeffs, prec)`` takes a list of scalars, cut at
    degree N_u: all are truncated to the lowest precision (and to ``prec``,
    when given; the empty list takes the ring cap when ``prec`` is above
    it).  The kernel passes ``planes`` and ``prec`` instead.  Either way
    the coefficients that are zero at that precision are dropped from the
    top, as in ``PDElement``."""

    __slots__ = ()
    _invert_error = "series inverse needs a unit constant term"

    def __init__(self, amb, coeffs=(), prec: int | None = None, planes=None):
        self.amb = amb
        if planes is None:
            planes, prec = self._from_scalars(amb, list(coeffs)[:amb.N_u], prec)
        self.planes = _trimmed(planes)
        self.prec = prec

    def _make(self, planes, prec: int) -> "SigmaSeries":
        return SigmaSeries(self.amb, (), prec, planes)

    @staticmethod
    def _grading(amb) -> tuple:
        return amb.N_u, None, 1, None

    @property
    def degree(self) -> int:
        return len(self.planes[0]) - 1

    @property
    def coeffs(self) -> tuple[WittScalar, ...]:
        return tuple(WittScalar(self.ring, col, self.prec) for col in zip(*self.planes))

    def coeff(self, i: int) -> WittScalar:
        if 0 <= i < len(self.planes[0]):
            return WittScalar(self.amb.ring, tuple(pl[i] for pl in self.planes), self.prec)
        return self.amb.ring.zero(self.prec)

    def phi(self) -> "SigmaSeries":
        """Frobenius: u -> u^p, arithmetic Frobenius on coefficients."""
        amb = self.amb
        p = amb.p
        n = min(len(self.planes[0]) * p, amb.N_u)
        out = []
        for pl in amb.ring.frobenius_planes(self.planes, self.prec):
            spread = [0] * n
            spread[::p] = pl[: len(spread[::p])]
            out.append(spread)
        return self._make(tuple(out), self.prec)

    def __repr__(self):
        if not self.planes[0]:
            return "Series(0)"
        terms = []
        for i, col in enumerate(zip(*self.planes)):
            if any(col):
                c = self.coeff(i)
                terms.append(f"{c!r}*u^{i}" if i else f"{c!r}")
        return "Series(" + " + ".join(terms) + f" ~p^{self.prec})"


def _series_from_ints(amb, ints) -> SigmaSeries:
    return SigmaSeries(amb, [amb.ring.from_int(n) for n in ints], amb.cap)

