"""Truncated power series over W(k): the ring W(k)[[u]] cut at degree N_u.

Coefficients share one uniform precision (normalised to the minimum on
construction).  The Frobenius acts by u -> u^p and the arithmetic Frobenius
on coefficients; degrees at or above the truncation bound are dropped, which
is the intended (p, u)-adic semantics.

Storage.  A series holds its precision ``prec`` and its coefficients as
plain ints in the flat layout of ``WittRing.to_planes``: f int lists, list
t holding the T^t coefficients of W(k) = Z[T]/(p^N, m(T)), entry i of each
list belonging to u^i, every entry reduced mod p^prec.  Trailing zero
coefficients are dropped, so the length of the lists is degree + 1.
Products take the paths of S, unweighted and cut at N_u: a product or a sum
of products (``SigmaSeries.dot``) is the fused kernel
``FlatVector._dot_planes``, and a product of two matrices
(``SigmaSeries.matmul``) the packed kernel of ``witt``
(``FlatVector._matmul_planes``, ``witt._packed_matmul``), in its one
packed layout.  A solve, and
with it every inverse (``SigmaSeries.solve``), is the triangular kernel
``FlatVector._solve_planes``, unweighted, one pass over the u-degree.
``WittScalar`` objects are built only at the scalar boundary: ``coeff``,
``coeffs``, ``constant``, the constant part that a solve inverts over
W(k), ``repr`` and the constructor from a list of scalars.
"""

from __future__ import annotations

from .witt import FlatVector, WittScalar, trimmed


class SigmaSeries(FlatVector):
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
        self.planes = trimmed(planes)
        self.prec = prec

    def _make(self, planes, prec: int) -> "SigmaSeries":
        return SigmaSeries(self.amb, (), prec, planes)

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

    def __add__(self, other):
        if not isinstance(other, SigmaSeries):
            return NotImplemented
        return self._make(*self._sum(other))

    def __sub__(self, other):
        if not isinstance(other, SigmaSeries):
            return NotImplemented
        return self._make(*self._sum(other, sub=True))

    def __mul__(self, other):
        if not isinstance(other, SigmaSeries):
            return NotImplemented
        return SigmaSeries.dot((self,), (other,))

    @staticmethod
    def dot(xs, ys) -> "SigmaSeries":
        """The sum of the products x*y over two equally long rows, by the
        fused kernel, cut at degree N_u."""
        amb = xs[0].amb
        planes, k, _ = FlatVector._dot_planes(xs, ys, amb.N_u)
        return SigmaSeries(amb, (), k, planes)

    @staticmethod
    def matmul(rows, cols) -> list:
        """The entries of a matrix product: entry (i, j) equals
        ``SigmaSeries.dot(rows[i], cols[j])``, from the packed kernel
        (``FlatVector._matmul_planes``), cut at degree N_u.  The kernel
        pairs the inner products when that needs fewer digit products;
        the paired sum is the plain one as an integer, so the planes and
        precision are too.  A series product has no weights, so no factor
        is scaled and the slot width is that of p^K, K the highest
        precision of an output entry."""
        amb = rows[0][0].amb
        return [[SigmaSeries(amb, (), k, planes) for planes, k, _ in line]
                for line in FlatVector._matmul_planes(rows, cols, amb.N_u)]

    @staticmethod
    def solve(rows, inv0, rhs) -> list:
        """The entries of the X with A X = R, for A = ``rows`` (square, with
        ``inv0`` the inverse over W(k) of its constant part) and R = ``rhs``:
        the triangular kernel (``FlatVector._solve_planes``), unweighted and
        cut at degree N_u."""
        amb = rows[0][0].amb
        grid, k, _ = FlatVector._solve_planes(rows, inv0, rhs, amb.N_u)
        return [[SigmaSeries(amb, (), k, planes) for planes in line] for line in grid]

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

    def constant(self) -> WittScalar:
        return self.coeff(0)

    def __repr__(self):
        if not self.planes[0]:
            return "Series(0)"
        terms = []
        for i, col in enumerate(zip(*self.planes)):
            if any(col):
                c = self.coeff(i)
                terms.append(f"{c!r}*u^{i}" if i else f"{c!r}")
        return "Series(" + " + ".join(terms) + f" ~p^{self.prec})"


def series_from_ints(amb, ints, prec: int | None = None) -> SigmaSeries:
    prec = amb.cap if prec is None else prec
    return SigmaSeries(amb, [amb.ring.from_int(n, prec) for n in ints], prec)

