"""Matrix algebra over the three scalar rings, with twisted products.

A RingMatrix holds entries of one ring: WittScalar (W(k)), SigmaSeries
(W(k)[[u]]) or PDElement (S).  It calls the entries' own methods; every
entry type has the same arithmetic, precision and residue-field interface.
Products take one of two paths, picked by the operands.  A product of
rows with one vector (``matvec``, with or without ``bound``, and the steps
of Berkowitz's recursion) is the entry type's fused ``dot`` per entry: one
unreduced accumulator for all the pair products of a row and a column, one
fold through m(T) and one reduction at the lowest precision of both rows.
A product of two matrices (``@``) is the entry type's ``matmul``: over W(k)
that is ``dot`` per entry, and over W(k)[[u]] and S it is the packed
kernel (``FlatVector._matmul_planes``), which packs each entry of both
factors once into one big int and makes each output entry one sum of
big-int products, equal to ``dot`` in planes, precision and tail_dirty
flag.  Only a matrix product reuses each packed entry across a whole row
or column of outputs; the short, bounded and single products of the
``dot`` path are faster unpacked.

The inverse is by Gauss-Jordan elimination on unit pivots, in O(d^3) ring
operations.  W(k), truncated W(k)[[u]] and truncated S are local, so a unit
pivot exists at every step exactly when A is residue-invertible; and they
are quotient rings, so the inverse is unique at working precision.
Determinant and adjugate come from the characteristic polynomial, computed
by Berkowitz's division-free recursion (S. J. Berkowitz, Inf. Process.
Lett. 18, 1984) in O(d^4) ring operations, with the adjugate by
Cayley-Hamilton in Horner form.  They need no division because
``scaled_inverse``'s determinants are not units: it factors det(A) as p^t
times a unit, so A adj(A) = det(A) I holds exactly there.  The semilinear
twists (sigma on W(k), phi on the series ring and on S) are passed as the
entry map itself.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotDivisible, NotInvertible, PrecisionExhausted, SingularMatrix


class RingMatrix:
    """Rectangular matrix over one scalar ring."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if any(len(row) != self.cols for row in entries):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(d: int, zero, one) -> "RingMatrix":
        return RingMatrix([[one if i == j else zero for j in range(d)] for i in range(d)])

    @staticmethod
    def zeros(rows: int, cols: int, zero) -> "RingMatrix":
        return RingMatrix([[zero] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def map_entries(self, fn) -> "RingMatrix":
        return RingMatrix([[fn(x) for x in row] for row in self.entries])

    def transpose(self) -> "RingMatrix":
        return RingMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def col(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def _same_shape(self, other) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        self._same_shape(other)
        return RingMatrix(
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return RingMatrix(
            [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return self.map_entries(lambda x: -x)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = other.transpose().entries
        if not (self.entries and bt):
            return RingMatrix([[] for _ in self.entries])
        return RingMatrix(self.entries[0][0].matmul(self.entries, bt))

    def scale(self, scalar) -> "RingMatrix":
        return self.map_entries(lambda x: x * scalar)

    def matvec(self, vec, bound: int | None = None):
        """The product with a column vector.  Over S, ``bound`` computes
        each entry only below that index (``PDElement.dot``)."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(_dot(row, vec, bound) for row in self.entries)

    # --- precision ---

    def mul_p_pow(self, k: int) -> "RingMatrix":
        return self.map_entries(lambda x: x.mul_p_pow(k))

    def truncate(self, k: int) -> "RingMatrix":
        return self.map_entries(lambda x: x.truncate(k))

    def eq_at(self, other: "RingMatrix", k: int) -> bool:
        self._same_shape(other)
        for ra, rb in zip(self.entries, other.entries):
            for x, y in zip(ra, rb):
                if not x.eq_at(y, k):
                    return False
        return True

    def is_zero_at(self, k: int) -> bool:
        return all(x.is_zero_at(k) for row in self.entries for x in row)

    # --- characteristic polynomial, determinant, adjugate, inversion ---

    def _charpoly(self, what: str) -> list:
        """[c_1, ..., c_d] with det(tI - A) = t^d + c_1 t^(d-1) + ... + c_d.

        Berkowitz's recursion: with A split as [[a, R], [C, M]], the
        coefficient vector of A is the lower triangular Toeplitz matrix with
        first column (1, -a, -RC, -RMC, ..., -RM^(n-1)C) times that of M
        (n = size of M).  It runs from the trailing 1x1 corner outwards, with
        ring operations only, so it is exact in every truncated ring.
        """
        if self.rows != self.cols:
            raise ValueError(f"{what} of a non-square matrix")
        if not self.rows:
            raise ValueError(f"{what} of a 0x0 matrix: no entry gives the ring")
        a = self.entries
        d = self.rows
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

    def det(self):
        return _det_from(self._charpoly("determinant"))

    def det_adjugate(self):
        """det(A) and adj(A), both from one characteristic polynomial."""
        cs = self._charpoly("adjugate")
        return _det_from(cs), _adjugate_from(self, cs)

    def residue_invertible(self) -> bool:
        """Invertibility: the determinant of the residues is nonzero.

        The determinant is taken over W(k) at one digit, on the lifts of
        the entries' residues, so it costs scalar arithmetic only."""
        if self.rows != self.cols:
            return False
        if not self.rows:
            return True
        lifts = RingMatrix([[x.ring.make(x.residue(), 1) for x in row] for row in self.entries])
        return lifts.det().is_unit()

    def invert(self) -> "RingMatrix":
        """Two-sided inverse by Gauss-Jordan elimination on unit pivots.

        Column c takes the first row at or below c whose entry there is a
        unit, scales it by that entry's inverse and clears column c in every
        other row of [A | I].  Over a local ring a unit pivot exists at every
        step exactly when A is residue-invertible.  The result is at the
        lowest precision among A's entries, where it is the unique inverse."""
        if self.rows != self.cols:
            raise NotInvertible("non-square matrix")
        d = self.rows
        if not d:
            return self
        # the inverse mod p^k reads A only mod p^k, so all of [A | I] is cut
        # to k first: the ints stay short and so do the pivots' inverses
        k = min(x.prec for row in self.entries for x in row)
        x0 = self.entries[0][0]
        f = x0.ring.f
        one = x0.lift_residue((1,) + (0,) * (f - 1)).truncate(k)
        zero = x0.lift_residue((0,) * f).truncate(k)
        aug = [[x.truncate(k) for x in row] + [one if j == i else zero for j in range(d)]
               for i, row in enumerate(self.entries)]
        for c in range(d):
            piv = next((i for i in range(c, d) if aug[i][c].is_unit()), None)
            if piv is None:
                raise NotInvertible("no unit pivot: not invertible modulo the maximal ideal")
            aug[c], aug[piv] = aug[piv], aug[c]
            prow = aug[c]
            inv = prow[c].invert()
            # columns below c are cleared in every row, and column c is only
            # read as a multiplier, so only the nonzero columns past c move
            live = [j for j in range(c + 1, 2 * d) if not _is_zero(prow[j])]
            for j in live:
                prow[j] = prow[j] * inv
            for i, row in enumerate(aug):
                m = row[c]
                if i == c or _is_zero(m):
                    continue
                for j in live:
                    row[j] = row[j] - m * prow[j]
        return RingMatrix([row[d:] for row in aug])


def _dot(xs, ys, bound: int | None = None):
    """Sum of the products x*y over two equally long rows of ring elements,
    by the entry type's fused kernel (cut below ``bound``, over S)."""
    if not xs:
        raise ValueError("empty inner dimension: no entry gives the ring")
    if bound is None:
        return xs[0].dot(xs, ys)
    return xs[0].dot(xs, ys, bound)


def _is_zero(x) -> bool:
    """Whether every stored int of x is zero: a product with x adds nothing."""
    return x.is_zero_at(x.prec)


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


def scaled_inverse(A: RingMatrix, scale_pow: int) -> RingMatrix:
    """Integral matrix equal to p^scale_pow * A^(-1), via det = p^t * unit.

    Raises SingularMatrix when det vanishes at precision, NotDivisible when
    p^scale_pow * A^(-1) fails to be integral.  A 0x0 matrix is its own
    inverse, as in ``RingMatrix.invert``.
    """
    if not A.rows:
        return A
    det, adj = A.det_adjugate()
    t = 0
    while not det.is_unit():
        try:
            det = det.div_p_exact(1)
        except NotDivisible:
            raise SingularMatrix("determinant is not p-power times a unit") from None
        except PrecisionExhausted:
            raise SingularMatrix("determinant vanishes at working precision") from None
        t += 1
    num = adj.scale(det.invert())
    if scale_pow >= t:
        return num.mul_p_pow(scale_pow - t)
    return num.map_entries(lambda x: x.div_p_exact(t - scale_pow))


class ConvergenceVerdict(namedtuple("ConvergenceVerdict", "zero steps witness",
                                    defaults=(None, None))):
    """Outcome of the at-precision test of an infinite twisted product:
    ``zero``, the ``steps`` it took when it holds, and otherwise the final
    partial product as ``witness``."""

    __slots__ = ()

    def __repr__(self):
        if self.zero:
            return f"ZeroAtPrecision(steps={self.steps})"
        return "NotZero(...)"


def converges_to_zero(A: RingMatrix, twist, at: int, max_steps: int | None = None) -> ConvergenceVerdict:
    """Semidecision for 'the product A * twist(A) * ... tends to zero'.

    ``twist`` is the entry map: WittScalar.frobenius, SigmaSeries.phi or
    phi_S.  Returns ZeroAtPrecision at the first partial product that
    vanishes modulo p^at (and modulo the u / gamma truncations), otherwise
    NotZero with the final partial product.  A NotZero verdict certifies
    only the inspected window.
    """
    if max_steps is None:
        max_steps = A.rows * at
    prod = A
    term = A
    for n in range(max_steps + 1):
        if prod.is_zero_at(at):
            return ConvergenceVerdict(True, steps=n)
        if n == max_steps:
            break
        term = term.map_entries(twist)
        prod = prod @ term
    return ConvergenceVerdict(False, witness=prod.truncate(at))
