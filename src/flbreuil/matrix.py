"""Matrix algebra over the three scalar rings, with twisted products.

A RingMatrix holds entries of one ring: WittScalar (W(k)), SigmaSeries
(W(k)[[u]]) or PDElement (S).  It calls the entries' own methods; every
entry type has the same arithmetic, precision and residue-field interface,
and over W(k)[[u]] and S that arithmetic is one code path,
``witt._FlatVector``, which reads each ring's cut and weights from its
``_grading`` hook.  Products take one of two paths, picked by the
operands.  A product of rows with one vector (``matvec``) is the fused
``dot`` per entry.  A product of two matrices (``@``) is ``matmul``: over
W(k) that is ``dot`` per entry, and over W(k)[[u]] and S it is the packed
kernel ``_FlatVector._matmul_planes`` (in the one packed layout of
``witt``, each entry one sum of big-int products), equal to ``dot`` in
planes and precision.  ``dot`` stays its own path: as
the 1 x 1 matrix product it ran slower (the figures are in the layout
comment of ``witt``).

Solves and inverses over W(k)[[u]] and S go by the grading.  S is graded
by the gamma-index (gamma_i gamma_j = C(i+j, i) gamma_(i+j)) and W(k)[[u]]
by the u-degree, so a square A over either is invertible exactly when its
degree-0 part A_0 is, and A X = R is solved one degree at a time from
A_0^(-1): ``solve`` is ``_FlatVector.solve``, one triangular pass of
``witt`` (``_FlatVector._solve_planes``), and ``invert`` there is the solve
of the identity.  With k the lowest precision among the entries of A and
R, every step is exact mod p^k, so no digit is lost: the unit-pivot case
of the precision argument of Caruso, Roe and Vaccon ("Tracking p-adic
precision", LMS J. Comput. Math. 17A, 2014).

Every other inverse comes from one elimination (``_diagonalise``), in
O(d^3) ring operations: A_0^(-1) in ``solve``, every inverse over W(k), and
the scaled inverses with p-power pivots.  It finds L A R = diag(p^v_c u_c)
with units u_c.  Step c takes the first unit of column c in rows >= c, and
when there is none an entry p^v u (u a unit) of the remaining block whose
v is the least valuation there, so that p^v divides the whole block.  Row
operations clear the pivot's column below it, column operations its row
to its right.  With k the lowest precision among A's entries, a
multiplier y / (p^v u) is only known mod p^(k-v), but it multiplies
entries that p^v divides, so it is read at precision k and the block loses
no digit (the same precision argument).  Then p^s A^(-1) =
R diag(p^(s - v_c) u_c^(-1)) L: ``_scaled_inverse`` gives Breuil's
p^r Phi^(-1) and the section's p^r A_0^(-1), and its case s = 0 is the
inverse over W(k).  ``residue_invertible`` eliminates the one-digit lifts
of the residues with the column search and row operations only, and no L
or R: over the residue field a column without a unit already makes the
matrix singular.  W(k), truncated W(k)[[u]] and truncated S are local, so
a unit pivot exists at every step exactly when A is residue-invertible;
and they are quotient rings, so the inverse is unique at working
precision.  The elimination is right to k - 2 max(v_c) + s digits, but
``_scaled_inverse`` keeps min(cap, k - 2t + s) of them, t = sum v_c =
v_p(det A): that is what the determinant route adj(A) det(A)^(-1)
certifies, and the CLI's output bytes are fixed at it.
The semilinear twists (sigma on W(k), phi on the series ring and on S) are
passed as the entry map itself.
"""

from __future__ import annotations

from .errors import NotDivisible, NotInvertible, PrecisionExhausted, SingularMatrix
from .witt import _FlatVector


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

    def map_all(self, fn) -> "RingMatrix":
        """The matrix of the same shape whose entries, row by row, are
        ``fn`` of the list of all entries: a map of lists that handles
        them at once, such as ``pd._phi_S_all``."""
        flat = fn([x for row in self.entries for x in row])
        c = self.cols
        return RingMatrix([flat[i * c:(i + 1) * c] for i in range(self.rows)])

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

    def matvec(self, vec):
        """The product with a column vector."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(_dot(row, vec) for row in self.entries)

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

    # --- inversion ---

    def residue_invertible(self) -> bool:
        """Invertibility modulo the maximal ideal: the elimination of the
        one-digit lifts of the entries' residues finds a unit pivot at every
        step.  It runs over W(k) at one digit, the residue field, where a
        non-unit is zero: it clears each pivot's column below it by row
        operations alone and keeps no L or R, and a column with no unit
        left makes the columns up to it dependent, so the matrix is
        singular there and no other column is searched.  It costs scalar
        arithmetic only."""
        if self.rows != self.cols:
            return False
        a = [[x.ring.make(x.residue(), 1) for x in row] for row in self.entries]
        for c in range(self.rows):
            i = next((i for i in range(c, self.rows) if a[i][c].is_unit()), None)
            if i is None:
                return False
            a[c], a[i] = a[i], a[c]
            prow = a[c]
            uinv = prow[c].invert()
            for row in a[c + 1:]:
                if row[c].is_unit():
                    m = row[c] * uinv
                    for j in range(c + 1, self.rows):
                        row[j] = row[j] - m * prow[j]
        return True

    def solve(self, R: "RingMatrix") -> "RingMatrix":
        """The X with A X = R, for A square over W(k)[[u]] or S and R with
        as many rows: ``_FlatVector.solve``, one triangular pass over
        the grading (``_FlatVector._solve_planes``), from the inverse of
        A's degree-0 part over W(k) by the elimination.  It exists exactly
        when that part is invertible, that is when A is residue-invertible
        (NotInvertible otherwise), and comes back at the lowest precision
        among the entries of A and R, where it is the unique solution."""
        if self.rows != self.cols:
            raise NotInvertible("non-square matrix")
        if R.rows != self.rows:
            raise ValueError("dimension mismatch")
        if not self.rows:
            return R
        k = min(x.prec for M in (self, R) for row in M.entries for x in row)
        head = RingMatrix([[x.coeff(0).truncate(k) for x in row] for row in self.entries])
        inv0 = _unit_inverse(head)
        return RingMatrix(self.entries[0][0].solve(self.entries, inv0.entries, R.entries))

    def invert(self) -> "RingMatrix":
        """Two-sided inverse.  Over W(k)[[u]] and S it is ``solve`` of the
        identity; over W(k) it is ``_scaled_inverse`` with scale p^0.  It
        exists exactly when A is residue-invertible and comes back at the
        lowest precision among A's entries, where it is the unique
        inverse."""
        if self.rows != self.cols:
            raise NotInvertible("non-square matrix")
        if not self.rows:
            return self
        x = self.entries[0][0]
        if isinstance(x, _FlatVector):
            one = x.lift_residue((1,) + (0,) * (x.ring.f - 1))
            return self.solve(RingMatrix.identity(self.rows, one - one, one))
        return _unit_inverse(self)


def _unit_inverse(A: RingMatrix) -> RingMatrix:
    """``_scaled_inverse(A, 0)`` for a square A over W(k), with its three
    failures read as NotInvertible."""
    try:
        return _scaled_inverse(A, 0)
    except (SingularMatrix, PrecisionExhausted, NotDivisible):
        raise NotInvertible("no unit pivot: not invertible modulo the maximal ideal") from None


def _dot(xs, ys):
    """Sum of the products x*y over two equally long rows of ring elements,
    by the fused kernel of their ring."""
    if not xs:
        raise ValueError("empty inner dimension: no entry gives the ring")
    return xs[0].dot(xs, ys)


def _is_zero(x) -> bool:
    """Whether every stored int of x is zero: a product with x adds nothing."""
    return x.is_zero_at(x.prec)


def _diagonalise(A: RingMatrix, k: int):
    """L (as rows), R (as columns) and the pivots (v_c, u_c^(-1)) with
    L A R = diag(p^v_c u_c) mod p^k, by the elimination of the module
    docstring.  Raises SingularMatrix when no pivot is left or sum v_c
    reaches k, where det(A) vanishes."""
    d = A.rows
    x0 = A.entries[0][0]
    one = x0.lift_residue((1,) + (0,) * (x0.ring.f - 1)).truncate(k)
    zero = one - one
    a = [[x.truncate(k) for x in row] for row in A.entries]
    L = [[one if j == i else zero for j in range(d)] for i in range(d)]
    R = [row[:] for row in L]
    pivots, t = [], 0
    for c in range(d):
        i, j, v = next(((i, c, 0) for i in range(c, d) if a[i][c].is_unit()), (None,) * 3)
        if i is None:
            block = [(a[i][j].valuation(), i, j) for i in range(c, d) for j in range(c, d)]
            v = min(block)[0]
            if t + v >= k:
                raise SingularMatrix("determinant vanishes at working precision")
            i, j = next(((i, j) for w, i, j in block
                         if w == v and a[i][j].div_p_exact(v).is_unit()), (None, None))
            if i is None:
                raise SingularMatrix("determinant is not p-power times a unit")
            t += v
        for row in a[c:]:
            row[c], row[j] = row[j], row[c]
        R[c], R[j] = R[j], R[c]
        a[c], a[i] = a[i], a[c]
        L[c], L[i] = L[i], L[c]
        prow, lrow, rcol = a[c], L[c], R[c]
        uinv = prow[c].div_p_exact(v).invert()
        pivots.append((v, uinv))
        # only the nonzero entries of the pivot's row, of its row of L and
        # of its column of R move anything
        live = [j for j in range(c + 1, d) if not _is_zero(prow[j])]
        llive = [j for j in range(d) if not _is_zero(lrow[j])]
        rlive = [j for j in range(d) if not _is_zero(rcol[j])]
        for row, lr in zip(a[c + 1:], L[c + 1:]):
            if not _is_zero(row[c]):
                m = _quotient(row[c], v, uinv, k)
                for j in live:
                    row[j] = row[j] - m * prow[j]
                for j in llive:
                    lr[j] = lr[j] - m * lrow[j]
        for j in live:
            n, col = _quotient(prow[j], v, uinv, k), R[j]
            for i in rlive:
                col[i] = col[i] - n * rcol[i]
    return L, pivots, R


def _quotient(y, v: int, uinv, k: int):
    """y / (p^v u) for y divisible by p^v: right mod p^(k-v), read at k."""
    return _read_at(y.div_p_exact(v) * uinv, k)


def _read_at(x, k: int):
    """x with its stored ints read at precision k >= x.prec."""
    return x if x.prec == k else x._map(lambda xs: xs, k)


def _scaled_inverse(A: RingMatrix, scale_pow: int) -> RingMatrix:
    """Integral matrix equal to p^s A^(-1) (s = ``scale_pow``).

    With L A R = diag(p^v_c u_c) (``_diagonalise``, at the lowest precision
    k among A's entries) it is R diag(p^(s - v_c) u_c^(-1)) L, certified to
    min(cap, k - 2t + s) digits, t = sum v_c = v_p(det A).  Raises
    SingularMatrix when the elimination finds no pivot or t >= k,
    PrecisionExhausted when t > s and k - 2t + s < 1, and NotDivisible when
    some v_c > s, so that p^s A^(-1) is not integral.  A 0x0 matrix is its
    own inverse, as in ``RingMatrix.invert``.
    """
    if A.rows != A.cols:
        raise ValueError("scaled inverse of a non-square matrix")
    if not A.rows:
        return A
    s = scale_pow
    k = min(x.prec for row in A.entries for x in row)
    L, pivots, R = _diagonalise(A, k)
    t = sum(v for v, _ in pivots)
    top = max(v for v, _ in pivots)
    prec = min(A.entries[0][0].ring.cap, k - 2 * t + s)
    if t > s and prec < 1:
        raise PrecisionExhausted(f"division by p^{t - s} from precision {k - t}")
    if top > s:
        raise NotDivisible(f"not divisible by p^{t - s}")
    # R diag(p^(top - v_c) u_c^(-1)) L = p^top A^(-1), right to k - top digits
    scaled = RingMatrix([[_read_at(uinv, k).mul_p_pow(top - v) * x for x in row]
                         for (v, uinv), row in zip(pivots, L)])
    out = RingMatrix(R).transpose() @ scaled
    if top:
        out = out.truncate(k - top)
    if s > top:
        out = out.mul_p_pow(s - top)
    return out.truncate(prec)


def _converges_to_zero(A: RingMatrix, twist, at: int) -> bool:
    """Semidecision for 'the product A * twist(A) * ... tends to zero'.

    ``twist`` is the entry map: WittScalar.frobenius or phi_S.  True when
    one of the partial products of 1 ... d*at + 1 factors (d the rank of A)
    vanishes modulo p^at (and modulo the u / gamma truncations).  False
    certifies only that window.
    """
    prod = term = A
    for _ in range(A.rows * at):
        if prod.is_zero_at(at):
            return True
        term = term.map_entries(twist)
        prod = prod @ term
    return prod.is_zero_at(at)
