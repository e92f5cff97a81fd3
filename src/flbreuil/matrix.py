"""Matrix algebra over the three scalar rings, with twisted products.

A RingMatrix holds entries of one ring: WittScalar (W(k)), SigmaSeries
(W(k)[[u]]) or PDElement (S).  It calls the entries' own methods; every
entry type has the same arithmetic, precision and residue-field interface.
``denom_exp = t`` means the matrix stands for p^(-t) times its stored
entries; it is used for the scaled inverses that appear in the section
iteration (p^r times an inverse that is only integral after scaling).

Inversion is Newton iteration Z <- Z(2I - AZ) from the residue-field
inverse; in the truncated rings the error is nilpotent, so the loop
terminates in logarithmically many steps and the result is certified by an
exact product check.  The semilinear twists (sigma on W(k), phi on the
series ring and on S) are passed as the entry map itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDivisible, NotInvertible, PrecisionExhausted, SingularMatrix


class RingMatrix:
    """Rectangular matrix over one scalar ring, with a p-power denominator."""

    __slots__ = ("rows", "cols", "entries", "denom_exp")

    def __init__(self, entries, denom_exp: int = 0):
        entries = tuple(tuple(row) for row in entries)
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if any(len(row) != self.cols for row in entries):
            raise ValueError("ragged matrix")
        if denom_exp < 0:
            raise ValueError("denominator exponent must be >= 0")
        self.denom_exp = denom_exp

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
        return RingMatrix([[fn(x) for x in row] for row in self.entries], self.denom_exp)

    def transpose(self) -> "RingMatrix":
        return RingMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.denom_exp,
        )

    def col(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __add__(self, other):
        a, b = _align(self, other)
        return RingMatrix(
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)],
            a.denom_exp,
        )

    def __sub__(self, other):
        a, b = _align(self, other)
        return RingMatrix(
            [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)],
            a.denom_exp,
        )

    def __neg__(self):
        return self.map_entries(lambda x: -x)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = other.transpose().entries
        return RingMatrix(
            [[_dot(row, colv) for colv in bt] for row in self.entries],
            self.denom_exp + other.denom_exp,
        )

    def scale(self, scalar) -> "RingMatrix":
        return self.map_entries(lambda x: x * scalar)

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(_dot(row, vec) for row in self.entries)

    # --- precision and denominator management ---

    def mul_p_pow(self, k: int) -> "RingMatrix":
        return self.map_entries(lambda x: x.mul_p_pow(k))

    def normalize(self) -> "RingMatrix":
        """Clear the denominator by exact division; NotDivisible if impossible."""
        if self.denom_exp == 0:
            return self
        t = self.denom_exp
        return RingMatrix([[x.div_p_exact(t) for x in row] for row in self.entries])

    def truncate(self, k: int) -> "RingMatrix":
        return self.map_entries(lambda x: x.truncate(k))

    def eq_at(self, other: "RingMatrix", k: int) -> bool:
        a, b = _align(self, other)
        kk = k + a.denom_exp
        for ra, rb in zip(a.entries, b.entries):
            for x, y in zip(ra, rb):
                if not x.eq_at(y, kk):
                    return False
        return True

    def is_zero_at(self, k: int) -> bool:
        kk = k + self.denom_exp
        return all(x.is_zero_at(kk) for row in self.entries for x in row)

    # --- determinant, adjugate, inversion ---

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.denom_exp:
            raise ValueError("clear the denominator before taking det")
        if not self.rows:
            raise ValueError("determinant of a 0x0 matrix: no entry gives the ring")
        return _det(self.entries)

    def adjugate(self) -> "RingMatrix":
        d = self.rows
        if d != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        if d == 1:
            return RingMatrix([[_zero_one(self.entries[0][0])[1]]])
        out = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                minor = [
                    [self.entries[a][b] for b in range(d) if b != j]
                    for a in range(d) if a != i
                ]
                cof = _det(minor)
                if (i + j) % 2:
                    cof = -cof
                out[j][i] = cof
        return RingMatrix(out)

    def residue_invertible(self) -> bool:
        try:
            _residue_inverse(self)
            return True
        except NotInvertible:
            return False

    def invert(self) -> "RingMatrix":
        """Two-sided inverse at working precision (Newton from the residue).

        The residue inverse leaves an error in the maximal ideal, and each
        step squares it, so the entries' own Newton step counts bound the
        loop."""
        if self.rows != self.cols:
            raise NotInvertible("non-square matrix")
        if self.denom_exp:
            raise ValueError("clear the denominator before inverting")
        prec = min(x.prec for row in self.entries for x in row)
        Z = _residue_inverse(self)
        ident = RingMatrix.identity(self.rows, *_zero_one(self.entries[0][0]))
        two_i = ident + ident
        steps = max(x.newton_steps() for row in self.entries for x in row)
        for _ in range(steps):
            AZ = self @ Z
            Z = Z @ (two_i - AZ)
            if AZ.eq_at(ident, prec):
                break
        if not (self @ Z).eq_at(ident, prec):
            raise NotInvertible("Newton inversion failed to certify at precision")
        return Z


def _align(a: RingMatrix, b: RingMatrix):
    """Bring two matrices to a common denominator by exact scaling."""
    if a.denom_exp == b.denom_exp:
        return a, b
    if a.denom_exp < b.denom_exp:
        k = b.denom_exp - a.denom_exp
        return RingMatrix(a.mul_p_pow(k).entries, b.denom_exp), b
    k = a.denom_exp - b.denom_exp
    return a, RingMatrix(b.mul_p_pow(k).entries, a.denom_exp)


def _dot(xs, ys):
    """Sum of the products x*y over two equally long rows of ring elements."""
    if not xs:
        raise ValueError("empty inner dimension: no entry gives the ring")
    acc = xs[0] * ys[0]
    for i in range(1, len(xs)):
        acc = acc + xs[i] * ys[i]
    return acc


def _zero_one(x):
    """The zero and the one of the ring that holds x."""
    f = x.ring.f
    return x.lift_residue((0,) * f), x.lift_residue((1,) + (0,) * (f - 1))


def _det(rows):
    d = len(rows)
    if d == 1:
        return rows[0][0]
    if d == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for i in range(d):
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = rows[i][0] * _det(minor)
        if i % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _residue_inverse(A: RingMatrix) -> RingMatrix:
    """Lift of the inverse of A over the residue field F_{p^f}."""
    d = A.rows
    if not d:
        return A
    x = A.entries[0][0]
    ring = x.ring
    m = [[y.residue() for y in row] for row in A.entries]
    one = tuple([1] + [0] * (ring.f - 1))
    zero = tuple([0] * ring.f)
    inv = [[one if i == j else zero for j in range(d)] for i in range(d)]
    for col in range(d):
        piv = None
        for row in range(col, d):
            if not ring.gf_is_zero(m[row][col]):
                piv = row
                break
        if piv is None:
            raise NotInvertible("matrix is singular over the residue field")
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pinv = ring.gf_inv(m[col][col])
        m[col] = [ring.gf_mul(y, pinv) for y in m[col]]
        inv[col] = [ring.gf_mul(y, pinv) for y in inv[col]]
        for row in range(d):
            if row != col and not ring.gf_is_zero(m[row][col]):
                c = m[row][col]
                m[row] = [ring.gf_sub(y, ring.gf_mul(c, z)) for y, z in zip(m[row], m[col])]
                inv[row] = [ring.gf_sub(y, ring.gf_mul(c, z)) for y, z in zip(inv[row], inv[col])]
    return RingMatrix([[x.lift_residue(t) for t in row] for row in inv])


def scaled_inverse(A: RingMatrix, scale_pow: int) -> RingMatrix:
    """Integral matrix equal to p^scale_pow * A^(-1), via det = p^t * unit.

    Raises SingularMatrix when det vanishes at precision, NotDivisible when
    p^scale_pow * A^(-1) fails to be integral.
    """
    det = A.det()
    t = 0
    while not det.is_unit():
        try:
            det = det.div_p_exact(1)
        except NotDivisible:
            raise SingularMatrix("determinant is not p-power times a unit") from None
        except PrecisionExhausted:
            raise SingularMatrix("determinant vanishes at working precision") from None
        t += 1
    num = A.adjugate().scale(det.invert())
    if scale_pow >= t:
        return num.mul_p_pow(scale_pow - t)
    return num.map_entries(lambda x: x.div_p_exact(t - scale_pow))


def twisted_chain(A: RingMatrix, n: int, twist) -> RingMatrix:
    """A * twist(A) * twist^2(A) * ... * twist^n(A), twisting entrywise."""
    prod = A
    term = A
    for _ in range(n):
        term = term.map_entries(twist)
        prod = prod @ term
    return prod


@dataclass
class ConvergenceVerdict:
    """Outcome of the at-precision test of an infinite twisted product."""

    zero: bool
    steps: int | None = None
    witness: RingMatrix | None = None

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
