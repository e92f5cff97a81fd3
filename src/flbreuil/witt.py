"""Arithmetic in W(F_{p^f}) truncated at a fixed absolute p-adic precision.

The ring is modelled as Z[T]/(p^N, m(T)) where m is a fixed monic lift of an
irreducible degree-f polynomial over F_p.  This is the length-N truncation of
the unramified extension of Z_p with residue field F_{p^f}; for f = 1 it is
plain Z/p^N.

Precision follows a flat model: every scalar carries one absolute precision
``prec`` (the value is known modulo p^prec), binary operations keep the
minimum of the two input precisions, and exact division by p^k lowers the
precision by k.  Multiplication by p^k raises it by k, capped at the ring
cap.  A series or an element of S carries one such precision for all its
coefficients.  ``_FlatValue``, the base of ``WittScalar`` and of
``_FlatVector`` (series and S), is the one home of these rules: truncation,
exact division and multiplication by p^k, negation, the valuation and the
zero test are written there once.

The irreducibility of m is decided where the ring is built, by the ring's
own products at one digit: m of degree f is irreducible mod p exactly when
gcd(T^(p^i) - T, m) is a constant over F_p for 1 <= i <= f/2 (M. Ben-Or,
"Probabilistic algorithms in finite fields", FOCS 1981), the gcd taken on
coefficient lists (``_fp_gcd`` on ``_fp_mod``).  T^p, the residue of the
Frobenius image of T, is the same product.

The arithmetic Frobenius sends T to the unique root of m that is congruent
to T^p mod p; the image is Hensel-lifted once per ring and then applying the
Frobenius is a polynomial substitution.  It restricts to x -> x^p on the
residue field and has order f.

The Frobenius sigma generates the Galois group of W(F_{p^f}) over Z_p, so
the norm N(a) = a sigma(a) ... sigma^(f-1)(a) lies in Z/p^N, and a unit's
inverse is sigma(a) ... sigma^(f-1)(a) N(a)^(-1) (J.-P. Serre, *Local
Fields*, Ch. V): one modular inverse of an integer.  The Hensel lift of
the Frobenius image, which runs before sigma exists, carries its own
running inverse of m'(z).
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, count, zip_longest
from math import gcd
from operator import add, mul

from .errors import NotAUnit, NotDivisible, PrecisionExhausted


# --- polynomials over F_p, coefficient lists in ascending degree ---

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and _fp_trim(a):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _fp_trim(a)
    return a


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd over F_p of two coefficient lists, not made monic."""
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_mod(a, b, p)
    return a


@cache
def _find_irreducible(p: int, f: int) -> tuple[int, ...]:
    """Deterministically pick a monic irreducible degree-f lift over F_p:
    the first candidate (c_0, ..., c_{f-1}, 1), in the order of the
    integer sum c_t p^t, on which ``_WittRing`` builds at one digit.  Every
    degree has one (Gauss's count), so the search ends.  For f = 1 the
    polynomial is T itself, so the ring degenerates to Z/p^N.  The search
    runs once per (p, f) in a process: every context resolves its default
    modulus here, a cached lookup of ``ambient.shared_params`` included.
    """
    for n in count():
        m = tuple(n // p**t % p for t in range(f)) + (1,)
        try:
            _WittRing(p, f, m, 1)
        except ValueError:
            continue
        return m


def _trimmed(planes) -> tuple:
    """The planes cut after their last index that is nonzero in some plane."""
    n = 0
    for pl in planes:
        m = len(pl)
        while m > n and not pl[m - 1]:
            m -= 1
        if m > n:
            n = m
    if n < len(planes[0]):
        planes = tuple([pl[:n] for pl in planes])
    return planes


def _conv_into(out: list[int], x: list[int], y: list[int], w) -> None:
    """out[i + j] += w[i][j] * x[i] * y[j] (w = 1 when None), for i + j < len(out).

    The loop runs over the shorter vector, so a constant costs one pass over
    the other; w must be symmetric."""
    if len(x) > len(y):
        x, y = y, x
    n = len(out)
    ly = len(y)
    for i, a in enumerate(x[:n]):
        if a:
            e = i + ly if i + ly < n else n
            if w is None:
                out[i:e] = [c + a * b for c, b in zip(out[i:e], y)]
            else:
                out[i:e] = [c + a * b * r for c, b, r in zip(out[i:e], y, w[i])]


def _join(ints, B: int) -> int:
    """One int holding ints[v], each below 2^(8B), in the block of B bytes
    at byte v*B (see the layout comment of ``_WittRing``).  One block is its
    own int."""
    if len(ints) == 1:
        return ints[0]
    return int.from_bytes(b"".join([c.to_bytes(B, "little") for c in ints]), "little")


def _split(v: int, B: int, n: int) -> list:
    """The first n blocks of B bytes of the nonnegative int v, as ``_join``
    lays them out; blocks past the top of v read 0.  Each block is masked
    off the bottom of v, which then shifts down by one block.  A shift
    copies all of v, so past 16 blocks v is cut in halves first, which
    keeps the cost near-linear in n.  One block below 2^(8B) is v itself."""
    s = 8 * B
    if n > 16:
        h = n // 2
        return _split(v & ((1 << s * h) - 1), B, h) + _split(v >> s * h, B, n - h)
    if n == 1 and not v >> s:
        return [v]
    mask = (1 << s) - 1
    out = []
    for _ in range(n):
        out.append(v & mask)
        v >>= s
    return out


class _WittRing:
    """Context for W(F_{p^f}) mod p^cap: modulus tables and the Frobenius.

    p, f and cap arrive checked (``ambient._resolve_params``); m is checked
    here, monic of degree f and irreducible mod p, the one check of the
    ``m_coeffs`` a file carries."""

    def __init__(self, p: int, f: int = 1, m_coeffs=None, cap: int = 8):
        self.p = p
        self.f = f
        self.cap = cap
        self.pk = [p**i for i in range(cap + 1)]
        if m_coeffs is None:
            m_coeffs = _find_irreducible(p, f)
        m_coeffs = tuple(int(c) % self.pk[cap] for c in m_coeffs)
        if len(m_coeffs) != f + 1 or m_coeffs[-1] != 1:
            raise ValueError("m must be monic of degree f")
        self.m = m_coeffs
        # the planes of the constant one, as a trimmed vector stores them
        self._one_planes = ([1],) + ([0],) * (f - 1)
        # reduction rows: T^(f+i) expressed in degrees < f, mod p^cap
        self._redrows = tuple(self.make([0] * (f + i) + [1]).coeffs for i in range(f - 1))
        # Ben-Or: x runs through T^(p^i) at one digit, i = 1 .. f/2
        m_res = [c % p for c in m_coeffs]
        x = t = self.make([0, 1], 1)
        for _ in range(f // 2):
            x = x ** p
            if len(_fp_gcd((x - t).coeffs, m_res, p)) != 1:
                raise ValueError("m must be irreducible modulo p")
        # Frobenius: the coefficients of the image s of T and of its powers
        # s^1 .. s^(f-1), lifted once at full cap
        if f == 1:
            self._spow = None
        else:
            pows = [self._lift_frobenius_image()]
            for _ in range(f - 2):
                pows.append(pows[-1] * pows[0])
            self._spow = tuple(s.coeffs for s in pows)

    # --- raw coefficient tuples (length f, mod p^k) ---

    def _dot_tuple(self, pairs, k):
        """The sum of the products a*b over pairs of coefficient tuples,
        mod p^k: one unreduced accumulator, one fold through m(T) and one
        reduction."""
        mod = self.pk[k]
        f = self.f
        if f == 1:
            s = 0
            for a, b in pairs:
                s += a[0] * b[0]
            return (s % mod,)
        full = [0] * (2 * f - 1)
        for a, b in pairs:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        full[i + j] += ai * bj
        out = list(full[:f])
        for i in range(f, 2 * f - 1):
            c = full[i]
            if c:
                row = self._redrows[i - f]
                for j in range(f):
                    out[j] += c * row[j]
        return tuple(x % mod for x in out)

    def _draw(self, getrandbits, unit: bool) -> list:
        """f uniform draws from range(p^cap), each by the rejection loop of
        ``random.randrange``: bit_length(p^cap) bits from ``getrandbits``,
        redrawn while >= p^cap.  With ``unit`` the whole tuple is redrawn
        while no entry is prime to p."""
        mod = self.pk[self.cap]
        bits = mod.bit_length()
        f, p = self.f, self.p
        while True:
            t = []
            done = not unit
            for _ in range(f):
                c = getrandbits(bits)
                while c >= mod:
                    c = getrandbits(bits)
                t.append(c)
                if c % p:
                    done = True
            if done:
                return t

    def _lift_frobenius_image(self) -> "WittScalar":
        """The root of m congruent to T^p mod p, Hensel-lifted to full cap.

        Each step is z <- z - m(z) w, w <- w (2 - m'(z) w), with w a running
        inverse of m'(z) seeded by the residue-field inverse
        m'(z)^(p^f - 2) at one digit.  When z and w are right to c digits,
        the step makes both right to 2c: the new error of z is a multiple
        of the old one times the error of w, plus its square; the new w is
        off 1/m'(z) at the new z by a multiple of the square of the old
        distance, which is at most c-deep (the old error of w, plus the move
        of z).  So the precision doubles per step, and ``invert``, which
        needs the Frobenius, does not run."""
        cap = self.cap
        z = WittScalar(self, (0, 1) + (0,) * (self.f - 2), 1) ** self.p
        dm = [i * c for i, c in enumerate(self.m)][1:]

        def value(coeffs, z):
            # Horner evaluation at z of a polynomial with integer coefficients
            acc = self.zero(z.prec)
            for c in reversed(coeffs):
                acc = acc * z + self.from_int(c, z.prec)
            return acc

        w = value(dm, z) ** (self.p ** self.f - 2)
        two = self.from_int(2)
        cur = 1
        while cur < cap:
            cur = min(2 * cur, cap)
            # z and w are right to half of cur digits; one step makes their
            # representatives right to cur digits, so read them at cur
            z, w = WittScalar(self, z.coeffs, cur), WittScalar(self, w.coeffs, cur)
            z = z - value(self.m, z) * w
            w = w * (two - value(dm, z) * w)
        if any(value(self.m, z).coeffs):
            raise ArithmeticError("Frobenius lift failed to satisfy m")
        return z

    # --- flat vectors of scalars: the storage of series and S elements ---
    #
    # The layout.  A vector of n scalars at one precision k is stored as f
    # int lists of length n, the planes: plane t holds the T^t
    # coefficients, every entry in [0, p^k).  A packed product packs the f
    # planes of a coefficient into one int, plane t at bit t*W (``_pack``:
    # the T-polynomial at T = 2^W, Kronecker substitution), and, where a
    # product serves many outputs, the coefficients of one operand into one
    # int, coefficient i in the block of B bytes at byte i*B (``_join``).
    # ``packing(terms, top)`` gives W and B for a slot that sums ``terms``
    # products of ints below ``top``, a product weighted by w counting as w
    # terms.  Every term is nonnegative and their sum is below
    # terms * top^2 < 2^W, so bits d*W and up of a block hold exactly the
    # T-degree d part, and the 2f - 1 degrees fit in B = ceil((2f-1)W/8)
    # bytes: no carry crosses into the next degree or block.  ``_split``
    # reads the blocks back by shifts: it masks a block off the bottom and
    # shifts the int down by 8B bits, and since a shift copies the whole
    # int, it first cuts an int of more than 16 blocks in halves (so n
    # blocks cost about n log n block copies, not n^2/2).  ``read`` turns
    # sums into planes: the exact division by q and the product by u of
    # ``AmbientParams.gamma_scale``, when the binomial weights of S were
    # scaled away, around ``unfold`` (the fold of degrees f .. 2f-2 through
    # m(T) and one reduction); at f = 1 the three are one pass.
    #
    # Four routes use it, each sizing its slots by what it packs: the fused
    # dot (``dot_acc``, from p^cap, weighted by the binomials ``comb``);
    # the matrix product (``_FlatVector._matmul_planes``, from p^(K+V), K the
    # highest precision of an output entry, every packed coefficient
    # reduced mod p^(K+V) first); the tables of S (``_PackedTable``, from
    # p^cap); and the solve (``_FlatVector._solve_planes``, from p^(k+V),
    # one packed int per coefficient).  Merging them lost speed.  Medians
    # of 4 alternating pairs of ``perfbench/run.py --workload all
    # --seconds 1`` on a 2-vCPU Xeon (Python 3.11), tasks/s, every run
    # with 243 of 243 digests correct:
    #   * the dot as a 1 x 1 matrix product: verify-desk 63.5 -> 35.3,
    #     verify-f2 45.7 -> 27.0, cli-rank 42.7 -> 38.7; a length-2 product
    #     over S at p = 5 took 33.9 us instead of 12.4;
    #   * the solve as the degree-halving recursion of J. van der Hoeven
    #     ("Relax, but don't be too lazy", 2002) through the matrix
    #     product: a solve over S at d = 6, p = 5 took 124 ms instead of
    #     13.4, a series inverse at d = 4 313 ms instead of 6.6;
    #   * the fused dot on ``gamma_scale`` instead of ``comb``: a length-2
    #     product at p = 3, f = 2 took 25.8 us instead of 17.4 (a dot of
    #     three full-length pairs at p = 5 216 us instead of 279);
    #   * without the input-selected fast paths (the one-vector table
    #     apply, the product by one, the f = 1 branches of ``dot_acc``,
    #     ``_dot_tuple`` and ``frobenius_planes``, the unscaled product by a
    #     constant factor): verify-desk 61.2 -> 50.5, verify-f2 46.9 ->
    #     40.7, cli-rank 41.1 -> 35.2.
    # So each stays.  The one-vector table apply needs no branch of its
    # own: a table packs its columns, not the vectors, so a list of one
    # vector costs one sum of products (``_PackedTable``).
    #
    # The read-back by shifts against the one through bytes (``to_bytes``
    # and one ``from_bytes`` per block), on the same host, min of 7, at
    # B = 21: 2.29 -> 0.91 us at n = 8 blocks, 7.47 -> 3.75 at 30, 58.1 ->
    # 41.9 at 256, 233 -> 189 at 1024.  At B = 54 and n = 1024 it is 8%
    # slower (278 -> 299 us); no workload reads more than 30 blocks.  One
    # pass of the verify-desk pool reads 32,624 sums and draws 17,564
    # samples at f = 1, where ``pd._pd_random_calibrated`` is one flat loop
    # (a redraw while c >= p^cap or not c % p).  With the fused dot's
    # set-up in one pass over the rows, medians of 10 alternating pairs of
    # ``perfbench/run.py --workload all --seconds 30``, tasks/s, 243 of 243
    # digests correct: verify-desk 70.7 -> 78.9 (10 of 10 pairs better),
    # verify-f2 54.6 -> 56.2, cli-rank 51.4 -> 54.6.

    def to_planes(self, cols, k) -> tuple:
        """Planes of a list of coefficient tuples, reduced mod p^k."""
        mod = self.pk[k] if cols else 1
        return tuple([c[t] % mod for c in cols] for t in range(self.f))

    def packing(self, terms: int, top: int | None = None) -> tuple:
        """The slot width W and the block size B (in bytes) of a slot that
        sums ``terms`` products of two nonnegative ints below ``top``
        (p^cap when None): the one packing rule (see the layout comment)."""
        top = self.pk[self.cap] if top is None else top
        width = terms.bit_length() + 2 * top.bit_length()
        return width, ((2 * self.f - 1) * width + 7) // 8

    def read(self, sums, width: int, k: int, post=None) -> tuple:
        """The planes, reduced mod p^k, of a list of packed sums at slot
        width W: with ``post``, pairs (q, u) zipped with the sums, each sum
        is divided by q exactly before ``unfold`` and multiplied by u
        after it (``AmbientParams.gamma_scale``); at f = 1, where
        ``unfold`` is the reduction, the three run in one pass."""
        if post is None:
            return self.unfold(sums, width, k)
        mod = self.pk[k]
        if self.f == 1:
            return ([v // q * u % mod for v, (q, u) in zip(sums, post)],)
        planes = self.unfold([v // q for v, (q, _) in zip(sums, post)], width, k)
        return tuple([c * u % mod for c, (_, u) in zip(pl, post)] for pl in planes)

    def dot_acc(self, pairs, n: int, weights=None, w_max: int = 1) -> tuple:
        """The packed accumulator of the sum of the products of the
        plane-vector pairs (xs, ys), cut at length n and unreduced, and its
        slot width W: slot d of entry m (bits d*W and up) sums the
        convolutions of planes s and t with s + t = d, over every pair,
        from one integer convolution per pair (times weights[i][j] <= w_max,
        when given), at most len(pairs) * n * f terms.  ``unfold`` turns it
        into planes.  At f = 1 the pack is the plane itself; at f > 1 an
        operand is packed only below n, the indices an entry below n
        reads."""
        acc = [0] * n
        width = self.packing(len(pairs) * n * self.f * w_max)[0]
        if self.f == 1:
            for xs, ys in pairs:
                _conv_into(acc, xs[0], ys[0], weights)
            return acc, width
        for xs, ys in pairs:
            _conv_into(acc, self._pack(xs, width, n), self._pack(ys, width, n), weights)
        return acc, width

    def _pack(self, xs, width: int, n: int | None = None) -> list:
        """One int per coefficient: plane t at bits t*width and up; only the
        first n coefficients when n is given."""
        out = xs[0] if n is None else xs[0][:n]
        for t in range(1, self.f):
            shift = t * width
            out = [a + (b << shift) for a, b in zip(out, xs[t])]
        return out

    def _unpack(self, acc: list, width: int) -> list:
        """The accumulator by T-degree of a list of packed products: slot d
        of each entry is bits d*width and up."""
        mask = (1 << width) - 1
        return [[(v >> (d * width)) & mask for v in acc] for d in range(2 * self.f - 1)]

    def unfold(self, acc: list, width: int, k: int) -> tuple:
        """The planes, reduced mod p^k, of a list of packed products (slot
        d of each entry, bits d*width and up, is its T-degree d part): the
        unpack, the fold through m(T) and the reduction in one pass.  At
        f = 1 the list is the plane.  At f = 2 the top slot is degree 2,
        and T^2 = r_0 + r_1 T (``_redrows``), so plane t is slot t plus
        r_t times the top slot; fold(_unpack(...)) gives the same ints."""
        mod = self.pk[k]
        if self.f == 1:
            return ([v % mod for v in acc],)
        if self.f == 2:
            mask, top = (1 << width) - 1, 2 * width
            r0, r1 = self._redrows[0]
            return ([((v & mask) + r0 * (v >> top)) % mod for v in acc],
                    [((v >> width & mask) + r1 * (v >> top)) % mod for v in acc])
        return self.fold(self._unpack(acc, width), k)

    def fold(self, acc, k) -> tuple:
        """Fold T-degrees f .. 2f-2 of an accumulator through m(T) and
        reduce mod p^k: the planes of the product."""
        f = self.f
        out = acc[:f]
        for d in range(f, len(acc)):
            src = acc[d]
            for t, r in enumerate(self._redrows[d - f]):
                if r:
                    out[t] = [a + b * r for a, b in zip(out[t], src)]
        return self.truncate_planes(out, k)

    def truncate_planes(self, xs, k: int) -> tuple:
        mod = self.pk[k]
        return tuple([c % mod for c in x] for x in xs)

    def frobenius_planes(self, xs, k: int) -> tuple:
        """The arithmetic Frobenius applied to every entry, mod p^k."""
        if self.f == 1:
            return xs
        out = [list(xs[0])] + [[0] * len(xs[0]) for _ in range(self.f - 1)]
        for t in range(1, self.f):
            src = xs[t]
            for s, r in enumerate(self._spow[t - 1]):
                if r:
                    out[s] = [a + b * r for a, b in zip(out[s], src)]
        return self.truncate_planes(out, k)

    # --- scalar factory ---

    def make(self, coeffs, prec: int | None = None) -> "WittScalar":
        """Build a scalar from integer coefficients (any length, reduced mod
        m from the top degree down: T^d = -T^(d-f) (m_0 + ... + m_{f-1} T^(f-1)))
        to ``prec`` digits, the cap when None; PrecisionExhausted outside
        [1, cap]."""
        prec = self.cap if prec is None else prec
        if prec < 1 or prec > self.cap:
            raise PrecisionExhausted(f"precision {prec} outside [1, {self.cap}]")
        f = self.f
        coeffs = [int(c) for c in coeffs]
        while len(coeffs) > f:
            top = coeffs.pop()
            for i in range(f):
                coeffs[len(coeffs) - f + i] -= top * self.m[i]
        mod = self.pk[prec]
        return WittScalar(self, tuple(c % mod for c in coeffs + [0] * (f - len(coeffs))), prec)

    def from_int(self, n: int, prec: int | None = None) -> "WittScalar":
        return self.make([n], prec)

    def zero(self, prec: int | None = None) -> "WittScalar":
        return self.from_int(0, prec)

    def one(self) -> "WittScalar":
        return self.from_int(1)

    def random(self, rng) -> "WittScalar":
        return WittScalar(self, tuple(self._draw(rng.getrandbits, False)), self.cap)

    def random_unit(self, rng) -> "WittScalar":
        return WittScalar(self, tuple(self._draw(rng.getrandbits, True)), self.cap)


class _PackedTable:
    """A W(k)-linear map on coefficient vectors, built whole from its
    columns: ``columns[i]``, in planes, is the image of the i-th basis
    vector, with entries below p^cap.

    With n columns, (W, B) = ``ring.packing(n*f)``: cols[i] is column i in
    the layout of ``witt`` (entry m in the block at byte m*B, its T-planes
    packed at width W) and reach[i] the largest support among columns
    0 .. i.  The image of a vector s is sum_i s_i cols[i], one sum of
    packed products per vector: block m sums at most n*f products per
    T-degree of ints below p^cap."""

    __slots__ = ("ring", "width", "block", "cols", "reach")

    def __init__(self, ring: _WittRing, columns):
        self.ring = ring
        self.width, self.block = ring.packing(len(columns) * ring.f)
        self.cols = [_join(ring._pack(planes, self.width), self.block) for planes in columns]
        self.reach = list(accumulate((len(planes[0]) for planes in columns), max))

    def apply(self, vectors, ks) -> list:
        """The planes of the images of the vectors with these planes, each
        reduced mod its p^k (``ks``, one per vector), up to the reach of the
        columns it meets."""
        ring, width = self.ring, self.width
        out = []
        for planes, k in zip(vectors, ks):
            s = ring._pack(planes, width)
            top = self.reach[len(s) - 1] if s else 0
            out.append(ring.read(_split(sum(map(mul, s, self.cols)), self.block, top), width, k))
        return out


class _FlatValue:
    """The flat precision model, shared by scalars and by the elements of
    W(k)[[u]] and S: the one home of its rules.

    A value is known modulo p^prec, every stored int is reduced mod p^prec,
    and the ring cap bounds prec.  Truncation, exact division and
    multiplication by p^k, negation, the valuation and the zero test read
    and rewrite the stored ints through two hooks: ``_ints()`` yields every
    one of them, and ``_map(fn, prec)`` builds a value of the same kind with
    ``fn`` applied to each int list.  Sums, products and inverses stay with
    each kind, whose storage they walk.
    """

    __slots__ = ()

    def __neg__(self):
        mod = self.ring.pk[self.prec]
        return self._map(lambda xs: [(-c) % mod for c in xs], self.prec)

    def truncate(self, k: int):
        if k >= self.prec:
            return self
        if k < 1:
            raise PrecisionExhausted("cannot truncate below one digit")
        mod = self.ring.pk[k]
        return self._map(lambda xs: [c % mod for c in xs], k)

    def div_p_exact(self, k: int = 1):
        """Exact division by p^k (k >= 0); lowers precision by k."""
        if k < 0:
            raise ValueError(f"negative power p^{k}: use mul_p_pow")
        if k == 0:
            return self
        if self.prec - k < 1:
            raise PrecisionExhausted(f"division by p^{k} from precision {self.prec}")
        q = self.ring.pk[k]
        if any(c % q for c in self._ints()):
            raise NotDivisible(f"not divisible by p^{k}")
        return self._map(lambda xs: [c // q for c in xs], self.prec - k)

    def mul_p_pow(self, k: int):
        """Exact multiplication by p^k (k >= 0); raises precision up to the
        ring cap."""
        if k < 0:
            raise ValueError(f"negative power p^{k}: use div_p_exact")
        if k == 0:
            return self
        ring = self.ring
        prec = min(self.prec + k, ring.cap)
        # p^k is 0 mod p^cap once k >= cap
        q, mod = ring.pk[min(k, ring.cap)], ring.pk[prec]
        return self._map(lambda xs: [c * q % mod for c in xs], prec)

    def valuation(self) -> int:
        """min v_p over the stored ints; prec for a value that is zero at its
        own precision (nothing deeper can be certified)."""
        g = gcd(*self._ints())
        if not g:
            return self.prec
        v, p = 0, self.ring.p
        while g % p == 0:
            g //= p
            v += 1
        return v

    def is_zero_at(self, k: int) -> bool:
        """Zero modulo p^k (k >= 0; vacuously true at k = 0)."""
        if k < 0:
            raise ValueError(f"zero test at negative precision p^{k}")
        if self.prec < k:
            raise PrecisionExhausted(f"zero test at p^{k} but only {self.prec} digits known")
        q = self.ring.pk[k]
        return not any(c % q for c in self._ints())

    def eq_at(self, other, k: int) -> bool:
        return (self - other).is_zero_at(k)


class WittScalar(_FlatValue):
    """Element of W(F_{p^f}) known modulo p^prec."""

    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring: _WittRing, coeffs: tuple[int, ...], prec: int):
        self.ring = ring
        self.coeffs = coeffs
        self.prec = prec

    # arithmetic combines precision by min(); representatives stay canonical

    def __add__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        r = self.ring
        k = min(self.prec, other.prec)
        mod = r.pk[k]
        return WittScalar(r, tuple((a + b) % mod for a, b in zip(self.coeffs, other.coeffs)), k)

    def __sub__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        r = self.ring
        k = min(self.prec, other.prec)
        mod = r.pk[k]
        return WittScalar(r, tuple((a - b) % mod for a, b in zip(self.coeffs, other.coeffs)), k)

    def __mul__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        r = self.ring
        k = min(self.prec, other.prec)
        return WittScalar(r, r._dot_tuple(((self.coeffs, other.coeffs),), k), k)

    def __pow__(self, n: int):
        """self^n by square-and-multiply (n >= 0)."""
        if n < 0:
            raise ValueError("negative powers: use invert() first")
        acc, a = WittScalar(self.ring, (1,) + (0,) * (self.ring.f - 1), self.prec), self
        while n:
            if n & 1:
                acc = acc * a
            n >>= 1
            if n:
                a = a * a
        return acc

    def __eq__(self, other):
        # exact representation equality; use eq_at() for at-precision tests
        return (
            isinstance(other, WittScalar)
            and self.ring is other.ring
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ring), self.coeffs, self.prec))

    def _ints(self):
        return self.coeffs

    def _map(self, fn, prec: int) -> "WittScalar":
        return WittScalar(self.ring, tuple(fn(self.coeffs)), prec)

    def __repr__(self):
        if self.ring.f == 1:
            return f"W({self.coeffs[0]} ~p^{self.prec})"
        return f"W({list(self.coeffs)} ~p^{self.prec})"

    def frobenius(self) -> "WittScalar":
        """The substitution T -> sigma(T): coefficient t times the
        coefficients of sigma(T)^t, summed, mod p^prec."""
        r = self.ring
        if r.f == 1:
            return self
        a = self.coeffs
        out = [a[0]] + [0] * (r.f - 1)
        for c, spow in zip(a[1:], r._spow):
            if c:
                out = [x + c * s for x, s in zip(out, spow)]
        mod = r.pk[self.prec]
        return WittScalar(r, tuple(x % mod for x in out), self.prec)

    def is_unit(self) -> bool:
        return any(c % self.ring.p for c in self.coeffs)

    def invert(self) -> "WittScalar":
        """The inverse at this precision by the norm: with
        conj = sigma(a) ... sigma^(f-1)(a) (1 at f = 1), N = a * conj is
        fixed by sigma, so it lies in Z/p^prec, and a^(-1) = conj * N^(-1).
        A T-coefficient of N that is not zero breaks that invariant and
        raises ArithmeticError."""
        if not self.is_unit():
            raise NotAUnit("cannot invert: zero modulo p")
        r, k = self.ring, self.prec
        conj, s = (1,) + (0,) * (r.f - 1), self
        for _ in range(r.f - 1):
            s = s.frobenius()
            conj = r._dot_tuple(((conj, s.coeffs),), k)
        norm = r._dot_tuple(((self.coeffs, conj),), k)
        if any(norm[1:]):
            raise ArithmeticError(f"norm {norm} of a unit is not in Z/p^{k}")
        mod = r.pk[k]
        n_inv = pow(norm[0], -1, mod)
        return WittScalar(r, tuple(c * n_inv % mod for c in conj), k)

    @staticmethod
    def dot(xs, ys) -> "WittScalar":
        """The sum of the products x*y over two equally long rows, reduced
        once at the lowest precision of both rows."""
        r = xs[0].ring
        k = min(min(x.prec for x in xs), min(y.prec for y in ys))
        return WittScalar(r, r._dot_tuple([(x.coeffs, y.coeffs) for x, y in zip(xs, ys)], k), k)

    @staticmethod
    def matmul(rows, cols) -> list:
        """The entries of a matrix product over W(k): one ``dot`` of each
        row of ``rows`` with each column of ``cols``."""
        return [[WittScalar.dot(row, col) for col in cols] for row in rows]

    def residue(self) -> tuple[int, ...]:
        return tuple(c % self.ring.p for c in self.coeffs)

    def lift_residue(self, t) -> "WittScalar":
        """The constant of this ring whose residue is the tuple t."""
        return self.ring.make(t)


class _FlatVector(_FlatValue):
    """Arithmetic shared by the elements of W(k)[[u]] and of S.

    An element is a vector of scalars (its u^i or gamma_i coefficients) at
    one precision ``prec``, stored as planes (see ``_WittRing.to_planes``)
    cut after the last nonzero entry.  Sums, products, ``dot``, ``matmul``,
    ``solve`` and ``invert`` are written here once; two kinds do not
    combine.  A kind builds its results through ``_make(planes, prec)``,
    names the failure of ``invert`` in ``_invert_error`` and gives, in
    ``_grading(amb)``, its cut, the weights of ``_dot_planes`` with their
    bound, and the source of the ``scale`` of the matrix kernels: N_gamma,
    the binomials and ``gamma_scale`` for S; N_u, None, 1 and None for the
    series ring.
    """

    __slots__ = ("amb", "planes", "prec")

    @property
    def ring(self) -> _WittRing:
        return self.amb.ring

    @staticmethod
    def _from_scalars(amb, coeffs, prec: int | None) -> tuple:
        """The planes of a list of scalars and their precision: the lowest of
        the scalars' and ``prec`` (when given); the ring cap for the empty
        list without ``prec``."""
        k = min((c.prec for c in coeffs), default=amb.cap)
        if prec is not None:
            k = min(k, prec)
        if k < 1:
            raise PrecisionExhausted(f"precision {k} outside [1, {amb.cap}]")
        return amb.ring.to_planes([c.coeffs for c in coeffs], k), k

    def _ints(self):
        return chain.from_iterable(self.planes)

    def _map(self, fn, prec: int):
        return self._make(tuple(fn(pl) for pl in self.planes), prec)

    def _sum(self, other, sub: bool = False):
        """self + other (or self - other), at the lower precision;
        NotImplemented for two kinds."""
        if type(other) is not type(self):
            return NotImplemented
        k = min(self.prec, other.prec)
        mod = self.ring.pk[k]
        pairs = [zip_longest(x, y, fillvalue=0) for x, y in zip(self.planes, other.planes)]
        if sub:
            planes = tuple([(a - b) % mod for a, b in pr] for pr in pairs)
        else:
            planes = tuple([(a + b) % mod for a, b in pr] for pr in pairs)
        return self._make(planes, k)

    def __add__(self, other):
        return self._sum(other)

    def __sub__(self, other):
        return self._sum(other, sub=True)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dot((self,), (other,))

    @staticmethod
    def dot(xs, ys):
        """The sum of the products x*y over two equally long rows: the fused
        kernel ``_dot_planes`` with the kind's weights, cut at its index."""
        x0 = xs[0]
        cut, weights, w_max, _ = x0._grading(x0.amb)
        return x0._make(*_FlatVector._dot_planes(xs, ys, cut, weights, w_max))

    @staticmethod
    def matmul(rows, cols) -> list:
        """The entries of a matrix product: entry (i, j) equals
        ``dot(rows[i], cols[j])`` in planes and precision, from the packed
        kernel ``_matmul_planes``.  When every entry of one factor has
        support at most 1, each weight is C(m, 0) = 1, so the kernel packs
        unscaled."""
        x0 = rows[0][0]
        cut, weights, _, scale = x0._grading(x0.amb)
        constant = weights is None or any(
            all(len(x.planes[0]) <= 1 for line in m for x in line) for m in (rows, cols))
        grid = _FlatVector._matmul_planes(rows, cols, cut, None if constant else scale())
        return [[x0._make(planes, k) for planes, k in line] for line in grid]

    @staticmethod
    def solve(rows, inv0, rhs) -> list:
        """The entries of the X with A X = R, for A = ``rows`` (square, with
        ``inv0`` the inverse over W(k) of its degree-0 part) and R =
        ``rhs``: the triangular kernel ``_solve_planes`` with the kind's
        ``scale``, cut at its index."""
        x0 = rows[0][0]
        cut, weights, _, scale = x0._grading(x0.amb)
        grid, k = _FlatVector._solve_planes(rows, inv0, rhs, cut,
                                            None if weights is None else scale())
        return [[x0._make(planes, k) for planes in line] for line in grid]

    @staticmethod
    def _dot_planes(xs, ys, bound: int, weights=None, w_max: int = 1):
        """The fused kernel behind ``dot`` and every product of two elements.

        Returns the planes of the sum of the products x*y over two equally
        long rows, cut at index ``bound``, and their precision (the lowest
        of both rows).  Each pair is one integer convolution of its packed
        planes (weighted, for S, by weights of at most ``w_max``) into one
        unreduced accumulator (``_WittRing.dot_acc``); one
        ``_WittRing.unfold`` (the unpack, the fold through m(T) and the
        reduction mod p^k) then serves the whole sum.  A pair with a zero
        entry adds nothing.  When one pair is left and one of its factors
        is the constant one (planes ``_WittRing._one_planes``, whose weights
        C(j, 0) are 1), the sum is the other factor: its planes are cut at
        index ``bound`` and reduced mod p^k, and nothing is convolved.  The
        precision, the pairs and their reach come from one pass over the
        rows."""
        ring = xs[0].ring
        k, pairs, reach = ring.cap, [], 0
        for x, y in zip(xs, ys):
            if x.prec < k:
                k = x.prec
            if y.prec < k:
                k = y.prec
            a, b = x.planes, y.planes
            if a[0] and b[0]:
                pairs.append((a, b))
                s = len(a[0]) + len(b[0]) - 1
                if s > reach:
                    reach = s
        n = reach if reach < bound else bound
        if len(pairs) == 1:
            a, b = pairs[0]
            if a == ring._one_planes:
                a, b = b, a
            if b == ring._one_planes:
                return ring.truncate_planes([pl[:n] for pl in a], k), k
        return ring.unfold(*ring.dot_acc(pairs, n, weights, w_max), k), k

    @staticmethod
    def _matmul_planes(rows, cols, n: int, scale=None) -> list:
        """The packed kernel behind the matrix products of series and of S.

        Returns, for each row of ``rows`` and each column of ``cols`` (two
        lists of equally long lists of elements), the pair that
        ``_dot_planes(row, col, n)`` returns: the planes of the sum of the
        products cut at index n and their precision (the lowest of both
        rows).  Each entry of both operands is packed once into one int in
        the layout of ``witt``, with (W, B) = ``packing(e*n*f, p^(K+V))``
        for the inner dimension e and K = min(largest row precision,
        largest column precision), the highest precision an output entry
        has: every packed coefficient is reduced mod p^(K+V) first, and an
        output of precision k <= K reads only its digits below p^k.  An output entry is one sum of e big-int
        products, a packed row against a packed column; the rows are packed
        and summed one at a time, each sum unpacked before the next row is
        packed.  A sum is read up to its reach, as in ``_dot_planes``: the
        largest s_x + s_y - 1 over the pairs whose entries are both
        nonzero.

        ``scale`` = (V, pre, post) removes the binomial weights of S
        (``AmbientParams.gamma_scale``): coefficient i of every entry is
        multiplied by pre[i] mod p^(K+V) before packing, and ``read``
        divides slot m, every T-degree of which is a multiple of q, by q
        and multiplies it by u, (q, u) = post[m].  That is the weighted sum
        mod p^K: the reduction moves a term x_i y_j by a multiple of
        p^(K+V) p^(V - v_p(j!)) or p^(K+V) p^(V - v_p(i!)), and v_p(i!),
        v_p(j!) <= v_p(m!), so the quotient moves by a multiple of p^K.
        Without ``scale`` (the series ring, and a product over S with a
        factor of constants, whose weights are all C(m, 0) = 1) V is 0 and
        the slots are the plain sums."""
        ring = rows[0][0].ring
        f, e = ring.f, len(cols[0])
        V, pre, post = scale if scale else (0, None, None)
        row_prec = [min(x.prec for x in row) for row in rows]
        col_prec = [min(y.prec for y in col) for col in cols]
        K = min(max(row_prec), max(col_prec))
        mod = ring.p ** (K + V)
        width, block = ring.packing(e * n * f, mod)

        def pack(x) -> int:
            planes = x.planes
            if not planes[0]:
                return 0
            if scale:
                planes = [[c * s % mod for c, s in zip(pl, pre)] for pl in planes]
            elif x.prec > K:
                planes = [[c % mod for c in pl] for pl in planes]
            return _join(ring._pack(planes, width), block)

        # supports, with a zero entry far below any sum so that its pairs
        # reach nothing
        none = -2 * n - 2
        r_sup = [[len(x.planes[0]) or none for x in row] for row in rows]
        c_sup = [[len(y.planes[0]) or none for y in col] for col in cols]
        packed_cols = [[pack(y) for y in col] for col in cols]
        out = []
        for row, rs, row_k in zip(rows, r_sup, row_prec):
            r = [pack(x) for x in row]
            line = []
            for c, cs, k in zip(packed_cols, c_sup, col_prec):
                k = min(k, row_k)
                reach = max(max(map(add, rs, cs)) - 1, 0)
                acc = sum(map(mul, r, c))
                planes = ring.read(_split(acc, block, min(reach, n)), width, k, post)
                line.append((planes, k))
            out.append(line)
        return out

    @staticmethod
    def _solve_planes(rows, inv0, rhs, n: int, scale=None) -> tuple:
        """The triangular kernel behind every solve and inverse over
        W(k)[[u]] and S.

        For a square A (``rows``, d lists of d elements), the inverse over
        W(k) of its degree-0 part A_0 (``inv0``, scalars at precision k)
        and R (``rhs``, d lists of g elements), returns the planes of the X
        with A X = R, cut at index n (d lists of g planes), and their
        precision k, the lowest among the entries of A and R.

        Degree m of A X is the sum over i <= m of C(m, i) A_i X_(m-i)
        (weights 1 in the series ring).  So with A~_i = A_0^(-1) A_i and
        R~_m = A_0^(-1) R_m, formed first,
        X_m = R~_m - sum_{i=1..m} C(m, i) A~_i X_(m-i), one degree at a
        time.  Each step is exact mod p^k in the truncated ring, so X is
        the unique solution there.

        Every scalar is reduced mod p^(k+V) and packed into one int at the
        width W of ``packing(n*d*f, p^(k+V))``.  Degree m is one ``read``
        of d*g sums, a row of packed A~_i against the packed X_(m-1),
        X_(m-2), ... of a column.  ``scale`` = (V, pre, post) removes the
        binomial weights of S as in ``_matmul_planes``: A~_i and X_j are
        packed times pre[i] and pre[j] mod p^(k+V), and the sums of degree
        m are read with post[m].  The pass stops once R is spent and the
        s_A - 1 degrees of X the next sum reads are zero."""
        ring = rows[0][0].ring
        f, d, g = ring.f, len(rows), len(rhs[0])
        k = min(x.prec for m in (rows, rhs) for row in m for x in row)
        mod = ring.pk[k]
        V, pre, post = scale if scale else (0, None, None)
        big = ring.p ** (k + V)
        width = ring.packing(n * d * f, big)[0]
        s_a = max(len(x.planes[0]) for row in rows for x in row)
        s_r = max((len(x.planes[0]) for row in rhs for x in row), default=0)

        def packed(matrix, lo, hi) -> list:
            # coefficients lo .. hi-1 of every entry, in the order
            # (degree, column, row)
            cols = list(zip(*matrix))
            return ring._pack(tuple([x.planes[t][i] % mod if i < len(x.planes[t]) else 0
                                     for i in range(lo, hi) for col in cols for x in col]
                                    for t in range(f)), width)

        inv = ring._pack(tuple([x.coeffs[t] % mod for row in inv0 for x in row]
                               for t in range(f)), width)
        inv_rows = [inv[a * d:(a + 1) * d] for a in range(d)]
        cols = packed(rows, 1, s_a) + packed(rhs, 0, s_r)
        # entry a of block j: row a of A_0^(-1) times column j of A_1, A_2,
        # ... (A~_i, (s_a - 1) d blocks) and then of R_0, R_1, ... (R~_m)
        tilde = ring.read([sum(map(mul, r, cols[j:j + d]))
                           for j in range(0, len(cols), d) for r in inv_rows], width, k)
        split = (s_a - 1) * d * d
        if scale:
            fac = [pre[i] for i in range(1, s_a) for _ in range(d)]
            a_rows = [ring._pack(tuple([c * s % big for c, s in zip(pl[a:split:d], fac)]
                                       for pl in tilde), width) for a in range(d)]
        else:
            a_rows = [ring._pack(tuple(pl[a:split:d] for pl in tilde), width) for a in range(d)]
        # column b of X_j, packed, at block n - 1 - j of x_rev[b]
        x_rev = [[0] * (n * d) for _ in range(g)]
        xs, last, gd = [], -1, g * d
        for m in range(n):
            if m >= s_r and last < max(0, m - s_a + 1):
                break
            span = min(m, s_a - 1)
            if m < s_r:
                lo = split + m * gd
                planes = tuple(pl[lo:lo + gd] for pl in tilde)
            else:
                planes = tuple([0] * gd for _ in range(f))
            if span:
                start = (n - m) * d
                stop = start + span * d
                acc = [sum(map(mul, ar, win)) for win in (xr[start:stop] for xr in x_rev)
                       for ar in a_rows]
                sub = ring.read(acc, width, k, [post[m]] * len(acc) if scale else None)
                planes = tuple([(r - c) % mod for r, c in zip(rp, cp)]
                               for rp, cp in zip(planes, sub))
            xs.append(planes)
            if any(map(any, planes)):
                last = m
            if scale:
                s = pre[m]
                new = ring._pack(tuple([c * s % big for c in pl] for pl in planes), width)
            else:
                new = ring._pack(planes, width)
            pos = (n - 1 - m) * d
            for b, xr in enumerate(x_rev):
                xr[pos:pos + d] = new[b * d:(b + 1) * d]
        xs = xs[:last + 1]
        grid = [[tuple([xm[t][b * d + a] for xm in xs] for t in range(f)) for b in range(g)]
                for a in range(d)]
        return grid, k

    def is_unit(self) -> bool:
        p = self.ring.p
        return any(pl[0] % p for pl in self.planes if pl)

    def residue(self) -> tuple[int, ...]:
        p = self.ring.p
        return tuple(pl[0] % p if pl else 0 for pl in self.planes)

    def lift_residue(self, t):
        """The constant of the same ring whose residue is the tuple t."""
        return type(self)(self.amb, [self.ring.make(t)])

    def invert(self):
        """The inverse of a unit: the 1 x 1 case of ``solve``, from the
        inverse of the constant coefficient over W(k), at this precision."""
        if not self.is_unit():
            raise NotAUnit(self._invert_error)
        one = self.lift_residue((1,) + (0,) * (self.ring.f - 1))
        return self.solve(((self,),), ((self.coeff(0).invert(),),), ((one,),))[0][0]
