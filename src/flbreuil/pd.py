"""The divided-power ring S in its gamma-basis, truncated.

With E(u) = u + p*a of degree one, S (the p-adically completed divided-power
envelope of W(k)[u] along E) has the topological W(k)-basis

    gamma_i = E(u)^i / i!,   i >= 0,

multiplying by gamma_i * gamma_j = C(i+j, i) * gamma_{i+j}.

Truncation.  Elements live in S/Fil^{N_gamma} S and keep the indices
0 .. N_gamma-1.  Fil^{N_gamma} S, the span of the gamma_i with
i >= N_gamma, is an ideal by the product rule, so the cut is a ring map,
and every map into S follows one rule: what lies past N_gamma is dropped
(products, ``_pd_shift``, the powers of u and c, ``_embed_sigma``).  The
dropped tail can reach the top coefficient, index N_gamma - 1 (see N
below), so comparisons in S (``eq_at``) read the indices below it only.
The structure maps act termwise, and none of them sees the unread indices
at the public precision N_p:

  * Fil^j S is the span of gamma_i with i >= j, so filtration valuation is
    the index of the first coefficient that is nonzero at precision; the
    tests read only the indices below j <= r.
  * phi(gamma_i) = (p^i / i!) * c^i with c = phi(E)/p = (u^p + p*sigma(a))/p.
    ``ambient._min_N_gamma`` keeps N_gamma(p-2)/(p-1) >= N_p + r, and
    v_p(i!) <= (i-1)/(p-1), so for i >= N_gamma - 1 the integer
    v_p(p^i/i!) is at least (i(p-2) + 1)/(p-1) > N_p + r - 1.  So phi of
    the unread indices lies in p^(N_p + r) S and the divided Frobenius
    phi_r = phi / p^r of it (one exact division, ``breuil._phi_r_apply``)
    in p^N_p S.
  * N(gamma_i) = -i*gamma_i + p*a*gamma_{i-1}, from N(u) = -u and the
    Leibniz rule.  The dropped tail reaches only the top coefficient
    (index N_gamma - 1) of N.
  * f_0 (u -> 0) sends gamma_i to (p*a)^i / i!, of the same valuation
    i - v_p(i!) >= N_p + r for i >= N_gamma - 1;
    f_pi (u -> pi = -p*a) kills every gamma_i with i >= 1 and reads off
    the gamma_0 coefficient.

Storage.  An element holds one precision ``prec`` and its coefficients as
plain ints, in the flat layout of ``_WittRing.to_planes``: f int lists, list
t holding the T^t coefficients of W(k) = Z[T]/(p^N, m(T)), every entry
reduced mod p^prec.  The lists stop at the support (one past the last
nonzero coefficient); the indices above it are zero.  Arithmetic is that of
``_FlatVector``, shared with W(k)[[u]]: ``_grading`` gives the cut N_gamma,
the binomials C(i+j, i) as the weights of the fused kernel
``_FlatVector._dot_planes`` (a product, or a sum of products: an entry of
``RingMatrix.matvec``), and ``AmbientParams.gamma_scale``, which removes
those weights in the packed kernel of a matrix product
(``_FlatVector._matmul_planes``, unscaled when one factor is constant) and
in the triangular kernel of a solve A X = R (``_FlatVector._solve_planes``,
behind ``RingMatrix.solve``, ``RingMatrix.invert`` and ``invert``), one
pass over the gamma-index from the inverse of A's gamma_0 part over W(k).
The fixed W(k)-linear maps, ``phi_S``, ``_embed_sigma``, the change to
u-divided coordinates (``to_u_divided``, ``_all_in_u_power_ideal``) and its
row 0, ``_eval_f0``, each read one ``witt._PackedTable`` built with the
context, in the one packed layout of ``witt``; the columns of the table
of ``phi_S`` are the images phi(gamma_i) themselves, so ``phi_S`` is
sigma on the coefficients and one apply.  A table applies to a list
of vectors at once, so ``_phi_S_all``, ``_embed_sigma_all`` and
``_all_in_u_power_ideal`` map a whole matrix with one apply; ``phi_S`` and
``_embed_sigma`` are their lists of one.  The derivation ``n_S`` multiplies
by p*a through the context's f x f integer matrix on T-planes
(``AmbientParams.pa_matrix``), with no packing.  Coefficient m of a
product reads only the coefficients <= m of its factors, so the first b
coefficients of M x, for a matrix M over S, are a W(k)-linear map of the
first b coefficients of x: the filtration tests of ``breuil`` read such
maps from tables kept with M.
``WittScalar`` objects are built only at the scalar boundary: ``coeff``,
``coeffs``, ``_eval_f0``, ``_eval_fpi``, ``to_u_divided``, the gamma_0 part
that a solve inverts over W(k), ``repr`` and the constructor from a list
of scalars.

A second exact coordinate system is used for ideal-membership tests: the
divided powers of u itself.  Since u = E - p*a,

    gamma_k = sum_{j<=k} ((p*a)^(k-j)/(k-j)!) * u^j/j!,

an integral triangular change of basis with integral inverse.  In the
u-divided coordinates x ~ (x_m), membership in u^n * S is the condition
x_m = 0 for m < n together with v_p(x_m) >= v_p(m!) - v_p((m-n)!) for
m >= n.  Both transforms are exact, so the test costs no precision.
"""

from __future__ import annotations

from .errors import DegreeOverflow
from .series import SigmaSeries
from .witt import WittScalar, _FlatVector, _trimmed


class PDElement(_FlatVector):
    """Element of S: coefficients for gamma_0 .. gamma_{N_gamma - 1}.

    ``PDElement(amb, coeffs)`` takes a list of scalars and keeps the lowest
    of their precisions (and ``prec``, when given); the kernel passes
    ``planes`` and ``prec`` instead."""

    __slots__ = ()
    _invert_error = "inverse in S needs a unit gamma_0 coefficient"

    def __init__(self, amb, coeffs=(), prec: int | None = None, planes=None):
        self.amb = amb
        if planes is None:
            coeffs = list(coeffs)
            if len(coeffs) > amb.N_gamma:
                raise DegreeOverflow("gamma index beyond truncation")
            planes, prec = self._from_scalars(amb, coeffs, prec)
        self.planes = _trimmed(planes)
        self.prec = prec

    def _make(self, planes, prec: int) -> "PDElement":
        return PDElement(self.amb, (), prec, planes)

    @staticmethod
    def _grading(amb) -> tuple:
        return amb.N_gamma, amb.comb, amb.comb_max, amb.gamma_scale

    def coeff(self, i: int) -> WittScalar:
        N = self.amb.N_gamma
        if not -N <= i < N:
            raise DegreeOverflow(f"gamma_{i} outside truncation")
        i %= N
        col = tuple(pl[i] if i < len(pl) else 0 for pl in self.planes)
        return WittScalar(self.amb.ring, col, self.prec)

    @property
    def coeffs(self) -> tuple[WittScalar, ...]:
        return tuple(self.coeff(i) for i in range(self.amb.N_gamma))

    def _head(self, n: int) -> "PDElement":
        """This element with the coefficients at index n and beyond dropped,
        at the same precision."""
        if len(self.planes[0]) <= n:
            return self
        return self._make(tuple(pl[:n] for pl in self.planes), self.prec)

    def eq_at(self, other: "PDElement", k: int) -> bool:
        """Equality mod p^k below the top coefficient, which the dropped
        tail can reach."""
        return (self - other)._head(self.amb.N_gamma - 1).is_zero_at(k)

    def support(self) -> int:
        """Index one past the last integer-nonzero coefficient."""
        return len(self.planes[0])

    def __repr__(self):
        terms = []
        for i, col in enumerate(zip(*self.planes)):
            if any(col):
                c = self.coeff(i)
                terms.append(f"{c!r}*g{i}" if i else f"{c!r}")
        body = " + ".join(terms) if terms else "0"
        return f"PD({body} ~p^{self.prec})"


def _pd_zero(amb) -> PDElement:
    return PDElement(amb, [])


def _pd_one(amb) -> PDElement:
    return PDElement(amb, [amb.ring.one()])


def _pd_from_scalar(amb, w: WittScalar) -> PDElement:
    return PDElement(amb, [w])


def _pd_gamma(amb, i: int, coeff: WittScalar | None = None) -> PDElement:
    if not 0 <= i < amb.N_gamma:
        raise DegreeOverflow(f"gamma_{i} outside truncation")
    coeff = amb.ring.one() if coeff is None else coeff
    zero = amb.ring.zero(coeff.prec)
    return PDElement(amb, [zero] * i + [coeff])


def _pd_shift(x: PDElement, t: int) -> PDElement:
    """The element whose gamma_(i+t) coefficient is the gamma_i coefficient
    of x, for t >= 0 (DegreeOverflow otherwise); indices pushed to N_gamma
    or beyond are dropped."""
    if t < 0:
        raise DegreeOverflow(f"shift by {t} below gamma_0")
    N = x.amb.N_gamma
    return PDElement(x.amb, (), x.prec, tuple(([0] * t + pl)[:N] for pl in x.planes))


def _embed_sigma(s: SigmaSeries) -> PDElement:
    """The inclusion of W(k)[[u]] into S/Fil^{N_gamma} S: the list of one of
    ``_embed_sigma_all``."""
    return _embed_sigma_all([s])[0]


def _embed_sigma_all(ss) -> list:
    """The inclusion of W(k)[[u]] into S/Fil^{N_gamma} S of every series of
    the list ss: substitute u = gamma_1 - p*a.  The degrees below N_gamma
    are one apply of the context's table of the gamma-coefficients of u^n
    to all of them; a series s of higher degree is s_low + u^N_gamma *
    s_high, with the s_high embedded the same way (at most p levels deep,
    as degrees stop below N_u) and the product truncated like every
    product."""
    if not ss:
        return []
    amb = ss[0].amb
    N = amb.N_gamma
    images = amb.u_table.apply([[pl[:N] for pl in s.planes] for s in ss], [s.prec for s in ss])
    out = [PDElement(amb, (), s.prec, planes) for s, planes in zip(ss, images)]
    long = [i for i, s in enumerate(ss) if len(s.planes[0]) > N]
    highs = _embed_sigma_all([ss[i]._make(tuple(pl[N:] for pl in ss[i].planes), ss[i].prec)
                             for i in long])
    for i, high in zip(long, highs):
        out[i] = out[i] + amb.u_pow(N) * high
    return out


def _fil_valuation(x: PDElement, at: int | None = None) -> int:
    """Largest j with all coefficients below index j zero at precision
    (mod p^at when given, at >= 0)."""
    if at is not None and at < 0:
        raise ValueError(f"filtration valuation at negative precision p^{at}")
    k = x.prec if at is None else min(at, x.prec)
    q = x.amb.ring.pk[k]
    for i, col in enumerate(zip(*x.planes)):
        if any(c % q for c in col):
            return i
    return x.amb.N_gamma


def phi_S(x: PDElement) -> PDElement:
    """Frobenius phi of S: the list of one of ``_phi_S_all``."""
    return _phi_S_all([x])[0]


def _phi_S_all(xs) -> list:
    """Frobenius phi of every element of the list xs: sigma on the
    coefficients, then one apply of the context's table of the images
    phi(gamma_i) = (p^i / i!) c^i (``AmbientParams.c_table``) to all of
    them, each image reduced mod p^k at the precision k of its element.
    The divided Frobenius phi_r = phi / p^r on Fil^r is this image divided
    exactly by p^r (``breuil._phi_r_apply``).
    """
    if not xs:
        return []
    amb = xs[0].amb
    frob = amb.ring.frobenius_planes
    outs = amb.c_table.apply([frob(x.planes, x.prec) for x in xs], [x.prec for x in xs])
    return [PDElement(amb, (), x.prec, out) for x, out in zip(xs, outs)]


def n_S(x: PDElement) -> PDElement:
    """The derivation with N(u) = -u: N(gamma_i) = -i gamma_i + p a gamma_{i-1}.

    Coefficient m of N(x) is p*a * x_(m+1) - m * x_m, mod p^k at the
    precision k of x.  The product by p*a is the context's f x f integer
    matrix on T-planes (``AmbientParams.pa_matrix``): plane s of
    p*a * x_(m+1) is the sum over t of its entry (s, t) times plane t of
    x_(m+1).  The coefficient at the top index misses the contribution of
    the dropped gamma_{N_gamma} term, so comparisons do not read it.
    """
    amb = x.amb
    mod = amb.ring.pk[x.prec]
    nxt = [pl[1:] + [0] for pl in x.planes]
    planes = []
    for row, pl in zip(amb.pa_matrix, x.planes):
        acc = [-m * c for m, c in enumerate(pl)]
        for coef, src in zip(row, nxt):
            if coef:
                acc = [a + coef * b for a, b in zip(acc, src)]
        planes.append([a % mod for a in acc])
    return PDElement(amb, (), x.prec, tuple(planes))


def _eval_f0(x: PDElement) -> WittScalar:
    """Evaluation at u = 0: gamma_i -> (p*a)^i / i!, the first u-divided
    coordinate, by the context's one-row table."""
    ring = x.amb.ring
    [planes] = x.amb.f0_table.apply([x.planes], [x.prec])
    return WittScalar(ring, next(zip(*planes), (0,) * ring.f), x.prec)


def _eval_fpi(x: PDElement) -> WittScalar:
    """Evaluation at u = pi = -p*a, where E vanishes: reads gamma_0."""
    return x.coeff(0)


def to_u_divided(x: PDElement) -> tuple[WittScalar, ...]:
    """Exact coordinates with respect to the divided powers u^m / m!:
    coordinate j is the sum over i >= j of x_i (p*a)^(i-j) / (i-j)!, so the
    coordinates past the support of x are zero."""
    amb = x.amb
    ring = amb.ring
    [planes] = amb.u_div_table.apply([x.planes], [x.prec])
    cols = list(zip(*planes))
    cols += [(0,) * ring.f] * (amb.N_gamma - len(cols))
    return tuple([WittScalar(ring, col, x.prec) for col in cols])


def _all_in_u_power_ideal(xs, n: int, at: int | None = None) -> bool:
    """Whether every element of the list xs lies in u^n * S at precision,
    tested in u-divided coordinates: one apply of the context's table
    gives the planes of their u-divided coordinates (zero past their
    length).

    u^n * S is spanned by u^m/(m-n)! for m >= n, so coordinate m must carry
    p-valuation at least v_p(m!) - v_p((m-n)!); coordinates below n vanish.
    Tested on the truncated shadow (indices below N_gamma), mod p^at when
    given (at >= 0).
    """
    if at is not None and at < 0:
        raise ValueError(f"ideal test at negative precision p^{at}")
    if not xs:
        return True
    amb = xs[0].amb
    pk, vfact = amb.ring.pk, amb.vfact
    for x, coords in zip(xs, amb.u_div_table.apply([x.planes for x in xs],
                                                   [x.prec for x in xs])):
        k = x.prec if at is None else min(at, x.prec)
        for m in range(len(coords[0])):
            need = k if m < n else min(vfact[m] - vfact[m - n], k)
            if need > 0:
                q = pk[need]
                for pl in coords:
                    if pl[m] % q:
                        return False
    return True


def _pd_random_calibrated(amb, rng, max_index: int, max_val: int) -> PDElement:
    """Random element whose coefficients are exact zeros (with chance 0.3)
    or have p-valuation at most max_val (>= 0).  Keeps filtration verdicts
    away from the precision boundary so that at-precision membership tests
    are decisive.

    Stream, per index below min(max_index, N_gamma): the zero coin
    ``rng.random() < 0.3``; else the valuation v in [0, max_val], drawn
    with (max_val+1).bit_length() bits, and then an f-tuple of
    bit_length(p^cap)-bit draws, each redrawn while >= p^cap, the whole
    tuple redrawn while it holds no unit; the coefficient is p^v times it.
    At f = 1 the tuple is one draw, a unit iff it is prime to p, so a
    redraw is one more word and one flat loop serves the plane."""
    if max_val < 0:
        raise ValueError(f"negative valuation bound {max_val}")
    ring = amb.ring
    cap, p, pk = amb.cap, ring.p, ring.pk
    mod = pk[cap]
    bits = mod.bit_length()
    coin, getrandbits = rng.random, rng.getrandbits
    val_bits = (max_val + 1).bit_length()
    # p^v by v in [0, max_val]: p^v is 0 mod p^cap once v >= cap
    qs = pk if max_val <= cap else pk + [mod] * (max_val - cap)
    n = min(max_index, amb.N_gamma)
    if ring.f == 1:
        plane = []
        for _ in range(n):
            if coin() < 0.3:
                plane.append(0)
                continue
            v = getrandbits(val_bits)
            while v > max_val:
                v = getrandbits(val_bits)
            c = getrandbits(bits)
            while c >= mod or not c % p:
                c = getrandbits(bits)
            plane.append(c * qs[v] % mod)
        return PDElement(amb, (), cap, (plane,))
    planes = tuple([] for _ in range(ring.f))
    for _ in range(n):
        if coin() < 0.3:
            for pl in planes:
                pl.append(0)
            continue
        v = getrandbits(val_bits)
        while v > max_val:
            v = getrandbits(val_bits)
        q = qs[v]
        while True:
            # the f-tuple goes straight onto the planes; without a unit it
            # comes off again and is redrawn whole
            unit = False
            for pl in planes:
                c = getrandbits(bits)
                while c >= mod:
                    c = getrandbits(bits)
                if c % p:
                    unit = True
                pl.append(c * q % mod)
            if unit:
                break
            for pl in planes:
                pl.pop()
    return PDElement(amb, (), cap, planes)
