"""Strongly divisible modules over the divided-power ring S.

A module of rank d is presented by the d x d Frobenius matrix Phi over S
(in the normalisation phi, not the divided phi_r = phi / p^r), an optional
monodromy matrix Nmat (the operator acts on coordinates by x -> Nmat x +
N_S(x) applied entrywise), a basis change C into the adapted filtration
basis, and jumps r_1 <= ... <= r_d; the constructor reads d off Phi and
checks the other matrices and the jumps against it.  The divided Frobenius
``_phi_r_apply`` is Phi phi_S(x) divided exactly by p^r, for an x that its
caller knows to lie in Fil^r: it tests no membership.
The top filtration is

    Fil^r = { C y : y_i has filtration valuation >= max(0, r - r_i) },

which automatically contains Fil^r S times the module.  Lower steps are
reconstructed by the same coordinate rule with r replaced by i; on adapted
presentations this agrees with the colon module { x : Fil^(r-i) S x inside
Fil^r } because binomial coefficients with both arguments below p are prime
to p.  The tensor-product filtration sum_i Fil^(r-i) S (x) Fil^i M of a
reduction M, read in the section basis, is the same rule with C the
section basis Bmat embed(g) and the jumps of M, so the round trip compares
the two through ``fil_lower``.

Strong divisibility is decided on the d generators gamma_{max(0, r-r_i)}
times the i-th adapted column: modulo the maximal ideal every phi_r image
of a filtration element is a residue-linear combination of those (higher
gamma indices pick up strictly positive p-valuation under phi), so the
image generates exactly when the matrix of those d images is invertible.

The two filtration tests return the level of x capped at r, the only
steps the paper asks about, and read W(k)-linear maps on jets (the first
coefficients of each coordinate) from one ``witt._PackedTable`` per owner
of the matrix, built on first use, so that each sample costs one
``apply``:

  * ``_adapted_level`` (behind ``fil_level``, ``fil_lower`` and the Kisin
    raw checker) reads the first b = r - min(r_j) coefficients of M x, a
    map of the b-jets of x (``_jet_table``); the table lives on the
    ``BreuilModule`` (for C^(-1)) and in the checker's closure;
  * ``hat_fil_level`` reads coefficient 0 of N^t(x) for t < r, mapped
    into the adapted basis by f_pi(C^(-1)), a map of the r-jets of x; the
    module keeps its table, built by ``_n_apply`` on the basis jets.

Each zero test is taken at the precision the per-sample product had:
coordinate j of M x at the lowest precision among row j of M and the
entries of x, the reductions of N^t(x) at that of the chain of
``_n_apply`` and of the map (see ``hat_fil_level``).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotCris, NotDivisible
from .fl import _check_jumps
from .matrix import RingMatrix, _converges_to_zero, _scaled_inverse
from .pd import (
    _eval_f0,
    _eval_fpi,
    _pd_gamma,
    _pd_random_calibrated,
    _pd_shift,
    _pd_zero,
    _phi_S_all,
    n_S,
    phi_S,
)
from .witt import WittScalar, _PackedTable, _trimmed


class BreuilModule:
    def __init__(self, amb, Phi: RingMatrix, Nmat: RingMatrix | None, C: RingMatrix, jumps):
        self.amb = amb
        self.d = d = Phi.rows
        self.Phi = Phi
        self.Nmat = Nmat
        self.C = C
        mats = (Phi, C) if Nmat is None else (Phi, Nmat, C)
        self.jumps = _check_jumps(amb, d, jumps, *mats)
        self._C_inv = None
        # the tables of the filtration tests, built on first use: C^(-1) on
        # jets (``fil_level``) and the descent through N (``hat_fil_level``)
        self._fil_table = None
        self._hat_table = None

    @property
    def C_inv(self) -> RingMatrix:
        if self._C_inv is None:
            self._C_inv = self.C.invert()
        return self._C_inv

    def fil_threshold(self, i: int, j: int) -> int:
        """Required valuation of coordinate j for membership in Fil^i."""
        return max(0, i - self.jumps[j])


def _jet_table(amb, M: RingMatrix, jumps) -> tuple:
    """The product x -> M x on b-jets, for M over S and b = r - min(r_j)
    (0 without jumps), the jets ``_adapted_level`` reads: coefficient m of
    (M x)_i is the sum over j and a <= m of C(m, a) (M_ij)_(m-a) x_(j,a),
    so the first b coefficients of M x are a W(k)-linear map of the first b
    coefficients of each x_j.  Returns its ``witt._PackedTable``, whose
    column j*b + a (the image of gamma_a in coordinate j) holds in entry
    i*b + m the coefficient m of M_ij gamma_a, read straight from M's
    planes and the binomials, the lowest precision in each row of M, and
    b.  The owner of M keeps it."""
    ring, comb = amb.ring, amb.comb
    mod = ring.pk[amb.cap]
    b = amb.r - min(jumps, default=amb.r)
    columns = []
    for j in range(M.cols):
        for a in range(b):
            w = comb[a]
            planes = tuple([] for _ in range(ring.f))
            for row in M.entries:
                for out, pl in zip(planes, row[j].planes):
                    seg = [w[n] * c % mod for n, c in enumerate(pl[:b - a])]
                    out.extend([0] * a + seg + [0] * (b - a - len(seg)))
            columns.append(_trimmed(planes))
    return _PackedTable(ring, columns), [min(x.prec for x in row) for row in M.entries], b


def _jets(x, b: int, mod: int) -> list:
    """The planes of the first b coefficients of each element of x, one
    after the other (zero past an element's support), reduced mod ``mod``:
    a table's image mod p^k reads its input only mod p^k."""
    jets = [[] for _ in x[0].planes] if x else []
    for c in x:
        for out, pl in zip(jets, c.planes):
            seg = [v % mod for v in pl[:b]]
            out.extend(seg)
            out.extend([0] * (b - len(seg)))
    return jets


def _adapted_level(amb, M: RingMatrix, jumps, x, table: tuple, at: int | None = None) -> int:
    """The level of x in the filtration adapted to the coordinates of
    y = M x with jumps r_j, capped at r: the minimum of r and, over j, of
    v_j + r_j, where v_j is the filtration valuation of y_j.  x lies in
    step i (0 <= i <= r) exactly when i <= the level.  A rank-0 vector
    gets r.

    Only the first b = r - min(r_j) coefficients of y are read: a
    coordinate that vanishes there has v_j + r_j >= r whatever its higher
    coefficients are.  Coefficient m of y reads only the coefficients <= m
    of x, so y's b-jet is a W(k)-linear map of x's b-jets, ``table``
    (``_jet_table`` of M and the jumps), kept by the object that owns M
    (``BreuilModule`` for C^(-1), the Kisin raw checker for its matrix):
    each test is one ``apply``.
    Coordinate j is tested mod p^min(at, k_j) (at defaults to N_p), k_j the
    lowest precision among row j of M and the entries of x, the precision
    of the product (M x)_j."""
    if len(x) != M.cols:
        raise ValueError("dimension mismatch")
    at = amb.N_p if at is None else at
    n = min(M.rows, len(jumps))
    level = amb.r
    if not n:
        return level
    if at < 0:
        raise ValueError(f"filtration valuation at negative precision p^{at}")
    packed, row_k, b = table
    if not b:
        return level
    k = min(at, *[c.prec for c in x])
    ks = [k if k < rk else rk for rk in row_k[:n]]
    pk = amb.ring.pk
    K = max(ks)
    [y] = packed.apply([_jets(x, b, pk[K])], [K])
    for i, (r, ki) in enumerate(zip(jumps, ks)):
        # the first coefficient of y_i below level - r_i that is nonzero mod p^ki
        stop = end = min(b, level - r)
        q = pk[ki]
        for pl in y:
            for m, c in enumerate(pl[i * b:i * b + end]):
                if c % q:
                    end = m
                    break
        if end < stop:
            level = end + r
    return level


def fil_level(B: BreuilModule, x, at: int | None = None) -> int:
    """The largest i <= r with x in the reconstructed step Fil^i:
    ``_adapted_level`` of the adapted coordinates C^(-1) x with the
    module's jumps, through the module's table of C^(-1) on jets."""
    if B._fil_table is None:
        B._fil_table = _jet_table(B.amb, B.C_inv, B.jumps)
    return _adapted_level(B.amb, B.C_inv, B.jumps, x, B._fil_table, at)


def fil_lower(B: BreuilModule, i: int, x, at: int | None = None) -> bool:
    """Membership in the reconstructed lower step Fil^i, 0 <= i <= r."""
    if not 0 <= i <= B.amb.r:
        raise ValueError(f"filtration step {i} outside [0, {B.amb.r}]")
    return i <= fil_level(B, x, at)


def _phi_r_apply(B: BreuilModule, x):
    """The divided Frobenius phi_r = phi / p^r of x, which the caller
    guarantees lies in Fil^r: Phi phi_S(x), divided exactly by p^r
    (NotDivisible when the division leaves a remainder)."""
    return tuple(c.div_p_exact(B.amb.r) for c in B.Phi.matvec(_phi_S_all(x)))


def _n_apply(B: BreuilModule, x):
    """Monodromy on coordinates: Nmat x plus the derivation of the
    coordinates.  The module carries Nmat (its callers refuse one without)."""
    lin = B.Nmat.matvec(x)
    return tuple(l + n_S(c) for l, c in zip(lin, x))


def _fil_generators(B: BreuilModule):
    """The d standard generators gamma_{max(0, r-r_i)} * (C column i)."""
    amb = B.amb
    gens = []
    for i in range(B.d):
        g = _pd_gamma(amb, B.fil_threshold(amb.r, i))
        gens.append(tuple(g * c for c in B.C.col(i)))
    return gens


class _ValidationReport(namedtuple("ValidationReport",
                                   "strongly_divisible griffiths diagram cris")):
    """Strong divisibility, then Griffiths transversality, the phi/N square
    and the crystalline condition, each None without monodromy."""

    __slots__ = ()

    def all_true(self) -> bool:
        return bool(self.strongly_divisible) and all(
            v is True for v in (self.griffiths, self.diagram, self.cris)
        )


def breuil_validate(B: BreuilModule) -> _ValidationReport:
    """Check strong divisibility, transversality, the phi/N square and the
    crystalline condition; N-dependent checks report None when N is absent.

    Every verdict reads N_p digits: strong divisibility the residues of the
    phi_r images, Griffiths the filtration level of E N(g) at N_p, the
    square the phi_r images mod p^N_p, and cris f_0(Nmat) mod p^N_p.  An
    image of phi_r is one exact division by p^r away from a product, and
    reduction mod p^k commutes with products, phi_S, N_S, f_0 and that
    division, so the generators and their images under phi_r and N are
    computed from Phi, Nmat and C cut to N_p + r digits.  The generators
    lie in Fil^r by construction, so the one filtration test per generator
    is Griffiths', of E N(g), at N_p through B's own C^(-1) and table; an
    E N(g) that passes it lies in Fil^r, and the square reads its phi_r."""
    amb = B.amb
    at = amb.N_p
    k = at + amb.r
    cut = BreuilModule(amb, B.Phi.truncate(k), None if B.Nmat is None else B.Nmat.truncate(k),
                       B.C.truncate(k), B.jumps)
    gens = _fil_generators(cut)
    try:
        images = [_phi_r_apply(cut, g) for g in gens]
        cols = RingMatrix([[images[j][i] for j in range(B.d)] for i in range(B.d)])
        strongly = cols.residue_invertible()
    except NotDivisible:
        strongly = False
        images = None
    if B.Nmat is None:
        return _ValidationReport(strongly, None, None, None)

    griffiths = True
    diagram = True
    E = _pd_gamma(amb, 1)
    for j, g in enumerate(gens):
        ENg = tuple(E * c for c in _n_apply(cut, g))
        if not fil_lower(B, amb.r, ENg, at):
            griffiths = False
            diagram = False
            continue
        if images is None:
            diagram = False
            continue
        try:
            lhs = _phi_r_apply(cut, ENg)
        except NotDivisible:
            diagram = False
            continue
        rhs = tuple(amb.c * c for c in _n_apply(cut, images[j]))
        if not all(a.eq_at(b, at) for a, b in zip(lhs, rhs)):
            diagram = False
    cris = all(
        _eval_f0(cut.Nmat.entries[i][j]).is_zero_at(at)
        for i in range(B.d) for j in range(B.d)
    )
    return _ValidationReport(strongly, griffiths, diagram, cris)


def _descent_table(B: BreuilModule) -> tuple:
    """The reductions that the descent of ``hat_fil_level`` reads: P w_t for
    t < r, w_t coefficient 0 of N^t(x) and P = f_pi(C^(-1)), a W(k)-linear
    map of the r-jets of x (w_t reads only the coefficients <= t of x).
    Returns its ``witt._PackedTable``, whose column j*r + a holds in entry
    t*d + i coordinate i of P w_t for x = gamma_a e_j (``_n_apply`` on the
    d*r basis jets, then one apply of r copies of P down the diagonal), the
    lowest precision in each row of Nmat and of P, and the coordinates each
    row of P reads (its nonzero entries)."""
    amb, d, r = B.amb, B.d, B.amb.r
    ring = amb.ring
    zero = _pd_zero(amb)
    chains = []
    for j in range(d):
        for a in range(r):
            vec = tuple(_pd_gamma(amb, a) if i == j else zero for i in range(d))
            planes = tuple([] for _ in range(ring.f))
            for t in range(r):
                if t:
                    vec = _n_apply(B, vec)
                for c in vec:
                    for out, pl in zip(planes, c.planes):
                        out.append(pl[0] if pl else 0)
            chains.append(_trimmed(planes))
    P = B.C_inv.map_entries(_eval_fpi).entries
    blank = [(0,) * ring.f] * d
    diagonal = _PackedTable(ring, [
        _trimmed(ring.to_planes(blank * t + [row[l].coeffs for row in P], ring.cap))
        for t in range(r) for l in range(d)])
    columns = [_trimmed(w) for w in diagonal.apply(chains, [ring.cap] * len(chains))]
    return (_PackedTable(ring, columns), [min(c.prec for c in row) for row in B.Nmat.entries],
            [min(c.prec for c in row) for row in P],
            [[l for l, c in enumerate(row) if any(c.coeffs)] for row in P])


def hat_fil_level(B: BreuilModule, x, at: int | None = None) -> int:
    """The top level, at most r, of x in the filtration defined recursively
    through N and evaluation at pi.

    Level 0 is everything; x lies in level n when N(x) lies in level n-1
    and the image of x under u -> pi lies in step n of the filtration on
    the reduction with the module's jumps, read in the adapted basis
    through P = f_pi(C^(-1)), so the level is the module's, whatever its
    presentation.  So x lies in level n when, for every t < n, P w_t, w_t
    the reduction of N^t(x), lies in step n - t, and the levels are nested.
    One descent of the chain finds the top level: at step t a nonzero
    coordinate j of P w_t with r_j < level - t lowers the level to r_j + t,
    and the descent ends when t reaches the level.  Levels from 1 on need
    the monodromy (NotCris without it).

    The descent reads only coefficient 0 of N^t(x) for t < r, and
    coefficient m of N(x) = Nmat x + N_S(x) reads only the coefficients
    <= m + 1 of x (those <= m through the product, m + 1 through
    N_S(gamma_(m+1)) = -(m+1) gamma_(m+1) + p*a gamma_m).  So every P w_t
    is a W(k)-linear map of the r-jets of x: the module keeps that table
    (``_descent_table``, built on the first descent), and one ``apply``
    gives them all.

    The coordinates are tested for zero mod p^at (default N_p) at the
    precisions of the chain of ``_n_apply`` and of P: coordinate l of w_0 is
    known to that of x_l, of w_1 to the lowest among row l of Nmat and the
    entries of x, of every later w_t to the lowest among all of Nmat and x,
    and coordinate j of P w_t is tested at the lowest among row j of P and
    the coordinates of w_t that the row reads (its nonzero entries; a zero
    entry known mod p^a adds 0 mod p^a, and the row's precision is at most
    a).  A test above that precision raises PrecisionExhausted.
    Coefficient 0 of N(y) is p*a*y_1 plus the Nmat terms, so coefficient 0
    of N^t(x) carries x_t times (p*a)^t, and step t sees x_t to only about
    ``at - t`` digits.  So at a finite ``at`` the result is the recursive
    level with each zero test taken mod p^at, and unlike ``fil_level`` at
    ``at`` it is not a function of x mod p^at; a comparison of the two
    reads both at the precision of x itself (``_suite_lemfil1``).
    """
    amb, d, jumps = B.amb, B.d, B.jumps
    level = amb.r
    if len(x) != d:
        raise ValueError("dimension mismatch")
    if level > 0 and B.Nmat is None:
        raise NotCris("module carries no monodromy matrix")
    if not (level and d):
        return level
    at = amb.N_p if at is None else at
    if B._hat_table is None:
        B._hat_table = _descent_table(B)
    table, n_row, p_row, p_reads = B._hat_table
    ring = amb.ring
    precs = [c.prec for c in x]
    k = min(precs)
    # a zero test reads its coordinate mod p^at, and raises at a negative at
    # or one above the coordinate's precision, so the jets and the images
    # are read mod p^K
    K = max(0, min(at, max(precs)))
    [w] = table.apply([_jets(x, level, ring.pk[K])], [K])
    w = list(zip(*w))
    w += [(0,) * ring.f] * (d * level - len(w))
    t = 0
    while t < level:
        if t == 1:
            precs = [min(n, k) for n in n_row]
        elif t == 2:
            precs = [min(min(n_row), k)] * d
        if t < 3:
            ks = [min([kp] + [precs[l] for l in reads]) for kp, reads in zip(p_row, p_reads)]
        for j in range(d):
            if jumps[j] < level - t and not WittScalar(ring, w[t * d + j], ks[j]).is_zero_at(at):
                level = jumps[j] + t
        t += 1
    return level


def breuil_unipotent(B: BreuilModule) -> bool:
    """Whether the twisted product of Bhat, the matrix with Phi Bhat = p^r I
    (integral, else NotDivisible), vanishes mod p^N_p."""
    return _converges_to_zero(_scaled_inverse(B.Phi, B.amb.r), phi_S, B.amb.N_p)


def _rebase(B: BreuilModule, h: RingMatrix) -> BreuilModule:
    """The same module presented in the basis f h (h in GL_d(S)).  Its
    C^(-1) = (h^(-1) C)^(-1) is seeded as C^(-1) h, a product instead of a
    second inversion."""
    h_inv = h.invert()
    phi_h = h.map_all(_phi_S_all)
    Phi_new = h_inv @ B.Phi @ phi_h
    C_new = h_inv @ B.C
    Nmat_new = None
    if B.Nmat is not None:
        nh = h.map_entries(n_S)
        Nmat_new = h_inv @ (B.Nmat @ h + nh)
    out = BreuilModule(B.amb, Phi_new, Nmat_new, C_new, B.jumps)
    out._C_inv = B.C_inv @ h
    return out


def _random_fil_member(B: BreuilModule, rng, n: int):
    """Random element of Fil^n with coefficients kept away from the
    precision boundary (exact zeros or valuation <= 2).  Per body index:
    zero coin ``random() < 0.3``, else a valuation from 2 bits and a unit
    f-tuple of bit_length(p^cap)-bit draws (``_pd_random_calibrated``)."""
    amb = B.amb
    y = []
    for j in range(B.d):
        t = B.fil_threshold(n, j)
        body = _pd_random_calibrated(amb, rng, amb.N_gamma - t - 1, 2)
        y.append(_pd_shift(body, t))
    return B.C.matvec(tuple(y))


def _random_vector(B: BreuilModule, rng, max_index: int | None = None):
    """Random coordinate vector with calibrated coefficient valuations
    (exact zeros or valuation <= 2).  Per index: zero coin
    ``random() < 0.3``, else a valuation from 2 bits and a unit f-tuple of
    bit_length(p^cap)-bit draws (``_pd_random_calibrated``)."""
    amb = B.amb
    top = amb.N_gamma - 1 if max_index is None else max_index
    return tuple(_pd_random_calibrated(amb, rng, top, 2) for _ in range(B.d))
