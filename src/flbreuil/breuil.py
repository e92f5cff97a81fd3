"""Strongly divisible modules over the divided-power ring S.

A module of rank d is presented by the Frobenius matrix Phi over S (in the
normalisation phi, not the divided phi_r = phi / p^r), an optional
monodromy matrix Nmat (the operator acts on coordinates by x -> Nmat x +
N_S(x) applied entrywise), a basis change C into the adapted filtration
basis, and jumps r_1 <= ... <= r_d.  The top filtration is

    Fil^r = { C y : y_i has filtration valuation >= max(0, r - r_i) },

which automatically contains Fil^r S times the module.  Lower steps are
reconstructed by the same coordinate rule with r replaced by i; on adapted
presentations this agrees with the colon module { x : Fil^(r-i) S x inside
Fil^r } because binomial coefficients with both arguments below p are prime
to p.

Strong divisibility is decided on the d generators gamma_{max(0, r-r_i)}
times the i-th adapted column: modulo the maximal ideal every phi_r image
of a filtration element is a residue-linear combination of those (higher
gamma indices pick up strictly positive p-valuation under phi), so the
image generates exactly when the matrix of those d images is invertible.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    NotCris,
    NotDivisible,
    NotInFil,
    RecursionBudget,
)
from .matrix import RingMatrix, converges_to_zero, scaled_inverse
from .pd import (
    eval_f0,
    eval_fpi,
    fil_valuation,
    n_S,
    pd_gamma,
    pd_random_calibrated,
    pd_shift,
    phi_S,
    phi_S_all,
)


class BreuilModule:
    def __init__(self, amb, d: int, Phi: RingMatrix, Nmat: RingMatrix | None,
                 C: RingMatrix, jumps):
        from .fl import check_jumps

        self.amb = amb
        self.d = d
        self.Phi = Phi
        self.Nmat = Nmat
        self.C = C
        mats = (Phi, C) if Nmat is None else (Phi, Nmat, C)
        self.jumps = check_jumps(amb, d, jumps, *mats)
        self._C_inv = None

    @property
    def C_inv(self) -> RingMatrix:
        if self._C_inv is None:
            self._C_inv = self.C.invert()
        return self._C_inv

    def fil_threshold(self, i: int, j: int) -> int:
        """Required valuation of coordinate j for membership in Fil^i."""
        return max(0, i - self.jumps[j])


def adapted_level(amb, M: RingMatrix, jumps, x, at: int | None = None,
                  top: int | None = None) -> int:
    """The level of x in the filtration adapted to the coordinates of
    y = M x with jumps r_j, capped at ``top`` when it is given (otherwise
    unbounded, also beyond r): the minimum over j of v_j + r_j, where v_j
    is the filtration valuation of y_j.  x lies in step i exactly when
    i <= the level.  A rank-0 vector gets N_gamma + r.

    With ``top``, y is computed only below index top - min(r_j): a
    coordinate that vanishes there has v_j + r_j >= top whatever its
    higher coefficients are, and below that index the bounded product
    agrees with the full one."""
    at = amb.N_p if at is None else at
    y = M.matvec(x, None if top is None else top - min(jumps, default=0))
    level = min((fil_valuation(c, at) + r for c, r in zip(y, jumps)),
                default=amb.N_gamma + amb.r)
    return level if top is None else min(level, top)


def fil_level(B: BreuilModule, x, at: int | None = None, top: int | None = None) -> int:
    """The largest i with x in the reconstructed step Fil^i, capped at
    ``top`` when it is given: ``adapted_level`` of the adapted coordinates
    C^(-1) x with the module's jumps."""
    return adapted_level(B.amb, B.C_inv, B.jumps, x, at, top)


def fil_lower(B: BreuilModule, i: int, x, at: int | None = None) -> bool:
    """Membership in the reconstructed lower step Fil^i."""
    return i <= fil_level(B, x, at, top=i)


def phi_module(B: BreuilModule, x):
    """The Frobenius of the module on coordinates: Phi applied to phi_S(x)."""
    return B.Phi.matvec(tuple(phi_S(c, 0) for c in x))


def phi_r_apply(B: BreuilModule, x):
    """Divided Frobenius phi_r = phi / p^r on Fil^r; division must be exact."""
    amb = B.amb
    if not fil_lower(B, amb.r, x):
        raise NotInFil("phi_r needs an element of Fil^r")
    img = phi_module(B, x)
    try:
        return tuple(c.div_p_exact(amb.r) for c in img)
    except NotDivisible as exc:
        raise NotDivisible(f"phi(Fil^r) not divisible by p^r: {exc}") from exc


def n_apply(B: BreuilModule, x):
    """Monodromy on coordinates: Nmat x plus the derivation of the coordinates."""
    if B.Nmat is None:
        raise NotCris("module carries no monodromy matrix")
    lin = B.Nmat.matvec(x)
    return tuple(l + n_S(c) for l, c in zip(lin, x))


def fil_generators(B: BreuilModule):
    """The d standard generators gamma_{max(0, r-r_i)} * (C column i)."""
    amb = B.amb
    gens = []
    for i in range(B.d):
        g = pd_gamma(amb, B.fil_threshold(amb.r, i))
        gens.append(tuple(g * c for c in B.C.col(i)))
    return gens


class ValidationReport(namedtuple("ValidationReport",
                                  "strongly_divisible griffiths diagram cris")):
    """Strong divisibility, then Griffiths transversality, the phi/N square
    and the crystalline condition, each None without monodromy."""

    __slots__ = ()

    def all_true(self) -> bool:
        return bool(self.strongly_divisible) and all(
            v is True for v in (self.griffiths, self.diagram, self.cris)
        )


def breuil_validate(B: BreuilModule) -> ValidationReport:
    """Check strong divisibility, transversality, the phi/N square and the
    crystalline condition; N-dependent checks report None when N is absent."""
    amb = B.amb
    at = amb.N_p
    gens = fil_generators(B)
    try:
        images = [phi_r_apply(B, g) for g in gens]
        cols = RingMatrix([[images[j][i] for j in range(B.d)] for i in range(B.d)])
        strongly = cols.residue_invertible()
    except (NotDivisible, NotInFil):
        strongly = False
        images = None
    if B.Nmat is None:
        return ValidationReport(strongly, None, None, None)

    griffiths = True
    diagram = True
    E = pd_gamma(amb, 1)
    for j, g in enumerate(gens):
        ENg = tuple(E * c for c in n_apply(B, g))
        if not fil_lower(B, amb.r, ENg, at):
            griffiths = False
            diagram = False
            continue
        if images is None:
            diagram = False
            continue
        try:
            lhs = phi_r_apply(B, ENg)
        except (NotDivisible, NotInFil):
            diagram = False
            continue
        rhs = tuple(amb.c * c for c in n_apply(B, images[j]))
        if not all(a.eq_at(b, at) for a, b in zip(lhs, rhs)):
            diagram = False
    cris = all(
        eval_f0(B.Nmat.entries[i][j]).is_zero_at(at)
        for i in range(B.d) for j in range(B.d)
    )
    return ValidationReport(strongly, griffiths, diagram, cris)


def hat_fil_level(B: BreuilModule, m_jumps, x, at: int | None = None,
                  m_basis_inv: RingMatrix | None = None, top: int | None = None) -> int:
    """The top level, at most ``top`` (default r), of x in the filtration
    defined recursively through N and evaluation at pi.

    Level 0 is everything; x lies in level n when N(x) lies in level n-1
    and the image of x under u -> pi lies in step n of the given filtration
    on the reduction (jumps m_jumps, optionally after a W-basis change).
    So x lies in level n when, for every t < n, the reduction of N^t(x) lies
    in step n - t, and the levels are nested.  One descent of the chain
    x, N(x), N^2(x), ... finds the top level: at step t a nonzero reduced
    coordinate j with m_jumps[j] < level - t lowers the level to
    m_jumps[j] + t, and the descent ends when t reaches the level, after at
    most ``top - 1`` calls to N.  Levels beyond r are refused, and levels
    from 1 on need the monodromy (NotCris without it).

    Each coordinate of x is cut to its first ``top`` coefficients once.
    The descent reads only coefficient 0 of N^t(x) for t < top, and
    coefficient m of N(x) = Nmat x + N_S(x) reads only the coefficients
    <= m + 1 of x (those <= m through the product, m + 1 through
    N_S(gamma_(m+1)) = -(m+1) gamma_(m+1) + p*a gamma_m), so coefficient 0
    of N^t(x) reads only those <= t and the cut changes nothing it reads.

    The reduced coordinates are tested for zero mod p^at (default N_p).
    Coefficient 0 of N(y) is p*a*y_1 plus the Nmat terms, so coefficient 0
    of N^t(x) carries x_t times (p*a)^t, and step t sees x_t to only about
    ``at - t`` digits.  So at a finite ``at`` the result is the recursive
    level with each zero test taken mod p^at, and unlike ``fil_level`` at
    ``at`` it is not a function of x mod p^at; a comparison of the two
    reads both at the precision of x itself (``suite_lemfil1``).
    """
    amb = B.amb
    level = amb.r if top is None else top
    if level < 0:
        raise RecursionBudget("negative filtration level")
    if level > amb.r:
        raise RecursionBudget(f"level {level} beyond the Hodge bound {amb.r}")
    if len(x) != B.d or len(m_jumps) != B.d or (
        m_basis_inv is not None and m_basis_inv.rows != B.d
    ):
        raise ValueError("dimension mismatch")
    if level > 0 and B.Nmat is None:
        raise NotCris("module carries no monodromy matrix")
    at = amb.N_p if at is None else at
    vec = tuple(c._head(level) for c in x)
    t = 0
    while t < level:
        w = tuple(eval_fpi(c) for c in vec)
        if m_basis_inv is not None:
            w = m_basis_inv.matvec(w)
        for j in range(B.d):
            if m_jumps[j] < level - t and not w[j].is_zero_at(at):
                level = m_jumps[j] + t
        t += 1
        if t < level:
            vec = n_apply(B, vec)
    return level


BreuilClassification = namedtuple("BreuilClassification", "etale multiplicative unipotent")


def breuil_bhat(B: BreuilModule) -> RingMatrix:
    """The matrix with Phi * Bhat = p^r I; integrality is asserted."""
    return scaled_inverse(B.Phi, B.amb.r)


def breuil_classify(B: BreuilModule) -> BreuilClassification:
    amb = B.amb
    bhat = breuil_bhat(B)
    return BreuilClassification(
        etale=all(j == amb.r for j in B.jumps),
        multiplicative=all(j == 0 for j in B.jumps),
        unipotent=converges_to_zero(bhat, phi_S, amb.N_p),
    )


def rebase(B: BreuilModule, h: RingMatrix) -> BreuilModule:
    """The same module presented in the basis f h (h in GL_d(S)).  Its
    C^(-1) = (h^(-1) C)^(-1) is seeded as C^(-1) h, a product instead of a
    second inversion."""
    h_inv = h.invert()
    phi_h = h.map_all(phi_S_all)
    Phi_new = h_inv @ B.Phi @ phi_h
    C_new = h_inv @ B.C
    Nmat_new = None
    if B.Nmat is not None:
        nh = h.map_entries(n_S)
        Nmat_new = h_inv @ (B.Nmat @ h + nh)
    out = BreuilModule(B.amb, B.d, Phi_new, Nmat_new, C_new, B.jumps)
    out._C_inv = B.C_inv @ h
    return out


def random_fil_member(B: BreuilModule, rng, n: int):
    """Random element of Fil^n with coefficients kept away from the
    precision boundary (exact zeros or valuation <= 2).  Per body index:
    zero coin ``random() < 0.3``, else a valuation from 2 bits and a unit
    f-tuple of bit_length(p^cap)-bit draws (``pd_random_calibrated``)."""
    amb = B.amb
    y = []
    for j in range(B.d):
        t = B.fil_threshold(n, j)
        body = pd_random_calibrated(amb, rng, amb.N_gamma - t - 1, 2)
        y.append(pd_shift(body, t))
    return B.C.matvec(tuple(y))


def random_vector(B: BreuilModule, rng, max_index: int | None = None):
    """Random coordinate vector with calibrated coefficient valuations
    (exact zeros or valuation <= 2).  Per index: zero coin
    ``random() < 0.3``, else a valuation from 2 bits and a unit f-tuple of
    bit_length(p^cap)-bit draws (``pd_random_calibrated``)."""
    amb = B.amb
    top = amb.N_gamma - 1 if max_index is None else max_index
    return tuple(pd_random_calibrated(amb, rng, top, 2) for _ in range(B.d))
