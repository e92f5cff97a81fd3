"""Finite free Kisin modules of E(u)-height r over the truncated series ring.

A module is its Frobenius matrix A (phi of the basis row vector is the basis
times A).  The height condition asks for B with A B = E(u)^r I; it is
checked by factoring det(A) as a unit times a power of E through repeated
synthetic division, then dividing E^r times the adjugate by that power.

The diagonal normal form constructor takes X, Y in GL_d and jump exponents
and produces A = X * diag(E^{r_i}) * Y; such presentations are the input for
the transfer to the divided-power side, where the filtration becomes an
adapted (coordinate-wise) condition.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from . import breuil as breuil_mod
from .errors import MalformedJumps, MissingGLSForm, NotInvertible, SingularMatrix
from .fl import check_jumps, random_jumps
from .matrix import RingMatrix, converges_to_zero
from .pd import embed_sigma, pd_one, pd_zero, phi_S
from .series import SigmaSeries, weierstrass_divide


class KisinModule:
    def __init__(self, amb, d: int, A: RingMatrix, gls: tuple | None = None):
        self.amb = amb
        self.d = d
        self.A = A
        mats = [A]
        if gls is not None:
            X, jumps, Y = gls
            gls = (X, check_jumps(amb, d, jumps), Y)
            mats += [X, Y]
        self.gls = gls  # (X, jumps, Y) when built in normal form
        if any(M.rows != d or M.cols != d for M in mats):
            raise MalformedJumps("matrix dimensions do not match the rank")


class HeightResult(namedtuple("HeightResult", "ok quotient unit e_power witness",
                              defaults=(None, None, None, None))):
    """Verdict of the height check.  On success it holds the quotient
    E^r adj(A) / E^s (a RingMatrix), the unit det(A) / E^s (a SigmaSeries)
    and s as ``e_power``; on failure a ``witness`` dict.  The solution B of
    A B = E^r I is the quotient over the unit, built on first read and kept
    in the instance's own dict (a failing result reads None)."""

    @cached_property
    def B(self) -> RingMatrix | None:
        if not self.ok:
            return None
        return self.quotient.scale(self.unit.invert())


def _E_diag(amb, jumps) -> RingMatrix:
    """Lambda = diag(E^{r_1}, ..., E^{r_d}) over the series ring."""
    d = len(jumps)
    zero = SigmaSeries(amb, [])
    return RingMatrix([[amb.E_pow(jumps[i]) if i == j else zero for j in range(d)]
                       for i in range(d)])


def normal_form_matrix(amb, X: RingMatrix, jumps, Y: RingMatrix) -> RingMatrix:
    """A = X * diag(E^{r_1}, ..., E^{r_d}) * Y."""
    return X @ _E_diag(amb, jumps) @ Y


def kisin_height_check(amb, A: RingMatrix) -> HeightResult:
    """Decide whether A B = E^r I is solvable over the series ring.

    det(A) must be a unit times E^s with s <= r*d, and every entry of
    E^r * adj(A) must be divisible by det(A).  Remainder tests run at the
    public precision N_p, so the verdict is an at-precision semidecision.
    The verdict needs no inverse of the unit: B is built only when read.
    """
    d = A.rows
    at = amb.N_p
    det, adj = A.det_adjugate()
    if det.is_zero_at(min(at, det.prec)):
        raise SingularMatrix("det(A) vanishes at working precision")
    q = det
    s = 0
    while not q.is_unit():
        if s >= amb.r * d:
            return HeightResult(False, witness={"reason": "det needs more than r*d factors of E"})
        q2, rem = weierstrass_divide(q)
        if not rem.is_zero_at(min(at, rem.prec)):
            return HeightResult(
                False,
                witness={"reason": "det is not a unit times a power of E",
                         "division": s, "remainder": rem},
            )
        q, s = q2, s + 1
    Er = amb.E_pow(amb.r)
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            y = Er * adj.entries[i][j]
            for k in range(s):
                y, rem = weierstrass_divide(y)
                if not rem.is_zero_at(min(at, rem.prec)):
                    return HeightResult(
                        False,
                        witness={"reason": "entry of E^r * adj(A) not divisible by det",
                                 "entry": (i, j), "division": k, "remainder": rem},
                    )
            row.append(y)
        rows.append(row)
    return HeightResult(True, quotient=RingMatrix(rows), unit=q, e_power=s)


def _check_rank(d: int) -> None:
    if d < 1:
        raise ValueError(f"a Kisin module needs rank d >= 1, got {d}")


def kisin_gls_construct(amb, X: RingMatrix, jumps, Y: RingMatrix) -> KisinModule:
    """A = X * diag(E^{r_1}, ..., E^{r_d}) * Y with X, Y invertible."""
    d = X.rows
    _check_rank(d)
    jumps = check_jumps(amb, d, jumps)
    if not X.residue_invertible() or not Y.residue_invertible():
        raise NotInvertible("X and Y must lie in GL_d of the series ring")
    A = normal_form_matrix(amb, X, jumps, Y)
    K = KisinModule(amb, d, A, gls=(X, jumps, Y))
    res = kisin_height_check(amb, A)
    if not res.ok:
        raise SingularMatrix(f"normal-form module failed its height check: {res.witness}")
    return K


KisinClassification = namedtuple("KisinClassification", "etale multiplicative unipotent")


def kisin_classify(K: KisinModule, max_steps: int | None = None) -> KisinClassification:
    """Positional class: etale iff B is invertible, multiplicative iff A is,
    unipotent iff the twisted product of B dies (p, u)-adically."""
    amb = K.amb
    res = kisin_height_check(amb, K.A)
    if not res.ok:
        raise SingularMatrix(f"height check failed: {res.witness}")
    return KisinClassification(
        etale=res.B.residue_invertible(),
        multiplicative=K.A.residue_invertible(),
        unipotent=converges_to_zero(res.B, SigmaSeries.phi, amb.N_p, max_steps),
    )


def _embed_matrix(A: RingMatrix) -> RingMatrix:
    return RingMatrix([[embed_sigma(x) for x in row] for row in A.entries])


def kisin_to_breuil(K: KisinModule) -> "breuil_mod.BreuilModule":
    """Base change to the divided-power ring along the Frobenius.

    In the basis f = (1 (x) e) * Y^{-1} the Frobenius matrix becomes
    Y * phi(X Lambda) (Y embedded plainly, the rest through phi), and the
    top filtration is adapted with the normal-form jumps: a coordinate
    vector w lies in Fil^r exactly when w_i has filtration valuation at
    least r - r_i.
    """
    if K.gls is None:
        raise MissingGLSForm("transfer needs a diagonal normal form presentation")
    amb = K.amb
    X, jumps, Y = K.gls
    phi_XL = _embed_matrix(X @ _E_diag(amb, jumps)).map_entries(phi_S)
    Phi = _embed_matrix(Y) @ phi_XL
    return breuil_mod.BreuilModule(
        amb=amb,
        d=K.d,
        Phi=Phi,
        Nmat=None,
        C=RingMatrix.identity(K.d, pd_zero(amb), pd_one(amb)),
        jumps=jumps,
    )


def kisin_raw_fil_checker(K: KisinModule):
    """Membership test for the top filtration straight from its definition.

    Returns a callable on coordinate vectors (in the transferred basis f):
    the linearised Frobenius of the element must land in Fil^r S tensor the
    module, i.e. every component of embed(A) * embed(Y)^{-1} * w, with
    A = X Lambda Y the module's own matrix, must have filtration valuation
    at least r: ``adapted_level`` of those components with jumps 0, capped
    at r, reaches r.  Independent of the adapted shortcut: it inverts
    embed(Y) over S as adj * det^(-1) and multiplies out.
    """
    if K.gls is None:
        raise MissingGLSForm("raw membership needs the normal form data")
    amb = K.amb
    full = _embed_matrix(K.A) @ _embed_matrix(K.gls[2]).invert()
    zeros = (0,) * K.d

    def check(w, at: int | None = None) -> bool:
        return breuil_mod.adapted_level(amb, full, zeros, w, at, top=amb.r) == amb.r

    return check


def random_gls(amb, rng, d: int, jumps=None) -> KisinModule:
    """Random normal-form module: X, Y are degree <= 4 perturbations of
    the identity, resampled until invertible.

    X is unconstrained.  Y's perturbation carries no u-terms of degree
    1 .. p-1: this is the crystalline shape of the normal form.  Only the
    Y factor enters the divided-power side untwisted, and killing its low
    u-degrees is exactly what makes the first section iterate congruent to
    the identity modulo (u^p/p) and the iteration converge at the stated
    rate; a plain degree-one term in Y already breaks both.
    """
    _check_rank(d)
    if jumps is None:
        jumps = random_jumps(amb, rng, d)

    def rand_entry(crystalline_shape: bool) -> SigmaSeries:
        coeffs = []
        for k in range(5):
            if crystalline_shape and 1 <= k < amb.p:
                coeffs.append(amb.ring.zero())
            else:
                coeffs.append(amb.ring.random(rng))
        return SigmaSeries(amb, coeffs)

    def rand_gl(crystalline_shape: bool) -> RingMatrix:
        while True:
            ident = RingMatrix.identity(d, SigmaSeries(amb, []), amb.useries([1]))
            pert = RingMatrix(
                [[rand_entry(crystalline_shape) for _ in range(d)] for _ in range(d)],
            )
            cand = ident + pert
            if cand.residue_invertible():
                return cand

    return kisin_gls_construct(amb, rand_gl(False), jumps, rand_gl(True))
