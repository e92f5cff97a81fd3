"""Finite free Kisin modules of E(u)-height r over the truncated series ring.

A module is given in its diagonal normal form: X, Y in GL_d of the series
ring and jumps r_1 <= ... <= r_d, with Frobenius matrix A = X * Lambda * Y,
Lambda = diag(E^{r_1}, ..., E^{r_d}) (phi of the basis row vector is the
basis times A).  The constructor checks the presentation and computes A.

The jumps decide the class: the module is etale when every r_i is r and
multiplicative when every r_i is 0.  The solution of A B = E^r I is
B = Y^{-1} * diag(E^{r - r_i}) * X^{-1}, whose twisted product decides
unipotence.  The height check reads A alone: it factors det(A) as a unit
times a power of E by repeated synthetic division, then divides E^r times
the adjugate by that power.  The transfer to the divided-power side reads
the normal form, where the filtration becomes an adapted (coordinate-wise)
condition.
"""

from __future__ import annotations

from collections import namedtuple

from . import breuil as breuil_mod
from .errors import NotInvertible, SingularMatrix
from .fl import check_jumps, random_jumps
from .matrix import RingMatrix, converges_to_zero
from .pd import embed_sigma, pd_one, pd_zero, phi_S
from .series import SigmaSeries, weierstrass_divide


def _E_diag(amb, jumps) -> RingMatrix:
    """Lambda = diag(E^{r_1}, ..., E^{r_d}) over the series ring."""
    d = len(jumps)
    zero = SigmaSeries(amb, [])
    return RingMatrix([[amb.E_pow(jumps[i]) if i == j else zero for j in range(d)]
                       for i in range(d)])


class KisinModule:
    """The module with Frobenius matrix A = X * diag(E^{r_1}, ..., E^{r_d}) * Y.

    X and Y must be d x d and invertible modulo (p, u); the jumps must be
    d sorted integers in [0, r]."""

    def __init__(self, amb, X: RingMatrix, jumps, Y: RingMatrix):
        self.amb = amb
        self.d = X.rows
        self.jumps = check_jumps(amb, self.d, jumps, X, Y)
        if not X.residue_invertible() or not Y.residue_invertible():
            raise NotInvertible("X and Y must lie in GL_d of the series ring")
        self.X = X
        self.Y = Y
        self.A = X @ _E_diag(amb, self.jumps) @ Y


class HeightResult(namedtuple("HeightResult", "ok e_power witness", defaults=(None, None))):
    """Verdict of the height check: on success the power s of E in det(A)
    as ``e_power``, on failure a ``witness`` dict."""

    __slots__ = ()


def kisin_height_check(amb, A: RingMatrix) -> HeightResult:
    """Decide whether A B = E^r I is solvable over the series ring.

    det(A) must be a unit times E^s with s <= r*d, and every entry of
    E^r * adj(A) must be divisible by det(A).  Remainder tests run at the
    public precision N_p, so the verdict is an at-precision semidecision.
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
        q, rem = weierstrass_divide(q)
        if not rem.is_zero_at(min(at, rem.prec)):
            return HeightResult(
                False,
                witness={"reason": "det is not a unit times a power of E",
                         "division": s, "remainder": rem},
            )
        s += 1
    Er = amb.E_pow(amb.r)
    for i in range(d):
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
    return HeightResult(True, e_power=s)


def _check_rank(d: int) -> None:
    if d < 1:
        raise ValueError(f"a Kisin module needs rank d >= 1, got {d}")


def kisin_gls_construct(amb, X: RingMatrix, jumps, Y: RingMatrix) -> KisinModule:
    """The module A = X * diag(E^{r_1}, ..., E^{r_d}) * Y of rank d >= 1,
    self-checked against its height condition."""
    _check_rank(X.rows)
    K = KisinModule(amb, X, jumps, Y)
    res = kisin_height_check(amb, K.A)
    if not res.ok:
        raise SingularMatrix(f"normal-form module failed its height check: {res.witness}")
    return K


KisinClassification = namedtuple("KisinClassification", "etale multiplicative unipotent")


def kisin_classify(K: KisinModule, max_steps: int | None = None) -> KisinClassification:
    """Positional class: etale iff every jump is r, multiplicative iff
    every jump is 0, unipotent iff the twisted product of
    B = Y^{-1} diag(E^{r - r_i}) X^{-1} dies (p, u)-adically."""
    amb = K.amb
    B = K.Y.invert() @ _E_diag(amb, [amb.r - j for j in K.jumps]) @ K.X.invert()
    return KisinClassification(
        etale=all(j == amb.r for j in K.jumps),
        multiplicative=all(j == 0 for j in K.jumps),
        unipotent=converges_to_zero(B, SigmaSeries.phi, amb.N_p, max_steps),
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
    amb = K.amb
    phi_XL = _embed_matrix(K.X @ _E_diag(amb, K.jumps)).map_entries(phi_S)
    Phi = _embed_matrix(K.Y) @ phi_XL
    return breuil_mod.BreuilModule(
        amb=amb,
        d=K.d,
        Phi=Phi,
        Nmat=None,
        C=RingMatrix.identity(K.d, pd_zero(amb), pd_one(amb)),
        jumps=K.jumps,
    )


def kisin_raw_fil_checker(K: KisinModule):
    """Membership test for the top filtration straight from its definition.

    Returns a callable on coordinate vectors (in the transferred basis f):
    the linearised Frobenius of the element must land in Fil^r S tensor the
    module, i.e. every component of embed(A) * embed(Y)^{-1} * w, with
    A = X Lambda Y the module's own matrix, must have filtration valuation
    at least r: ``adapted_level`` of those components with jumps 0, capped
    at r, reaches r.  Independent of the adapted shortcut: it inverts
    embed(Y) over S by Gauss-Jordan elimination and multiplies out.
    """
    amb = K.amb
    full = _embed_matrix(K.A) @ _embed_matrix(K.Y).invert()
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
