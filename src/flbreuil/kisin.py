"""Finite free Kisin modules of E(u)-height r over the truncated series ring.

A module is given in its diagonal normal form: X, Y in GL_d of the series
ring and jumps r_1 <= ... <= r_d, with Frobenius matrix A = X * Lambda * Y,
Lambda = diag(E^{r_1}, ..., E^{r_d}) (phi of the basis row vector is the
basis times A).  The constructor checks the presentation and computes A,
keeping X * Lambda on the way.

Since X and Y are invertible and no r_i exceeds r, A B = E^r I has the
solution B = Y^{-1} * diag(E^{r - r_i}) * X^{-1}: the module has E-height
at most r by construction.  The jumps give its class: B is invertible, and
the module etale, exactly when every r_i is r; A is invertible, and the
module multiplicative, exactly when every r_i is 0.  The transfer to the
divided-power side reads the normal form, where the filtration becomes an
adapted (coordinate-wise) condition.
"""

from __future__ import annotations

from . import breuil as breuil_mod
from .errors import NotInvertible
from .fl import _check_jumps, _random_jumps
from .matrix import RingMatrix
from .pd import _embed_sigma_all, _pd_one, _pd_zero, _phi_S_all
from .series import SigmaSeries


def _E_diag(amb, jumps) -> RingMatrix:
    """Lambda = diag(E^{r_1}, ..., E^{r_d}) over the series ring."""
    d = len(jumps)
    zero = SigmaSeries(amb, [])
    return RingMatrix([[amb.E_pow(jumps[i]) if i == j else zero for j in range(d)]
                       for i in range(d)])


class KisinModule:
    """The module with Frobenius matrix A = X * diag(E^{r_1}, ..., E^{r_d}) * Y.

    X and Y must be d x d and invertible modulo (p, u); the jumps must be
    d sorted integers in [0, r].  ``XL`` keeps the product X * Lambda, which
    the base change to S reads again."""

    def __init__(self, amb, X: RingMatrix, jumps, Y: RingMatrix):
        self.amb = amb
        self.d = X.rows
        self.jumps = _check_jumps(amb, self.d, jumps, X, Y)
        if not X.residue_invertible() or not Y.residue_invertible():
            raise NotInvertible("X and Y must lie in GL_d of the series ring")
        self.X = X
        self.Y = Y
        self.XL = X @ _E_diag(amb, self.jumps)
        self.A = self.XL @ Y


def _embed_matrix(A: RingMatrix) -> RingMatrix:
    return A.map_all(_embed_sigma_all)


def kisin_to_breuil(K: KisinModule) -> "breuil_mod.BreuilModule":
    """Base change to the divided-power ring along the Frobenius.

    In the basis f = (1 (x) e) * Y^{-1} the Frobenius matrix becomes
    Y * phi(X Lambda) (Y embedded plainly, the rest through phi), and the
    top filtration is adapted with the normal-form jumps: a coordinate
    vector w lies in Fil^r exactly when w_i has filtration valuation at
    least r - r_i.  The adapted basis is the identity, its own inverse.
    """
    amb = K.amb
    phi_XL = _embed_matrix(K.XL).map_all(_phi_S_all)
    Phi = _embed_matrix(K.Y) @ phi_XL
    B = breuil_mod.BreuilModule(
        amb=amb,
        Phi=Phi,
        Nmat=None,
        C=RingMatrix.identity(K.d, _pd_zero(amb), _pd_one(amb)),
        jumps=K.jumps,
    )
    B._C_inv = B.C
    return B


def _kisin_raw_fil_checker(K: KisinModule):
    """Membership test for the top filtration straight from its definition.

    Returns a callable on coordinate vectors (in the transferred basis f):
    the linearised Frobenius of the element must land in Fil^r S tensor the
    module, i.e. every component of embed(A) * embed(Y)^{-1} * w, with
    A = X Lambda Y the module's own matrix, must have filtration valuation
    at least r: ``_adapted_level`` of those components with jumps 0
    reaches r.  Independent of the adapted shortcut: it inverts embed(Y)
    over S (``RingMatrix.invert``) and multiplies out.  The product on
    r-jets is one table (``breuil._jet_table``), built with the callable,
    which keeps it.

    ``_adapted_level`` tests the product at N_p digits, which read only A
    and Y mod p^N_p (embedding, inversion and products commute with the
    reduction), so the matrix is built from A and Y cut to N_p.
    """
    amb = K.amb
    A, Y = K.A.truncate(amb.N_p), K.Y.truncate(amb.N_p)
    full = _embed_matrix(A) @ _embed_matrix(Y).invert()
    zeros = (0,) * K.d
    table = breuil_mod._jet_table(amb, full, zeros)

    def check(w) -> bool:
        return breuil_mod._adapted_level(amb, full, zeros, w, table) == amb.r

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
    if jumps is None:
        jumps = _random_jumps(amb, rng, d)
    # checked against d here: the constructor reads the rank off X, and
    # range(d) builds an empty X for every d <= 0
    jumps = _check_jumps(amb, d, jumps)

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

    return KisinModule(amb, rand_gl(False), jumps, rand_gl(True))
