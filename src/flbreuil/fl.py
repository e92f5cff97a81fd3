"""Fontaine-Laffaille modules in adapted-basis presentation.

A module of rank d is stored through its filtration jumps r_1 <= ... <= r_d
(the basis vector e_i lies in Fil^{r_i} M but not Fil^{r_i+1} M) and the
divided-Frobenius matrix Ftil over W(k), whose column i is phi_{r_i}(e_i) in
the basis e (d is the size of Ftil).  The plain Frobenius phi = phi_0 then
has matrix

    F = Ftil * diag(p^{r_i}).

With an adapted basis, the sum of the images phi_i(Fil^i M) is exactly the
column span of Ftil (the arithmetic Frobenius is bijective on W), so the
module is strong precisely when Ftil is invertible.  The matrix
V = diag(p^{r - r_i}) * Ftil^{-1} satisfies F V = p^r I, and the module is
unipotent exactly when the twisted product of V tends to zero
(``fl_unipotent``).  The jumps alone say whether it is etale (every r_i is
r) or multiplicative (every r_i is 0).

F and its inverse live here alone: ``_fl_frobenius_matrix`` scales column j
by p^{r_j}, ``_fl_from_frobenius`` divides it back and raises NotStrong when
it cannot.  ``fl_transport`` needs a flag-preserving g (p^{r_j - r_i}
divides g_{ij} whenever r_i < r_j) and raises NotStrong for any other.
"""

from __future__ import annotations

from .errors import MalformedJumps, NotDivisible, NotInvertible, NotStrong
from .matrix import RingMatrix, _converges_to_zero
from .witt import WittScalar


def _check_jumps(amb, d: int, jumps, *mats: RingMatrix) -> tuple[int, ...]:
    """The jumps as a tuple, checked to be d sorted integers in [0, r];
    each matrix in ``mats`` must be d x d, which is checked first."""
    jumps = tuple(jumps)
    if d < 0:
        raise MalformedJumps(f"rank must be at least 0, got {d}")
    if any(M.rows != d or M.cols != d for M in mats):
        raise MalformedJumps("matrix dimensions do not match the rank")
    if any(not isinstance(j, int) or isinstance(j, bool) for j in jumps):
        raise MalformedJumps(f"jumps {jumps} must be integers")
    if len(jumps) != d:
        raise MalformedJumps(f"expected {d} jumps, got {len(jumps)}")
    if any(not 0 <= j <= amb.r for j in jumps):
        raise MalformedJumps(f"jumps {jumps} outside [0, {amb.r}]")
    if any(jumps[i] > jumps[i + 1] for i in range(d - 1)):
        raise MalformedJumps(f"jumps {jumps} not sorted ascending")
    return jumps


def _random_jumps(amb, rng, d: int) -> tuple[int, ...]:
    """d jumps drawn uniformly from [0, r], sorted ascending."""
    return tuple(sorted(rng.randrange(amb.r + 1) for _ in range(d)))


class FLModule:
    def __init__(self, amb, jumps, Ftil: RingMatrix):
        self.amb = amb
        self.d = Ftil.rows
        self.jumps = _check_jumps(amb, self.d, jumps, Ftil)
        self.Ftil = Ftil


def fl_validate(M: FLModule) -> bool:
    """Strongness: the images of the divided Frobenii span the module,
    which for an adapted presentation means Ftil is invertible over W."""
    return M.Ftil.residue_invertible()


def _fl_frobenius_matrix(M: FLModule) -> RingMatrix:
    """Matrix of phi = phi_0: column j of Ftil scaled by p^{r_j}."""
    cols = M.jumps
    return RingMatrix(
        [[M.Ftil.entries[i][j].mul_p_pow(cols[j]) for j in range(M.d)] for i in range(M.d)],
    )


def _fl_from_frobenius(amb, F: RingMatrix, jumps) -> FLModule:
    """The module with jumps r_j whose Frobenius matrix is F: column j of F
    divided by p^{r_j}, the inverse of ``_fl_frobenius_matrix``.  Raises
    NotStrong when a column is not divisible by its power of p."""
    d = len(jumps)
    try:
        Ftil = RingMatrix([[F.entries[i][j].div_p_exact(jumps[j]) for j in range(d)]
                           for i in range(d)])
    except NotDivisible as exc:
        raise NotStrong(f"divided Frobenius is not integral: {exc}") from exc
    return FLModule(amb, jumps, Ftil)


def _fl_v_matrix(M: FLModule) -> RingMatrix:
    """V = diag(p^{r-r_i}) Ftil^{-1}, with F V = V F = p^r I."""
    try:
        inv = M.Ftil.invert()
    except NotInvertible as exc:
        raise NotStrong("V-matrix needs an invertible Ftil") from exc
    amb = M.amb
    return RingMatrix(
        [[inv.entries[i][j].mul_p_pow(amb.r - M.jumps[i]) for j in range(M.d)] for i in range(M.d)],
    )


def fl_unipotent(M: FLModule) -> bool:
    """Whether the twisted product of V vanishes mod p^N_p."""
    return _converges_to_zero(_fl_v_matrix(M), WittScalar.frobenius, M.amb.N_p)


def _random_fl(amb, rng, d: int, jumps=None) -> FLModule:
    """Random strong module: Ftil sampled in GL_d(W)."""
    if jumps is None:
        jumps = _random_jumps(amb, rng, d)
    jumps = _check_jumps(amb, d, jumps)
    while True:
        Ftil = RingMatrix([[amb.ring.random(rng) for _ in range(d)] for _ in range(d)])
        if Ftil.residue_invertible():
            return FLModule(amb, jumps, Ftil)


def _random_unipotent_fl(amb, rng, d: int) -> FLModule:
    """Random strong module screened to be unipotent via the V-product."""
    while True:
        M = _random_fl(amb, rng, d, _random_jumps(amb, rng, d))
        if fl_unipotent(M):
            return M


def fl_transport(M: FLModule, g: RingMatrix) -> FLModule:
    """The same module in the basis e g, for flag-preserving g.

    F transforms semilinearly, F' = g^{-1} F sigma(g), and
    ``_fl_from_frobenius`` divides it back.  Since Ftil is invertible,
    column j of F sigma(g) is divisible by p^{r_j} exactly when p^{r_j - r_i}
    divides sigma(g)_{ij} for every r_i < r_j: that is the flag condition,
    and a g that breaks it raises NotStrong."""
    sg = g.map_entries(WittScalar.frobenius)
    return _fl_from_frobenius(M.amb, g.invert() @ _fl_frobenius_matrix(M) @ sg, M.jumps)
