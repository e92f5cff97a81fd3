"""The two functors between Fontaine-Laffaille and strongly divisible
modules, the phi-equivariant section, flag adaptation over W(k) and the
transport between a module over S and its reduction.

Forward direction: base change along W(k) -> S.  The Frobenius matrix
becomes Ftil * diag(p^{r_i}) (constant entries), the monodromy is the
derivation alone (zero matrix), and the tensor-product filtration is the
adapted presentation with the same jumps.

Backward direction: reduce mod u and split.  Writing A for the Frobenius
matrix and A_0 = f_0(A) its value at u = 0, the section's matrix is the
limit of

    B_{n+1} = A * phi(B_n) * A_0^{-1},     B_0 = A * A_0^{-1},

algebraically the partial products A phi(A) ... phi^n(A) phi^n(A_0^{-1})
... A_0^{-1}.  p^r A_0^{-1} is integral, every iterate is in GL_d(S) with
f_0(B_n) = I, and the increment B_{n+1} - B_n carries p-valuation at least
p + p^2 + ... + p^{n+1} - r(n+1), which gives the stabilisation bound.  The
first iterate satisfies p (B_0 - I) in u^p Mat(S); that membership is
checked in exact u-divided-power coordinates.

The limit solves B f_0(A) = A phi(B): the fixed-point certificate.  Each
step divides by p^r once, so the iteration spends r digits a step: by
default it runs at the internal precision (N_p plus headroom), and a caller
that reads only prec digits of the section (the CLI's ``section``, prec =
N_p) has it run on inputs cut to prec plus the digits its steps spend.
"""

from __future__ import annotations

from collections import namedtuple

from .breuil import BreuilModule, breuil_validate
from .errors import (
    A0NotScaledIntegral,
    NonConvergent,
    NotCris,
    NotDirectSummand,
    NotDivisible,
    NotStrong,
    PrecisionExhausted,
    SingularMatrix,
)
from .fl import FLModule, _fl_frobenius_matrix, _fl_from_frobenius, fl_validate
from .matrix import RingMatrix, _scaled_inverse
from .pd import (
    _all_in_u_power_ideal,
    _eval_f0,
    _eval_fpi,
    _pd_from_scalar,
    _pd_one,
    _pd_zero,
    _phi_S_all,
)
from .witt import WittScalar


def _f0_matrix(M: RingMatrix) -> RingMatrix:
    """Entrywise evaluation at u = 0, landing over W(k)."""
    return M.map_entries(_eval_f0)


def _embed_w_matrix(amb, M: RingMatrix) -> RingMatrix:
    """Constants of W(k) viewed inside S."""
    return M.map_entries(lambda x: _pd_from_scalar(amb, x))


def _phi_matrix(M: RingMatrix) -> RingMatrix:
    """Entrywise phi_S: one apply of the context's table to all entries."""
    return M.map_all(_phi_S_all)


def _fpi_matrix(M: RingMatrix) -> RingMatrix:
    """Entrywise evaluation at u = pi, landing over W(k)."""
    return M.map_entries(_eval_fpi)


# --- forward functor ---

def fl_to_breuil(M: FLModule) -> BreuilModule:
    """Base change to S: Phi = Ftil diag(p^{r_i}) as constants, N the bare
    derivation, identity adapted basis (its own inverse), unchanged
    jumps."""
    amb = M.amb
    zero = _pd_zero(amb)
    B = BreuilModule(
        amb=amb,
        Phi=_embed_w_matrix(amb, _fl_frobenius_matrix(M)),
        Nmat=RingMatrix.zeros(M.d, M.d, zero),
        C=RingMatrix.identity(M.d, zero, _pd_one(amb)),
        jumps=M.jumps,
    )
    B._C_inv = B.C
    return B


# --- the section ---

# the steps past twice the rate bound that the section iteration takes
# before it gives up with NonConvergent
_STEP_CUSHION = 4

SectionResult = namedtuple("SectionResult", [
    "Bmat",                 # section matrix: at least prec digits when
                            # prec is given, else at internal precision
    "iterations",           # first n with B_{n+1} = B_n mod p^N_p in every
                            # gamma_i, i < N_gamma - 1: depends on N_gamma too
    "residual_valuation",   # certified valuation of B f0(A) - A phi(B)
    "exact",                # residual vanishes at N_p
    "B0_claim_ok",          # p (B_0 - I) lies in u^p Mat(S)
    "f0_identity",          # f_0(B_n) = I held at every step
    "rate_bound",           # stabilisation bound from the p-power gain
    "residual",             # B f0(A) - A phi(B), at the precision of Bmat
    "Phi",                  # the Frobenius matrix A solved for
])


def section_compute(B: BreuilModule, prec: int | None = None) -> SectionResult:
    """Compute the unique phi-equivariant splitting of the reduction mod u.

    Runs the fixed-point iteration in the module's own basis.  On
    presentations coming from the normal form the iteration count never
    exceeds the rate bound; elsewhere it is best effort and NonConvergent
    is raised after twice the bound plus ``_STEP_CUSHION`` steps.

    The count ``iterations`` is the first n with B_(n+1) = B_n mod p^N_p
    in every gamma-coefficient below N_gamma - 1, as the stop test
    compares them all (``PDElement.eq_at``, which never reads the top
    index).  It is not a function of the module mod p^N_p alone: a
    context with a larger N_gamma keeps coefficients that may settle a
    step later, while the section agrees mod p^N_p.

    ``prec`` (N_p <= prec <= cap, else ValueError) is the number of digits
    of ``Bmat`` the caller reads.  Without it the iteration runs at the
    precision of A and p^r A_0^(-1).  With it, p^r A_0^(-1) is still
    computed at full precision, and the iteration runs on A and p^r
    A_0^(-1) cut to L = prec + r (s + 2) digits, first with s = rate
    bound, then, if it has not stabilised within s steps, once more with
    s = the step budget.  Step n of a run tests at p^(N_p + (n + 2) r) and
    the result divides by p^((n + 2) r), so L suffices for steps 0 .. s
    and leaves ``Bmat`` at least prec digits; ``residual`` and the
    verdicts are computed from that ``Bmat``.

    The iterates are numerators over p^t and only ring operations make
    them (products, phi_S, sums), so mod p^L they depend only on A and p^r
    A_0^(-1) mod p^L: a cut run holds the full run's values mod p^L, and
    every zero, divisibility and valuation test it makes, at most at p^L,
    reads only those digits.  So a cut run that stabilises is the answer:
    its ``iterations``, ``exact``, ``B0_claim_ok``, ``f0_identity``,
    ``residual_valuation`` and ``Bmat`` mod p^prec are the ones computed
    without ``prec``.
    """
    amb = B.amb
    at = amb.N_p
    d = B.d
    A = B.Phi
    A0_w = _f0_matrix(A)
    try:
        scaled = _scaled_inverse(A0_w, amb.r)
    except (NotDivisible, SingularMatrix) as exc:
        raise A0NotScaledIntegral(f"p^r A_0^(-1) is not integral: {exc}") from exc
    A0inv = _embed_w_matrix(amb, scaled)      # p^r A_0^(-1), integral
    A0_pd = _embed_w_matrix(amb, A0_w)
    ident_w = RingMatrix.identity(d, amb.ring.zero(), amb.ring.one())
    ident_pd = RingMatrix.identity(d, _pd_zero(amb), _pd_one(amb))
    r = amb.r
    rate = amb.rate_bound()
    max_steps = 2 * rate + _STEP_CUSHION

    # (digits of the run, or None for no cut; steps it may take)
    runs = [(None, max_steps)]
    if prec is not None:
        if not at <= prec <= amb.cap:
            raise ValueError(f"section precision {prec} outside [{at}, {amb.cap}]")
        # the rate bound, then the step budget, which always exceeds it
        runs = [(prec + r * (s + 2), s) for s in (rate, max_steps)
                if prec + r * (s + 2) < amb.cap] + runs

    # Iterate n is kept as its numerator over p^t, t = (n + 1) r, and each
    # comparison first scales the side with the lower exponent: away from
    # the normal-form basis a finite iterate may leave the integral lattice
    # even though the limit never does.  Once the sequence stabilises mod
    # p^N_p the numerator is divisible by p^t (limit integral, discrepancy
    # p-deep), so a single final division is always the right move.
    for L, steps in runs:
        A_L, A0inv_L = (A, A0inv) if L is None else (A.truncate(L), A0inv.truncate(L))
        t = r
        B0 = A_L @ A0inv_L
        try:
            diff = B0.map_entries(lambda x: x.div_p_exact(r)) - ident_pd
            claim = _all_in_u_power_ideal([x.mul_p_pow(1) for row in diff.entries for x in row],
                                          amb.p, at)
        except NotDivisible:
            claim = False  # a non-integral first iterate certainly fails it

        f0_ok = _f0_matrix(B0).eq_at(ident_w.mul_p_pow(t), at + t)
        cur = B0
        for iterations in range(steps + 1):
            nxt = A_L @ _phi_matrix(cur) @ A0inv_L
            t += r
            f0_ok = f0_ok and _f0_matrix(nxt).eq_at(ident_w.mul_p_pow(t), at + t)
            stable = nxt.eq_at(cur.mul_p_pow(r), at + t)
            cur = nxt
            if stable:
                break
        if stable:
            break
        if steps == max_steps:
            raise NonConvergent(
                f"no stabilisation mod p^{at} within {max_steps + 1} steps "
                f"(rate bound {rate}); expected only away from normal-form bases"
            )
    try:
        cur = cur.map_entries(lambda x: x.div_p_exact(t))
    except NotDivisible as exc:
        raise NonConvergent(
            f"stabilised iterate failed to normalise: {exc}"
        ) from exc

    residual = cur @ A0_pd - A @ _phi_matrix(cur)
    res_val = min([at] + [x.valuation() for row in residual.entries for x in row])
    return SectionResult(
        Bmat=cur,
        iterations=iterations,
        residual_valuation=res_val,
        exact=res_val >= at,
        B0_claim_ok=claim,
        f0_identity=f0_ok,
        rate_bound=rate,
        residual=residual,
        Phi=A,
    )


# --- flag adaptation over W ---

def _flag_adapt(T: RingMatrix, jumps) -> tuple[RingMatrix, tuple[int, ...]]:
    """Build a basis adapted to the flag of W-spans in W^d whose step i is
    spanned by the columns j of the square matrix T with jumps[j] >= i.

    Reduces each column once, in order of descending jump (ties by column
    index), against the basis found so far; a reduced column must expose a
    unit pivot, otherwise its step is not a direct summand.  Returns
    (g, jumps) with jumps ascending and g's columns the adapted basis in
    matching order.
    """
    chosen: list[tuple] = []   # (vector, pivot row, inverse of the pivot, level)
    for j in sorted(range(len(jumps)), key=lambda j: -jumps[j]):
        w = list(T.col(j))
        for bvec, prow, inv, _ in chosen:
            c = w[prow] * inv
            if any(c.coeffs):
                w = [wi - c * bi for wi, bi in zip(w, bvec)]
        pivot = next((i for i, wi in enumerate(w) if wi.is_unit()), None)
        if pivot is None:
            raise NotDirectSummand(f"filtration step {jumps[j]} is not a direct summand")
        chosen.append((w, pivot, w[pivot].invert(), jumps[j]))
    chosen.sort(key=lambda t: t[3])
    return RingMatrix(zip(*(t[0] for t in chosen))), tuple(t[3] for t in chosen)


# --- backward functor ---

FLTransport = namedtuple("FLTransport", [
    "M",                    # the reduction, over W(k)
    "section",              # the SectionResult it was split by
    "g_w",                  # adapted basis change over W: the section basis
                            # Bmat embed(g_w) with M's jumps presents the
                            # tensor-product filtration
])


def breuil_to_fl(B: BreuilModule, section: SectionResult | None = None,
                 adjoin_zero_n: bool = False) -> FLTransport:
    """Reduction mod u with the filtration pushed through the section; the
    reduction is the transport's ``M``.

    Requires the crystalline condition (monodromy inside u times the
    module), strong divisibility, Griffiths transversality and the phi/N
    square, all read from ``breuil_validate``: a module failing one is
    outside the category, and refused.
    A ``section`` passed in must have been computed for this module's
    ``Phi`` (the same object), else ValueError: its residual stands in for
    the Frobenius in the conjugation check.
    A module without monodromy data is accepted only with
    ``adjoin_zero_n``, the crystalline-with-trivial-N reading of a
    Frobenius-only input.
    """
    amb = B.amb
    at = amb.N_p
    if section is not None and section.Phi is not B.Phi:
        raise ValueError("the section was computed for another module's Frobenius")
    if B.Nmat is None and not adjoin_zero_n:
        raise NotCris("no monodromy matrix; pass adjoin_zero_n=True (the CLI's "
                      "--adjoin-zero-n) to read the module as crystalline with trivial N")
    report = breuil_validate(B)
    if report.cris is False:
        raise NotCris("monodromy does not land in u times the module")
    if not report.strongly_divisible:
        raise NotStrong("input is not strongly divisible")
    if report.griffiths is False:
        raise NotStrong("input fails Griffiths transversality: N(Fil^r) is not in Fil^(r-1)")
    if report.diagram is False:
        raise NotStrong("input fails the phi/N square: N phi_r != c phi_r N")

    sec = section if section is not None else section_compute(B)
    Bm = sec.Bmat
    # f_pi(Bm) is Bm's gamma_0 part: its one inverse over W(k) serves the
    # filtration below and, cut to the solve's precision (where the inverse
    # is unique, so the same ints), the solve
    Bm_pi_inv = _fpi_matrix(Bm).invert()

    # Frobenius of the reduction: the section basis makes Phi constant.
    # Bm^(-1) Phi phi(Bm) = f0(Phi) - Bm^(-1) R with R = Bm f0(Phi) - Phi phi(Bm)
    # the section's residual, since Bm^(-1) Bm = I holds exactly in the
    # truncated ring: one solve, and no inverse of Bm.
    corr = sec.residual
    if B.d:
        k = min(x.prec for M in (Bm, corr) for row in M.entries for x in row)
        corr = RingMatrix(Bm[0, 0].solve(Bm.entries, Bm_pi_inv.truncate(k).entries,
                                         corr.entries))
    conj = _embed_w_matrix(amb, _f0_matrix(B.Phi)) - corr
    FM = _f0_matrix(conj)
    if not conj.eq_at(_embed_w_matrix(amb, FM), at):
        raise NonConvergent("conjugated Frobenius is not constant at precision")

    # Filtration of the reduction: images at u = pi of the adapted columns,
    # expressed in the section basis, with their jumps.  f_pi reads the
    # gamma_0 coefficient and (xy)_0 = x_0 y_0, so it is a ring map of the
    # truncated ring, and f_pi(Bm^(-1) C) = f_pi(Bm)^(-1) f_pi(C) is
    # computed over W(k): the same scalars at the same precision.
    g, jumps = _flag_adapt(Bm_pi_inv @ _fpi_matrix(B.C), B.jumps)

    M = _fl_from_frobenius(amb, g.invert() @ FM @ g.map_entries(WittScalar.frobenius), jumps)
    short = min((x.prec for row in M.Ftil.entries for x in row), default=at)
    if short < at:
        raise PrecisionExhausted(f"the reduction's Ftil is known to {short} digits, "
                                 f"below N_p = {at}")
    if not fl_validate(M):
        raise NotStrong("reduction fails strongness")
    return FLTransport(M, sec, g)
