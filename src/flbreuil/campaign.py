"""Verification suites: randomized, seeded, reproducible.

Each suite function takes (amb, rng, cfg) and returns a list of check
records {"check": str, "ok": bool, ...}; a failing record carries enough
data (seed, instance JSON) to replay in isolation.  The round trips
``_roundtrip_fl`` and ``_roundtrip_breuil`` build their records here from the
two functors and the section of ``functors``.  ``_run_campaign`` runs
every (suite, seed) pair, optionally over a process pool, and returns the
records in suite and seed order; ``_summarise`` counts them per suite.
Randomness is derived from "suite:seed" strings, so runs are reproducible
across processes.
"""

from __future__ import annotations

import random

from . import breuil as BR
from . import fl as FL
from . import functors as FU
from . import kisin as KI
from . import pd as P
from . import serialize as SER
from .ambient import shared_params
from .errors import KernelError, NonConvergent, NotDirectSummand, NotStrong
from .matrix import RingMatrix


def _rec(check, ok, of=None, **detail):
    """The record of one check.  With ``of``, the instance checked, it
    carries ``instance``, last: the instance's document when the check
    fails, so that it replays alone, and None when it passes."""
    out = {"check": check, "ok": bool(ok)}
    if detail:
        out.update(detail)
    if of is not None:
        out["instance"] = None if ok else SER.to_json(of)
    return out


# --- ring laws (criterion 1) ---

def _suite_ring_laws(amb, rng, cfg):
    n = cfg.get("samples", 100)
    recs = []

    ok_assoc = ok_dist = ok_hom = ok_inv = ok_frobp = True
    for _ in range(n):
        x, y, z = (amb.ring.random(rng) for _ in range(3))
        xy = x * y
        ok_assoc &= (xy * z) == (x * (y * z))
        ok_dist &= (x * (y + z)) == (xy + x * z)
        sx, sy = x.frobenius(), y.frobenius()
        ok_hom &= ((x + y).frobenius() == sx + sy) and (xy.frobenius() == sx * sy)
        ok_frobp &= (sx - x ** amb.p).is_zero_at(1)
        u = amb.ring.random_unit(rng)
        ok_inv &= (u.invert() * u).eq_at(amb.ring.one(), u.prec)
    recs.append(_rec("witt-associativity", ok_assoc, n=n))
    recs.append(_rec("witt-distributivity", ok_dist, n=n))
    recs.append(_rec("witt-frobenius-hom", ok_hom, n=n))
    recs.append(_rec("witt-frobenius-mod-p", ok_frobp, n=n))
    recs.append(_rec("witt-invert", ok_inv, n=n))

    at = amb.N_p
    ok_leib = ok_phimul = ok_f0 = ok_filmul = ok_fpi = True
    for _ in range(n):
        x = P._pd_random_calibrated(amb, rng, 5, 2)
        y = P._pd_random_calibrated(amb, rng, 5, 2)
        xy, phx = x * y, P.phi_S(x)
        lhs = P.n_S(xy)
        rhs = P.n_S(x) * y + x * P.n_S(y)
        ok_leib &= lhs.eq_at(rhs, at)
        ok_phimul &= P.phi_S(xy).eq_at(phx * P.phi_S(y), at)
        ok_f0 &= P._eval_f0(phx).eq_at(P._eval_f0(x).frobenius(), at)
        vx, vy = P._fil_valuation(x, at), P._fil_valuation(y, at)
        ok_filmul &= P._fil_valuation(xy, at) >= min(vx + vy, amb.N_gamma)
        s = amb.useries([rng.randrange(amb.ring.pk[amb.cap]) for _ in range(4)])
        q = amb.neg_pa
        acc, qp = amb.ring.zero(), amb.ring.one()
        for i in range(4):
            acc = acc + s.coeff(i) * qp
            qp = qp * q
        ok_fpi &= P._eval_fpi(P._embed_sigma(s)).eq_at(acc, at)
    recs.append(_rec("pd-n-derivation", ok_leib, n=n))
    recs.append(_rec("pd-phi-multiplicative", ok_phimul, n=n))
    recs.append(_rec("pd-f0-phi-commutes", ok_f0, n=n))
    recs.append(_rec("pd-fil-multiplicative", ok_filmul, n=n))
    recs.append(_rec("pd-fpi-embed", ok_fpi, n=n))

    # N phi = p phi N on Fil^1, termwise on low gamma indices
    ok_nphi = True
    for i in range(1, min(6, amb.N_gamma)):
        g = P._pd_gamma(amb, i)
        lhs = P.n_S(P.phi_S(g))
        rhs = P.phi_S(P.n_S(g)).mul_p_pow(1)
        ok_nphi &= lhs.eq_at(rhs, at)
    recs.append(_rec("pd-nphi-pphin", ok_nphi, n=min(5, amb.N_gamma - 1)))
    return recs


# --- the one-step filtration descent (criterion 2) ---

def _easylemma_holds(amb, s, i: int) -> bool:
    """Mod p^N_p: s and N(s) in Fil^i forces s into Fil^(i+1)."""
    at = amb.N_p
    hyp = P._fil_valuation(s, at) >= i and P._fil_valuation(P.n_S(s), at) >= i
    if not hyp:
        return True
    return P._fil_valuation(s, at) >= i + 1


def _suite_easylemma(amb, rng, cfg):
    n = cfg.get("samples", 20)
    recs = []
    if amb.r < 2:
        return [_rec("easylemma-vacuous", True, note="r < 2 leaves no levels to test")]
    # N(gamma_i) = -i gamma_i + p a gamma_(i-1): the witness coefficient has
    # valuation 1 and vanishes mod p, so the witnesses are read at two digits
    # at least (the samples carry cap precision)
    at = max(amb.N_p, 2)
    for i in range(1, amb.r):
        ok_pos = True
        for _ in range(n):
            # exact member of Fil^(i+1): hypothesis holds, conclusion must too
            body = P._pd_random_calibrated(amb, rng, amb.N_gamma - i - 2, 2)
            s = P._pd_shift(body, i + 1)
            ok_pos &= _easylemma_holds(amb, s, i)
        recs.append(_rec(f"easylemma-positive-i{i}", ok_pos, n=n))

        ok_neg = True
        for _ in range(n):
            # unit coefficient at gamma_i: N(s) must visibly leave Fil^i
            tail = P._pd_random_calibrated(amb, rng, amb.N_gamma - i - 2, 2)
            s = P._pd_gamma(amb, i, amb.ring.random_unit(rng)) + P._pd_shift(tail, i + 1)
            ok_neg &= P._fil_valuation(P.n_S(s), at) < i
            ok_neg &= P._fil_valuation(s, at) < i + 1
        g = P._pd_gamma(amb, i)
        ok_neg &= P._fil_valuation(P.n_S(g), at) == i - 1
        recs.append(_rec(f"easylemma-witness-i{i}", ok_neg, n=n))
    return recs


# --- the two filtrations agree (criteria 3 and 11) ---

def _suite_lemfil1(amb, rng, cfg):
    n_elems = cfg.get("elements", 200)
    d = rng.randrange(1, 4)
    M = FL._random_fl(amb, rng, d)
    B = FU.fl_to_breuil(M)
    recs = []

    rep = BR.breuil_validate(B)
    recs.append(_rec("mls-image-validates", rep.all_true(),
                     strongly_divisible=rep.strongly_divisible,
                     griffiths=rep.griffiths, diagram=rep.diagram, cris=rep.cris, of=M))

    bad = FL.FLModule(amb, M.jumps, M.Ftil.mul_p_pow(1))
    rep_bad = BR.breuil_validate(FU.fl_to_breuil(bad))
    recs.append(_rec("mls-notstrong-detected", not rep_bad.strongly_divisible))

    mism = 0
    for k in range(n_elems):
        if k % 2 == 0:
            level = rng.randrange(amb.r + 1)
            x = BR._random_fil_member(B, rng, level)
        else:
            x = BR._random_vector(B, rng, max_index=6)
        # both filtrations are nested, so the levels 0..r on which they
        # disagree lie between their two top levels; both are read at the
        # sample's own precision, as the recursive test loses a digit per N
        at = min(c.prec for c in x)
        mism += abs(BR.fil_level(B, x, at) - BR.hat_fil_level(B, x, at))
    recs.append(_rec("tensor-vs-hat", mism == 0, elements=n_elems, mismatches=mism, of=M))
    return recs


# --- section suite (criteria 4, 5, 6) ---

def _suite_section(amb, rng, cfg):
    recs = []
    d = rng.randrange(1, 4)

    M = FL._random_fl(amb, rng, d)
    Bfl = FU.fl_to_breuil(M)
    sec = FU.section_compute(Bfl)
    ident = RingMatrix.identity(d, P._pd_zero(amb), P._pd_one(amb))
    prec = min(x.prec for row in sec.Bmat.entries for x in row)
    tele = (sec.iterations == 0 and sec.Bmat.eq_at(ident, prec)
            and sec.exact and sec.f0_identity)
    recs.append(_rec("section-telescopes-on-base-change", tele,
                     iterations=sec.iterations, of=M))

    K = KI.random_gls(amb, rng, d)
    B = KI.kisin_to_breuil(K)
    try:
        # the records read N_p digits of the section, and a run cut to them
        # gives the full run's (``section_compute``); the base change above
        # stays uncut, as its telescoping test reads every digit of Bmat
        sec = FU.section_compute(B, prec=amb.N_p)
        ok_rate = sec.iterations <= sec.rate_bound
        ok_cert = sec.exact and sec.f0_identity and sec.Bmat.residue_invertible()
        recs.append(_rec("section-rate-bound", ok_rate,
                         iterations=sec.iterations, bound=sec.rate_bound, of=K))
        recs.append(_rec("section-fixed-point-certificate", ok_cert,
                         residual_valuation=sec.residual_valuation, of=K))
        recs.append(_rec("section-first-iterate-claim", sec.B0_claim_ok, of=K))
    except KernelError as exc:
        recs.append(_rec("section-rate-bound", False, error=f"{type(exc).__name__}: {exc}",
                         of=K))
    return recs


# --- round trips (criteria 7, 8) ---

def _roundtrip_fl(M) -> dict:
    """The ``roundtrip-fl-exact`` record of ``M``: FL -> S -> FL must
    reproduce jumps and Ftil on the nose."""
    amb = M.amb
    if not FL.fl_validate(M):
        raise NotStrong("round trip needs a strong module")
    if amb.r == amb.p - 1 and not FL.fl_unipotent(M):
        raise NotStrong("with r = p-1 the equivalence needs a unipotent module")
    B = FU.fl_to_breuil(M)
    sec = FU.section_compute(B)
    M2 = FU.breuil_to_fl(B, section=sec).M
    ok = M2.jumps == M.jumps and M2.Ftil.eq_at(M.Ftil, amb.N_p)
    sec_prec = min(x.prec for row in sec.Bmat.entries for x in row)
    ident = RingMatrix.identity(M.d, P._pd_zero(amb), P._pd_one(amb))
    return _rec("roundtrip-fl-exact", ok,
                details={"iterations": sec.iterations,
                         "section_is_identity": sec.Bmat.eq_at(ident, sec_prec),
                         "jumps": list(M2.jumps)},
                of=M)


def _suite_roundtrip_fl(amb, rng, cfg):
    d = rng.randrange(1, 4)
    if amb.r == amb.p - 1:
        M = FL._random_unipotent_fl(amb, rng, d)
    else:
        M = FL._random_fl(amb, rng, d)
    return [_roundtrip_fl(M)]


def _random_congruent_identity(amb, rng, d: int) -> RingMatrix:
    """Random g = I + p*(support 4), which lies in GL_d(S) as g = I mod p."""
    return RingMatrix([
        [
            (P._pd_one(amb) if i == j else P._pd_zero(amb))
            + P._pd_random_calibrated(amb, rng, 4, 0).mul_p_pow(1)
            for j in range(d)
        ]
        for i in range(d)
    ])


def _roundtrip_breuil_checks(Bt, g, transport, xs) -> tuple[bool, bool, bool]:
    """The relations ``_roundtrip_breuil`` checks on the section Bmat of
    ``transport`` (``functors.breuil_to_fl`` of Bt, the base change
    re-presented by g): the closed form g^(-1) f_0(g), the N-equivariance
    Nmat Bmat + N_S(Bmat) = 0 with Bt's Nmat, and whether ``fil_lower`` at
    step r agrees on each of xs between Bt and the tensor filtration, the
    same Phi and N presented with adapted basis Bmat embed(g_w) and the
    reduction's jumps.  Each is read mod p^N_p, and reduction mod p^N_p
    commutes with products, inversion, f_0 and N_S, so g, Bmat and Nmat
    are cut to N_p first."""
    amb = Bt.amb
    at = amb.N_p
    g, Bm, Nmat = (X.truncate(at) for X in (g, transport.section.Bmat, Bt.Nmat))
    # Bmat = g^(-1) f_0(g) exactly when g Bmat = f_0(g), g being invertible:
    # the closed form costs one product and no second inverse of g
    matrix_exact = (g @ Bm).eq_at(FU._embed_w_matrix(amb, FU._f0_matrix(g)), at)
    resid = Nmat @ Bm + Bm.map_entries(P.n_S)
    # the top gamma coefficient of N on a truncated element is the one
    # coordinate the dropped tail can reach; eq_at does not read it
    n_ok = resid.eq_at(RingMatrix.zeros(resid.rows, resid.cols, P._pd_zero(amb)), at)
    Bs = BR.BreuilModule(amb, Bt.Phi, Bt.Nmat, Bm @ FU._embed_w_matrix(amb, transport.g_w),
                         transport.M.jumps)
    fil_ok = all(BR.fil_lower(Bt, amb.r, x, at) == BR.fil_lower(Bs, amb.r, x, at) for x in xs)
    return matrix_exact, n_ok, fil_ok


def _roundtrip_breuil(M, g, rng) -> dict:
    """The ``roundtrip-breuil`` record of S -> FL -> S on the base change of
    ``M`` re-presented by ``g`` (congruent to the identity mod p): the
    relations of ``_roundtrip_breuil_checks``, on 8 random elements drawn
    from ``rng``, must hold, and the reduction must have the jumps of
    ``M``.  A section that does not converge passes as ``converged``
    False; a round trip that fails after it does not.
    """
    amb = M.amb
    Bt = BR._rebase(FU.fl_to_breuil(M), g)
    try:
        sec = FU.section_compute(Bt)
    except NonConvergent as exc:
        return _rec("roundtrip-breuil", True, converged=False, relation="non-convergent",
                    details={"error": str(exc)}, of=M)
    try:
        transport = FU.breuil_to_fl(Bt, section=sec)
    except (NotStrong, NotDirectSummand, NonConvergent) as exc:
        return _rec("roundtrip-breuil", False, converged=True, relation="failed",
                    details={"error": str(exc)}, of=M)
    n_fil = 8
    xs = [BR._random_fil_member(Bt, rng, amb.r) if rng.random() < 0.5
          else BR._random_vector(Bt, rng, 6) for _ in range(n_fil)]
    matrix_exact, n_ok, fil_ok = _roundtrip_breuil_checks(Bt, g, transport, xs)

    exact = matrix_exact and n_ok and fil_ok
    ok = transport.M.jumps == M.jumps and exact
    return _rec("roundtrip-breuil", ok, converged=True,
                relation="exact" if exact else "failed",
                details={"iterations": sec.iterations,
                         "section_matches_closed_form": matrix_exact,
                         "n_equivariant": n_ok,
                         "fil_samples": n_fil},
                of=M)


def _suite_roundtrip_breuil(amb, rng, cfg):
    d = rng.randrange(1, 4)
    M = FL._random_fl(amb, rng, d)
    return [_roundtrip_breuil(M, _random_congruent_identity(amb, rng, d), rng)]


# --- unipotence preservation (criterion 9) ---

def _unipotence_agrees(M) -> tuple[bool, bool, bool]:
    fl_verdict = FL.fl_unipotent(M)
    br_verdict = BR.breuil_unipotent(FU.fl_to_breuil(M))
    return fl_verdict == br_verdict, fl_verdict, br_verdict


def _suite_unipotence(amb, rng, cfg):
    recs = []
    d = rng.randrange(1, 4)
    M = FL._random_fl(amb, rng, d)
    agree, flv, brv = _unipotence_agrees(M)
    recs.append(_rec("unipotence-random", agree, fl=flv, breuil=brv, of=M))
    ok = True
    for s in range(amb.r + 1):
        M1 = FL.FLModule(amb, (s,), RingMatrix([[amb.ring.one()]]))
        agree, flv, brv = _unipotence_agrees(M1)
        ok &= agree
        ok &= flv == (s < amb.r)  # rank one: unipotent iff the jump is below r
    swap = FL.FLModule(amb, (0, amb.r),
                       RingMatrix([[amb.w(0), amb.w(1)], [amb.w(1), amb.w(0)]]))
    agree, flv, brv = _unipotence_agrees(swap)
    # V = diag(p^r, 1) swap is unipotent (V^2 = p^r I) for r > 0; at r = 0 it
    # is the permutation itself, and no module is unipotent
    ok &= agree and flv == (amb.r > 0)
    recs.append(_rec("unipotence-crafted-family", ok))
    return recs


# --- raw vs adapted top filtration after the Kisin transfer (criterion 10) ---

def _suite_kisin_breuil(amb, rng, cfg):
    n_elems = cfg.get("elements", 200)
    d = rng.randrange(1, 4)
    K = KI.random_gls(amb, rng, d)
    B = KI.kisin_to_breuil(K)
    raw = KI._kisin_raw_fil_checker(K)
    mism = 0
    for k in range(n_elems):
        if k % 2 == 0:
            x = BR._random_fil_member(B, rng, amb.r)
        else:
            x = BR._random_vector(B, rng, max_index=6)
        if BR.fil_lower(B, amb.r, x) != raw(x):
            mism += 1
    strongly = BR.breuil_validate(B).strongly_divisible
    return [
        _rec("kisin-breuil-fil-agreement", mism == 0, elements=n_elems,
             mismatches=mism, of=K),
        _rec("kisin-breuil-strong-divisibility", strongly, of=K),
    ]


SUITES = {
    "ring-laws": _suite_ring_laws,
    "easylemma": _suite_easylemma,
    "lemfil1": _suite_lemfil1,
    "section": _suite_section,
    "roundtrip-fl": _suite_roundtrip_fl,
    "roundtrip-breuil": _suite_roundtrip_breuil,
    "unipotence": _suite_unipotence,
    "kisin-breuil-consistency": _suite_kisin_breuil,
}

# the configuration key of each suite's per-seed sample count (``verify
# --samples``); the other suites draw a fixed number of instances
_SAMPLE_KEYS = {"ring-laws": "samples", "easylemma": "samples",
                "lemfil1": "elements", "kisin-breuil-consistency": "elements"}


def run_suite_seed(params: dict, suite: str, seed: int, cfg: dict) -> list[dict]:
    amb = shared_params(**params)
    rng = random.Random(f"{suite}:{seed}")
    records = SUITES[suite](amb, rng, cfg)
    for rec in records:
        rec["suite"] = suite
        rec["seed"] = seed
    return records


def _worker(args):
    """One (suite, seed) task of a campaign.  A kernel error inside the suite
    becomes one failing record carrying the error, so one pair never aborts
    the campaign; `run_suite_seed` itself lets the error propagate."""
    params, suite, seed, cfg = args
    try:
        records = run_suite_seed(params, suite, seed, cfg)
    except KernelError as exc:
        records = [_rec("kernel-error", False, error=f"{type(exc).__name__}: {exc}",
                        suite=suite, seed=seed)]
    return suite, seed, records


def _run_campaign(params: dict, suites: list, seeds: list, config: dict,
                  jobs: int) -> list[dict]:
    """The records of every (suite, seed) pair, sorted stably by the suite's
    place in ``suites`` and then by seed.  ``params`` are the keyword
    arguments of ``AmbientParams`` and ``config`` maps a suite to its
    configuration; with ``jobs`` > 1 the pairs run in a process pool,
    whose module is imported only then: it loads multiprocessing, pickle,
    socket and subprocess, which a one-job run never needs."""
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    tasks = [(params, suite, seed, config.get(suite, {})) for suite in suites for seed in seeds]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, tasks))
    else:
        results = [_worker(t) for t in tasks]
    results.sort(key=lambda t: (suites.index(t[0]), t[1]))
    return [rec for _, _, recs in results for rec in recs]


def _summarise(records) -> dict:
    """suite -> {"pass", "fail", "failing_seeds"}, the counts of passing and
    failing records and the sorted seeds of the failing ones, with the
    suites in the order of their first record."""
    summary = {}
    for rec in records:
        s = summary.setdefault(rec["suite"], {"pass": 0, "fail": 0, "failing_seeds": set()})
        if rec["ok"]:
            s["pass"] += 1
        else:
            s["fail"] += 1
            s["failing_seeds"].add(rec["seed"])
    for s in summary.values():
        s["failing_seeds"] = sorted(s["failing_seeds"])
    return summary
