import random

import pytest

from flbreuil import fl as FL
from flbreuil import functors
from flbreuil import serialize as SER
from flbreuil.ambient import AmbientParams
from flbreuil.breuil import BreuilModule, _rebase, breuil_unipotent, breuil_validate, fil_lower
from flbreuil.campaign import _roundtrip_breuil, _roundtrip_fl, run_suite_seed
from flbreuil.errors import (
    A0NotScaledIntegral,
    NonConvergent,
    NotCris,
    NotDirectSummand,
    NotStrong,
    PrecisionExhausted,
)
from flbreuil.fl import FLModule, _random_fl, fl_unipotent
from flbreuil.functors import (
    _embed_w_matrix,
    _f0_matrix,
    _flag_adapt,
    _phi_matrix,
    breuil_to_fl,
    fl_to_breuil,
    section_compute,
)
from flbreuil.kisin import KisinModule, kisin_to_breuil, random_gls
from flbreuil.matrix import RingMatrix
from flbreuil.pd import (
    _eval_f0,
    _pd_from_scalar,
    _pd_gamma,
    _pd_one,
    _pd_random_calibrated,
    _pd_zero,
    phi_S,
)
from sampler_reference import drawn
from flag_reference import flag_adapt as ref_flag_adapt
from test_breuil import fil_lower_per_coordinate, griffiths_failing_module, square_only_module


def wmat(amb, rows):
    return RingMatrix([[amb.w(v) for v in row] for row in rows])


def section_basis_module(B, transport):
    """B's Phi and N with the tensor-product filtration: adapted basis the
    section basis Bmat embed(g_w), the jumps of the reduction."""
    C = transport.section.Bmat @ _embed_w_matrix(B.amb, transport.g_w)
    return BreuilModule(B.amb, B.Phi, B.Nmat, C, transport.M.jumps)


# --- forward functor ---

def test_fl_to_breuil_rank_one(amb3):
    M = FLModule(amb3, (1,), wmat(amb3, [[1]]))
    B = fl_to_breuil(M)
    assert B.Phi.entries[0][0].eq_at(_pd_from_scalar(amb3, amb3.w(3)), amb3.cap)
    assert B.jumps == (1,)
    rep = breuil_validate(B)
    assert rep.all_true()  # N = derivation only, so cris holds for free


def test_fl_to_breuil_strongness_equivalence(amb3):
    rng = random.Random(0)
    for _ in range(10):
        M = _random_fl(amb3, rng, 2)
        assert breuil_validate(fl_to_breuil(M)).strongly_divisible
        bad = FLModule(amb3, M.jumps, M.Ftil.mul_p_pow(1))
        assert not breuil_validate(fl_to_breuil(bad)).strongly_divisible


# --- the section ---

def test_section_telescopes(amb3, amb5):
    for amb in (amb3, amb5):
        rng = random.Random(1)
        for _ in range(5):
            M = _random_fl(amb, rng, rng.randrange(1, 4))
            sec = section_compute(fl_to_breuil(M))
            assert sec.iterations == 0
            prec = min(x.prec for row in sec.Bmat.entries for x in row)
            assert sec.Bmat.eq_at(RingMatrix.identity(M.d, _pd_zero(amb), _pd_one(amb)), prec)
            assert sec.exact and sec.f0_identity and sec.B0_claim_ok


def test_section_rank_one_unit_module(amb3):
    # s = 0: the unit module, section is (1) with zero iterations
    I1 = RingMatrix.identity(1, amb3.useries([]), amb3.useries([1]))
    B = kisin_to_breuil(KisinModule(amb3, I1, (0,), I1))
    sec = section_compute(B)
    assert sec.iterations == 0
    assert sec.Bmat.entries[0][0].eq_at(_pd_one(amb3), amb3.N_p)


def test_section_rank_one_fixed_point_oracle(amb3):
    # independent scalar iteration for A = (E^s): x <- A_B phi(x) / A_0,
    # where A_0 = p^s * unit; run it standalone and compare with the solver
    I1 = RingMatrix.identity(1, amb3.useries([]), amb3.useries([1]))
    for s in (1, 2):
        K = KisinModule(amb3, I1, (s,), I1)
        B = kisin_to_breuil(K)
        a_b = B.Phi.entries[0][0]
        a0 = _eval_f0(a_b)
        unit_inv = _pd_from_scalar(amb3, a0.div_p_exact(s).invert())
        x = (a_b * unit_inv).div_p_exact(s)
        for _ in range(6):
            x = (a_b * phi_S(x) * unit_inv).div_p_exact(s)
        sec = section_compute(B)
        assert sec.Bmat.entries[0][0].eq_at(x, amb3.N_p)
        assert _eval_f0(sec.Bmat.entries[0][0]).eq_at(amb3.w(1), amb3.N_p)


def test_section_on_normal_form_instances(amb3, amb5):
    for amb in (amb3, amb5):
        rng = random.Random(2)
        for _ in range(5):
            K = random_gls(amb, rng, rng.randrange(1, 4))
            sec = section_compute(kisin_to_breuil(K))
            assert sec.iterations <= sec.rate_bound
            assert sec.exact and sec.f0_identity and sec.B0_claim_ok
            assert sec.Bmat.residue_invertible()


def test_section_rejects_bad_constant_matrix(amb3):
    from flbreuil.breuil import BreuilModule

    B = BreuilModule(
        amb3,
        RingMatrix([[_pd_from_scalar(amb3, amb3.w(3 ** (amb3.r + 1)))]]),
        None, RingMatrix.identity(1, _pd_zero(amb3), _pd_one(amb3)), (0,),
    )
    with pytest.raises(A0NotScaledIntegral):
        section_compute(B)


def test_section_step_budget(amb3, monkeypatch):
    rng = random.Random(3)
    M = _random_fl(amb3, rng, 2)
    B = fl_to_breuil(M)
    g = None
    while g is None or not g.residue_invertible():
        ent = [
            [
                (_pd_one(amb3) if i == j else _pd_zero(amb3))
                + _pd_random_calibrated(amb3, rng, 3, 0).mul_p_pow(1)
                for j in range(2)
            ]
            for i in range(2)
        ]
        g = RingMatrix(ent)
    Bt = _rebase(B, g)
    # a cushion of -2 leaves a budget of 2 * 1 - 2 = 0 steps at rate bound 1
    monkeypatch.setattr(functors, "_STEP_CUSHION", -2)
    with pytest.raises(NonConvergent):
        section_compute(Bt)
    with pytest.raises(NonConvergent):
        section_compute(Bt, prec=amb3.N_p)


def test_section_refuses_a_limit_that_is_not_integral():
    # A = gamma_1 at p = 3, r = 1: A_0 = p a, so p A_0^(-1) is integral,
    # but the iterates settle on a limit outside the lattice, and the
    # numerator they carry over p^t is not divisible by it
    amb = AmbientParams(3, 1)
    B = BreuilModule(amb, RingMatrix([[_pd_gamma(amb, 1)]]), None,
                     RingMatrix([[_pd_one(amb)]]), (1,))
    for prec in (None, amb.N_p):
        with pytest.raises(NonConvergent, match="failed to normalise"):
            section_compute(B, prec=prec)


def _section_fields(sec, at):
    return (sec.iterations, sec.rate_bound, sec.residual_valuation, sec.exact,
            sec.B0_claim_ok, sec.f0_identity, SER._matrix_to_json(sec.Bmat.truncate(at)))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("f", [1, 2])
def test_section_at_the_read_precision_is_the_full_section(p, f):
    # Kisin normal forms, FL images and rebased FL images: the verdicts and
    # Bmat mod p^N_p do not depend on prec.
    # At p = 3, r = 1 the rebased modules need 2 steps against a rate
    # bound of 1, so the cut run is retried with the full step budget
    from flbreuil.ambient import shared_params
    from flbreuil.campaign import _random_congruent_identity

    retried = 0
    for r in sorted({1, p - 2}):
        amb = shared_params(p=p, r=r, f=f)
        rng = random.Random(f"section-prec:{p}:{f}:{r}")
        for _ in range(3):
            d = rng.randrange(1, 4)
            B = fl_to_breuil(_random_fl(amb, rng, d))
            g = _random_congruent_identity(amb, rng, d)
            for mod in (kisin_to_breuil(random_gls(amb, rng, d)), B, _rebase(B, g)):
                full = section_compute(mod)
                cut = section_compute(mod, prec=amb.N_p)
                assert _section_fields(cut, amb.N_p) == _section_fields(full, amb.N_p)
                assert cut.Phi is mod.Phi
                retried += full.iterations > full.rate_bound
    assert retried or p > 3


@pytest.mark.parametrize("k", [2, 5])
def test_section_cut_of_a_non_constant_module_is_the_full_section(amb3, k):
    # A = p (1 + p^k gamma_1): the section has support 14 (k = 2) or 5,
    # below the top gamma index.  The run with prec stops in a cut run, at
    # fewer digits, with the fields of the full run at N_p
    a = (_pd_one(amb3) + _pd_gamma(amb3, 1, amb3.w(3 ** k))).mul_p_pow(1)
    B = BreuilModule(amb3, RingMatrix([[a]]), None, RingMatrix([[_pd_one(amb3)]]), (1,))
    full = section_compute(B)
    cut = section_compute(B, prec=amb3.N_p)
    assert _section_fields(cut, amb3.N_p) == _section_fields(full, amb3.N_p)
    assert amb3.N_p <= cut.Bmat.entries[0][0].prec < full.Bmat.entries[0][0].prec


def outside_the_category(kind, p, seed):
    """A module that fails Griffiths transversality (r = 2) or only the
    phi/N square, and passes the other three checks of
    ``breuil_validate``."""
    if kind == "Griffiths":
        return griffiths_failing_module(AmbientParams(p, 2))
    return square_only_module(p, seed)


OUTSIDE = [("Griffiths", 3, None), ("Griffiths", 5, None),
           ("square", 3, 1), ("square", 3, 2), ("square", 5, 1), ("square", 5, 2)]


@pytest.mark.parametrize("kind, p, seed", OUTSIDE)
def test_breuil_to_fl_refuses_a_module_outside_the_category(kind, p, seed):
    with pytest.raises(NotStrong, match=kind):
        breuil_to_fl(outside_the_category(kind, p, seed))


def test_section_precision_outside_its_range_is_refused(amb3):
    B = fl_to_breuil(_random_fl(amb3, random.Random(5), 2))
    for prec in (amb3.N_p - 1, amb3.cap + 1):
        with pytest.raises(ValueError):
            section_compute(B, prec=prec)
    assert section_compute(B, prec=amb3.cap).exact


@pytest.mark.parametrize("seed", [10, 15])
def test_section_keeps_the_exponent_of_a_non_integral_first_iterate(seed):
    # The instances _suite_roundtrip_breuil draws at p = 5, r = 3 for these
    # seeds: B_0 = A A_0^(-1) is not integral, yet the iterates' numerators
    # over p^t converge and the limit is the exact section.  Dividing each
    # iterate by p^r as it is made would fail on B_0 already.
    from flbreuil.ambient import shared_params
    from flbreuil.campaign import _random_congruent_identity
    from flbreuil.errors import NotDivisible
    from flbreuil.matrix import _scaled_inverse

    amb = shared_params(p=5, r=3)
    rng = random.Random(f"roundtrip-breuil:{seed}")
    d = rng.randrange(1, 4)
    M = _random_fl(amb, rng, d)
    g = _random_congruent_identity(amb, rng, d)
    Bt = _rebase(fl_to_breuil(M), g)
    assert d == 3
    B0_num = Bt.Phi @ _embed_w_matrix(amb, _scaled_inverse(_f0_matrix(Bt.Phi), amb.r))
    with pytest.raises(NotDivisible):
        B0_num.map_entries(lambda x: x.div_p_exact(amb.r))
    sec = section_compute(Bt)
    assert not sec.B0_claim_ok
    assert sec.iterations == 2 and sec.exact and sec.f0_identity
    rep = _roundtrip_breuil(M, g, rng)
    assert rep["ok"] and rep["relation"] == "exact"


def test_section_basis_hint_closed_form(amb3):
    rng = random.Random(4)
    M = _random_fl(amb3, rng, 2)
    B = fl_to_breuil(M)
    h = None
    while h is None or not h.residue_invertible():
        ent = [
            [
                (_pd_one(amb3) if i == j else _pd_zero(amb3))
                + _pd_random_calibrated(amb3, rng, 3, 0).mul_p_pow(1)
                for j in range(2)
            ]
            for i in range(2)
        ]
        h = RingMatrix(ent)
    sec0 = section_compute(B)
    sec_h = section_compute(_rebase(B, h))
    expect = h.invert() @ sec0.Bmat @ _embed_w_matrix(amb3, _f0_matrix(h))
    assert sec_h.Bmat.eq_at(expect, amb3.N_p)


# --- flag adaptation ---

def test_flag_adapt_standard_flag(amb3):
    # step 1 is spanned by e1, step 0 by e1 and e2
    g, jumps = _flag_adapt(wmat(amb3, [[1, 0], [0, 1]]), (1, 0))
    assert jumps == (0, 1)
    # the column with jump 1 must span the middle step
    assert g.entries[0][1].is_unit() and g.entries[1][1].is_zero_at(amb3.N_p)


def test_flag_adapt_diagonal_embedding(amb3):
    # step 1 is spanned by e1 + e2, step 0 by it and e1
    g, jumps = _flag_adapt(wmat(amb3, [[1, 1], [0, 1]]), (0, 1))
    assert jumps == (0, 1)
    col = (g.entries[0][1], g.entries[1][1])
    assert col[0].eq_at(col[1], amb3.N_p)  # proportional to e1 + e2


def test_flag_adapt_rejects_non_summand(amb3):
    # the one column, 3 e1, has no unit pivot: 3 W is not a summand of W
    with pytest.raises(NotDirectSummand):
        _flag_adapt(wmat(amb3, [[3]]), (1,))


def _adapted(fn, *args):
    """The adapted basis, every coefficient with its precision, and the
    jumps; or None when the flag is refused."""
    try:
        g, jumps = fn(*args)
    except NotDirectSummand:
        return None
    return [[(x.coeffs, x.prec) for x in row] for row in g.entries], jumps


@pytest.mark.parametrize("name", ["amb3", "amb5", "amb9"])
def test_flag_adapt_matches_the_reference(name, request):
    # one refusal for every column without a unit pivot, and each pivot
    # inverted once, give the reference's basis, or both refuse the flag
    amb = request.getfixturevalue(name)
    ring = amb.ring
    rng = random.Random(f"flag_adapt:{name}")
    seen = {"invertible": 0, "zero": 0, "non-unit": 0}
    for _ in range(40):
        for shape in seen:
            d = rng.randint(1, 5)
            jumps = tuple(sorted(rng.randint(0, amb.r) for _ in range(d)))
            cols = [[drawn(ring, rng, rng.randint(1, amb.cap)) for _ in range(d)]
                    for _ in range(d)]
            j = rng.randrange(d)
            if shape == "zero":
                # a multiple of a column reduced before column j (jumps
                # descend, ties by index), or zero when there is none
                before = [k for k in range(d) if (-jumps[k], k) < (-jumps[j], j)]
                c = ring.random(rng)
                cols[j] = ([c * x for x in cols[rng.choice(before)]] if before
                           else [ring.zero(rng.randint(1, amb.cap))] * d)
            elif shape == "non-unit":
                cols[j] = [x.mul_p_pow(rng.randint(1, 2)) for x in cols[j]]
            T = RingMatrix([[cols[k][i] for k in range(d)] for i in range(d)])
            want = _adapted(ref_flag_adapt, amb, T, jumps)
            assert _adapted(_flag_adapt, T, jumps) == want
            if shape == "invertible":
                seen[shape] += want is not None
            else:
                seen[shape] += want is None
    assert min(seen.values()) >= 10, seen


# --- backward functor and round trips ---

def _roundtrip_non_unipotent(M, monkeypatch) -> dict:
    """The round-trip record of a module that is not unipotent, with the
    campaign's unipotence predicate reading every module as unipotent."""
    with monkeypatch.context() as mp:
        mp.setattr(FL, "fl_unipotent", lambda M: True)
        return _roundtrip_fl(M)


def test_roundtrip_fl_rank_one(amb3, monkeypatch):
    rng = random.Random(5)
    for s in range(amb3.r + 1):
        M = _random_fl(amb3, rng, 1, (s,))
        if amb3.r == amb3.p - 1 and not fl_unipotent(M):
            rep = _roundtrip_non_unipotent(M, monkeypatch)
        else:
            rep = _roundtrip_fl(M)
        assert rep["ok"]


def test_roundtrip_fl_swap_module(amb3):
    M = FLModule(amb3, (0, 2), wmat(amb3, [[0, 1], [1, 0]]))
    assert fl_unipotent(M)
    assert _roundtrip_fl(M)["ok"]


def test_roundtrip_fl_random(amb5):
    amb = AmbientParams(5, 3)
    rng = random.Random(6)
    for _ in range(5):
        M = _random_fl(amb, rng, rng.randrange(1, 4))
        assert _roundtrip_fl(M)["ok"]


def test_roundtrip_fl_enforces_unipotence_at_top(amb3, monkeypatch):
    M = FLModule(amb3, (amb3.r,), wmat(amb3, [[1]]))  # etale, not unipotent
    with pytest.raises(NotStrong):
        _roundtrip_fl(M)
    assert _roundtrip_non_unipotent(M, monkeypatch)["ok"]


def test_roundtrip_fl_refuses_a_module_that_is_not_strong(amb3):
    # Ftil = 0 mod p is not invertible: the round trip has no FL module
    M = FLModule(amb3, (0, 1), wmat(amb3, [[3, 0], [0, 3]]))
    with pytest.raises(NotStrong, match="round trip needs a strong module"):
        _roundtrip_fl(M)


def test_kisin_derived_backward(amb3):
    I1 = RingMatrix.identity(1, amb3.useries([]), amb3.useries([1]))
    for s in range(amb3.r + 1):
        B = kisin_to_breuil(KisinModule(amb3, I1, (s,), I1))
        M = breuil_to_fl(B, adjoin_zero_n=True).M
        assert M.jumps == (s,)
        assert M.Ftil.entries[0][0].is_unit()


def test_backward_functor_refusals(amb3):
    # without monodromy data only adjoin_zero_n reads the module
    K = kisin_to_breuil(random_gls(amb3, random.Random(2), 2))
    with pytest.raises(NotCris, match="adjoin_zero_n=True"):
        breuil_to_fl(K)
    # a constant Nmat does not land in u times the module
    B0 = fl_to_breuil(_random_fl(amb3, random.Random(3), 2))
    z, one = _pd_zero(amb3), _pd_one(amb3)
    B = BreuilModule(amb3, B0.Phi, RingMatrix([[one, z], [z, z]]), B0.C, B0.jumps)
    with pytest.raises(NotCris) as exc:
        breuil_to_fl(B)
    assert str(exc.value) == "monodromy does not land in u times the module"


def test_validate_reports_phi_fil_r_not_divisible():
    # Phi = I with jump r: Fil^r is the whole module and phi(e) = e is not
    # divisible by p^r, so there are no phi_r images, and strong
    # divisibility and the square read False without raising; the backward
    # functor refuses the module
    from flbreuil.ambient import AmbientParams

    amb = AmbientParams(5, 3)
    z = _pd_zero(amb)
    ident = RingMatrix.identity(1, z, _pd_one(amb))
    B = BreuilModule(amb, ident, RingMatrix.zeros(1, 1, z), ident, (3,))
    rep = breuil_validate(B)
    assert rep.strongly_divisible is False and rep.diagram is False
    with pytest.raises(NotStrong):
        breuil_to_fl(B)


def test_apply_mfl_inverts_no_matrix_over_s(tmp_path, monkeypatch):
    # the backward functor solves for the conjugated Frobenius and reads the
    # filtration images over W(k); the inverse of the section basis is
    # built only when the module it presents reads its C_inv, once
    from flbreuil.ambient import AmbientParams
    from flbreuil.cli import main
    from flbreuil.pd import PDElement

    calls = []
    invert = RingMatrix.invert

    def counted(self):
        if self.rows and isinstance(self.entries[0][0], PDElement):
            calls.append(self.rows)
        return invert(self)

    monkeypatch.setattr(RingMatrix, "invert", counted)
    k = tmp_path / "k.json"
    assert main(["gen", "kisin-gls", "--p", "5", "--d", "4", "--seed", "3", "--out", str(k)]) == 0
    assert main(["apply", "mfl", "--in", str(k), "--adjoin-zero-n",
                 "--out", str(tmp_path / "m.json")]) == 0
    assert calls == []

    amb = AmbientParams(5, 3)
    B = kisin_to_breuil(random_gls(amb, random.Random(3), 4))
    transport = breuil_to_fl(B, adjoin_zero_n=True)
    assert calls == []
    Bs = section_basis_module(B, transport)
    first = Bs.C_inv
    assert calls == [4]
    assert Bs.C_inv is first and calls == [4]


@pytest.mark.parametrize("p", [3, 5])
def test_conjugated_frobenius_from_the_residual(p):
    # breuil_to_fl reads Bm^-1 Phi phi(Bm) as embed(f0(Phi)) - Bm^-1 R, with R
    # the section's residual: both forms agree entry by entry
    from flbreuil.ambient import AmbientParams

    amb = AmbientParams(p, p - 2)
    rng = random.Random(f"conj:{p}")
    for _ in range(2):
        B = kisin_to_breuil(random_gls(amb, rng, 4))
        sec = section_compute(B)
        assert sec.Phi is B.Phi
        Bm_inv = sec.Bmat.invert()
        short = _embed_w_matrix(amb, _f0_matrix(B.Phi)) - Bm_inv @ sec.residual
        full = Bm_inv @ B.Phi @ _phi_matrix(sec.Bmat)
        for ra, rb in zip(short.entries, full.entries):
            for x, y in zip(ra, rb):
                assert (x.planes, x.prec) == (y.planes, y.prec)


@pytest.mark.parametrize("p", [3, 5])
def test_breuil_to_fl_inverts_the_gamma0_part_of_the_section_once(p, monkeypatch):
    # the solve by Bm and the filtration through f_pi(Bm) share one inverse
    # of Bm's gamma_0 part over W(k), cut to the solve's precision
    from flbreuil import matrix
    from flbreuil.ambient import AmbientParams

    amb = AmbientParams(p, p - 2)
    B = kisin_to_breuil(random_gls(amb, random.Random(f"gamma0:{p}"), 4))
    sec = section_compute(B)
    head = [[x.coeff(0) for x in row] for row in sec.Bmat.entries]
    want = breuil_to_fl(B, section=sec, adjoin_zero_n=True).M
    seen = []
    inner = matrix._scaled_inverse

    def counted(A, s):
        k = min(x.prec for row in A.entries for x in row)
        seen.append(all(x.eq_at(h, k) for ra, rh in zip(A.entries, head)
                        for x, h in zip(ra, rh)))
        return inner(A, s)

    monkeypatch.setattr(matrix, "_scaled_inverse", counted)
    got = breuil_to_fl(B, section=sec, adjoin_zero_n=True).M
    assert seen.count(True) == 1
    assert got.jumps == want.jumps
    assert [[(x.coeffs, x.prec) for x in row] for row in got.Ftil.entries] == \
        [[(x.coeffs, x.prec) for x in row] for row in want.Ftil.entries]


def test_breuil_to_fl_rejects_a_section_of_another_module(amb3):
    # the residual certifies only the Frobenius it was computed for
    rng = random.Random(11)
    B1 = kisin_to_breuil(random_gls(amb3, rng, 2))
    B2 = kisin_to_breuil(random_gls(amb3, rng, 2))
    with pytest.raises(ValueError, match="another module"):
        breuil_to_fl(B2, section=section_compute(B1), adjoin_zero_n=True)
    sec2 = section_compute(B2)
    assert breuil_to_fl(B2, section=sec2, adjoin_zero_n=True).section is sec2


@pytest.mark.parametrize("headroom", [24, 26, 30])
def test_breuil_to_fl_refuses_ftil_below_N_p(headroom):
    # p = 5, r = 3, jumps (0,0,0,3,3,3): the section spends sum r_i = 9
    # digits and Ftil divides columns by p^3, so the lowest Ftil precision
    # is 3 at headroom 24, 5 at 26 and 9 at 30, against N_p = 6
    from flbreuil.ambient import shared_params

    amb = shared_params(p=5, r=3, headroom=headroom)
    for seed in range(1, 7):
        B = kisin_to_breuil(random_gls(amb, random.Random(seed), 6, jumps=(0, 0, 0, 3, 3, 3)))
        if headroom < 30:
            with pytest.raises(PrecisionExhausted, match="below N_p"):
                breuil_to_fl(B, adjoin_zero_n=True)
        else:
            M = breuil_to_fl(B, adjoin_zero_n=True).M
            assert min(x.prec for row in M.Ftil.entries for x in row) == 9


def test_breuil_to_fl_refuses_a_section_cut_to_N_p(amb3):
    # a section computed to the N_p digits the section verb writes leaves
    # the jump-1 column of Ftil one digit short
    B = kisin_to_breuil(random_gls(amb3, random.Random(1), 2, jumps=(0, 1)))
    with pytest.raises(PrecisionExhausted, match="below N_p"):
        breuil_to_fl(B, section=section_compute(B, prec=amb3.N_p), adjoin_zero_n=True)
    assert breuil_to_fl(B, section=section_compute(B), adjoin_zero_n=True).M.jumps == (0, 1)


def test_breuil_to_fl_refuses_a_residual_that_leaves_phi_non_constant():
    # the conjugated Frobenius reads the section's residual R: one more
    # p^(N_p - 1) gamma_1 at entry (0, 0) makes it non-constant mod p^N_p
    from flbreuil.ambient import shared_params
    from flbreuil.campaign import _random_congruent_identity

    amb = shared_params(p=5, r=3)
    rng = random.Random(2)
    M = _random_fl(amb, rng, 2)
    B = _rebase(fl_to_breuil(M), _random_congruent_identity(amb, rng, 2))
    sec = section_compute(B)
    R = [list(row) for row in sec.residual.entries]
    R[0][0] = R[0][0] + _pd_gamma(amb, 1, amb.w(amb.p ** (amb.N_p - 1)))
    with pytest.raises(NonConvergent, match="not constant at precision"):
        breuil_to_fl(B, section=sec._replace(residual=RingMatrix(R)))
    assert breuil_to_fl(B, section=sec).M.jumps == M.jumps


def test_roundtrip_breuil_identity_twist(amb3):
    rng = random.Random(7)
    M = _random_fl(amb3, rng, 2)
    g = RingMatrix.identity(2, _pd_zero(amb3), _pd_one(amb3))
    rep = _roundtrip_breuil(M, g, rng)
    assert rep["ok"] and rep["relation"] == "exact" and rep["details"]["iterations"] == 0


def test_roundtrip_breuil_constant_corner(amb3):
    # f_0(g) = g for a constant perturbation, so the expected section is I
    rng = random.Random(8)
    M = _random_fl(amb3, rng, 2)
    B = fl_to_breuil(M)
    g = RingMatrix([
        [_pd_one(amb3), _pd_from_scalar(amb3, amb3.w(3))],
        [_pd_zero(amb3), _pd_one(amb3)],
    ])
    rep = _roundtrip_breuil(M, g, rng)
    assert rep["ok"] and rep["relation"] == "exact"
    sec = section_compute(_rebase(B, g))
    assert sec.Bmat.eq_at(RingMatrix.identity(2, _pd_zero(amb3), _pd_one(amb3)), amb3.N_p)


def test_roundtrip_breuil_gamma_corner(amb3):
    rng = random.Random(9)
    M = _random_fl(amb3, rng, 2)
    B = fl_to_breuil(M)
    g = RingMatrix([
        [_pd_one(amb3), _pd_gamma(amb3, 1, amb3.w(3))],
        [_pd_zero(amb3), _pd_one(amb3)],
    ])
    rep = _roundtrip_breuil(M, g, rng)
    assert rep["ok"] and rep["relation"] == "exact"
    sec = section_compute(_rebase(B, g))
    expect = g.invert() @ _embed_w_matrix(amb3, _f0_matrix(g))
    assert sec.Bmat.eq_at(expect, amb3.N_p)


# The two roundtrip-breuil record shapes no golden task reaches, at p = 3,
# r = 1, seed 1 (a rank-one module).  The expected records are those the
# round trip wrote before it moved from functors.py into campaign.py.
RANK_ONE_INSTANCE = {
    "data": {"Ftil": {"cols": 1, "denom_exp": 0, "rows": 1,
                      "entries": [[{"coeffs": ["54300745614563"], "prec": 29}]]},
             "d": 1, "jumps": [0]},
    "kind": "FLModule",
    "params": {"N_gamma": 20, "N_p": 6, "a": {"coeffs": ["68630377364882"], "prec": 29},
               "f": 1, "headroom": 23, "m_coeffs": [0, 1], "p": 3, "r": 1},
    "schema": "flbreuil/1",
}


def _raises(exc):
    def patched(*args, **kwargs):
        raise exc
    return patched


def test_roundtrip_breuil_record_of_a_non_convergent_section(monkeypatch):
    from flbreuil.campaign import run_suite_seed

    monkeypatch.setattr(functors, "section_compute",
                        _raises(NonConvergent("no stabilisation (patched)")))
    assert run_suite_seed({"p": 3, "r": 1}, "roundtrip-breuil", 1, {}) == [{
        "check": "roundtrip-breuil", "ok": True, "converged": False,
        "relation": "non-convergent", "details": {"error": "no stabilisation (patched)"},
        "instance": None, "suite": "roundtrip-breuil", "seed": 1,
    }]


def test_roundtrip_breuil_record_of_a_failed_reduction(monkeypatch):
    from flbreuil.campaign import run_suite_seed

    monkeypatch.setattr(functors, "breuil_to_fl",
                        _raises(NotStrong("reduction fails strongness (patched)")))
    assert run_suite_seed({"p": 3, "r": 1}, "roundtrip-breuil", 1, {}) == [{
        "check": "roundtrip-breuil", "ok": False, "converged": True, "relation": "failed",
        "details": {"error": "reduction fails strongness (patched)"},
        "instance": RANK_ONE_INSTANCE, "suite": "roundtrip-breuil", "seed": 1,
    }]


def test_tensor_membership_through_section(amb3):
    # the bounded product is cut at n - min(r_j) for every n, so every level
    # is compared with the full product, also on twisted presentations whose
    # section is not the identity
    from flbreuil.breuil import _random_fil_member, _random_vector
    from flbreuil.campaign import _random_congruent_identity

    rng = random.Random(10)
    B = fl_to_breuil(_random_fl(amb3, rng, 2))
    seen = set()
    for d in (None, 1, 2, 3):
        if d is not None:
            M = _random_fl(amb3, rng, d)
            B = _rebase(fl_to_breuil(M), _random_congruent_identity(amb3, rng, d))
        Bs = section_basis_module(B, breuil_to_fl(B))
        for _ in range(30):
            if rng.random() < 0.5:
                x = _random_fil_member(B, rng, amb3.r)
            else:
                x = _random_vector(B, rng, 6)
            for n in range(amb3.r + 1):
                member = fil_lower(Bs, n, x)
                assert member == fil_lower_per_coordinate(Bs, n, x)
                assert member == fil_lower(B, n, x)
                seen.add((n, member))
    # every level above 0 is met both inside and outside its step
    assert {(n, v) for n in range(1, amb3.r + 1) for v in (True, False)} <= seen


def test_full_pipeline_with_nontrivial_residue_degree(amb9, monkeypatch):
    # f = 2 exercises every semilinear twist; a misplaced Frobenius anywhere
    # in the functor chain would break the exact round trip
    rng = random.Random(12)
    for _ in range(3):
        M = _random_fl(amb9, rng, 2)
        B = fl_to_breuil(M)
        sec = section_compute(B)
        assert sec.iterations == 0 and sec.exact and sec.f0_identity
        assert breuil_validate(B).all_true()
        if not fl_unipotent(M):
            assert _roundtrip_non_unipotent(M, monkeypatch)["ok"]
        else:
            assert _roundtrip_fl(M)["ok"]
    K = random_gls(amb9, rng, 2)
    sec = section_compute(kisin_to_breuil(K))
    assert sec.iterations <= sec.rate_bound and sec.exact and sec.B0_claim_ok


def test_degenerate_hodge_range(amb3):
    from flbreuil.ambient import AmbientParams

    amb0 = AmbientParams(3, 0)
    rng = random.Random(13)
    M = _random_fl(amb0, rng, 2)
    # every jump is 0 = r: etale and multiplicative, and V = Ftil^(-1) is
    # invertible, so not unipotent
    assert M.jumps == (0, 0)
    assert not fl_unipotent(M)
    assert _roundtrip_fl(M)["ok"]


def test_unipotence_preserved(amb3):
    rng = random.Random(11)
    mods = [_random_fl(amb3, rng, rng.randrange(1, 3)) for _ in range(10)]
    mods.append(FLModule(amb3, (0, amb3.r), wmat(amb3, [[0, 1], [1, 0]])))
    for s in range(amb3.r + 1):
        mods.append(FLModule(amb3, (s,), RingMatrix([[amb3.ring.one()]])))
    for M in mods:
        flv = fl_unipotent(M)
        brv = breuil_unipotent(fl_to_breuil(M))
        assert flv == brv


@pytest.mark.parametrize("p, f", [(3, 1), (5, 1), (7, 2)])
def test_unipotence_suite_at_r_zero(p, f):
    # at r = 0 V = Ftil^(-1) is invertible, so no module is unipotent: the
    # crafted swap module must come out not unipotent on both sides
    for seed in (1, 2, 3):
        recs = run_suite_seed({"p": p, "r": 0, "f": f}, "unipotence", seed, {})
        assert [rec for rec in recs if not rec["ok"]] == []
