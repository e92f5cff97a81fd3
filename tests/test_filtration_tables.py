"""The filtration tests read off tables agree with the per-sample products
they replace.

``adapted_level`` reads the b-jet of M x from a table of M on jets (kept by
the object that owns M), and ``hat_fil_level`` reads every reduction of its
descent from a table of the module's N on jets.  Here both are checked
against references that multiply out every sample: the whole product M x
and ``fil_valuation`` (``level_by_product``), the chain x, N(x), N^2(x), ...
of ``n_apply`` (``hat_level_by_chain``, the descent as it was before the
table), and the per-level references of ``test_breuil``.  The owners are a
rebased module (a general C^(-1)), the Kisin raw checker and a transport's
``sec_basis_inv``, at f = 1 and f = 2, ranks 0-3, every top in 0..r, and
``at`` below and above the samples' precisions, with matrices whose rows
are known to different precisions.  Errors must match too.  Each table is
built once per owner and length.
"""

import random

import pytest

from flbreuil import breuil as BR
from flbreuil.breuil import (
    BreuilModule,
    fil_level,
    fil_lower,
    hat_fil_level,
    n_apply,
    random_fil_member,
    random_vector,
    rebase,
)
from flbreuil.campaign import random_congruent_identity
from flbreuil.errors import NotCris, PrecisionExhausted, RecursionBudget
from flbreuil.fl import random_fl
from flbreuil.functors import breuil_to_fl, fl_to_breuil, fpi_matrix, tensor_membership_via_section
from flbreuil.kisin import _embed_matrix, kisin_raw_fil_checker, kisin_to_breuil, random_gls
from flbreuil.matrix import RingMatrix
from flbreuil.pd import eval_fpi, fil_valuation
from test_breuil import fil_lower_per_coordinate, hat_fil_membership_recursive


def level_by_product(amb, M, jumps, x, at=None, top=None):
    """``adapted_level`` by the whole product M x and ``fil_valuation``."""
    at = amb.N_p if at is None else at
    y = M.matvec(x)
    level = min((fil_valuation(c, at) + r for c, r in zip(y, jumps)),
                default=amb.N_gamma + amb.r)
    return level if top is None else min(level, top)


def hat_level_by_chain(B, m_jumps, x, at=None, m_basis_inv=None, top=None):
    """``hat_fil_level`` by the chain of ``n_apply``: each step reduces the
    current N^t(x) at u = pi, maps it by m_basis_inv and applies N once."""
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
    vec = tuple(x)
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


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, PrecisionExhausted, NotCris, RecursionBudget) as exc:
        return type(exc), str(exc)


def rows_truncated(M, rng):
    """M with each row cut to its own precision (one row keeps the cap)."""
    cap = M[0, 0].ring.cap
    keep = rng.randrange(M.rows)
    return RingMatrix([[c.truncate(cap if i == keep else rng.randrange(4, cap)) for c in row]
                       for i, row in enumerate(M.entries)])


def samples(B, rng, n):
    """Filtration members and plain vectors, some with their coordinates
    cut to precisions of their own."""
    amb = B.amb
    out = []
    for k in range(n):
        x = (random_fil_member(B, rng, rng.randrange(amb.r + 1)) if k % 2 == 0
             else random_vector(B, rng, 6))
        if k % 3 == 2:
            x = tuple(c.truncate(rng.randrange(2, amb.N_p + 3)) for c in x)
        out.append(x)
    return out


def ats(x):
    """``at`` unset, below the samples' lowest precision and above it."""
    prec = min((c.prec for c in x), default=8)
    return (None, max(prec - 2, 0), prec + 1)


@pytest.mark.parametrize("name", ["amb3", "amb5", "amb9"])
def test_rebased_levels_agree_through_the_monodromy(request, name):
    # on a rebased module N carries a nonzero Nmat and C^(-1) is general, so
    # the two filtrations agree only when the descent applies Nmat
    amb = request.getfixturevalue(name)
    rng = random.Random(31)
    for _ in range(8):
        d = rng.randrange(1, 4)
        M = random_fl(amb, rng, d)
        h = random_congruent_identity(amb, rng, d)
        B = rebase(fl_to_breuil(M), h)
        basis = fpi_matrix(h)
        for k in range(30):
            x = (random_fil_member(B, rng, rng.randrange(amb.r + 1)) if k % 2 == 0
                 else random_vector(B, rng, 6))
            at = min(c.prec for c in x)
            assert fil_level(B, x, at, top=amb.r) == \
                hat_fil_level(B, M.jumps, x, at, m_basis_inv=basis)


@pytest.mark.parametrize("name", ["amb3", "amb9"])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_adapted_tables_match_the_product(request, name, d):
    amb = request.getfixturevalue(name)
    r = amb.r
    rng = random.Random(40 + d)
    B = rebase(fl_to_breuil(random_fl(amb, rng, d)), random_congruent_identity(amb, rng, d))
    transport = breuil_to_fl(B)
    K = random_gls(amb, rng, d)
    raw = kisin_raw_fil_checker(K)
    full = _embed_matrix(K.A) @ _embed_matrix(K.Y).invert()
    # a matrix whose rows are known to different precisions
    cut = rows_truncated(B.C_inv, rng) if d else B.C_inv
    cut_tables, rev_tables = {}, {}
    for x in samples(B, rng, 10):
        for at in ats(x):
            L = level_by_product(amb, B.C_inv, B.jumps, x, at)
            assert fil_level(B, x, at) == L
            Lt = level_by_product(amb, transport.sec_basis_inv, transport.M.jumps, x, at)
            # the jumps in descending order too: no caller's are, but the
            # level is a minimum over the coordinates in any order
            for jumps, tables in ((B.jumps, cut_tables), (B.jumps[::-1], rev_tables)):
                Lc = level_by_product(amb, cut, jumps, x, at)
                assert BR.adapted_level(amb, cut, jumps, x, tables, at) == Lc
                for top in range(r + 1):
                    assert BR.adapted_level(amb, cut, jumps, x, tables, at, top) == min(Lc, top)
            for top in range(r + 1):
                assert fil_level(B, x, at, top) == min(L, top)
                assert fil_lower(B, top, x, at) == (top <= L)
                assert tensor_membership_via_section(transport, x, top, at) == (top <= Lt)
                if at is None:
                    assert fil_lower(B, top, x) == fil_lower_per_coordinate(B, top, x)
            assert raw(x, at) == (level_by_product(amb, full, (0,) * d, x, at, r) == r)
    # the product's own errors
    if d:
        x = random_vector(B, rng, 6)
        for args in ((x[:-1],), (x + x[:1],)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                fil_level(B, *args)
        with pytest.raises(ValueError, match="negative precision"):
            fil_level(B, x, -1, top=r)


@pytest.mark.parametrize("name", ["amb3", "amb5", "amb9"])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_descent_table_matches_the_chain(request, name, d):
    amb = request.getfixturevalue(name)
    r = amb.r
    rng = random.Random(50 + d)
    M = random_fl(amb, rng, d)
    h = random_congruent_identity(amb, rng, d)
    B = rebase(fl_to_breuil(M), h)
    # the same module with Nmat's rows known to different precisions
    Bn = BreuilModule(amb, d, B.Phi, rows_truncated(B.Nmat, rng) if d else B.Nmat,
                      B.C, B.jumps)
    basis = fpi_matrix(h)
    bases = [None, basis] + ([rows_truncated(basis, rng)] if d else [])
    # zero tests at and just above the precisions of Nmat's rows separate
    # the precision of N(x) (its row's) from that of N^2(x) (all of Nmat's)
    row_precs = {min(c.prec for c in row) for row in Bn.Nmat.entries}
    for x in samples(B, rng, 10):
        for mod in (B, Bn):
            for m_basis_inv in bases:
                for at in ats(x) + (-1, *row_precs, *(k + 1 for k in row_precs)):
                    for top in (None, *range(r + 1)):
                        got = outcome(hat_fil_level, mod, M.jumps, x, at, m_basis_inv, top)
                        ref = outcome(hat_level_by_chain, mod, M.jumps, x, at, m_basis_inv, top)
                        assert got == ref
                        if (at is None and top is not None and mod is B and m_basis_inv in (None, basis)
                                and all(c.prec == amb.cap for c in x)):
                            assert (got == top) == hat_fil_membership_recursive(
                                mod, M.jumps, x, top, m_basis_inv=m_basis_inv)


def test_descent_errors_match_the_chain(amb3, amb9):
    rng = random.Random(60)
    for amb in (amb3, amb9):
        M = random_fl(amb, rng, 3)
        B = rebase(fl_to_breuil(M), random_congruent_identity(amb, rng, 3))
        x = random_vector(B, rng, 6)
        one, r = amb.ring.one(), amb.r
        cases = [
            (B, M.jumps, x, None, None, -1),
            (B, M.jumps, x, None, None, r + 1),
            (B, (0,), x, None, None, None),
            (B, M.jumps, x[:2], None, None, None),
            (B, M.jumps, x + x[:1], None, None, None),
            (B, M.jumps, x, None, RingMatrix([[one] * 3] * 2), None),
            (B, M.jumps, x, None, RingMatrix([[one] * 3] * 4), None),
            wrong_cols := (B, M.jumps, x, None, RingMatrix([[one] * 2] * 3), 1),
            (B, M.jumps, x, amb.cap + 1, None, None),
        ]
        K = kisin_to_breuil(random_gls(amb, rng, 2))
        y = random_vector(K, rng, 6)
        cases += [(K, (0, 0), y, None, None, n) for n in (None, 0, 1)]
        for args in cases:
            got, ref = outcome(hat_fil_level, *args), outcome(hat_level_by_chain, *args)
            assert got == ref
        assert outcome(hat_fil_level, K, (0, 0), y, None, None, 1)[0] is NotCris
        assert outcome(hat_fil_level, B, M.jumps, x, None, None, -1)[0] is RecursionBudget
        assert outcome(hat_fil_level, *wrong_cols)[0] is ValueError


def test_each_table_is_built_once_per_owner_and_length(amb3, monkeypatch):
    built = []
    for name in ("_jet_table", "_descent_table"):
        make = getattr(BR, name)

        def counted(owner, *args, make=make, name=name):
            built.append((name, args[-1]))
            return make(owner, *args)

        monkeypatch.setattr(BR, name, counted)
    rng = random.Random(70)
    r = amb3.r
    M = random_fl(amb3, rng, 2)
    B = rebase(fl_to_breuil(M), random_congruent_identity(amb3, rng, 2))
    transport = breuil_to_fl(B)
    raw = kisin_raw_fil_checker(random_gls(amb3, rng, 2))
    lengths = set()
    for x in samples(B, rng, 6):
        at = min(c.prec for c in x)
        for top in range(r + 1):
            fil_lower(B, top, x, at)
            tensor_membership_via_section(transport, x, top, at)
            hat_fil_level(B, M.jumps, x, at, top=top)
            if top > min(B.jumps):
                lengths.add(top - min(B.jumps))
        fil_level(B, x, at)
        raw(x, at)
    lengths.add(amb3.N_gamma)
    assert sorted(B._fil_tables) == sorted(lengths)
    assert sorted(transport._fil_tables) == sorted(top - min(transport.M.jumps)
                                                   for top in range(r + 1)
                                                   if top > min(transport.M.jumps))
    # a descent from level 0 reads nothing and builds nothing
    assert sorted(B._hat_tables) == list(range(1, r + 1))
    jet = [n for kind, n in built if kind == "_jet_table"]
    assert len(jet) == len(B._fil_tables) + len(transport._fil_tables) + 1
    assert sorted(n for kind, n in built if kind == "_descent_table") == list(range(1, r + 1))
