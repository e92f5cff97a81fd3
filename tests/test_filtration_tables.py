"""The filtration tests read off tables agree with the per-sample products
they replace.

``_adapted_level`` reads the b-jet of M x from a table of M on jets, and
``hat_fil_level`` reads every reduction of its descent from a table of the
module's N on jets; each owner of a matrix keeps one table.  Both levels
are capped at r.  Here both are checked against references that multiply
out every sample: the whole product M x and ``_fil_valuation``
(``level_by_product``, capped at r by the caller), the chain x, N(x),
N^2(x), ... of ``_n_apply`` (``hat_level_by_chain``), and the per-level
references of ``test_breuil``.  The owners are a rebased module (a general
C^(-1)), the same module presented in the section basis (the tensor
filtration) and the Kisin raw checker, at f = 1 and f = 2, ranks 0-3,
every step in 0..r, and ``at`` below and above the samples' precisions
(the raw checker, which reads x at N_p, on samples cut to ``at`` digits),
with matrices whose rows are known to different precisions.  Errors must match too, and a step outside 0..r is refused.
Each table is built once per owner.
"""

import random

import pytest

from flbreuil import breuil as BR
from flbreuil.breuil import (
    BreuilModule,
    _n_apply,
    _random_fil_member,
    _random_vector,
    _rebase,
    fil_level,
    fil_lower,
    hat_fil_level,
)
from flbreuil.campaign import _random_congruent_identity
from flbreuil.errors import NotCris, PrecisionExhausted
from flbreuil.fl import _random_fl
from flbreuil.functors import _fpi_matrix, breuil_to_fl, fl_to_breuil
from flbreuil.kisin import _embed_matrix, _kisin_raw_fil_checker, kisin_to_breuil, random_gls
from flbreuil.matrix import RingMatrix
from flbreuil.pd import _eval_fpi, _fil_valuation, _pd_gamma, _pd_one, _pd_zero
from test_breuil import fil_lower_per_coordinate, hat_fil_membership_recursive
from test_functors import section_basis_module


def level_by_product(amb, M, jumps, x, at=None):
    """The uncapped level of ``_adapted_level`` by the whole product M x and
    ``_fil_valuation``."""
    at = amb.N_p if at is None else at
    y = M.matvec(x)
    return min((_fil_valuation(c, at) + r for c, r in zip(y, jumps)),
               default=amb.N_gamma + amb.r)


def mapped(P, w):
    """P w over W(k), coordinate j known to the lowest precision among row j
    of P and the coordinates of w that the row reads (its nonzero entries)."""
    return tuple(sum((c * v for c, v in zip(row, w) if any(c.coeffs)),
                     row[0].ring.zero(min(c.prec for c in row)))
                 for row in P.entries)


def hat_level_by_chain(B, x, at=None):
    """``hat_fil_level`` by the chain of ``_n_apply``: each step reduces the
    current N^t(x) at u = pi, maps it by f_pi(C^(-1)) and applies N once."""
    amb, m_jumps = B.amb, B.jumps
    level = amb.r
    if len(x) != B.d:
        raise ValueError("dimension mismatch")
    if level > 0 and B.Nmat is None:
        raise NotCris("module carries no monodromy matrix")
    at = amb.N_p if at is None else at
    P = _fpi_matrix(B.C_inv)
    vec = tuple(x)
    t = 0
    while t < level:
        w = mapped(P, [_eval_fpi(c) for c in vec])
        for j in range(B.d):
            if m_jumps[j] < level - t and not w[j].is_zero_at(at):
                level = m_jumps[j] + t
        t += 1
        if t < level:
            vec = _n_apply(B, vec)
    return level


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, PrecisionExhausted, NotCris) as exc:
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
        x = (_random_fil_member(B, rng, rng.randrange(amb.r + 1)) if k % 2 == 0
             else _random_vector(B, rng, 6))
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
        M = _random_fl(amb, rng, d)
        h = _random_congruent_identity(amb, rng, d)
        B = _rebase(fl_to_breuil(M), h)
        for k in range(30):
            x = (_random_fil_member(B, rng, rng.randrange(amb.r + 1)) if k % 2 == 0
                 else _random_vector(B, rng, 6))
            at = min(c.prec for c in x)
            assert fil_level(B, x, at) == hat_fil_level(B, x, at)


@pytest.mark.parametrize("name", ["amb3", "amb9"])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_adapted_tables_match_the_product(request, name, d):
    amb = request.getfixturevalue(name)
    r = amb.r
    rng = random.Random(40 + d)
    B = _rebase(fl_to_breuil(_random_fl(amb, rng, d)), _random_congruent_identity(amb, rng, d))
    Bs = section_basis_module(B, breuil_to_fl(B))
    K = random_gls(amb, rng, d)
    raw = _kisin_raw_fil_checker(K)
    full = _embed_matrix(K.A) @ _embed_matrix(K.Y).invert()
    # a matrix whose rows are known to different precisions
    cut = rows_truncated(B.C_inv, rng) if d else B.C_inv
    # the jumps in descending order too: no caller's are, but the level is
    # a minimum over the coordinates in any order
    tables = {jumps: BR._jet_table(amb, cut, jumps) for jumps in (B.jumps, B.jumps[::-1])}

    def raw_agrees(x, at):
        # the raw test reads x to N_p digits, or fewer when x is known to
        # fewer: x cut to at digits has it read x below its precision
        x = x if at is None or at < 1 else tuple(c.truncate(at) for c in x)
        return raw(x) == (level_by_product(amb, full, (0,) * d, x) >= r)

    for x in samples(B, rng, 10):
        for at in ats(x):
            L = min(level_by_product(amb, B.C_inv, B.jumps, x, at), r)
            assert fil_level(B, x, at) == L
            Lt = min(level_by_product(amb, Bs.C_inv, Bs.jumps, x, at), r)
            for jumps, table in tables.items():
                Lc = min(level_by_product(amb, cut, jumps, x, at), r)
                assert BR._adapted_level(amb, cut, jumps, x, table, at) == Lc
            for i in range(r + 1):
                assert fil_lower(B, i, x, at) == (i <= L)
                assert fil_lower(Bs, i, x, at) == (i <= Lt)
                if at is None:
                    assert fil_lower(B, i, x) == fil_lower_per_coordinate(B, i, x)
            assert raw_agrees(x, at)
    # members of the raw filtration itself, whose verdict rests on the
    # digits the test reads
    for x in samples(kisin_to_breuil(K), rng, 10):
        for at in ats(x):
            assert raw_agrees(x, at)
    # the product's own errors
    if d:
        x = _random_vector(B, rng, 6)
        for args in ((x[:-1],), (x + x[:1],)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                fil_level(B, *args)
        with pytest.raises(ValueError, match="negative precision"):
            fil_level(B, x, -1)


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_steps_outside_the_hodge_range_are_refused(request, name):
    # a level capped at r answers only the steps 0..r: below 0 every x
    # would be a member, and above r the level cannot tell
    amb = request.getfixturevalue(name)
    r = amb.r
    B = fl_to_breuil(_random_fl(amb, random.Random(80), 2))
    g = _pd_gamma(amb, r + 1)
    for x in ((_pd_one(amb), _pd_one(amb)), (g, g)):
        for i in (-1, r + 1):
            with pytest.raises(ValueError, match=f"filtration step {i} outside"):
                fil_lower(B, i, x)


@pytest.mark.parametrize("name", ["amb3", "amb5", "amb9"])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_descent_table_matches_the_chain(request, name, d):
    amb = request.getfixturevalue(name)
    r = amb.r
    rng = random.Random(50 + d)
    M = _random_fl(amb, rng, d)
    h = _random_congruent_identity(amb, rng, d)
    B0 = fl_to_breuil(M)
    B = _rebase(B0, h)
    # the same module with Nmat's rows known to different precisions
    Bn = BreuilModule(amb, B.Phi, rows_truncated(B.Nmat, rng) if d else B.Nmat, B.C, B.jumps)
    # rebased by a triangular h with its columns cut to different precisions:
    # f_pi(C^(-1)) = f_pi(h) has zero entries, and entries known to several
    # precisions in each row
    if d:
        tri = RingMatrix([[c if i <= j else _pd_zero(amb) for j, c in enumerate(row)]
                          for i, row in enumerate(h.entries)])
        h = rows_truncated(tri.transpose(), rng).transpose()
    Bt = _rebase(B0, h)
    # zero tests at and just above the precisions of Nmat's rows separate
    # the precision of N(x) (its row's) from that of N^2(x) (all of Nmat's)
    row_precs = {min(c.prec for c in row) for row in Bn.Nmat.entries}
    for x in samples(B, rng, 10):
        for mod in (B0, B, Bn, Bt):
            for at in ats(x) + (-1, *row_precs, *(k + 1 for k in row_precs)):
                got = outcome(hat_fil_level, mod, x, at)
                assert got == outcome(hat_level_by_chain, mod, x, at)
                if at is None and mod in (B0, B) and all(c.prec == amb.cap for c in x):
                    for n in range(r + 1):
                        assert (n <= got) == hat_fil_membership_recursive(mod, M.jumps, x, n)


@pytest.mark.parametrize("name", ["amb3", "amb9"])
def test_coordinates_at_the_level_are_not_read(request, name):
    # a coordinate whose jump already reaches the level cannot lower it, so
    # neither test reads it, and its precision below ``at`` raises nothing
    amb = request.getfixturevalue(name)
    r = amb.r
    B = fl_to_breuil(_random_fl(amb, random.Random(90), 2, (r - 1, r)))
    x = (_pd_gamma(amb, 1), _pd_zero(amb).truncate(3))
    assert hat_fil_level(B, x) == hat_level_by_chain(B, x) == r
    assert fil_level(B, x) == r


def test_descent_errors_match_the_chain(amb3, amb9):
    rng = random.Random(60)
    for amb in (amb3, amb9):
        M = _random_fl(amb, rng, 3)
        B = _rebase(fl_to_breuil(M), _random_congruent_identity(amb, rng, 3))
        x = _random_vector(B, rng, 6)
        K = kisin_to_breuil(random_gls(amb, rng, 2))
        y = _random_vector(K, rng, 6)
        cases = [
            short := (B, x[:2], None),
            (B, x + x[:1], None),
            (B, x, amb.cap + 1),
            no_n := (K, y, None),
        ]
        for args in cases:
            got, ref = outcome(hat_fil_level, *args), outcome(hat_level_by_chain, *args)
            assert got == ref
        assert outcome(hat_fil_level, *no_n)[0] is NotCris
        assert outcome(hat_fil_level, *short)[0] is ValueError


def test_each_table_is_built_once_per_owner(amb3, monkeypatch):
    built = []
    for module, name in ((BR, "_jet_table"), (BR, "_descent_table")):
        make = getattr(module, name)

        def counted(*args, make=make, name=name):
            # the matrix a jet table is built from, the module of a descent
            built.append((name, id(args[1] if name == "_jet_table" else args[0])))
            return make(*args)

        monkeypatch.setattr(module, name, counted)
    rng = random.Random(70)
    r = amb3.r
    B = _rebase(fl_to_breuil(_random_fl(amb3, rng, 2)), _random_congruent_identity(amb3, rng, 2))
    Bs = section_basis_module(B, breuil_to_fl(B))
    raw = _kisin_raw_fil_checker(random_gls(amb3, rng, 2))
    for x in samples(B, rng, 6):
        prec = min(c.prec for c in x)
        for at in (max(prec - 2, 0), prec):
            for i in range(r + 1):
                fil_lower(B, i, x, at)
                fil_lower(Bs, i, x, at)
            fil_level(B, x, at)
            hat_fil_level(B, x, at)
            raw(x)
    # the raw checker's matrix is its own: it builds its table with the closure
    assert sorted(name for name, _ in built) == ["_descent_table"] + ["_jet_table"] * 3
    assert {("_jet_table", id(B.C_inv)), ("_jet_table", id(Bs.C_inv)),
            ("_descent_table", id(B))} < set(built)
