"""Shared parameters and precomputed tables for one working context.

An AmbientParams fixes the prime p, the residue degree f, the monic lift
m of the residue field's modulus, the Hodge range bound r, the uniformiser
datum a (a unit of W(k), with E(u) = u + p*a), the public precision N_p,
the gamma truncation N_gamma and the internal precision headroom: the
keywords of ``_resolve_params``, which are the fields of the params
document (``serialize._params_to_json``).  The series truncation
N_u = p*N_gamma is derived.  All scalars, series and divided-power
elements of one computation share a single context.

A context is read-only once constructed, but for caches of values that
depend on the parameters alone, filled on first use:

  * the powers u^n, c^i, E^n and a^i, each one product from the one
    before;
  * unit(i!)^-1, the inverse of the unit part of i!, as the integer
    inverse mod p^cap (one ``pow``), and (p*a)^i/i!, from a^i;
  * the scale factors that remove the binomial weights from a packed
    matrix product over S (``gamma_scale``).

So one context can serve every computation with the same parameters:
``shared_params`` returns one per parameter set per process, keyed by the
parameters ``_resolve_params`` makes of its keyword arguments, and the
campaign, the CLI and the loader of serialized modules take theirs from
it.  ``AmbientParams(...)`` still builds a private context.

The fixed W(k)-linear maps of S on gamma-coefficients, the Frobenius
``phi_S`` (columns phi(gamma_i) = p^(i - v_p(i!)) * unit(i!)^-1 * c^i,
zero once the power of p reaches the cap), the embedding ``_embed_sigma`` of
W(k)[[u]] (columns u^n), the change to the u-divided coordinates (columns
(p*a)^(i-j)/(i-j)! in rows j <= i) and its row 0, the evaluation f_0
(columns (p*a)^i/i!), are one ``witt._PackedTable`` each, built whole with
the context from its N_gamma columns in the one packed layout of ``witt``:
one ``apply`` maps a list of vectors (a matrix's entries at once, or one
element).  The product by p*a, which the derivation ``n_S`` applies to
every coefficient, is the f x f integer matrix ``pa_matrix`` on T-planes.

Two sizing rules matter:

  * the stated invariant N_gamma*(p-2)/(p-1) >= N_p + r makes the Frobenius
    well defined on the truncation: the image of every gamma index that
    comparisons do not read (N_gamma - 1 and up, see ``pd``) lands in
    p^(N_p + r) S;
  * the default N_gamma is chosen strictly larger, because the section
    iteration divides by p^r once per step and truncation-tail effects must
    stay invisible modulo p^N_p through the whole stabilisation window.

The headroom default r*(3*N_p + 2) + p covers the transient denominators of
the section iteration (one p^r per step) with a wide margin.
"""

from __future__ import annotations

import math

from . import pd as pdmod
from .errors import DegreeOverflow, NotAUnit
from .series import SigmaSeries, _series_from_ints
from .witt import WittScalar, _find_irreducible, _PackedTable, _trimmed, _WittRing


# the largest residue degree, gamma truncation and cap a context accepts
_MAX_F = 64
_MAX_N_GAMMA = 1024
_MAX_CAP = 8192


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _section_rate_bound(p: int, r: int, N_p: int) -> int:
    """Smallest n with p + p^2 + ... + p^(n+1) - r(n+1) >= N_p."""
    n = 0
    while True:
        gain = sum(p**j for j in range(1, n + 2)) - r * (n + 1)
        if gain >= N_p:
            return n
        n += 1


def _min_N_gamma(p: int, r: int, N_p: int) -> int:
    """The hard lower bound: phi of the indices from N_gamma - 1 on, which
    comparisons do not read, lies in p^(N_p+r) S (see ``pd``)."""
    return max(p + 1, math.ceil((N_p + r) * (p - 1) / (p - 2)))


def _default_N_gamma(p: int, r: int, N_p: int) -> int:
    """Sized so tail effects stay below p^N_p across the iteration window."""
    window = _section_rate_bound(p, r, N_p) + 3
    target = N_p + r * window
    return max(_min_N_gamma(p, r, N_p), math.ceil(target * (p - 1) / (p - 2)))


def _resolve_params(
    p: int,
    r: int,
    *,
    f: int = 1,
    N_p: int = 6,
    N_gamma: int | None = None,
    headroom: int | None = None,
    a: int | list[int] = -1,
    m_coeffs=None,
) -> tuple:
    """The parameters of a context, validated and with defaults applied:
    (p, r, f, N_p, N_gamma, headroom, a, m_coeffs), with ``a`` and
    ``m_coeffs`` as tuples reduced mod p^cap (``a`` padded to f entries;
    more than f once its trailing zeros are dropped is a ValueError).
    Keyword arguments that name one context resolve to the same tuple.

    The context's tables grow with f, N_gamma and the cap N_p + headroom,
    so each is refused above its bound (``_MAX_F``, ``_MAX_N_GAMMA``,
    ``_MAX_CAP``) before anything is built; as N_gamma > p, so is a p of
    ``_MAX_N_GAMMA`` or more."""
    if p >= _MAX_N_GAMMA:
        raise ValueError(f"p = {p} needs N_gamma > p, above the bound {_MAX_N_GAMMA}")
    if not _is_prime(p) or p < 3:
        raise ValueError("p must be an odd prime; p = 2 is not supported "
                         "(the diagonal normal form behind the Kisin-side "
                         "constructions needs p > 2)")
    if not 0 <= r <= p - 1:
        raise ValueError(f"Hodge bound r must lie in [0, {p - 1}]")
    if f < 1:
        raise ValueError("residue degree f must be at least 1")
    if f > _MAX_F:
        raise ValueError(f"residue degree f = {f} exceeds the bound {_MAX_F}")
    if N_p < 1:
        raise ValueError("N_p must be positive")
    if headroom is None:
        headroom = r * (3 * N_p + 2) + p
    if headroom < 0:
        raise ValueError("headroom must be nonnegative")
    if N_p + headroom > _MAX_CAP:
        raise ValueError(f"cap N_p + headroom = {N_p + headroom} exceeds the bound {_MAX_CAP}")
    if N_gamma is None:
        N_gamma = _default_N_gamma(p, r, N_p)
    if N_gamma > _MAX_N_GAMMA:
        raise ValueError(f"N_gamma = {N_gamma} exceeds the bound {_MAX_N_GAMMA}")
    if N_gamma < _min_N_gamma(p, r, N_p):
        raise ValueError(
            f"N_gamma = {N_gamma} violates N_gamma*(p-2)/(p-1) >= N_p + r "
            f"(minimum {_min_N_gamma(p, r, N_p)})"
        )
    mod = p ** (N_p + headroom)
    if m_coeffs is None:
        m_coeffs = _find_irreducible(p, f)
    a = [a] if isinstance(a, int) else [int(c) for c in a]
    a += [0] * (f - len(a))
    while len(a) > f and not a[-1] % mod:
        a.pop()
    if len(a) > f:
        raise ValueError(f"a has {len(a)} coefficients, but f = {f} allows at most {f}")
    return (p, r, f, N_p, N_gamma, headroom,
            tuple(c % mod for c in a), tuple(int(c) % mod for c in m_coeffs))


_SHARED: dict[tuple, AmbientParams] = {}


def shared_params(**kwargs) -> AmbientParams:
    """The context of this process for the parameters these keyword
    arguments of ``AmbientParams`` resolve to (``_resolve_params``): built
    on the first call, the same object on every later call that names the
    same parameters, however it spells them."""
    key = _resolve_params(**kwargs)
    amb = _SHARED.get(key)
    if amb is None:
        amb = _SHARED[key] = AmbientParams(**kwargs)
    return amb


class AmbientParams:
    """One fixed working context; read-only after construction, with
    caches that only fill lazily.  Takes the arguments of
    ``_resolve_params``."""

    def __init__(self, *args, **kwargs):
        p, r, f, N_p, N_gamma, headroom, a, m_coeffs = _resolve_params(*args, **kwargs)
        self.p = p
        self.f = f
        self.r = r
        self.N_p = N_p
        self.N_gamma = N_gamma
        self.N_u = p * N_gamma                 # the series truncation
        self.headroom = headroom
        self.cap = N_p + headroom
        self.ring = _WittRing(p, f, m_coeffs, self.cap)

        self.a = self.ring.make(a)
        if not self.a.is_unit():
            raise NotAUnit("a must be a unit of W(k)")
        self.pa = self.a.mul_p_pow(1)          # p*a = E(0)
        self.neg_pa = -self.pa                 # pi, the root of E
        self.sigma_a = self.a.frobenius()
        # the product by p*a on T-planes (``pd.n_S``): row s, column t is
        # coefficient s of p*a*T^t, as its representative of least absolute
        # value mod p^cap (-p for the default a = -1), so the products stay short
        mod = self.ring.pk[self.cap]
        self.pa_matrix = tuple(zip(*(
            [c - mod if 2 * c > mod else c
             for c in (self.pa * self.ring.make([0] * t + [1])).coeffs] for t in range(f))))

        # tables: v_p(i!), unit parts of i!, binomials for the gamma product
        lim = self.N_u + 2
        self.vfact = [0] * lim
        v = 0
        for i in range(1, lim):
            n = i
            while n % p == 0:
                n //= p
                v += 1
            self.vfact[i] = v
        self._fact_unit_inv: dict[int, WittScalar] = {}
        self._pa_div_fact: dict[int, WittScalar] = {}
        self._a_pow = [self.ring.one(), self.a]
        self._gamma_scale: tuple | None = None
        self.comb = tuple(
            tuple(math.comb(i + j, i) % self.ring.pk[self.cap] for j in range(N_gamma - i))
            for i in range(N_gamma)
        )
        self.comb_max = max(map(max, self.comb))  # the largest weight, for dot_acc
        self.E_series = SigmaSeries(self, [self.pa, self.ring.one()])
        self._E_pow = [_series_from_ints(self, [1]), self.E_series]

        # c = phi(E)/p = (u^p + p*sigma(a))/p: the division is exact at the
        # integer level (the gamma_k term of u^p carries p^(p-k) from
        # C(p,k)*(-p*a)^(p-k), and p!/p = (p-1)!), so c costs no precision.
        c_coeffs = []
        for k in range(p):
            n = math.comb(p, k) * math.factorial(k) * (-1) ** (p - k) * p ** (p - k - 1)
            c_coeffs.append(self.ring.from_int(n) * (self.a ** (p - k)))
        c_coeffs.append(self.ring.from_int(math.factorial(p) // p))
        c_coeffs[0] = c_coeffs[0] + self.sigma_a
        self.c = pdmod.PDElement(self, c_coeffs)
        # the powers of u = gamma_1 - p*a and of c, from x^0 and x^1 on
        one = pdmod._pd_one(self)
        self._u_pow = [one, pdmod.PDElement(self, [self.neg_pa, self.ring.one()])]
        self._c_pow = [one, self.c]

        # the linear maps of S on gamma-coefficients: columns phi(gamma_i) =
        # p^(i - v_p(i!)) * unit(i!)^-1 * c^i (phi_S; an integer scale of the
        # planes of c^i, zero from p^cap on), u^n (_embed_sigma) and
        # (p*a)^(i-j)/(i-j)! in row j <= i (u-divided)
        pk = self.ring.pk
        c_cols = []
        for i in range(N_gamma):
            e = i - self.vfact[i]
            if e >= self.cap:
                c_cols.append(tuple([] for _ in range(f)))
                continue
            scale = self.fact_unit_inv(i).coeffs[0] * pk[e] % mod
            c_cols.append(_trimmed([[c * scale % mod for c in pl]
                                    for pl in self.c_pow(i).planes]))
        self.c_table = _PackedTable(self.ring, c_cols)
        self.u_table = _PackedTable(self.ring, [self.u_pow(n).planes for n in range(N_gamma)])
        pa_div = [self.pa_div_fact(i).coeffs for i in range(N_gamma)]
        self.u_div_table = _PackedTable(self.ring, [
            self.ring.to_planes(pa_div[i::-1], self.cap) for i in range(N_gamma)])
        # its row 0, the evaluation at u = 0: gamma_i -> (p*a)^i/i!
        self.f0_table = _PackedTable(self.ring, [self.ring.to_planes([c], self.cap)
                                                 for c in pa_div])

    # --- caches ---

    def fact_unit_inv(self, i: int) -> WittScalar:
        """Inverse of the unit part i!/p^(v_p(i!)), at full cap, for
        0 <= i < len(vfact) (DegreeOverflow otherwise).  The unit is an
        integer, so its inverse is the integer inverse mod p^cap: the one
        inverse there is, the value ``WittScalar.invert`` would reach."""
        out = self._fact_unit_inv.get(i)
        if out is None:
            if not 0 <= i < len(self.vfact):
                raise DegreeOverflow(f"{i}! outside the table of factorials")
            unit = math.factorial(i) // self.p ** self.vfact[i]
            out = self.ring.from_int(pow(unit, -1, self.ring.pk[self.cap]))
            self._fact_unit_inv[i] = out
        return out

    def pa_div_fact(self, i: int) -> WittScalar:
        """(p*a)^i / i!, integral of valuation i - v_p(i!), for the indices
        of ``fact_unit_inv``: a^i from the running powers of a, times
        unit(i!)^-1 and p^(i - v_p(i!))."""
        out = self._pa_div_fact.get(i)
        if out is None:
            unit_inv = self.fact_unit_inv(i)       # checks the index first
            a_i = self._power(self._a_pow, i)
            out = (a_i * unit_inv).mul_p_pow(i - self.vfact[i])
            self._pa_div_fact[i] = out
        return out

    def gamma_scale(self) -> tuple:
        """(V, pre, post) that turn the gamma product into a plain
        convolution (``_FlatVector._matmul_planes``): V = v_p((N_gamma-1)!),
        pre[i] = unit(i!)^-1 * p^(V - v_p(i!)) mod p^(cap+V) and
        post[m] = (p^(2V - v_p(m!)), unit(m!)).  Scaling coefficient i of
        both factors by pre[i] and coefficient m of their convolution by
        m! = unit(m!) * p^(v_p(m!)) gives a multiple of p^(2V) that is
        p^(2V) times sum_i C(m, i) x_i y_(m-i) modulo p^(cap + 2V): each
        term x_i y_j carries p^(2V - v_p(i!) - v_p(j!)) after the scaling,
        and unit(m!) / (unit(i!) unit(j!)) * p^(v_p(m!) - v_p(i!) - v_p(j!))
        is C(m, i).  So coefficient m of the scaled convolution is a
        multiple of p^(2V - v_p(m!)), and its exact quotient by that power
        times unit(m!) is the weighted sum mod p^cap."""
        if self._gamma_scale is None:
            p, N, vfact = self.p, self.N_gamma, self.vfact
            V = vfact[N - 1]
            mod = p ** (self.cap + V)
            units = [math.factorial(i) // p ** vfact[i] for i in range(N)]
            pre = tuple(pow(u, -1, mod) * p ** (V - v) % mod for u, v in zip(units, vfact))
            post = tuple((p ** (2 * V - v), u) for u, v in zip(units, vfact))
            self._gamma_scale = (V, pre, post)
        return self._gamma_scale

    @staticmethod
    def _power(cache: list, n: int):
        """x^n from the running products x^k = x^(k-1) * x, where ``cache``
        holds x^0, x^1, ... and grows up to x^n."""
        if n < 0:
            raise DegreeOverflow(f"negative power {n}")
        while len(cache) <= n:
            cache.append(cache[-1] * cache[1])
        return cache[n]

    def u_pow(self, n: int) -> pdmod.PDElement:
        """u^n in S/Fil^{N_gamma} S, for any n >= 0.  Below N_gamma no
        product is truncated, so each power is the exact binomial expansion
        mod p^cap; from N_gamma on, the products drop the part past
        N_gamma, as the truncation of S is a ring map (see ``pd``)."""
        return self._power(self._u_pow, n)

    def c_pow(self, i: int) -> pdmod.PDElement:
        return self._power(self._c_pow, i)

    def E_pow(self, n: int) -> SigmaSeries:
        """E(u)^n in the series ring."""
        return self._power(self._E_pow, n)

    # --- convenience constructors (used heavily by tests) ---

    def w(self, n: int) -> WittScalar:
        return self.ring.from_int(n)

    def useries(self, ints) -> SigmaSeries:
        return _series_from_ints(self, ints)

    def rate_bound(self) -> int:
        return _section_rate_bound(self.p, self.r, self.N_p)

    def __repr__(self):
        return (f"AmbientParams(p={self.p}, f={self.f}, r={self.r}, N_p={self.N_p}, "
                f"N_gamma={self.N_gamma}, headroom={self.headroom})")
