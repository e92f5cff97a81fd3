"""The divided-power ring S in its gamma-basis, truncated.

With E(u) = u + p*a of degree one, S (the p-adically completed divided-power
envelope of W(k)[u] along E) has the topological W(k)-basis

    gamma_i = E(u)^i / i!,   i >= 0,

multiplying by gamma_i * gamma_j = C(i+j, i) * gamma_{i+j}.  Elements here
keep indices 0 .. N_gamma-1; a product term pushed past the bound is dropped
and the element is flagged ``tail_dirty``.  The key structure maps all act
termwise in this basis:

  * Fil^j S is the span of gamma_i with i >= j, so filtration valuation is
    the index of the first coefficient that is nonzero at precision.
  * phi(gamma_i) = (p^i / i!) * c^i with c = phi(E)/p = (u^p + p*sigma(a))/p,
    and the divided Frobenius phi_j = phi / p^j is computed without any
    division because v_p(p^i/i!) >= j for every index i >= j in range.
  * N(gamma_i) = -i*gamma_i + p*a*gamma_{i-1}, from N(u) = -u and the
    Leibniz rule.  N does not see the dropped tail, so on a tail_dirty
    element the top coefficient (index N_gamma - 1) of N is unreliable.
  * f_0 (u -> 0) sends gamma_i to (p*a)^i / i!; f_pi (u -> pi = -p*a) kills
    every gamma_i with i >= 1 and reads off the gamma_0 coefficient.

A second exact coordinate system is used for ideal-membership tests: the
divided powers of u itself.  Since u = E - p*a,

    gamma_k = sum_{j<=k} ((p*a)^(k-j)/(k-j)!) * u^j/j!,

an integral triangular change of basis with integral inverse.  In the
u-divided coordinates x ~ (x_m), membership in u^n * S is the condition
x_m = 0 for m < n together with v_p(x_m) >= v_p(m!) - v_p((m-n)!) for
m >= n.  Both transforms are exact, so the test costs no precision.
"""

from __future__ import annotations

from .errors import DegreeOverflow, NotAUnit, NotDivisible, NotInFil, PrecisionExhausted
from .series import SigmaSeries
from .witt import WittScalar


class PDElement:
    """Element of S: coefficients for gamma_0 .. gamma_{N_gamma - 1}."""

    __slots__ = ("amb", "coeffs", "prec", "tail_dirty", "_support")

    def __init__(self, amb, coeffs, tail_dirty: bool = False, prec: int | None = None):
        self.amb = amb
        coeffs = list(coeffs)
        if len(coeffs) > amb.N_gamma:
            raise DegreeOverflow("gamma index beyond truncation")
        k = min((c.prec for c in coeffs), default=amb.cap)
        if prec is not None:
            k = min(k, prec)
        zero = amb.ring.zero(k)
        full = [c.truncate(k) for c in coeffs]
        full.extend([zero] * (amb.N_gamma - len(full)))
        self.coeffs = tuple(full)
        self.prec = k
        self.tail_dirty = tail_dirty
        sup = 0
        for i in range(amb.N_gamma - 1, -1, -1):
            if any(full[i].coeffs):
                sup = i + 1
                break
        self._support = sup

    def coeff(self, i: int) -> WittScalar:
        return self.coeffs[i]

    def __add__(self, other):
        if not isinstance(other, PDElement):
            return NotImplemented
        if self._support == 0 and self.prec >= other.prec and (
            not self.tail_dirty or other.tail_dirty
        ):
            return other
        if other._support == 0 and other.prec >= self.prec and (
            not other.tail_dirty or self.tail_dirty
        ):
            return self
        return PDElement(
            self.amb,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.tail_dirty or other.tail_dirty,
        )

    def __sub__(self, other):
        if not isinstance(other, PDElement):
            return NotImplemented
        if other._support == 0 and other.prec >= self.prec and (
            not other.tail_dirty or self.tail_dirty
        ):
            return self
        return PDElement(
            self.amb,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            self.tail_dirty or other.tail_dirty,
        )

    def __neg__(self):
        return PDElement(self.amb, [-a for a in self.coeffs], self.tail_dirty)

    def __mul__(self, other):
        if not isinstance(other, PDElement):
            return NotImplemented
        return gamma_multiply(self, other)

    def scalar_mul(self, w: WittScalar) -> "PDElement":
        return PDElement(self.amb, [c * w for c in self.coeffs], self.tail_dirty)

    def mul_p_pow(self, k: int) -> "PDElement":
        return PDElement(self.amb, [c.mul_p_pow(k) for c in self.coeffs], self.tail_dirty)

    def div_p_exact(self, k: int) -> "PDElement":
        return PDElement(self.amb, [c.div_p_exact(k) for c in self.coeffs], self.tail_dirty)

    def is_zero_at(self, k: int) -> bool:
        if self.prec < k:
            raise PrecisionExhausted(f"zero test at p^{k} with {self.prec} digits")
        return all(c.is_zero_at(k) for c in self.coeffs)

    def eq_at(self, other: "PDElement", k: int) -> bool:
        """Equality mod p^k; on a tail_dirty difference the top coefficient,
        which the dropped tail can reach, is not compared."""
        diff = self - other
        if diff.prec < k:
            raise PrecisionExhausted(f"comparison at p^{k} with {diff.prec} digits")
        top = self.amb.N_gamma - (1 if diff.tail_dirty else 0)
        return all(diff.coeffs[i].is_zero_at(k) for i in range(top))

    def is_unit(self) -> bool:
        return self.coeffs[0].is_unit()

    @property
    def ring(self):
        return self.amb.ring

    def residue(self) -> tuple[int, ...]:
        return self.coeffs[0].residue()

    def lift_residue(self, t) -> "PDElement":
        """The constant of S whose residue is the tuple t."""
        return PDElement(self.amb, [self.amb.ring.make(t)])

    def newton_steps(self) -> int:
        """Newton steps from a residue-field inverse to this precision and
        gamma truncation, plus slack."""
        return max(self.amb.N_gamma, self.prec).bit_length() + 2

    def invert(self) -> "PDElement":
        """Inverse of a unit of S by Newton iteration."""
        if not self.is_unit():
            raise NotAUnit("inverse in S needs a unit gamma_0 coefficient")
        amb = self.amb
        z = pd_from_scalar(amb, self.coeffs[0].invert())
        one = pd_one(amb, self.prec)
        two = one + one
        for _ in range(self.newton_steps()):
            xz = self * z
            z = z * (two - xz)
            if xz.eq_at(one, self.prec):
                break
        if not (self * z).eq_at(one, self.prec):
            raise NotDivisible("inverse in S did not converge at precision")
        return z

    def truncate(self, k: int) -> "PDElement":
        if k >= self.prec:
            return self
        return PDElement(self.amb, [c.truncate(k) for c in self.coeffs], self.tail_dirty)

    def support(self) -> int:
        """Index one past the last integer-nonzero coefficient."""
        return self._support

    def __repr__(self):
        terms = []
        for i in range(self.amb.N_gamma):
            c = self.coeffs[i]
            if any(c.coeffs):
                terms.append(f"{c!r}*g{i}" if i else f"{c!r}")
        body = " + ".join(terms) if terms else "0"
        dirt = ", dirty" if self.tail_dirty else ""
        return f"PD({body} ~p^{self.prec}{dirt})"


def pd_zero(amb, prec: int | None = None) -> PDElement:
    return PDElement(amb, [], prec=prec)


def pd_one(amb, prec: int | None = None) -> PDElement:
    return PDElement(amb, [amb.ring.one(prec)])


def pd_from_scalar(amb, w: WittScalar) -> PDElement:
    return PDElement(amb, [w])


def pd_gamma(amb, i: int, coeff: WittScalar | None = None) -> PDElement:
    if not 0 <= i < amb.N_gamma:
        raise DegreeOverflow(f"gamma_{i} outside truncation")
    coeff = amb.ring.one() if coeff is None else coeff
    zero = amb.ring.zero(coeff.prec)
    return PDElement(amb, [zero] * i + [coeff])


def gamma_multiply(x: PDElement, y: PDElement) -> PDElement:
    """Product under gamma_i * gamma_j = C(i+j, i) * gamma_{i+j}."""
    amb = x.amb
    N = amb.N_gamma
    k = min(x.prec, y.prec)
    ring = amb.ring
    mod = ring.pk[k]
    comb = amb.comb
    dirty = x.tail_dirty or y.tail_dirty
    xs = x.coeffs
    ys = y.coeffs
    xsup, ysup = x._support, y._support
    if xsup == 0 or ysup == 0:
        return PDElement(amb, [], dirty, prec=k)
    top = min(xsup + ysup - 1, N)
    if ring.f == 1:
        acc = [0] * top
        for i in range(xsup):
            a = xs[i].coeffs[0]
            if a == 0:
                continue
            row = comb[i]
            for j in range(min(ysup, N - i)):
                b = ys[j].coeffs[0]
                if b:
                    acc[i + j] = (acc[i + j] + a * b * row[j]) % mod
            if ysup > N - i:
                dirty = True  # a product index crossed the truncation
        out = [WittScalar(ring, (c,), k) for c in acc]
    else:
        zero = ring.zero(k)
        out = [zero] * top
        for i in range(xsup):
            a = xs[i]
            if not any(a.coeffs):
                continue
            row = comb[i]
            for j in range(min(ysup, N - i)):
                b = ys[j]
                if any(b.coeffs):
                    term = a * b
                    term = WittScalar(ring, ring._smul_tuple(term.coeffs, row[j], k), k)
                    out[i + j] = out[i + j] + term
            if ysup > N - i:
                dirty = True
    return PDElement(amb, out, dirty, prec=k)


def embed_sigma(s: SigmaSeries) -> PDElement:
    """The inclusion of W(k)[[u]] into S: substitute u = gamma_1 - p*a."""
    amb = s.amb
    if s.degree >= amb.N_gamma:
        raise DegreeOverflow(
            f"series degree {s.degree} does not embed below gamma_{amb.N_gamma}"
        )
    acc = pd_zero(amb, s.prec)
    for n, c in enumerate(s.coeffs):
        if any(c.coeffs):
            acc = acc + amb.u_pow(n).scalar_mul(c)
    return acc


def fil_valuation(x: PDElement, at: int | None = None) -> int:
    """Largest j with all coefficients below index j zero at precision."""
    k = x.prec if at is None else min(at, x.prec)
    for i in range(x.amb.N_gamma):
        if not x.coeffs[i].is_zero_at(k):
            return i
    return x.amb.N_gamma


def phi_S(x: PDElement, j: int = 0) -> PDElement:
    """Divided Frobenius phi_j = phi / p^j on Fil^j, computed termwise.

    Uses phi(gamma_i) = (p^i / i!) c^i; the power p^(i - v_p(i!) - j) is a
    nonnegative shift for every i >= j with j <= r, so nothing is divided.
    Coefficients below index j are required to vanish at the value's own
    precision and are treated as exactly zero.
    """
    amb = x.amb
    if j < 0 or j > amb.r:
        raise NotInFil(f"divided Frobenius index {j} outside [0, {amb.r}]")
    if j > 0 and fil_valuation(x) < j:
        raise NotInFil(f"element has filtration valuation {fil_valuation(x)} < {j}")
    k = x.prec
    acc = pd_zero(amb, k)
    dirty = x.tail_dirty
    for i in range(j, x._support):
        b = x.coeffs[i]
        if not any(b.coeffs):
            continue
        e = i - amb.vfact[i] - j
        if e < 0:
            raise NotInFil(f"phi_{j} undefined on gamma_{i}")
        if e >= k:
            continue  # contributes 0 at this precision
        cp = amb.c_pow(i)
        scal = (b.frobenius() * amb.fact_unit_inv(i)).mul_p_pow(e)
        acc = acc + cp.scalar_mul(scal)
        dirty = dirty or cp.tail_dirty
    return PDElement(amb, acc.coeffs, dirty, prec=k)


def n_S(x: PDElement) -> PDElement:
    """The derivation with N(u) = -u: N(gamma_i) = -i gamma_i + p a gamma_{i-1}.

    On a tail_dirty input the coefficient at the top index misses the
    contribution of the dropped gamma_{N_gamma} term.
    """
    amb = x.amb
    N = amb.N_gamma
    ring = amb.ring
    k = x.prec
    sup = x._support
    if ring.f == 1:
        mod = ring.pk[k]
        pa0 = amb.pa.coeffs[0] % mod
        cs = [c.coeffs[0] for c in x.coeffs]
        out = [
            WittScalar(ring, (((pa0 * cs[m + 1] if m + 1 < N else 0) - m * cs[m]) % mod,), k)
            for m in range(sup)
        ]
    else:
        pa = amb.pa
        out = []
        for m in range(sup):
            t = x.coeffs[m] * ring.from_int(-m, k)
            if m + 1 < N:
                t = t + pa * x.coeffs[m + 1]
            out.append(t)
    return PDElement(amb, out, x.tail_dirty, prec=k)


def eval_f0(x: PDElement) -> WittScalar:
    """Evaluation at u = 0: gamma_i -> (p*a)^i / i!."""
    amb = x.amb
    acc = amb.ring.zero(x.prec)
    for i in range(x._support):
        b = x.coeffs[i]
        if any(b.coeffs):
            acc = acc + b * amb.pa_div_fact(i)
    return acc


def eval_fpi(x: PDElement) -> WittScalar:
    """Evaluation at u = pi = -p*a, where E vanishes: reads gamma_0."""
    return x.coeffs[0]


def to_u_divided(x: PDElement) -> tuple[WittScalar, ...]:
    """Exact coordinates with respect to the divided powers u^m / m!."""
    amb = x.amb
    N = amb.N_gamma
    zero = amb.ring.zero(x.prec)
    out = []
    for j in range(N):
        acc = zero
        for k in range(j, x._support):
            b = x.coeffs[k]
            if any(b.coeffs):
                acc = acc + b * amb.pa_div_fact(k - j)
        out.append(acc)
    return tuple(out)


def in_u_power_ideal(x: PDElement, n: int, at: int | None = None) -> bool:
    """Membership in u^n * S at precision, tested in u-divided coordinates.

    u^n * S is spanned by u^m/(m-n)! for m >= n, so coordinate m must carry
    p-valuation at least v_p(m!) - v_p((m-n)!); coordinates below n vanish.
    Tested on the truncated shadow (indices below N_gamma).
    """
    amb = x.amb
    k = x.prec if at is None else min(at, x.prec)
    coords = to_u_divided(x)
    for m in range(min(n, amb.N_gamma)):
        if not coords[m].is_zero_at(k):
            return False
    for m in range(n, amb.N_gamma):
        need = min(amb.vfact[m] - amb.vfact[m - n], k)
        if need > 0 and not coords[m].is_zero_at(need):
            return False
    return True


def pd_random(amb, rng, max_index: int | None = None, prec: int | None = None) -> PDElement:
    """Uniform random coefficients up to max_index (exclusive)."""
    top = amb.N_gamma if max_index is None else min(max_index, amb.N_gamma)
    return PDElement(amb, [amb.ring.random(rng, prec) for _ in range(top)])


def pd_random_calibrated(amb, rng, max_index: int, max_val: int, zero_chance: float = 0.3) -> PDElement:
    """Random element whose coefficients are exact zeros or have small,
    controlled p-valuation.  Keeps filtration verdicts away from the
    precision boundary so that at-precision membership tests are decisive."""
    coeffs = []
    for _ in range(min(max_index, amb.N_gamma)):
        if rng.random() < zero_chance:
            coeffs.append(amb.ring.zero())
        else:
            v = rng.randrange(max_val + 1)
            coeffs.append(amb.ring.random_unit(rng).mul_p_pow(v))
    return PDElement(amb, coeffs)
