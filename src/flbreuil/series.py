"""Truncated power series over W(k): the ring W(k)[[u]] cut at degree N_u.

Coefficients share one uniform precision (normalised to the minimum on
construction).  The Frobenius acts by u -> u^p and the arithmetic Frobenius
on coefficients; degrees at or above the truncation bound are dropped, which
is the intended (p, u)-adic semantics.
"""

from __future__ import annotations

from .errors import NotAUnit, NotDivisible, PrecisionExhausted
from .witt import WittScalar


def _normalize(scalars):
    """Return (tuple at uniform min precision, prec)."""
    scalars = list(scalars)
    if not scalars:
        return (), None
    k = min(s.prec for s in scalars)
    return tuple(s.truncate(k) for s in scalars), k


class SigmaSeries:
    """Polynomial-truncated element of W(k)[[u]]."""

    __slots__ = ("amb", "coeffs", "prec")

    def __init__(self, amb, coeffs, prec: int | None = None):
        self.amb = amb
        coeffs = list(coeffs)
        # trim exact-zero trailing coefficients
        while coeffs and not any(coeffs[-1].coeffs):
            coeffs.pop()
        if len(coeffs) > amb.N_u:
            coeffs = coeffs[: amb.N_u]
        norm, k = _normalize(coeffs)
        if k is None:
            k = amb.cap if prec is None else prec
        elif prec is not None:
            k = min(k, prec)
            norm = tuple(c.truncate(k) for c in norm)
        self.coeffs = norm
        self.prec = k

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> WittScalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.amb.ring.zero(self.prec)

    def __add__(self, other):
        if not isinstance(other, SigmaSeries):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return SigmaSeries(
            self.amb,
            [self.coeff(i) + other.coeff(i) for i in range(n)],
            min(self.prec, other.prec),
        )

    def __sub__(self, other):
        if not isinstance(other, SigmaSeries):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return SigmaSeries(
            self.amb,
            [self.coeff(i) - other.coeff(i) for i in range(n)],
            min(self.prec, other.prec),
        )

    def __neg__(self):
        return SigmaSeries(self.amb, [-c for c in self.coeffs], self.prec)

    def __mul__(self, other):
        if not isinstance(other, SigmaSeries):
            return NotImplemented
        amb = self.amb
        ring = amb.ring
        k = min(self.prec, other.prec)
        if not self.coeffs or not other.coeffs:
            return SigmaSeries(amb, [], k)
        n = min(len(self.coeffs) + len(other.coeffs) - 1, amb.N_u)
        if ring.f == 1:
            mod = ring.pk[k]
            xs = [c.coeffs[0] for c in self.coeffs]
            ys = [c.coeffs[0] for c in other.coeffs]
            acc = [0] * n
            for i, a in enumerate(xs):
                if a:
                    for j in range(min(len(ys), n - i)):
                        b = ys[j]
                        if b:
                            acc[i + j] = (acc[i + j] + a * b) % mod
            return SigmaSeries(amb, [WittScalar(ring, (c,), k) for c in acc], k)
        zero = ring.zero(k)
        out = [zero] * n
        for i, a in enumerate(self.coeffs):
            if not any(a.coeffs):
                continue
            top = min(len(other.coeffs), n - i)
            for j in range(top):
                b = other.coeffs[j]
                if any(b.coeffs):
                    out[i + j] = out[i + j] + a * b
        return SigmaSeries(amb, out, k)

    def scalar_mul(self, w: WittScalar) -> "SigmaSeries":
        return SigmaSeries(self.amb, [c * w for c in self.coeffs], min(self.prec, w.prec))

    def phi(self) -> "SigmaSeries":
        """Frobenius: u -> u^p, arithmetic Frobenius on coefficients."""
        amb = self.amb
        p = amb.p
        zero = amb.ring.zero(self.prec)
        out = [zero] * min(len(self.coeffs) * p, amb.N_u) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            if i * p >= amb.N_u:
                break
            out[i * p] = c.frobenius()
        return SigmaSeries(amb, out, self.prec)

    def constant(self) -> WittScalar:
        return self.coeff(0)

    def is_zero_at(self, k: int) -> bool:
        if self.prec < k:
            raise PrecisionExhausted(f"zero test at p^{k} with {self.prec} digits")
        return all(c.is_zero_at(k) for c in self.coeffs)

    def eq_at(self, other: "SigmaSeries", k: int) -> bool:
        return (self - other).is_zero_at(k)

    def is_unit(self) -> bool:
        return self.coeff(0).is_unit()

    @property
    def ring(self):
        return self.amb.ring

    def residue(self) -> tuple[int, ...]:
        return self.constant().residue()

    def lift_residue(self, t) -> "SigmaSeries":
        """The constant series whose residue is the tuple t."""
        return SigmaSeries(self.amb, [self.amb.ring.make(t)])

    def newton_steps(self) -> int:
        """Newton steps from a residue-field inverse to this precision and
        u-adic truncation, plus slack."""
        return max(self.amb.N_u, self.prec).bit_length() + 2

    def invert(self) -> "SigmaSeries":
        """Inverse of a unit series by Newton iteration z <- z(2 - fz)."""
        if not self.is_unit():
            raise NotAUnit("series inverse needs a unit constant term")
        amb = self.amb
        z = SigmaSeries(amb, [self.constant().invert()], self.prec)
        one = series_from_ints(amb, [1], self.prec)
        two = series_from_ints(amb, [2], self.prec)
        for _ in range(self.newton_steps()):
            fz = self * z
            z = z * (two - fz)
            if fz.eq_at(one, self.prec):
                break
        if not (self * z).eq_at(one, self.prec):
            raise NotDivisible("series inverse did not converge at precision")
        return z

    def truncate(self, k: int) -> "SigmaSeries":
        if k >= self.prec:
            return self
        return SigmaSeries(self.amb, [c.truncate(k) for c in self.coeffs], k)

    def mul_p_pow(self, k: int) -> "SigmaSeries":
        out = [c.mul_p_pow(k) for c in self.coeffs]
        return SigmaSeries(self.amb, out, min(self.prec + k, self.amb.cap))

    def div_p_exact(self, k: int) -> "SigmaSeries":
        return SigmaSeries(self.amb, [c.div_p_exact(k) for c in self.coeffs], self.prec - k)

    def __repr__(self):
        if not self.coeffs:
            return "Series(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if any(c.coeffs):
                terms.append(f"{c!r}*u^{i}" if i else f"{c!r}")
        return "Series(" + " + ".join(terms) + f" ~p^{self.prec})"


def series_from_ints(amb, ints, prec: int | None = None) -> SigmaSeries:
    prec = amb.cap if prec is None else prec
    return SigmaSeries(amb, [amb.ring.from_int(n, prec) for n in ints], prec)


def series_monomial(amb, n: int, coeff: WittScalar | None = None) -> SigmaSeries:
    coeff = amb.ring.one() if coeff is None else coeff
    zero = amb.ring.zero(coeff.prec)
    return SigmaSeries(amb, [zero] * n + [coeff], coeff.prec)


def weierstrass_divide(fnum: SigmaSeries) -> tuple[SigmaSeries, WittScalar]:
    """Synthetic division by E(u) = u + p*a: fnum = q*E + rem with rem in W(k)."""
    amb = fnum.amb
    pa = amb.pa
    if not fnum.coeffs:
        return SigmaSeries(amb, [], fnum.prec), amb.ring.zero(fnum.prec)
    d = fnum.degree
    q = [None] * max(d, 0)
    carry = fnum.coeffs[d]
    for i in range(d, 0, -1):
        q[i - 1] = carry
        carry = fnum.coeff(i - 1) - pa * carry
    return SigmaSeries(amb, q, fnum.prec), carry

