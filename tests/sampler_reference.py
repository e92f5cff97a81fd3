"""The reference samplers: the draw chain the kernel used before its draws
became one flat loop (``_WittRing._draw``), kept as it was.

Every fixed-seed report and every golden digest depends on the exact
Mersenne Twister words a sample consumes, so the tests compare the
kernel's samplers with this chain on the values drawn and on
``rng.getstate()`` after each call.  ``draw_below`` is CPython's
``Random._randbelow`` loop; a tuple is f such draws below p^k, and a unit
tuple redraws the whole tuple until one entry is prime to p.
"""

from flbreuil.pd import PDElement
from flbreuil.witt import WittScalar


def draw_below(rng, n: int) -> int:
    """A uniform draw from range(n) (n >= 1) that equals ``rng.randrange(n)``
    and consumes the same bits: the getrandbits rejection loop of CPython's
    ``Random._randbelow``, at k = n.bit_length() bits (not that of n - 1,
    so that n = 1 draws one bit as randrange does)."""
    if n < 1:
        raise ValueError("empty range for draw_below")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_tuple(ring, rng, k):
    mod = ring.pk[k]
    return tuple([draw_below(rng, mod) for _ in range(ring.f)])


def random_unit_tuple(ring, rng, k):
    while True:
        t = random_tuple(ring, rng, k)
        if any(c % ring.p for c in t):
            return t


def drawn(ring, rng, k: int, unit: bool = False) -> WittScalar:
    """A scalar known to k digits, drawn from the stream as the kernel drew
    it when its draws took a precision: the same values and the same words
    consumed, so test data cut below the cap stays what it was."""
    return WittScalar(ring, (random_unit_tuple if unit else random_tuple)(ring, rng, k), k)


def pd_random_calibrated(amb, rng, max_index: int, max_val: int) -> PDElement:
    ring = amb.ring
    cap = amb.cap
    mod = ring.pk[cap]
    planes = tuple([] for _ in range(ring.f))
    for _ in range(min(max_index, amb.N_gamma)):
        if rng.random() < 0.3:
            for pl in planes:
                pl.append(0)
        else:
            q = ring.pk[min(draw_below(rng, max_val + 1), cap)]
            for pl, c in zip(planes, random_unit_tuple(ring, rng, cap)):
                pl.append(c * q % mod)
    return PDElement(amb, (), cap, planes)
