"""The reference flag adaptation and reduction rows: ``functors._flag_adapt``
and ``_WittRing._build_redrows`` as the kernel wrote them before each became
one path, kept as they were (the method with its ring passed in).

``flag_adapt`` skipped a column that reduced to zero at precision and
failed on the final count, and recomputed each pivot's inverse for every
later column; ``build_redrows`` ran its own recurrence for T^(f+i) mod
m(T) instead of the ring's ``make``.  The tests compare the kernel's
adapted basis (every coefficient and precision) and its rows with these.
"""

from flbreuil.errors import NotDirectSummand
from flbreuil.matrix import RingMatrix


def build_redrows(ring):
    cap = ring.cap
    mod = ring.pk[cap]
    rows = []
    # T^f = -(c_0 + ... + c_{f-1} T^{f-1})
    row = tuple((-c) % mod for c in ring.m[:-1])
    rows.append(row)
    for _ in range(ring.f - 2):
        prev = rows[-1]
        shifted = [0] + list(prev[:-1])
        top = prev[-1]
        nxt = tuple((shifted[i] + top * rows[0][i]) % mod for i in range(ring.f))
        rows.append(nxt)
    return tuple(rows)


def flag_adapt(amb, T: RingMatrix, jumps) -> tuple[RingMatrix, tuple[int, ...]]:
    at = amb.N_p
    d = len(jumps)
    chosen: list[tuple[list, int, int]] = []   # (vector, pivot row, level)
    for j in sorted(range(d), key=lambda j: -jumps[j]):
        w = list(T.col(j))
        for bvec, prow, _ in chosen:
            c = w[prow] * bvec[prow].invert()
            if any(c.coeffs):
                w = [wi - c * bi for wi, bi in zip(w, bvec)]
        pivot = next((i for i, wi in enumerate(w) if wi.is_unit()), None)
        if pivot is None:
            if all(wi.is_zero_at(min(at, wi.prec)) for wi in w):
                continue
            raise NotDirectSummand(jumps[j])
        chosen.append((w, pivot, jumps[j]))
    if len(chosen) != d:
        raise NotDirectSummand(0, "generators do not span the full module")
    order = sorted(range(d), key=lambda t: chosen[t][2])
    cols = [chosen[t][0] for t in order]
    g = RingMatrix([[cols[j][i] for j in range(d)] for i in range(d)])
    return g, tuple(chosen[t][2] for t in order)
