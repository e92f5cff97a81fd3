"""JSON persistence for modules, section results and parameters.

Every document is an envelope

    {"schema": "flbreuil/1", "kind": ..., "params": {...}, "data": {...}}

with the ambient parameters embedded, so a file reproduces its context.
Unknown fields are rejected, precision beyond the context cap is rejected,
and p = 2 is rejected on read (the normal-form machinery needs p > 2).
Dumps are sorted-key JSON without floats, so identical objects serialize to
identical bytes.
"""

from __future__ import annotations

import json

from .ambient import AmbientParams, shared_params
from .breuil import BreuilModule
from .errors import PrecisionMismatch, SchemaMismatch
from .fl import FLModule, _check_jumps
from .kisin import KisinModule
from .matrix import RingMatrix
from .pd import PDElement
from .series import SigmaSeries
from .witt import WittScalar

_SCHEMA = "flbreuil/1"


def _expect(d: dict, required: tuple) -> None:
    if not isinstance(d, dict):
        raise SchemaMismatch(f"expected an object, got {type(d).__name__}")
    keys = set(d)
    missing = set(required) - keys
    unknown = keys - set(required)
    if missing:
        raise SchemaMismatch(f"missing fields: {sorted(missing)}")
    if unknown:
        raise SchemaMismatch(f"unknown fields rejected: {sorted(unknown)}")


def _int(v, name: str) -> int:
    """An integer field: a JSON integer, or a string of one (coefficients
    are written as strings).  Booleans, floats, arrays, objects and null
    are rejected."""
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    elif isinstance(v, int) and not isinstance(v, bool):
        return v
    raise SchemaMismatch(f"{name} must be an integer, got {type(v).__name__}")


def _array(v, name: str) -> list:
    if not isinstance(v, list):
        raise SchemaMismatch(f"{name} must be an array, got {type(v).__name__}")
    return v


# --- scalars and elements ---

def _entry_to_json(x) -> dict:
    """The document of a scalar, a series or an element of S."""
    if isinstance(x, WittScalar):
        return {"coeffs": [str(c) for c in x.coeffs], "prec": x.prec}
    coeffs = [_entry_to_json(c) for c in x.coeffs]
    if isinstance(x, SigmaSeries):
        return {"ucoeffs": coeffs}
    return {"gcoeffs": coeffs, "tail_dirty": True}


def _scalar_ints(amb: AmbientParams, d: dict) -> tuple:
    """The coefficients and the precision of a scalar document, checked."""
    _expect(d, ("coeffs", "prec"))
    prec = _int(d["prec"], "prec")
    if prec > amb.cap:
        raise PrecisionMismatch(f"scalar precision {prec} exceeds cap {amb.cap}")
    if prec < 1:
        raise SchemaMismatch("scalar precision must be positive")
    coeffs = [_int(c, "coefficient") for c in _array(d["coeffs"], "coeffs")]
    if len(coeffs) != amb.f:
        raise SchemaMismatch(f"scalar needs {amb.f} coefficients")
    return coeffs, prec


def _entry_from_json(amb: AmbientParams, kind: str, d: dict):
    """The entry of kind "witt", "series" or "pd" that the document ``d``
    holds.  A series or an element of S takes the lowest precision of its
    coefficient documents (the cap for none), each checked in turn as a
    scalar's, and every coefficient reduced mod p^k, as the element
    constructors make them from a list of scalars, with no scalar built."""
    if kind == "witt":
        return amb.ring.make(*_scalar_ints(amb, d))
    series = kind == "series"
    key = "ucoeffs" if series else "gcoeffs"
    _expect(d, (key,) if series else (key, "tail_dirty"))
    cols, k = [], amb.cap
    for doc in _array(d[key], key):
        coeffs, prec = _scalar_ints(amb, doc)
        cols.append(coeffs)
        k = min(k, prec)
    if len(cols) > (amb.N_u if series else amb.N_gamma):
        raise SchemaMismatch(f"too many {'u' if series else 'gamma'} coefficients "
                             "for this truncation")
    planes = amb.ring.to_planes(cols, k)
    if series:
        return SigmaSeries(amb, (), k, planes)
    # a vestige key: written true on every entry, read as any boolean
    vestige = d["tail_dirty"]
    if not isinstance(vestige, bool):
        raise SchemaMismatch(f"tail_dirty must be a boolean, got {type(vestige).__name__}")
    return PDElement(amb, (), k, planes)


def _matrix_to_json(M: RingMatrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "denom_exp": 0,
        "entries": [[_entry_to_json(x) for x in row] for row in M.entries],
    }


def _matrix_from_json(amb: AmbientParams, kind: str, d: dict) -> RingMatrix:
    _expect(d, ("rows", "cols", "denom_exp", "entries"))
    entries = [[_entry_from_json(amb, kind, x) for x in _array(row, "matrix row")]
               for row in _array(d["entries"], "entries")]
    if _int(d["denom_exp"], "denom_exp"):
        raise SchemaMismatch("a matrix has no denominator: denom_exp must be 0")
    if len({len(row) for row in entries}) > 1:
        raise SchemaMismatch("matrix rows differ in length")
    M = RingMatrix(entries)
    if M.rows != _int(d["rows"], "rows") or M.cols != _int(d["cols"], "cols"):
        raise SchemaMismatch("declared matrix shape does not match entries")
    return M


# --- ambient parameters ---

def _params_to_json(amb: AmbientParams) -> dict:
    """The params document: one field per keyword of ``_resolve_params``."""
    return {
        "p": amb.p,
        "f": amb.f,
        "m_coeffs": [int(c) for c in amb.ring.m],
        "N_p": amb.N_p,
        "N_gamma": amb.N_gamma,
        "r": amb.r,
        "a": _entry_to_json(amb.a),
        "headroom": amb.headroom,
    }


def _params_from_json(d: dict) -> AmbientParams:
    _expect(d, ("p", "f", "m_coeffs", "N_p", "N_gamma", "r", "a", "headroom"))
    p = _int(d["p"], "p")
    if p == 2:
        raise SchemaMismatch(
            "p = 2 is rejected: the diagonal normal form used for the "
            "Kisin-side constructions requires p > 2"
        )
    a_doc = d["a"]
    _expect(a_doc, ("coeffs", "prec"))
    ints = {k: _int(d[k], k) for k in ("r", "f", "N_p", "N_gamma", "headroom")}
    if _int(a_doc["prec"], "a.prec") != ints["N_p"] + ints["headroom"]:
        raise SchemaMismatch("a.prec must be the cap N_p + headroom")
    try:
        return shared_params(
            p=p,
            **ints,
            a=[_int(c, "a coefficient") for c in _array(a_doc["coeffs"], "a.coeffs")],
            m_coeffs=[_int(c, "m coefficient") for c in _array(d["m_coeffs"], "m_coeffs")],
        )
    except ValueError as exc:
        raise SchemaMismatch(str(exc)) from exc


# --- module envelopes ---

def to_json(obj) -> dict:
    if isinstance(obj, FLModule):
        kind, data = "FLModule", {
            "d": obj.d,
            "jumps": list(obj.jumps),
            "Ftil": _matrix_to_json(obj.Ftil),
        }
    elif isinstance(obj, KisinModule):
        gls = {"X": _matrix_to_json(obj.X), "jumps": list(obj.jumps), "Y": _matrix_to_json(obj.Y)}
        kind, data = "KisinModule", {"d": obj.d, "A": _matrix_to_json(obj.A), "gls": gls}
    elif isinstance(obj, BreuilModule):
        kind, data = "BreuilModule", {
            "d": obj.d,
            "Phi": _matrix_to_json(obj.Phi),
            "Nmat": None if obj.Nmat is None else _matrix_to_json(obj.Nmat),
            "C": _matrix_to_json(obj.C),
            "jumps": list(obj.jumps),
        }
    else:
        raise SchemaMismatch(f"cannot serialize {type(obj).__name__}")
    return _envelope(kind, obj.amb, data)


def _section_to_json(amb: AmbientParams, sec) -> dict:
    """The SectionResult document of ``functors.section_compute``: the
    section matrix cut to the public precision N_p and the iteration's
    verdicts.  ``sec`` needs Bmat to at least N_p digits, as a section
    computed with ``prec=N_p`` or without ``prec`` has it; both give the
    same document.  ``amb`` is the module's context, which a rank-0
    section matrix does not carry."""
    return _envelope("SectionResult", amb, {
        "Bmat": _matrix_to_json(sec.Bmat.truncate(amb.N_p)),
        "iterations": sec.iterations,
        "rate_bound": sec.rate_bound,
        "residual_valuation": sec.residual_valuation,
        "exact": sec.exact,
        "B0_claim_ok": sec.B0_claim_ok,
        "f0_identity": sec.f0_identity,
    })


def _envelope(kind: str, amb: AmbientParams, data: dict) -> dict:
    return {"schema": _SCHEMA, "kind": kind, "params": _params_to_json(amb), "data": data}


def _jumps(d: dict) -> tuple:
    return tuple(_int(j, "jump") for j in _array(d["jumps"], "jumps"))


def _from_json(doc: dict):
    _expect(doc, ("schema", "kind", "params", "data"))
    if doc["schema"] != _SCHEMA:
        raise SchemaMismatch(f"schema {doc['schema']!r} is not {_SCHEMA!r}")
    amb = _params_from_json(doc["params"])
    kind = doc["kind"]
    data = doc["data"]
    if kind == "FLModule":
        _expect(data, ("d", "jumps", "Ftil"))
        d, jumps = _int(data["d"], "d"), _jumps(data)
        Ftil = _matrix_from_json(amb, "witt", data["Ftil"])
        # the document's rank is checked before the constructor reads it off Ftil
        _check_jumps(amb, d, jumps, Ftil)
        return FLModule(amb, jumps, Ftil)
    if kind == "KisinModule":
        _expect(data, ("d", "A", "gls"))
        gls = data["gls"]
        _expect(gls, ("X", "jumps", "Y"))
        X, Y, A = (_matrix_from_json(amb, "series", m) for m in (gls["X"], gls["Y"], data["A"]))
        jumps = _jumps(gls)
        # the document's rank is checked against all three matrices before
        # the constructor takes the rank from X
        _check_jumps(amb, _int(data["d"], "d"), jumps, X, Y, A)
        K = KisinModule(amb, X, jumps, Y)
        k = min((x.prec for M in (A, K.A) for row in M.entries for x in row), default=amb.cap)
        if not A.eq_at(K.A, k):
            raise SchemaMismatch("A is not X diag(E^r_i) Y")
        return K
    if kind == "BreuilModule":
        _expect(data, ("d", "Phi", "Nmat", "C", "jumps"))
        nmat = None if data["Nmat"] is None else _matrix_from_json(amb, "pd", data["Nmat"])
        d = _int(data["d"], "d")
        Phi, C = (_matrix_from_json(amb, "pd", data[k]) for k in ("Phi", "C"))
        jumps = _jumps(data)
        # the document's rank is checked before the constructor reads it off Phi
        _check_jumps(amb, d, jumps, *(M for M in (Phi, nmat, C) if M is not None))
        return BreuilModule(amb, Phi, nmat, C, jumps)
    raise SchemaMismatch(f"unknown kind {kind!r}")


def dumps(obj) -> str:
    return json.dumps(to_json(obj), sort_keys=True, separators=(",", ":"))


def loads(text: str):
    return _from_json(json.loads(text))


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
