"""Exact-arithmetic kernel for Fontaine-Laffaille, Kisin and Breuil modules.

Everything is computed at finite p-adic precision over the truncated Witt
ring W(F_{p^f}), the truncated power series ring W(k)[[u]], and the
divided-power ring S in its gamma-basis.  See README.md for an overview.
"""

from .ambient import AmbientParams
from .breuil import (
    BreuilModule,
    breuil_classify,
    breuil_validate,
    fil_lower,
    phi_r_apply,
    rebase,
)
from .fl import FLModule, fl_classify, fl_validate, random_fl
from .functors import (
    FLTransport,
    RoundTripReport,
    SectionResult,
    fl_to_breuil,
    roundtrip_breuil,
    roundtrip_fl,
    section_compute,
)
from .kisin import (
    KisinModule,
    kisin_classify,
    kisin_gls_construct,
    kisin_height_check,
    kisin_to_breuil,
    random_gls,
)
from .matrix import RingMatrix, converges_to_zero
from .pd import (
    PDElement,
    embed_sigma,
    eval_f0,
    eval_fpi,
    fil_valuation,
    n_S,
    phi_S,
)
from .series import SigmaSeries, weierstrass_divide
from .witt import WittRing, WittScalar

__all__ = [
    "AmbientParams",
    "BreuilModule",
    "FLModule",
    "FLTransport",
    "KisinModule",
    "PDElement",
    "RingMatrix",
    "RoundTripReport",
    "SectionResult",
    "SigmaSeries",
    "WittRing",
    "WittScalar",
    "breuil_classify",
    "breuil_validate",
    "converges_to_zero",
    "embed_sigma",
    "eval_f0",
    "eval_fpi",
    "fil_lower",
    "fil_valuation",
    "fl_classify",
    "fl_to_breuil",
    "fl_validate",
    "kisin_classify",
    "kisin_gls_construct",
    "kisin_height_check",
    "kisin_to_breuil",
    "n_S",
    "phi_S",
    "phi_r_apply",
    "random_fl",
    "random_gls",
    "rebase",
    "roundtrip_breuil",
    "roundtrip_fl",
    "section_compute",
    "weierstrass_divide",
]
