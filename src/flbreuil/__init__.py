"""Exact-arithmetic kernel for Fontaine-Laffaille, Kisin and Breuil modules.

Everything is computed at finite p-adic precision over the truncated Witt
ring W(F_{p^f}), the truncated power series ring W(k)[[u]], and the
divided-power ring S in its gamma-basis.  See README.md for an overview.
"""

from .ambient import AmbientParams, default_headroom, default_N_gamma, min_N_gamma
from .breuil import (
    BreuilModule,
    breuil_bhat,
    breuil_classify,
    breuil_validate,
    fil_lower,
    fil_membership,
    hat_fil_membership,
    phi_r_apply,
    rebase,
)
from .fl import FLModule, fl_classify, fl_v_matrix, fl_validate, random_fl
from .functors import (
    FLTransport,
    RoundTripReport,
    SectionResult,
    fl_to_breuil,
    flag_adapt,
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
from .matrix import RingMatrix, converges_to_zero, twisted_chain
from .pd import (
    PDElement,
    embed_sigma,
    eval_f0,
    eval_fpi,
    fil_valuation,
    gamma_multiply,
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
    "breuil_bhat",
    "breuil_classify",
    "breuil_validate",
    "converges_to_zero",
    "default_N_gamma",
    "default_headroom",
    "embed_sigma",
    "eval_f0",
    "eval_fpi",
    "fil_lower",
    "fil_membership",
    "fil_valuation",
    "fl_classify",
    "fl_to_breuil",
    "fl_v_matrix",
    "fl_validate",
    "flag_adapt",
    "gamma_multiply",
    "hat_fil_membership",
    "kisin_classify",
    "kisin_gls_construct",
    "kisin_height_check",
    "kisin_to_breuil",
    "min_N_gamma",
    "n_S",
    "phi_S",
    "phi_r_apply",
    "random_fl",
    "random_gls",
    "rebase",
    "roundtrip_breuil",
    "roundtrip_fl",
    "section_compute",
    "twisted_chain",
    "weierstrass_divide",
]
