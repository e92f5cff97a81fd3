"""Exact-arithmetic kernel for Fontaine-Laffaille, Kisin and Breuil modules.

Everything is computed at finite p-adic precision over the truncated Witt
ring W(F_{p^f}), the truncated power series ring W(k)[[u]], and the
divided-power ring S in its gamma-basis.  See README.md for an overview.
Each name lives in the module that defines it (``flbreuil.witt``,
``flbreuil.pd``, ...); the package root binds none of them.
"""
