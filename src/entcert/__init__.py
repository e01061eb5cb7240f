"""Certification of quantum entanglement from incomplete correlation data.

The package is organised around a single pipeline:

    correlator data (grids)  ->  optimal coefficient matrices (patterns /
    solver)  ->  separable bounds and mirrored witness pairs (witness)

with supporting operator algebra (qmodel), a product-state power iteration
for the multipartite case (multipartite), and a command-line front end
(cli).  numpy does all the linear algebra; where its public wrappers cost
more than the arithmetic, the private ``_linalg`` module binds the LAPACK
gufuncs and the C einsum behind them.  The leftover ``smallmat`` module is imported by no
other module and is kept only for the benchmark tracer.
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = [
    "qmodel",
    "grids",
    "witness",
    "patterns",
    "solver",
    "multipartite",
    "cli",
]
