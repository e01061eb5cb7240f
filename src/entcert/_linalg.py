"""numpy's LAPACK gufuncs and C einsum, bound once and called without
their wrappers.

numpy's linalg functions reach LAPACK through the generalized ufuncs of
``numpy.linalg._umath_linalg``.  The public functions check shapes and
types and enter an errstate on every call, which costs more than LAPACK
does at the sizes entcert works at, so the solver's Newton kernels and
the witness bound call the gufuncs directly.  In the same way
``np.einsum`` without ``optimize`` hands its operands to the C function
``c_einsum`` after an array-function dispatch that costs about as much as
the contraction of a few short rows, so the SPI sweep calls ``einsum``,
that C function, directly.  Every bit is still the one the public
function gives, and a test holds each binding to it.  This private module
is entcert's one binding outside numpy's public API.

A gufunc does not raise: where it cannot factor, solve or decompose a
matrix it writes NaN.  The kernels run inside ``errstate()``, which
ignores the flags that numpy's functions ignore around the same calls,
and a caller reads a failure from the NaN and raises ``SolverError``: a
routine that fails on valid input is a solver failure, not an input error.

numpy 2 has one values-only SVD gufunc, ``svd``, and one thin one,
``svd_s``, giving (U, S, V^T).  numpy 1.x names them by shape:
``svd_m`` and ``svd_m_s`` for a matrix with fewer rows than columns,
``svd_n`` and ``svd_n_s`` otherwise, as its public ``svd`` picks them.
``svd_values`` and ``svd_thin`` bind whichever exist.  ``c_einsum`` lives
in ``numpy._core._multiarray_umath`` on numpy 2 and in
``numpy.core._multiarray_umath`` on numpy 1.x; the numpy 2 path is tried
first, since numpy 2 warns on every import from ``numpy.core``.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg as lapack

try:
    from numpy._core._multiarray_umath import c_einsum as einsum
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import c_einsum as einsum


class SolverError(RuntimeError):
    """The interior-point iteration, or a LAPACK routine, failed on valid input."""


def errstate() -> np.errstate:
    """The floating-point state the gufuncs run in.

    numpy's linalg wrappers ignore these flags around the same gufuncs; a
    factorization, solve or SVD that fails is read from its NaN output instead.
    """
    return np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")


if hasattr(lapack, "svd_s"):
    # indexed by "fewer rows than columns", as numpy 1.x picks its gufuncs
    _SVD_VALUES = (lapack.svd, lapack.svd)
    _SVD_THIN = (lapack.svd_s, lapack.svd_s)
else:  # numpy 1.x
    _SVD_VALUES = (lapack.svd_n, lapack.svd_m)
    _SVD_THIN = (lapack.svd_n_s, lapack.svd_m_s)


def svd_values(a: np.ndarray) -> np.ndarray:
    """Singular values of the float matrices ``a`` (..., m, n), descending;
    NaN where LAPACK fails."""
    return _SVD_VALUES[a.shape[-2] < a.shape[-1]](a)


def svd_thin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (U, S, V^T) of the float matrices ``a`` (..., m, n); NaN
    where LAPACK fails."""
    return _SVD_THIN[a.shape[-2] < a.shape[-1]](a)
