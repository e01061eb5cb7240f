"""Checked eigendecomposition and SVD of small dense matrices.

Nothing under ``src/`` calls this module: the solver, the closed forms and
the product-state search call ``np.linalg`` directly.  It stays only because
the benchmark tracer wraps ``hermitian_eig`` and ``svd`` by name.

Conventions: values are returned in descending order, and eigenvectors are
columns, ``m @ v[:, k] == w[k] * v[:, k]``.
"""

from __future__ import annotations

import numpy as np

#: Hermiticity is accepted up to this relative deviation.
HERMITICITY_TOL = 1e-12


def _as_matrix(m: object) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has a non-finite entry")
    return a


def hermitian_eig(m: object) -> tuple[np.ndarray, np.ndarray]:
    """``(w, v)`` with eigenvalues ``w`` descending and orthonormal columns ``v``."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.conj().T).max()) > HERMITICITY_TOL * scale:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(a)
    return w[::-1], v[:, ::-1]


def svd(m: object) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, s, vt)`` with ``s`` descending, ``u`` of side rows, ``vt`` of side cols."""
    return np.linalg.svd(_as_matrix(m))
