import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entcert
from entcert import smallmat as sm


def _char_poly_coeffs(h: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - H) by the Faddeev-LeVerrier recursion."""
    n = h.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mat = np.zeros_like(h)
    for k in range(1, n + 1):
        mat = h @ mat + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(h @ mat).real / k
    return coeffs


def test_package_never_imports_smallmat():
    # the module survives only for the benchmark tracer; importing every
    # other module must not load it
    src = str(Path(entcert.__file__).resolve().parents[1])
    script = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import entcert\n"
        "for mod in pkgutil.iter_modules(entcert.__path__):\n"
        "    if mod.name != 'smallmat':\n"
        "        importlib.import_module('entcert.' + mod.name)\n"
        "print('entcert.cli' in sys.modules, 'entcert.smallmat' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_decompositions_reject_non_finite():
    m = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sm.svd(m)
    with pytest.raises(ValueError):
        sm.hermitian_eig(m)


def test_hermitian_eig_pauli_z():
    w, _ = sm.hermitian_eig(np.diag([1.0, -1.0]))
    assert np.allclose(w, [1.0, -1.0])


def test_hermitian_eig_pauli_x_top_vector():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, v = sm.hermitian_eig(x)
    assert np.allclose(w, [1.0, -1.0])
    top = v[:, 0]
    assert abs(abs(top @ np.array([1.0, 1.0]) / np.sqrt(2)) - 1.0) < 1e-12


def test_hermitian_eig_matches_char_poly_roots_on_blocks():
    # 8x8 built from two 4x4 Hermitian blocks whose eigenvalues we get
    # independently as roots of the characteristic polynomial.
    rng = np.random.default_rng(5)
    blocks = []
    expected = []
    for _ in range(2):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (a + a.conj().T)
        blocks.append(h)
        roots = np.roots(_char_poly_coeffs(h))
        assert np.abs(roots.imag).max() < 1e-8
        expected.extend(roots.real.tolist())
    full = np.zeros((8, 8), dtype=complex)
    full[:4, :4] = blocks[0]
    full[4:, 4:] = blocks[1]
    w, _ = sm.hermitian_eig(full)
    assert np.allclose(np.sort(w), np.sort(expected), atol=1e-8)


def test_hermitian_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for n in (2, 5, 8, 13):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = 0.5 * (a + a.conj().T)
        w, v = sm.hermitian_eig(h)
        assert np.all(np.diff(w) <= 1e-14)
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10
        assert np.abs(h - v @ np.diag(w) @ v.conj().T).max() <= 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        sm.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_svd_reconstructs_and_rank_completion():
    rng = np.random.default_rng(23)
    for rows, cols in ((2, 2), (3, 3), (4, 2), (2, 5)):
        c = rng.normal(size=(rows, cols))
        u, s, vt = sm.svd(c)
        k = min(rows, cols)
        assert np.abs(u[:, :k] @ np.diag(s) @ vt[:k, :] - c).max() < 1e-8
        assert np.abs(u.T @ u - np.eye(rows)).max() < 1e-8
        assert np.abs(vt @ vt.T - np.eye(cols)).max() < 1e-8
    # Rank-1 matrix: the second left singular vector comes from completion.
    c = np.outer([1.0, 2.0], [3.0, 4.0])
    u, s, vt = sm.svd(c)
    assert s[1] < 1e-10
    assert np.abs(u.T @ u - np.eye(2)).max() < 1e-8


