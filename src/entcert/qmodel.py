"""Operator algebra, state families, and correlator simulation.

Conventions (pinned here once, used by every ideal-value test):
    * Pauli matrices with Y = [[0, -i], [i, 0]].
    * The maximally entangled reference state is |Phi+> = (|00> + |11>)/sqrt(2).
    * R_Y(theta) = exp(-i theta Y / 2) acts on the second qubit for the
      'chi1' family; the 'chi3' family applies
      V(theta) = (1 + i (cos(theta) X + sin(theta) Z)) / sqrt(2).
    * 'psi_theta' is cos(theta)|00> + sin(theta)|11>.
    * The generalized operator basis is normalized to Tr(G_k G_l) = d*delta_kl
      with G_0 the identity; for d = 2 it is exactly (1, X, Y, Z).

Finite-shot simulation draws from the joint eigenbasis distribution of the
two local observables (four outcomes for qubits), preserving correlations
rather than sampling the marginals independently.  The four joint
projectors of each pair of observables are built once and shared.

A family's states at many angles are built as one stack: ``family_vectors``
gives the (N, 4) vectors, ``family_states`` the (N, 4, 4) density matrices,
depolarized and checked as one array, and ``family_grid_values`` the
(N, 9) grids, ideal ones from one product with the shared contraction
table.  ``family_vector`` and ``make_state`` are the one-angle case, so each
family's formula is written once, and each row of a stack equals the
one-angle result bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .grids import AXES, CorrelatorGrid, check_full_grid, read_dims

Array = np.ndarray

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "I": PAULI_I}

FAMILIES = ("bell", "psi_theta", "chi1", "chi3")

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_MAX_SHOTS = 2**63 - 1  # numpy draws the shot counts as int64


@dataclass(frozen=True)
class StateFamilyParams:
    """Which state family to build and at which angle (radians)."""

    family: str
    theta: float = 0.0

    def __post_init__(self) -> None:
        _check_family(self.family, [self.theta])


def _check_family(family: str, thetas: Iterable[float]) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not all(map(math.isfinite, thetas)):
        raise ValueError("theta must be finite")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite density matrix with local dimensions ``dims``."""

    matrix: Array
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        da, db = self.dims
        if m.shape != (da * db, da * db):
            raise ValueError(
                f"matrix shape {m.shape} does not match dims {self.dims}"
            )
        _check_density(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    @classmethod
    def from_vector(cls, psi: Array, dims: tuple[int, int]) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex).reshape(1, -1)
        return cls(_pure_states(v)[0], dims)


def _check_density(m: Array) -> None:
    """DensityMatrix's checks, on one matrix or a stack (..., n, n)."""
    # written so that NaN fails them, and an infinite entry with it: its
    # inf - inf is NaN, quietly here, so it raises the same error as NaN
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(m - m.conj().swapaxes(-1, -2)).max()
    if not asymmetry <= _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if not np.abs(m.trace(axis1=-2, axis2=-1).real - 1.0).max() <= _TRACE_TOL:
        raise ValueError("density matrix trace is not 1")


def _pure_states(vectors: Array) -> Array:
    """Density matrices (N, n, n) of the normalized rows of ``vectors`` (N, n)."""
    re, im = vectors.real, vectors.imag
    # row @ row is numpy's dot of the 1-D norm, so a stack keeps its bits
    squares = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    norms = np.sqrt(squares[:, 0, 0])
    if not norms.all():
        raise ValueError("zero state vector")
    v = vectors / norms[:, None]
    return v[:, :, None] * v.conj()[:, None, :]


def family_vectors(family: str, thetas: Iterable[float]) -> Array:
    """State vectors (N, 4) of a two-qubit family at each angle."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    _check_family(family, thetas)
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    if family == "bell":
        return np.tile(phi_plus, (len(thetas), 1))
    # math's cos and sin, which numpy's vectorized ones may differ from by an ulp
    if family == "psi_theta":
        out = np.zeros((len(thetas), 4), dtype=complex)
        out[:, 0] = [math.cos(th) for th in thetas]
        out[:, 3] = [math.sin(th) for th in thetas]
        return out
    if family == "chi1":
        cos = np.array([math.cos(th) for th in thetas / 2.0])
        sin = np.array([math.sin(th) for th in thetas / 2.0])
        # R_Y(theta) = [[cos, -sin], [sin, cos]] of the half angle
        u = np.stack([cos, sin, -sin, cos], axis=1).reshape(-1, 2, 2)
    else:
        # chi3: unitary (1 + i(cos X + sin Z))/sqrt(2) on the second qubit.
        cos = np.array([math.cos(th) for th in thetas])[:, None, None]
        sin = np.array([math.sin(th) for th in thetas])[:, None, None]
        u = ((PAULI_I + 1.0j * (cos * PAULI_X + sin * PAULI_Z)) / math.sqrt(2)).swapaxes(1, 2)
    # (1 (x) U)|Phi+> lists the columns of U, each times 1/sqrt(2); ``u``
    # holds them as rows
    return u.reshape(-1, 4) * phi_plus[0]


def family_vector(params: StateFamilyParams) -> Array:
    """State vector of the requested family (two qubits)."""
    return family_vectors(params.family, [params.theta])[0]


def family_states(family: str, thetas: Iterable[float], noise: float = 0.0) -> Array:
    """Density matrices (N, 4, 4) of a family at each angle, depolarized by
    ``noise`` when it is nonzero; each is ``make_state``'s, then ``depolarize``'s."""
    states = _pure_states(family_vectors(family, thetas))
    if noise:
        states = _depolarized(states, noise)
    _check_density(states)
    return states


def make_state(params: StateFamilyParams) -> DensityMatrix:
    """Pure two-qubit state of the requested family."""
    return DensityMatrix.from_vector(family_vector(params), (2, 2))


def _local_operator(label_or_op: object, dim: int) -> Array:
    if isinstance(label_or_op, str):
        if label_or_op not in PAULI or dim != 2:
            raise ValueError(f"unknown local observable {label_or_op!r}")
        return PAULI[label_or_op]
    op = np.asarray(label_or_op, dtype=complex)
    if op.shape != (dim, dim):
        raise ValueError("dimension mismatch for local observable")
    return op


def ideal_correlator(rho: DensityMatrix, a: object, b: object) -> float:
    """Exact expectation value of A (x) B in ``rho``.

    ``a`` and ``b`` are Pauli labels for qubits or explicit Hermitian
    matrices of the matching local dimensions.
    """
    op_a = _local_operator(a, rho.dims[0])
    op_b = _local_operator(b, rho.dims[1])
    value = np.trace(np.kron(op_a, op_b) @ rho.matrix)
    return float(value.real)


def sample_correlator(
    rho: DensityMatrix, a: str, b: str, shots: int, seed: int
) -> float:
    """Empirical +-1-product mean over ``shots`` joint measurements."""
    shots = _read_int("shots", shots, 1, _MAX_SHOTS)
    rng = np.random.default_rng(_read_int("seed", seed, 0))
    return _sample_with_rng(rho, a, b, shots, rng)


def _read_int(name: str, value: object, low: int, high: float = math.inf) -> int:
    """``value`` as an int in [low, high], read through ``operator.index``:
    a float or a bool is refused, not truncated; else ValueError naming ``name``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if low <= number <= high:
                return number
    if high < math.inf:
        raise ValueError(f"{name} must lie in [{low}, {high}] as an int, got {value!r}")
    raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


#: The product a * b of each joint outcome, in ``_joint_projectors`` order.
_OUTCOMES = (1.0, -1.0, -1.0, 1.0)


@functools.lru_cache(maxsize=None)
def _joint_projectors(a: str, b: str) -> Array:
    """(4, 4, 4): the projectors onto the joint eigenspaces of A (x) B, for
    the outcome signs (+, +), (+, -), (-, +), (-, -).  Built once per label
    pair and shared; read-only."""
    op_a = _local_operator(a, 2)
    op_b = _local_operator(b, 2)
    projectors = np.array([
        np.kron(0.5 * (PAULI_I + sa * op_a), 0.5 * (PAULI_I + sb * op_b))
        for sa in (1.0, -1.0)
        for sb in (1.0, -1.0)
    ])
    projectors.setflags(write=False)
    return projectors


@functools.lru_cache(maxsize=None)
def _grid_projectors() -> Array:
    """(9, 4, 4, 4): ``_joint_projectors`` of every axis pair, row-major."""
    projectors = np.array([_joint_projectors(a, b) for a in AXES for b in AXES])
    projectors.setflags(write=False)
    return projectors


def _outcome_probabilities(projectors: Array, matrices: Array) -> Array:
    """Born probabilities of ``projectors`` (..., 4, n, n) in ``matrices``
    (..., n, n): trace, clipped at 0 against roundoff, normalized."""
    p = np.trace(projectors @ matrices[..., None, :, :], axis1=-2, axis2=-1).real
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def _draw_mean(probs: Array, shots: int, rng: np.random.Generator) -> float:
    counts = rng.multinomial(shots, probs)
    return float(np.dot(counts, _OUTCOMES) / shots)


def _sample_with_rng(
    rho: DensityMatrix, a: str, b: str, shots: int, rng: np.random.Generator
) -> float:
    if rho.dims != (2, 2):
        raise ValueError("shot sampling supports qubit pairs only")
    probs = _outcome_probabilities(_joint_projectors(a, b), rho.matrix)
    return _draw_mean(probs, shots, rng)


def _sampled_values(matrices: Array, shots: int, seeds: Iterable[int]) -> Array:
    """Empirical grids (N, 9) of qubit-pair ``matrices`` (N, 4, 4); the
    cells of grid n draw from the nine streams spawned from ``seeds[n]``."""
    probs = _outcome_probabilities(_grid_projectors(), matrices[:, None])
    out = np.empty(probs.shape[:2])
    for n, seed in enumerate(seeds):
        streams = np.random.SeedSequence(seed).spawn(len(AXES) ** 2)
        for k, stream in enumerate(streams):
            out[n, k] = _draw_mean(probs[n, k], shots, np.random.default_rng(stream))
    return out


@dataclass(frozen=True)
class OperatorBasis:
    """Orthogonal Hermitian operator basis with Tr(G_k G_l) = d delta_kl.

    Index 0 is the identity; indices >= 1 are traceless.
    """

    dim: int
    operators: tuple[Array, ...]

    def __post_init__(self) -> None:
        d = self.dim
        if len(self.operators) != d * d:
            raise ValueError("operator count must be dim^2")
        for k, op in enumerate(self.operators):
            if np.abs(op - op.conj().T).max() > 1e-9:
                raise ValueError(f"basis operator {k} is not Hermitian")
            if k >= 1 and abs(np.trace(op)) > 1e-9:
                raise ValueError(f"basis operator {k} is not traceless")
        for k, op_k in enumerate(self.operators):
            for l in range(k, len(self.operators)):
                want = d if k == l else 0.0
                got = np.trace(op_k.conj().T @ self.operators[l]).real
                if abs(got - want) > 1e-9:
                    raise ValueError("basis is not trace-orthogonal")


def gell_mann_basis(d: int) -> OperatorBasis:
    """Generalized Gell-Mann basis for local dimension ``d``.

    Ordering: identity, then symmetric pair operators (lexicographic),
    antisymmetric pair operators, diagonal operators.  For d = 2 this is
    exactly (1, X, Y, Z).  The basis is built and validated once per ``d``
    and shared; its operators are read-only.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return _gell_mann_basis(d)


@functools.lru_cache(maxsize=None)
def _gell_mann_basis(d: int) -> OperatorBasis:
    scale = math.sqrt(d / 2.0)
    ops: list[Array] = [np.eye(d, dtype=complex)]
    sym = []
    antisym = []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            sym.append(scale * s)
            a = np.zeros((d, d), dtype=complex)
            a[j, k] = -1.0j
            a[k, j] = 1.0j
            antisym.append(scale * a)
    diag = []
    for l in range(1, d):
        v = np.zeros(d)
        v[:l] = 1.0
        v[l] = -l
        v *= math.sqrt(2.0 / (l * (l + 1)))
        diag.append(scale * np.diag(v).astype(complex))
    ops.extend(sym)
    ops.extend(antisym)
    ops.extend(diag)
    for op in ops:
        op.setflags(write=False)
    return OperatorBasis(d, tuple(ops))


def correlator_grid(
    rho: DensityMatrix,
    shots: int | None = None,
    seed: int | None = None,
) -> CorrelatorGrid:
    """Full-support grid of ``rho``'s correlators.

    Ideal entries are one product of a contraction table, built once per
    ``rho.dims`` and shared, with the flattened density matrix.  The grid's
    cells are built and range-checked once per ``rho.dims`` too; its values
    are checked on every call.

    With ``shots`` set (qubits only), every entry is an empirical mean over
    that many joint measurements; per-entry streams are derived
    deterministically from ``seed``.  Both are read as ints: shots in
    [1, 2^63 - 1], a seed >= 0.
    """
    if shots is None:
        values = _ideal_values(rho.matrix[None], rho.dims)[0]
    else:
        shots, seed = _read_sampling(rho.dims, shots, seed)
        values = _sampled_values(rho.matrix[None], shots, [seed])[0]
    return CorrelatorGrid._full(rho.dims, values)


def _read_sampling(
    dims: tuple[int, int], shots: object, seed: object
) -> tuple[int, int]:
    """``shots`` and ``seed`` as ints, for sampling a grid of ``dims``."""
    if dims != (2, 2):
        raise ValueError("shot sampling supports qubit pairs only")
    if seed is None:
        raise ValueError("seed is required when sampling")
    return _read_int("shots", shots, 1, _MAX_SHOTS), _read_int("seed", seed, 0)


def _ideal_values(matrices: Array, dims: tuple[int, int]) -> Array:
    """Exact grids (N, m * n), row-major, of the density ``matrices`` (N, D, D)."""
    flat = matrices.reshape(len(matrices), -1, 1)
    # a stack of matrix-vector products, each the one a single state takes
    return (_contraction_table(*dims) @ flat)[:, :, 0].real


def family_grid_values(
    family: str,
    thetas: Iterable[float],
    noise: float = 0.0,
    shots: int | None = None,
    seed: int | None = None,
) -> Array:
    """Full grids (N, 9), row-major, of a family at each angle.

    Row n equals the grid of ``correlator_grid`` on ``make_state`` at
    ``thetas[n]``, depolarized by ``noise``; with ``shots``, row n is
    sampled with seed ``seed + n``.  The values are checked as a grid's.
    """
    states = family_states(family, thetas, noise)
    if shots is None:
        values = _ideal_values(states, (2, 2))
    else:
        shots, seed = _read_sampling((2, 2), shots, seed)
        values = _sampled_values(states, shots, range(seed, seed + len(states)))
    check_full_grid((2, 2), values)
    return values


@functools.lru_cache(maxsize=None)
def _contraction_table(da: int, db: int) -> Array:
    # row (i, j) is (G_i (x) G_j)^T flattened, so that row @ rho.ravel()
    # = Tr((G_i (x) G_j) rho); kron[(a, b), (c, e)] = G_i[a, c] G_j[b, e]
    ga = np.stack(gell_mann_basis(da).operators[1:])
    gb = np.stack(gell_mann_basis(db).operators[1:])
    n = da * db
    kron = np.einsum("iac,jbe->ijceab", ga, gb)
    table = kron.reshape(len(ga) * len(gb), n * n)
    table.setflags(write=False)
    return table


def sample_separable(
    d: int, terms: int, seed: int, d_b: int | None = None
) -> DensityMatrix:
    """Convex mixture of Haar-random pure product states.

    ``d`` is the first local dimension; ``d_b`` defaults to ``d``.
    ``terms``, an int >= 1, is the number of product states mixed, with
    uniform Dirichlet weights.  Deterministic given ``seed``, an int >= 0,
    and a seed keeps its state: after the ``terms`` weights, each term
    takes 2(d + d_b) standard normals from ``default_rng(seed)``, in the
    order real and imaginary parts of the first factor, then those of the
    second.
    """
    terms = _read_int("terms", terms, 1)
    d, db = read_dims((d, d if d_b is None else d_b))
    rng = np.random.default_rng(_read_int("seed", seed, 0))
    weights = rng.dirichlet(np.ones(terms))
    parts = rng.normal(size=(terms, 2 * (d + db)))
    va = parts[:, :d] + 1.0j * parts[:, d : 2 * d]
    vb = parts[:, 2 * d : 2 * d + db] + 1.0j * parts[:, 2 * d + db :]
    # row k is va_k (x) vb_k; one norm serves, as |va (x) vb| = |va| |vb|.
    # The norms are np.linalg.norm's reduction, without its wrapper.
    v = (va[:, :, None] * vb[:, None, :]).reshape(terms, d * db)
    v /= np.sqrt(np.add.reduce((v.conj() * v).real, axis=1, keepdims=True))
    return DensityMatrix((v.T * weights) @ v.conj(), (d, db))


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Mix ``rho`` with white noise: (1 - p) rho + p * 1 / dim."""
    return DensityMatrix(_depolarized(rho.matrix, p), rho.dims)


def _depolarized(matrices: Array, p: float) -> Array:
    """``depolarize`` of one matrix or a stack (..., D, D)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise probability must lie in [0, 1]")
    dim = matrices.shape[-1]
    # an infinite entry gives 0 * inf in the complex product: NaN, quietly
    # here, which the caller's _check_density rejects
    with np.errstate(invalid="ignore"):
        return (1.0 - p) * matrices + p * np.eye(dim) / dim
