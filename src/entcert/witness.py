"""Separable bounds and mirrored witness pairs for coefficient matrices.

For a coefficient matrix C supported on measured correlators, every
separable state obeys

    |sum_ij c_ij <G_i (x) G_j>|  <=  sqrt((dA - 1)(dB - 1)) * ||C||_inf,

where ||.||_inf is the largest singular value.  The mirrored witness pair

    W+- = bound * identity +- S,     S = sum_ij c_ij G_i (x) G_j,

therefore has nonnegative expectation on all separable states, and a
negative measured expectation of either member certifies entanglement.
Witnesses are stored symbolically (the expansion, whose bound the pair
computes itself); dense operators are materialized on demand only, which
keeps the construction dimension-generic.

Every verdict is ``decide(expectation, bound)``: 'entangled' exactly when
|<S>| exceeds the separable bound by more than 1e-9 times that bound.
``evaluate_witness`` and ``NEResult.verdict`` give it the pair's bound and
the one expectation that ``expansion_value`` sums, sum_k c_k v_k in
support order, so a result's verdict is its witness's on the same data;
``multipartite.ne_multipartite`` gives it c . e and lambda_max.

The bound's ||C||_inf comes from ``spectral_norms``: the coefficients are
scattered into dense matrices, at positions kept per (dims, support), and
numpy's values-only SVD gufunc (bound in ``entcert._linalg``) takes the
singular values of one matrix or a whole stack in one call, each the bits
that ``np.linalg.svd`` gives.  Where LAPACK fails it writes NaN, and the
bound raises SolverError: a solver failure on valid input, not the
``LinAlgError`` (a ValueError, so an input error) of ``np.linalg.svd``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _linalg, qmodel
from ._linalg import SolverError
from .grids import CorrelatorGrid, pair_label, parse_qubit_label, read_dims, read_support

Array = np.ndarray

#: |<S>| must exceed the separable bound by this fraction of it to detect.
DETECTION_TOL = 1e-9

VERDICT_ENTANGLED = "entangled"
VERDICT_UNDETECTED = "undetected"


@dataclass(frozen=True, eq=False)
class CoefficientMatrix:
    """Real coefficients on an explicit support of basis-index pairs.

    The dense embedding has zeros off the support.  ``dims`` are the local
    Hilbert-space dimensions (dA, dB); index pairs live in the traceless
    basis range 0 .. d^2 - 2 per side.
    """

    dims: tuple[int, int]
    support: tuple[tuple[int, int], ...]
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        dims, support = _checked_support(self.dims, self.support, len(self.coeffs))
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def stack(
        cls,
        dims: tuple[int, int],
        support: tuple[tuple[int, int], ...],
        coeffs: Array,
    ) -> list["CoefficientMatrix"]:
        """One matrix per row of ``coeffs`` (N, k), all on ``support``.

        The support is checked once and the coefficients as one array, with
        the constructor's messages.  All N spectral norms come from one
        stacked SVD, each the single matrix's to the bit, and are cached.
        """
        dims, support = _checked_support(dims, support, coeffs.shape[1])
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        matrices = []
        norms = spectral_norms(dims, support, coeffs).tolist()
        for row, norm in zip(coeffs.tolist(), norms):
            matrix = object.__new__(cls)
            object.__setattr__(matrix, "dims", dims)
            object.__setattr__(matrix, "support", support)
            object.__setattr__(matrix, "coeffs", tuple(row))
            matrix.__dict__["_operator_norm"] = norm
            matrices.append(matrix)
        return matrices

    @classmethod
    def from_qubit_labels(cls, entries: Mapping[str, float]) -> "CoefficientMatrix":
        """Two-qubit coefficients from Pauli labels, e.g. {'XX': 1, 'ZZ': 1}."""
        support = tuple(parse_qubit_label(label) for label in entries)
        return cls((2, 2), support, tuple(entries.values()))

    def dense(self) -> Array:
        out = np.zeros((self.dims[0] ** 2 - 1, self.dims[1] ** 2 - 1))
        for (i, j), c in zip(self.support, self.coeffs):
            out[i, j] = c
        return out

    def operator_norm(self) -> float:
        return self._operator_norm

    @functools.cached_property
    def _operator_norm(self) -> float:
        # one SVD per matrix: the witness pair and its bound check share it
        return float(spectral_norms(self.dims, self.support, np.array(self.coeffs)))

    def scaled(self, factor: float) -> "CoefficientMatrix":
        return CoefficientMatrix(
            self.dims, self.support, tuple(factor * c for c in self.coeffs)
        )

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def label_dict(self) -> dict[str, float]:
        return {
            pair_label(self.dims, pair): c
            for pair, c in zip(self.support, self.coeffs)
        }


def _checked_support(
    dims: tuple[int, int], support: tuple, count: int
) -> tuple[tuple[int, int], tuple[tuple[int, int], ...]]:
    """``dims`` and ``support`` as ``grids`` reads them, for ``count`` coefficients."""
    dims = read_dims(dims)
    support = read_support(dims, support)
    if len(support) != count:
        raise ValueError("support and coefficients differ in length")
    return dims, support


@functools.lru_cache(maxsize=32)
def _scatter(
    dims: tuple[int, int], support: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, tuple[int, int]]:
    """The flat positions of ``support`` in the row-major (m, n) coefficient
    matrix of ``dims``, and (m, n).  Built once per key, as the solver's plans
    are, and shared; the positions are read-only."""
    m, n = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    index = np.array([i * n + j for i, j in support], dtype=np.intp)
    index.setflags(write=False)
    return index, (m, n)


def spectral_norms(
    dims: tuple[int, int], support: Sequence[tuple[int, int]], coeffs: Array
) -> Array:
    """Largest singular values of the coefficient matrices ``coeffs`` (..., k)
    on ``support``, from one stacked SVD; each equals the single matrix's bit
    for bit, as ``np.linalg.svd`` gives it.

    The SVD gufunc is called directly (see ``_linalg``); where it fails, on
    valid input, SolverError is raised.
    """
    try:
        index, shape = _scatter(dims, support)
    except TypeError:  # cells given as lists or arrays, which do not hash
        index, shape = _scatter(tuple(dims), tuple(map(tuple, support)))
    lead = coeffs.shape[:-1]
    dense = np.zeros(lead + (shape[0] * shape[1],))
    dense[..., index] = coeffs
    with _linalg.errstate():
        norms = _linalg.svd_values(dense.reshape(lead + shape))[..., 0]
    if np.isnan(norms).any():
        raise SolverError("the SVD of the witness coefficients did not converge")
    return norms


def separable_bound(c: CoefficientMatrix) -> float:
    """Largest |expansion expectation| any separable state can reach."""
    da, db = c.dims
    return math.sqrt((da - 1) * (db - 1)) * c.operator_norm()


@dataclass(frozen=True, eq=False)
class MirroredWitnessPair:
    """The pair W+- = bound * identity +- S for one expansion S, whose bound
    is the expansion's own ``separable_bound``, taken when the pair is built."""

    expansion: CoefficientMatrix
    bound: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bound", separable_bound(self.expansion))

    def operator(self, sign: str) -> Array:
        """Dense W+ or W- in the product operator basis."""
        if sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        da, db = self.expansion.dims
        basis_a = qmodel.gell_mann_basis(da).operators
        basis_b = qmodel.gell_mann_basis(db).operators
        s_op = np.zeros((da * db, da * db), dtype=complex)
        for (i, j), c in zip(self.expansion.support, self.expansion.coeffs):
            s_op += c * np.kron(basis_a[i + 1], basis_b[j + 1])
        eye = np.eye(da * db, dtype=complex)
        return self.bound * eye + s_op if sign == "+" else self.bound * eye - s_op


def make_witness_pair(c: CoefficientMatrix) -> MirroredWitnessPair:
    """Mirrored witness pair for a nonzero coefficient matrix."""
    if c.is_zero():
        raise ValueError("zero coefficient matrix admits no witness")
    return MirroredWitnessPair(c)


@dataclass(frozen=True)
class WitnessEvaluation:
    tr_plus: float
    tr_minus: float
    verdict: str


def evaluate_witness(
    w: MirroredWitnessPair, g: CorrelatorGrid
) -> WitnessEvaluation:
    """Expectation of W+- against measured correlators.

    tr_+- = bound +- sum_ij c_ij g_ij, and the verdict is ``decide`` on
    that sum and the bound.
    """
    if w.expansion.dims != g.dims:
        raise ValueError(
            f"witness dims {w.expansion.dims} do not match grid dims {g.dims}"
        )
    expansion = w.expansion
    total = expansion_value(expansion.coeffs, map(g.value_at, expansion.support))
    bound = w.bound
    return WitnessEvaluation(bound + total, bound - total, decide(total, bound))


def witness_report(
    w: MirroredWitnessPair, evaluation: WitnessEvaluation
) -> dict[str, object]:
    """JSON-ready witness report."""
    return {
        "bound": w.bound,
        "coefficients": w.expansion.label_dict(),
        "tr_plus": evaluation.tr_plus,
        "tr_minus": evaluation.tr_minus,
        "verdict": evaluation.verdict,
    }


@dataclass(frozen=True, eq=False)
class NEResult:
    """Outcome of a normalized-estimation maximization.

    ``value`` is the optimal |sum c_ij g_ij| with the scaled operator norm
    of the coefficients pinned to the constraint boundary, so entanglement
    is certified where it exceeds 1, the witness's bound.  ``expectation``
    is that sum as ``expansion_value`` takes it on the grid's data, the
    expectation ``evaluate_witness`` reads (``value`` where none is given),
    and ``verdict`` is ``decide`` on it and the bound: the verdict the
    witness gives on the same grid.  ``iterations`` and ``gap`` are solver
    diagnostics (0 for closed forms).
    """

    value: float
    coefficients: CoefficientMatrix
    iterations: int = 0
    gap: float = 0.0
    witness: MirroredWitnessPair | None = None
    expectation: float | None = None

    def __post_init__(self) -> None:
        if self.expectation is None:
            object.__setattr__(self, "expectation", self.value)

    @property
    def verdict(self) -> str:
        # the witness's bound: separable_bound of its expansion, these
        # coefficients
        return decide(self.expectation, separable_bound(self.coefficients))

    @property
    def sign_branch(self) -> str:
        """Always '+': C is feasible exactly when -C is, so the '-' branch
        of |sum c_ij g_ij| has the same optimum."""
        return "+"


def expansion_value(coeffs: Iterable[float], values: Iterable[float]) -> float:
    """sum_k c_k v_k, added up in support order: the one expectation of an
    expansion on data that every bipartite verdict reads."""
    total = 0.0
    for c, v in zip(coeffs, values):
        total += c * v
    return total


def decide(expectation: float, bound: float) -> str:
    """'entangled' exactly when |expectation| exceeds the separable ``bound``
    by more than DETECTION_TOL times the bound.

    The margin is relative, so the rule reads the same for a witness of any
    scale; data on the separable boundary are not certified by roundoff.
    """
    if abs(expectation) - bound > DETECTION_TOL * bound:
        return VERDICT_ENTANGLED
    return VERDICT_UNDETECTED
