"""Separable bounds and mirrored witness pairs for coefficient matrices.

For a coefficient matrix C supported on measured correlators, every
separable state obeys

    |sum_ij c_ij <G_i (x) G_j>|  <=  sqrt((dA - 1)(dB - 1)) * ||C||_inf,

where ||.||_inf is the largest singular value.  The mirrored witness pair

    W+- = bound * identity +- S,     S = sum_ij c_ij G_i (x) G_j,

therefore has nonnegative expectation on all separable states, and a
negative measured expectation of either member certifies entanglement.
Witnesses are stored symbolically (bound + expansion); dense operators are
materialized on demand only, which keeps the construction dimension-generic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import qmodel
from .grids import CorrelatorGrid, pair_label, parse_qubit_label

Array = np.ndarray

#: A witness expectation below this threshold counts as a detection.
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
        da, db = self.dims
        if da < 2 or db < 2:
            raise ValueError(f"local dimensions must be >= 2, got {self.dims}")
        if len(self.support) != len(self.coeffs):
            raise ValueError("support and coefficients differ in length")
        if not self.support:
            raise ValueError("empty support")
        ra, rb = da * da - 1, db * db - 1
        seen = set()
        support = tuple((int(i), int(j)) for i, j in self.support)
        for i, j in support:
            if not (0 <= i < ra and 0 <= j < rb):
                raise ValueError(f"index pair ({i}, {j}) outside basis range")
            if (i, j) in seen:
                raise ValueError(f"duplicate support entry ({i}, {j})")
            seen.add((i, j))
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)

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
        return float(np.linalg.svd(self.dense(), compute_uv=False)[0])

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


def separable_bound(c: CoefficientMatrix) -> float:
    """Largest |expansion expectation| any separable state can reach."""
    da, db = c.dims
    return math.sqrt((da - 1) * (db - 1)) * c.operator_norm()


@dataclass(frozen=True, eq=False)
class MirroredWitnessPair:
    """The pair W+- = bound * identity +- S for one expansion S."""

    bound: float
    expansion: CoefficientMatrix

    def __post_init__(self) -> None:
        want = separable_bound(self.expansion)
        if abs(self.bound - want) > 1e-12 * max(1.0, want):
            raise ValueError("bound does not match the expansion's separable bound")

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
    return MirroredWitnessPair(separable_bound(c), c)


@dataclass(frozen=True)
class WitnessEvaluation:
    tr_plus: float
    tr_minus: float
    verdict: str


def evaluate_witness(
    w: MirroredWitnessPair, g: CorrelatorGrid
) -> WitnessEvaluation:
    """Expectation of W+- against measured correlators.

    tr_+- = bound +- sum_ij c_ij g_ij; the verdict is 'entangled' exactly
    when either expectation falls below -DETECTION_TOL.
    """
    if w.expansion.dims != g.dims:
        raise ValueError(
            f"witness dims {w.expansion.dims} do not match grid dims {g.dims}"
        )
    total = 0.0
    for pair, c in zip(w.expansion.support, w.expansion.coeffs):
        total += c * g.value_at(pair)
    tr_plus = w.bound + total
    tr_minus = w.bound - total
    verdict = (
        VERDICT_ENTANGLED
        if min(tr_plus, tr_minus) < -DETECTION_TOL
        else VERDICT_UNDETECTED
    )
    return WitnessEvaluation(tr_plus, tr_minus, verdict)


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
    of the coefficients pinned to the constraint boundary; entanglement is
    certified exactly when the value exceeds 1.  ``iterations`` and ``gap``
    are solver diagnostics (0 for closed forms).
    """

    value: float
    coefficients: CoefficientMatrix
    sign_branch: str
    verdict: str
    iterations: int = 0
    gap: float = 0.0
    witness: MirroredWitnessPair | None = None


def ne_verdict(value: float) -> str:
    """'entangled' exactly when the value clears 1 by the detection margin.

    A normalized estimation ``value`` on boundary-scaled coefficients means
    the witness pair reaches ``1 - value``, so this is the same margin that
    ``evaluate_witness`` demands of ``min(tr_plus, tr_minus)``: data on the
    separable boundary are not certified by roundoff.
    """
    return VERDICT_ENTANGLED if value > 1.0 + DETECTION_TOL else VERDICT_UNDETECTED
