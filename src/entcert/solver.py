"""Interior-point solver for the normalized-estimation optimum.

Given measured correlators v_k at grid cells (i_k, j_k), the task is

    maximize  | sum_k c_k v_k |
    over      coefficient matrices C supported on the measured cells
    with      sqrt((dA - 1)(dB - 1)) * ||C||_inf  <=  1,

whose optimum exceeds 1 only on entangled states.  The spectral-norm cap
is the semidefinite constraint

    B(c) = [[t*I, C], [C^T, t*I]]  >=  0,    t = 1 / sqrt((dA-1)(dB-1)),

on the symmetric block matrix of side (dA^2 - 1) + (dB^2 - 1), so the
whole problem is a small SDP in the few variables c_k.  We follow the
primal central path of the log-det barrier

    phi(c) = -log det B(c)

with damped Newton steps: for barrier weight mu, minimize
-<v, c>/mu + phi(c), then shrink mu geometrically.  The barrier parameter
of the block is nu = (dA^2 - 1) + (dB^2 - 1) and the duality gap of the
centered iterate is at most nu * mu, so the path is followed until
nu * mu <= tol / 2 and the iterate is finally rescaled ("polished") onto
the exact constraint boundary, where the optimum always lies.

The stage objective is self-concordant, so the damped Newton step of
length 1 / (1 + lambda), with lambda the Newton decrement, stays inside the
Dikin ellipsoid: B(c) stays positive definite and the objective falls by
at least lambda - log(1 + lambda) (Nesterov & Nemirovski, Interior-Point
Polynomial Algorithms in Convex Programming, 1994; Boyd & Vandenberghe,
Convex Optimization, section 9.6.4).  For lambda <= 1/4 the full step is
taken.  So a step needs no line search, only one Cholesky factorization,
which proves feasibility and supplies the inverse entries for the next.

Only the '+' sign of the objective is optimized.  The feasible set is
centrally symmetric (C is feasible exactly when -C is), so the optimum of
-<v, c> is the negation of the optimum of <v, c> and |<v, c>| takes the
same value on both; the result always reports sign branch '+'.  The
returned coefficients induce a mirrored witness pair.

Rows and columns of B(c) that no measured cell touches hold the constant
t on the diagonal and nothing else, so they contribute a constant to the
barrier and nothing to its gradient or Hessian.  Each Newton step
therefore works on the active submatrix only, while nu keeps counting the
whole block so that the stopping rule and the reported gap are those of
the full problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import CorrelatorGrid, MeasurementSet
from .witness import CoefficientMatrix, NEResult, make_witness_pair, ne_verdict

_BACKTRACK = 0.5
_CENTERED_DECREMENT = 1e-4  # squared Newton decrement: lambda <= 0.01
_QUADRATIC_PHASE = 0.25  # below this lambda the undamped step is safe
_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class SolverOptions:
    """Interior-point tuning knobs.

    tol        target accuracy of the optimum (duality-gap driven).
    max_iter   cap on Newton steps.
    mu_factor  geometric shrink of the barrier weight per outer stage.
    """

    tol: float = 1e-8
    max_iter: int = 200
    mu_factor: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not (0.0 < self.mu_factor < 1.0):
            raise ValueError("mu_factor must lie in (0, 1)")


class _ActiveBlock:
    """B(c) restricted to the rows and columns the support touches."""

    def __init__(self, support: Sequence[tuple[int, int]], t: float) -> None:
        a_side = sorted({i for i, _ in support})
        b_side = sorted({j for _, j in support})
        r = len(a_side)
        rows = np.array([a_side.index(i) for i, _ in support])
        cols = np.array([r + b_side.index(j) for _, j in support])
        size = r + len(b_side)
        self.base = t * np.eye(size)
        # flat positions of the entries c_k fills, upper triangle then lower;
        # ndarray.put repeats c over both halves
        self.entries = np.concatenate([rows * size + cols, cols * size + rows])
        # unit columns at the support's rows, then at its columns: with
        # W = L^-1, (W E)^T (W E) holds every entry of B(c)^-1 that the
        # gradient and Hessian read, in four k x k blocks
        self.unit = np.eye(size)[:, np.concatenate([rows, cols])]

    def cholesky(self, c: np.ndarray) -> np.ndarray | None:
        """Cholesky factor of the active B(c), None when it is not PD."""
        big = self.base.copy()
        big.put(self.entries, c)
        try:
            return np.linalg.cholesky(big)
        except np.linalg.LinAlgError:
            return None


def _maximize(
    v: np.ndarray,
    support: Sequence[tuple[int, int]],
    m: int,
    n: int,
    t: float,
    opts: SolverOptions,
) -> tuple[np.ndarray, int, float]:
    """Barrier path for  max <v, c>  s.t.  ||C(c)||_inf <= t.

    Returns the centered coefficient vector, the Newton-step count and the
    final duality-gap bound nu * mu.
    """
    nu = m + n
    k = len(support)
    block = _ActiveBlock(support, t)
    c = np.zeros(k)
    chol = block.cholesky(c)
    mu = 1.0
    steps = 0

    while True:
        # the stage objective f(c) = -<v, c> - mu log det B(c) has gradient
        # -2 mu g and Hessian 2 mu H, so the Newton step is H^-1 g.  H does
        # not depend on mu: when the iterate is centered, mu shrinks and
        # only g is formed anew
        half = np.linalg.solve(chol, block.unit)
        sel = half.T @ half
        mixed = sel[:k, k:]
        hess = sel[:k, :k] * sel[k:, k:] + mixed * mixed.T
        while True:
            g = v * (0.5 / mu) + mixed.diagonal()
            try:
                step = np.linalg.solve(hess, g)
                # squared Newton decrement of f / mu
                lambda_sq = 2.0 * float(g @ step)
            except np.linalg.LinAlgError:
                # near a degenerate optimal face H spans ~1/mu to ~mu and
                # roundoff leaves it singular: the iterate is as centered
                # as working precision allows
                lambda_sq = 0.0
            if lambda_sq > _CENTERED_DECREMENT:
                break
            if nu * mu <= 0.5 * opts.tol:
                return c, steps, nu * mu
            mu *= opts.mu_factor
        steps += 1
        if steps > opts.max_iter:
            raise RuntimeError("interior-point iteration limit exceeded")
        # feasible by construction (alpha * lambda < 1); halving guards roundoff
        lam = math.sqrt(lambda_sq)
        alpha = 1.0 if lam <= _QUADRATIC_PHASE else 1.0 / (1.0 + lam)
        trial = c + alpha * step
        trial_chol = block.cholesky(trial)
        while trial_chol is None:
            alpha *= _BACKTRACK
            if alpha < 1e-14:
                raise RuntimeError("line search stalled")
            trial = c + alpha * step
            trial_chol = block.cholesky(trial)
        c, chol = trial, trial_chol


def _support_norm(c: np.ndarray, support, m: int, n: int) -> float:
    dense = np.zeros((m, n))
    dense[tuple(np.array(support).T)] = c
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def ne_solve(
    g: CorrelatorGrid,
    measurements: MeasurementSet | Sequence[tuple[int, int]] | None = None,
    options: SolverOptions | None = None,
) -> NEResult:
    """Optimal normalized estimation over the measured (or given) cells.

    ``measurements`` restricts the optimization to a subset of the grid; by
    default every measured correlator is used.  Values > 1 certify
    entanglement.  The result carries the optimizing coefficients (rescaled
    onto the exact constraint boundary), the Newton-step count, the final
    duality-gap bound, and the induced mirrored witness pair.
    """
    opts = options or SolverOptions()
    if isinstance(measurements, MeasurementSet):
        support = tuple(sorted(measurements.indices()))
    elif measurements is None:
        support = g.measured
    else:
        support = tuple(sorted(tuple(p) for p in measurements))
    v = np.array([g.value_at(cell) for cell in support])
    da, db = g.dims
    m, n = da * da - 1, db * db - 1
    t = 1.0 / math.sqrt((da - 1) * (db - 1))

    if not np.any(v):
        coeffs = tuple(t if k == 0 else 0.0 for k in range(len(support)))
        matrix = CoefficientMatrix(g.dims, support, coeffs)
        return NEResult(
            value=0.0,
            coefficients=matrix,
            sign_branch="+",
            verdict=ne_verdict(0.0),
            witness=make_witness_pair(matrix),
        )

    c, steps, gap = _maximize(v, support, m, n, t, opts)
    # polish onto the boundary, where the optimum is attained
    c = c * (t / _support_norm(c, support, m, n))
    value = abs(float(v @ c))
    matrix = CoefficientMatrix(g.dims, support, tuple(c))
    return NEResult(
        value=value,
        coefficients=matrix,
        sign_branch="+",
        verdict=ne_verdict(value),
        iterations=steps,
        gap=gap,
        witness=make_witness_pair(matrix),
    )


@dataclass(frozen=True)
class MonotoneReport:
    """Normalized estimation along a nested chain of measurement sets."""

    measurement_sets: tuple[MeasurementSet, ...]
    results: tuple[NEResult, ...]
    monotone: bool

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(r.value for r in self.results)


def ne_monotone_report(
    chain: Sequence[MeasurementSet],
    g: CorrelatorGrid,
    options: SolverOptions | None = None,
) -> MonotoneReport:
    """Solve along a chain S1 c S2 c ... and check the values never drop.

    Adding correlators can only widen the feasible coefficient supports, so
    the optimum is nondecreasing; a violation beyond solver slack would
    expose an inconsistent grid or a solver failure.  The chain must be
    nested, else ValueError.
    """
    if not chain:
        raise ValueError("empty measurement chain")
    sets = tuple(chain)
    for prev, nxt in zip(sets, sets[1:]):
        if not set(prev.indices()) <= set(nxt.indices()):
            raise ValueError("measurement sets must be nested")
    results = tuple(ne_solve(g, s, options) for s in sets)
    monotone = all(
        later.value >= earlier.value - _MONOTONE_SLACK
        for earlier, later in zip(results, results[1:])
    )
    return MonotoneReport(sets, results, monotone)
