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

Only the last stage must be centered tightly, since only its nu * mu is
reported as the gap: it ends at Newton decrement lambda <= 0.01.  Every
earlier stage only places the iterate for the next shrink of mu, so it
ends as soon as lambda <= 1/2.  The worked example takes 14 steps, and 50
random qubit supports of 2-9 cells about 32 on average; with every stage
ended at lambda <= 0.01 they took 19 and about 54.

The stage objective is self-concordant, so the damped Newton step of
length 1 / (1 + lambda), with lambda the Newton decrement, stays inside the
Dikin ellipsoid: B(c) stays positive definite and the objective falls by
at least lambda - log(1 + lambda) (Nesterov & Nemirovski, Interior-Point
Polynomial Algorithms in Convex Programming, 1994; Boyd & Vandenberghe,
Convex Optimization, section 9.6.4).  For lambda <= 1/4 the full step is
taken.  So a step needs no line search, only one Cholesky factorization
B = L L^T, which proves feasibility and supplies the inverse entries for
the next: the gradient and Hessian read only the entries of B^-1 at the
support's rows and columns, the inner products of those columns of L^-1.

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

Grids that share their local dimensions and support are solved as one
stack by ``ne_solve_batch`` (a sweep over angles is such a stack).  Every
grid still on its path advances together: one lockstep step is one
stacked Cholesky factorization of the (N, s, s) active blocks, one
stacked inverse of their factors and one stacked (N, k, k) solve for the
Newton steps.  Each grid keeps its own mu, step count and stop,
so its iterates are exactly those of solving it alone, and a grid leaves
the stack when it stops.  A step the roundoff guard must shorten is
retried grid by grid.  With one grid on the path (``ne_solve``, or a
stack whose other grids are all zero) the scalar loop runs instead: the
arrays are at most 12 x 12, so numpy's per-call overhead sets the cost,
and at one row the stacked loop took 1.6-1.9x the scalar loop's time per
step (five random supports, one thread on a shared 2-core x86 host).
Solver failures raise SolverError, which is not an input error.
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
_STAGE_DECREMENT = 0.25  # before the last stage: lambda <= 1/2
_QUADRATIC_PHASE = 0.25  # below this lambda the undamped step is safe
_MONOTONE_SLACK = 1e-9


class SolverError(RuntimeError):
    """The interior-point iteration failed on valid input."""


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
        # the support's rows, then its columns: with W = L^-1, the picked
        # columns of W give (W E)^T (W E), which holds every entry of
        # B(c)^-1 that the gradient and Hessian read, in four k x k blocks
        self.picks = np.concatenate([rows, cols])

    def cholesky(self, c: np.ndarray) -> np.ndarray | None:
        """Cholesky factor of the active B(c), None when it is not PD."""
        big = self.base.copy()
        big.put(self.entries, c)
        try:
            return np.linalg.cholesky(big)
        except np.linalg.LinAlgError:
            return None

    def cholesky_stack(self, cs: np.ndarray) -> np.ndarray | None:
        """Factors of B(c) for every row of ``cs``, None unless all are PD."""
        big = np.repeat(self.base[None], len(cs), axis=0)
        big.reshape(len(cs), -1)[:, self.entries] = np.concatenate([cs, cs], axis=1)
        try:
            return np.linalg.cholesky(big)
        except np.linalg.LinAlgError:
            return None


def _newton_step(hess: np.ndarray, g: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Newton step H^-1 g and the squared decrement of f / mu."""
    try:
        step = np.linalg.solve(hess, g)
    except np.linalg.LinAlgError:
        # near a degenerate optimal face H spans ~1/mu to ~mu and roundoff
        # leaves it singular: the iterate is as centered as working
        # precision allows
        return None, 0.0
    return step, 2.0 * float(g @ step)


def _newton_steps(hess: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_newton_step`` for stacked (N, k, k) Hessians and (N, k) gradients."""
    try:
        step = np.linalg.solve(hess, g[:, :, None])
    except np.linalg.LinAlgError:
        step = np.zeros(g.shape)
        lambda_sq = np.empty(len(g))
        for row, (h, grad) in enumerate(zip(hess, g)):
            one, lambda_sq[row] = _newton_step(h, grad)
            if one is not None:
                step[row] = one
        return step, lambda_sq
    return step[:, :, 0], 2.0 * (g[:, None, :] @ step)[:, 0, 0]


def _guarded_step(
    block: _ActiveBlock, c: np.ndarray, step: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The step from c, halved while roundoff leaves B(c) not PD."""
    trial = c + alpha * step
    chol = block.cholesky(trial)
    while chol is None:
        alpha *= _BACKTRACK
        if alpha < 1e-14:
            raise SolverError("line search stalled")
        trial = c + alpha * step
        chol = block.cholesky(trial)
    return trial, chol


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
        half = np.linalg.inv(chol)[:, block.picks]
        sel = half.T @ half
        mixed = sel[:k, k:]
        hess = sel[:k, :k] * sel[k:, k:] + mixed * mixed.T
        while True:
            g = v * (0.5 / mu) + mixed.diagonal()
            step, lambda_sq = _newton_step(hess, g)
            last = nu * mu <= 0.5 * opts.tol
            if lambda_sq > (_CENTERED_DECREMENT if last else _STAGE_DECREMENT):
                break
            if last:
                return c, steps, nu * mu
            mu *= opts.mu_factor
        steps += 1
        if steps > opts.max_iter:
            raise SolverError("interior-point iteration limit exceeded")
        # feasible by construction (alpha * lambda < 1); halving guards roundoff
        lam = math.sqrt(lambda_sq)
        alpha = 1.0 if lam <= _QUADRATIC_PHASE else 1.0 / (1.0 + lam)
        c, chol = _guarded_step(block, c, step, alpha)


def _maximize_stack(
    v: np.ndarray,
    support: Sequence[tuple[int, int]],
    m: int,
    n: int,
    t: float,
    opts: SolverOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_maximize`` for every row of ``v`` (N, k), in lockstep.

    Returns the centered coefficients (N, k), the step counts and the gaps.
    """
    nu = m + n
    count, k = v.shape
    block = _ActiveBlock(support, t)
    out_c = np.empty((count, k))
    out_steps = np.empty(count, dtype=int)
    out_gap = np.empty(count)
    live = np.arange(count)
    c = np.zeros((count, k))
    chol = block.cholesky_stack(c)
    mu = np.ones(count)
    steps = 0

    while True:
        half = np.linalg.inv(chol)[..., block.picks]
        sel = half.transpose(0, 2, 1) @ half
        mixed = sel[:, :k, k:]
        hess = sel[:, :k, :k] * sel[:, k:, k:] + mixed * mixed.transpose(0, 2, 1)
        diag = np.diagonal(mixed, axis1=1, axis2=2)
        done = np.zeros(len(live), dtype=bool)
        step = np.empty((len(live), k))
        lambda_sq = np.empty(len(live))
        rows = np.arange(len(live))
        while rows.size:
            # a row centered for its mu stops on its last stage, or else
            # shrinks mu and forms g again, as the scalar loop does
            g = v[rows] * (0.5 / mu[rows])[:, None] + diag[rows]
            step[rows], lambda_sq[rows] = _newton_steps(hess[rows], g)
            last = nu * mu[rows] <= 0.5 * opts.tol
            bound = np.where(last, _CENTERED_DECREMENT, _STAGE_DECREMENT)
            centered = lambda_sq[rows] <= bound
            done[rows[centered & last]] = True
            rows = rows[centered & ~last]
            mu[rows] *= opts.mu_factor
        if done.any():
            finished = live[done]
            out_c[finished] = c[done]
            out_steps[finished] = steps
            out_gap[finished] = nu * mu[done]
            keep = ~done
            if not keep.any():
                return out_c, out_steps, out_gap
            live, v, c, mu = live[keep], v[keep], c[keep], mu[keep]
            step, lambda_sq = step[keep], lambda_sq[keep]
        steps += 1
        if steps > opts.max_iter:
            raise SolverError("interior-point iteration limit exceeded")
        lam = np.sqrt(lambda_sq)
        alpha = np.where(lam <= _QUADRATIC_PHASE, 1.0, 1.0 / (1.0 + lam))
        trial = c + alpha[:, None] * step
        chol = block.cholesky_stack(trial)
        if chol is None:
            # the roundoff guard fired on some row: step each one alone
            moved = [
                _guarded_step(block, row, dir_, a)
                for row, dir_, a in zip(c, step, alpha.tolist())
            ]
            trial = np.array([row for row, _ in moved])
            chol = np.array([factor for _, factor in moved])
        c = trial


def _support_of(
    g: CorrelatorGrid,
    measurements: MeasurementSet | Sequence[tuple[int, int]] | None,
) -> tuple[tuple[int, int], ...]:
    if isinstance(measurements, MeasurementSet):
        return tuple(sorted(measurements.indices()))
    if measurements is None:
        return g.measured
    return tuple(sorted(tuple(p) for p in measurements))


def _result(
    dims: tuple[int, int],
    support: tuple[tuple[int, int], ...],
    v: np.ndarray,
    t: float,
    path: tuple[np.ndarray, int, float] | None,
) -> NEResult:
    """NEResult of a barrier path's end, or of all-zero data (path None)."""
    if path is None:
        coeffs = tuple(t if k == 0 else 0.0 for k in range(len(support)))
        matrix = CoefficientMatrix(dims, support, coeffs)
        return NEResult(
            value=0.0,
            coefficients=matrix,
            sign_branch="+",
            verdict=ne_verdict(0.0),
            witness=make_witness_pair(matrix),
        )
    c, steps, gap = path
    # polish onto the boundary, where the optimum is attained
    centered = CoefficientMatrix(dims, support, tuple(c))
    matrix = centered.scaled(t / centered.operator_norm())
    value = abs(float(v @ np.array(matrix.coeffs)))
    return NEResult(
        value=value,
        coefficients=matrix,
        sign_branch="+",
        verdict=ne_verdict(value),
        iterations=steps,
        gap=gap,
        witness=make_witness_pair(matrix),
    )


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
    duality-gap bound, and the induced mirrored witness pair.  Raises
    SolverError when the iteration fails.
    """
    return ne_solve_batch([g], measurements, options)[0]


def ne_solve_batch(
    grids: Sequence[CorrelatorGrid],
    measurements: MeasurementSet | Sequence[tuple[int, int]] | None = None,
    options: SolverOptions | None = None,
) -> list[NEResult]:
    """``ne_solve`` for each grid, solved together as one stack.

    The grids must share their local dimensions and their support (the
    given ``measurements``, or else their measured cells); otherwise
    ValueError.  Each result equals that of ``ne_solve`` on its grid.
    """
    opts = options or SolverOptions()
    if not grids:
        return []
    dims = grids[0].dims
    if any(g.dims != dims for g in grids):
        raise ValueError("stacked grids must share their local dimensions")
    supports = {_support_of(g, measurements) for g in grids}
    if len(supports) > 1:
        raise ValueError("stacked grids must share their support")
    support = supports.pop()
    values = np.array([[g.value_at(cell) for cell in support] for g in grids])
    da, db = dims
    m, n = da * da - 1, db * db - 1
    t = 1.0 / math.sqrt((da - 1) * (db - 1))

    paths: list[tuple[np.ndarray, int, float] | None] = [None] * len(grids)
    rows = np.flatnonzero(values.any(axis=1))
    # the stack height picks the loop: at one row the scalar one is faster
    if len(rows) == 1:
        paths[rows[0]] = _maximize(values[rows[0]], support, m, n, t, opts)
    elif len(rows) > 1:
        stacked = _maximize_stack(values[rows], support, m, n, t, opts)
        for row, c, steps, gap in zip(rows, *stacked):
            paths[row] = (c, int(steps), float(gap))
    return [_result(dims, support, v, t, path) for v, path in zip(values, paths)]


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
