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
ends as soon as lambda <= 1/2.  On the whole support of the worked example
(XX, XY, ZX; a corner, below) the path takes 14 steps.

The path only runs where it must.  Cells linked through shared rows or
columns form the components of the support, and C is a direct sum of
their blocks: ||C||_inf is the largest block norm, and the optimum is the
sum of the block optima.  Two kinds of component have exact closed forms.

A component that lies in one row or one column (a line) is a vector,
whose optimum is exactly t * ||v_line||_2, reached by
c = t * v_line / ||v_line||_2 (zero on a zero line).

Any other component of three cells spans two rows and two columns (a
corner): an entry a that shares its row with b and its column with c.
Its optimum is t times that of the qubit corner, from the completion
identity

    NE = min_mu  nuclear_norm([[a, b], [c, mu]]):

adding an unconstrained coefficient at the unmeasured cell cannot help,
so the maximum over unit-spectral-norm coefficient matrices supported on
the corner equals the smallest nuclear norm over completions of the data.
The minimizer is mu* = bc/a when |bc| < a^2, giving

    NE = sqrt((a^2 + b^2)(a^2 + c^2)) / |a|,

and mu* = sign(bc) a otherwise, giving NE = |b| + |c|.  The optimizing
coefficients are the polar factor of the completed matrix, in closed form
too, and sit exactly on the constraint boundary.  Each corner is solved on
its data scaled by the power of two that puts the largest |entry| in
(0.5, 1], so that a^4 neither underflows nor overflows; the value is
scaled back.

Every other component goes into one sub-support, which follows the path
above with nu still counting the whole grid: the blocks it holds have side
at most nu, so nu * mu still bounds its gap.  Only that part is polished.
A support made of lines and corners alone, or whose other components hold
zero data, takes no Newton step and reports gap 0; so does every qubit
support of at most three cells.  Of 50 random qubit supports of 2-9 cells,
36 keep a component for the path, which takes about 35 steps on average.

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
stack by ``ne_solve_batch`` (a sweep over angles is such a stack).  The
Newton kernels take one grid or a stack: one lockstep step is one stacked
Cholesky factorization of the (N, s, s) active blocks, one stacked inverse
of their factors and one stacked (N, k, k) solve for the Newton steps.  The
stack shares its split into lines, corners and the path's sub-support, and
the closed forms work elementwise.  Each grid keeps its own mu, step count
and stop, so its iterates are exactly those of solving it alone; a grid
that has stopped keeps its place and takes zero steps.  A step the
roundoff guard must shorten is retried grid by grid.  With one grid on
the path (``ne_solve``, or a stack whose other grids are zero on the
path's sub-support) the single-grid loop runs instead.  The arrays are at
most 12 x 12, so numpy's per-call overhead sets the cost of both loops:
on one thread of a shared 2-core x86 host, single solves through the
stacked loop took 2.0x as long (1.17 vs 0.59 ms per solve over 600
solves), and 19-angle sweeps through the single-grid loop 2.2-3.1x as long
(27.8-39.3 vs 12.8 ms).
Solver failures raise SolverError, which is not an input error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

from .grids import CorrelatorGrid
from .witness import CoefficientMatrix, NEResult, make_witness_pair

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
        """Cholesky factor of the active B(c), None when it is not PD.

        A stack c (N, k) gets its (N, s, s) factors, None unless all are PD.
        """
        if c.ndim == 1:
            big = self.base.copy()
            big.put(self.entries, c)
        else:
            big = np.repeat(self.base[None], len(c), axis=0)
            big.reshape(len(c), -1)[:, self.entries] = np.concatenate([c, c], axis=1)
        try:
            return np.linalg.cholesky(big)
        except np.linalg.LinAlgError:
            return None


def _derivatives(
    block: _ActiveBlock, chol: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """H and the diagonal of B^-1's mixed block, for one factor or a stack.

    The stage objective f(c) = -<v, c> - mu log det B(c) has gradient
    -2 mu g, with g = v / (2 mu) + that diagonal, and Hessian 2 mu H.
    """
    half = np.linalg.inv(chol).take(block.picks, axis=-1)
    sel = half.swapaxes(-1, -2) @ half
    mixed = sel[..., :k, k:]
    hess = sel[..., :k, :k] * sel[..., k:, k:] + mixed * mixed.swapaxes(-1, -2)
    return hess, mixed.diagonal(0, -2, -1)


def _newton_step(hess: np.ndarray, g: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Newton step H^-1 g and the squared decrement of f / mu.

    Takes one H (k, k) and g (k,), or a stack (N, k, k) and (N, k).  A
    singular H gives no step (step 0 in a stack) and decrement 0.
    """
    if g.ndim == 2:
        try:
            step = np.linalg.solve(hess, g[:, :, None])
        except np.linalg.LinAlgError:
            rows = [_newton_step(h, grad) for h, grad in zip(hess, g)]
            zero = np.zeros(g.shape[1])
            step = np.array([zero if one is None else one for one, _ in rows])
            return step, np.array([lambda_sq for _, lambda_sq in rows])
        return step[:, :, 0], 2.0 * (g[:, None, :] @ step)[:, 0, 0]
    try:
        step = np.linalg.solve(hess, g)
    except np.linalg.LinAlgError:
        # near a degenerate optimal face H spans ~1/mu to ~mu and roundoff
        # leaves it singular: the iterate is as centered as working
        # precision allows
        return None, 0.0
    return step, 2.0 * float(g @ step)


def _guarded_step(
    block: _ActiveBlock, c: np.ndarray, step: np.ndarray, alpha: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The step from c, halved while roundoff leaves B(c) not PD.

    A stack (c and step of shape (N, k), alpha of shape (N,)) tries every
    row's step at once; when some B(c) is not PD, each row is guarded alone.
    """
    if c.ndim == 2:
        trial = c + alpha[:, None] * step
        chol = block.cholesky(trial)
        if chol is not None:
            return trial, chol
        moved = [_guarded_step(block, *row) for row in zip(c, step, alpha.tolist())]
        return np.array([row for row, _ in moved]), np.array([f for _, f in moved])
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
        # H does not depend on mu: when the iterate is centered, mu shrinks
        # and only g is formed anew
        hess, diag = _derivatives(block, chol, k)
        while True:
            g = v * (0.5 / mu) + diag
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
    c = np.zeros((count, k))
    chol = block.cholesky(c)
    mu = np.ones(count)
    steps = np.zeros(count, dtype=int)
    # a stopped row keeps its iterate: it takes step 0 with decrement 0
    done = np.zeros(count, dtype=bool)
    step = np.empty((count, k))
    lambda_sq = np.empty(count)

    while True:
        hess, diag = _derivatives(block, chol, k)
        rows = np.flatnonzero(~done)
        while rows.size:
            # a row centered for its mu stops on its last stage, or else
            # shrinks mu and forms g again, as the scalar loop does
            g = v[rows] * (0.5 / mu[rows])[:, None] + diag[rows]
            step[rows], lambda_sq[rows] = _newton_step(hess[rows], g)
            last = nu * mu[rows] <= 0.5 * opts.tol
            bound = np.where(last, _CENTERED_DECREMENT, _STAGE_DECREMENT)
            centered = lambda_sq[rows] <= bound
            stopped = rows[centered & last]
            done[stopped] = True
            step[stopped] = lambda_sq[stopped] = 0.0
            rows = rows[centered & ~last]
            mu[rows] *= opts.mu_factor
        if done.all():
            return c, steps, nu * mu
        steps += ~done
        if steps.max() > opts.max_iter:
            raise SolverError("interior-point iteration limit exceeded")
        lam = np.sqrt(lambda_sq)
        alpha = np.where(lam <= _QUADRATIC_PHASE, 1.0, 1.0 / (1.0 + lam))
        c, chol = _guarded_step(block, c, step, alpha)


def _components(
    support: Sequence[tuple[int, int]],
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Positions of the support's lines and corners, and of its other cells.

    Cells sharing a row or a column are connected.  A component whose cells
    all lie in one row or one column is a line.  Any other component of
    three cells is a corner, given as (corner, row mate, column mate).
    """
    groups: list[tuple[set[int], set[int], list[int]]] = []
    for k, (i, j) in enumerate(support):
        rows, cols, cells = {i}, {j}, [k]
        for group in [g for g in groups if i in g[0] or j in g[1]]:
            groups.remove(group)
            rows |= group[0]
            cols |= group[1]
            cells += group[2]
        groups.append((rows, cols, cells))
    lines, corners, rest = [], [], []
    for rows, cols, cells in groups:
        if len(rows) == 1 or len(cols) == 1:
            lines.append(sorted(cells))
        elif len(cells) == 3:
            # the corner cell is the one linked to both others
            for k in cells:
                i, j = support[k]
                row = [o for o in cells if o != k and support[o][0] == i]
                col = [o for o in cells if o != k and support[o][1] == j]
                if row and col:
                    corners.append([k, row[0], col[0]])
        else:
            rest += cells
    return lines, corners, sorted(rest)


def _corners(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optima and coefficients of corners at t = 1, from (..., 3) entries (a, b, c).

    a shares its row with b and its column with c (module docstring).
    """
    mantissa, exponent = np.frexp(np.abs(part).max(axis=-1))
    shift = exponent - (mantissa == 0.5)
    a, b, c = np.moveaxis(np.ldexp(part, -shift[..., None]), -1, 0)
    # mu* = sign(bc) a: the polar factor is the signed swap of b and c.  Where
    # b or c is zero so is a, and a zero coefficient on it is optimal too.
    value = np.abs(b) + np.abs(c)
    coeffs = np.stack([np.zeros_like(a), np.sign(b), np.sign(c)], axis=-1)
    # mu* = bc/a: the completion has rank one, and the corner fixes the
    # weight -sign(a) bc/a^2 of the complementary singular pair
    rank_one = np.abs(b * c) < a * a
    a, b, c = a[rank_one], b[rank_one], c[rank_one]
    row, col, size = np.hypot(a, b), np.hypot(a, c), np.abs(a)
    value[rank_one] = row * col / size
    coeffs[rank_one] = np.stack([
        (a**4 - (b * c) ** 2) / (a * size * row * col),
        b * col / (size * row),
        c * row / (size * col),
    ], axis=-1)
    return np.ldexp(value, shift), coeffs


def _polish(
    v: np.ndarray,
    c: np.ndarray,
    dims: tuple[int, int],
    support: Sequence[tuple[int, int]],
    t: float,
) -> np.ndarray:
    """A barrier path's end rescaled onto the boundary ||C(c)||_inf = t."""
    # the optimum is attained on the boundary.  On data so small that the
    # path never leaves c = 0, the data scaled to a largest entry of 1 are
    # the direction instead: any feasible c gives a lower bound, and the
    # scaling keeps t / norm finite on subnormal data.
    direction = c if c.any() else v / np.abs(v).max()
    norm = CoefficientMatrix(dims, tuple(support), tuple(direction)).operator_norm()
    return direction * (t / norm)


def ne_solve(
    g: CorrelatorGrid,
    measurements: Iterable[tuple[int, int]] | None = None,
    options: SolverOptions | None = None,
) -> NEResult:
    """Optimal normalized estimation over the measured (or given) cells.

    ``measurements``, any iterable of cells (a ``MeasurementSet`` among
    them), restricts the optimization to a subset of the grid; by default
    every measured correlator is used.  Values > 1 certify
    entanglement.  The result carries the optimizing coefficients (rescaled
    onto the exact constraint boundary), the Newton-step count, the final
    duality-gap bound, and the induced mirrored witness pair.  Raises
    SolverError when the iteration fails.
    """
    return ne_solve_batch([g], measurements, options)[0]


def ne_solve_batch(
    grids: Sequence[CorrelatorGrid],
    measurements: Iterable[tuple[int, int]] | None = None,
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
    if measurements is None:
        supports = {g.measured for g in grids}
        if len(supports) > 1:
            raise ValueError("stacked grids must share their support")
        support = supports.pop()
    else:
        support = tuple(sorted((int(i), int(j)) for i, j in measurements))
    values = np.array([[g.value_at(cell) for cell in support] for g in grids])
    da, db = dims
    m, n = da * da - 1, db * db - 1
    t = 1.0 / math.sqrt((da - 1) * (db - 1))

    # indexing columns with a list gives a column-major array, so the parts
    # below are made row-major: a strided row would round its sums and dot
    # products differently from the same row solved alone
    lines, corners, rest = _components(support)
    coeffs = np.zeros(values.shape)
    ne = np.zeros(len(grids))
    if lines:
        sizes = [len(line) for line in lines]
        order = np.concatenate(lines)
        part = np.ascontiguousarray(values[:, order])
        # hypot scales, so no square underflows; reduceat gives a one-cell
        # line its own entry, hence abs
        norms = np.hypot.reduceat(np.abs(part), np.cumsum([0] + sizes[:-1]), axis=1)
        ne += t * norms.sum(axis=1)
        spread = np.repeat(norms, sizes, axis=1)
        # a zero line keeps zero coefficients
        unit = np.divide(part, spread, out=np.zeros(part.shape), where=spread > 0.0)
        coeffs[:, order] = t * unit
    if corners:
        optima, unit = _corners(np.ascontiguousarray(values[:, corners]))
        ne += t * optima.sum(axis=1)
        coeffs[:, corners] = t * unit
    steps = np.zeros(len(grids), dtype=int)
    gaps = np.zeros(len(grids))
    if rest:
        cells = [support[k] for k in rest]
        part = np.ascontiguousarray(values[:, rest])
        rows = np.flatnonzero(part.any(axis=1))
        paths: Sequence[np.ndarray] = []
        # the stack height picks the loop: at one row the scalar one is faster
        if len(rows) == 1:
            c, steps[rows], gaps[rows] = _maximize(part[rows[0]], cells, m, n, t, opts)
            paths = [c]
        elif len(rows) > 1:
            paths, steps[rows], gaps[rows] = _maximize_stack(
                part[rows], cells, m, n, t, opts
            )
        for row, c in zip(rows, paths):
            coeffs[row, rest] = _polish(part[row], c, dims, cells, t)
            ne[row] += abs(float(part[row] @ coeffs[row, rest]))

    results = []
    for row, v in enumerate(values):
        if not v.any():
            # every feasible point is optimal; the witness needs a nonzero one
            coeffs[row, 0] = t
        matrix = CoefficientMatrix(dims, support, tuple(coeffs[row].tolist()))
        results.append(NEResult(
            value=float(ne[row]),
            coefficients=matrix,
            iterations=int(steps[row]),
            gap=float(gaps[row]),
            witness=make_witness_pair(matrix),
        ))
    return results


@dataclass(frozen=True)
class MonotoneReport:
    """Normalized estimation along a nested chain of supports."""

    measurement_sets: tuple[Collection[tuple[int, int]], ...]
    results: tuple[NEResult, ...]
    monotone: bool

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(r.value for r in self.results)


def ne_monotone_report(
    chain: Sequence[Collection[tuple[int, int]]],
    g: CorrelatorGrid,
    options: SolverOptions | None = None,
) -> MonotoneReport:
    """Solve along a chain S1 c S2 c ... and check the values never drop.

    Adding correlators can only widen the feasible coefficient supports, so
    the optimum is nondecreasing; a violation beyond solver slack would
    expose an inconsistent grid or a solver failure.  Each support is a
    collection of cells, such as a ``MeasurementSet``.  The chain must be
    nested, else ValueError.
    """
    if not chain:
        raise ValueError("empty measurement chain")
    sets = tuple(chain)
    for prev, nxt in zip(sets, sets[1:]):
        if not set(prev) <= set(nxt):
            raise ValueError("measurement sets must be nested")
    results = tuple(ne_solve(g, s, options) for s in sets)
    monotone = all(
        later.value >= earlier.value - _MONOTONE_SLACK
        for earlier, later in zip(results, results[1:])
    )
    return MonotoneReport(sets, results, monotone)
