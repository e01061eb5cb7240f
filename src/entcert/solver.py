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
sum of the block optima.  Three kinds of component have exact closed forms.

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

A component that fills every cell of the r >= 2 rows and c >= 2 columns
it spans (a complete block) holds an unconstrained r x c matrix V.  The
nuclear norm is the dual norm of the spectral norm (Recht, Fazel &
Parrilo, SIAM Review 52, 2010): <V, C> <= ||V||_* ||C||_inf for every C,
so no feasible C beats t * ||V||_*, and with the thin SVD V = U S W^T the
polar factor C = t * U W^T reaches it, as <V, U W^T> = tr S:

    NE = t * ||V||_* = t * (sigma_1 + ... + sigma_min(r, c)).

Every singular value of U W^T is 1, so C sits exactly on the constraint
boundary; one Newton-Schulz step restores the orthogonality that the SVD
loses to roundoff.  A zero block keeps zero coefficients.  Each block is
scaled by a power of two as a corner is, and one SVD call serves the
row-major (N, r, c) stack of a block's data in all N grids.

Every other component goes into one sub-support, which follows the path
above with nu still counting the whole grid: the blocks it holds have side
at most nu, so nu * mu still bounds its gap.  Only that part is polished.
A support made of lines, corners and complete blocks alone, or whose other
components hold zero data, takes no Newton step and reports gap 0; so do
every qubit support of at most three cells and every full grid.  Of 50
random qubit supports of 2-9 cells, 29 keep a component for the path,
which takes about 34 steps on average; 7 more hold a complete block.

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
stack shares its split into lines, corners, complete blocks and the path's
sub-support, and the closed forms work elementwise.  Each grid keeps its
own mu, step count and stop, so its iterates are exactly those of solving
it alone; a grid that has stopped stays in every stacked call, masked, and
takes zero steps.  A grid whose step the roundoff guard must shorten is
halved alone, while the others keep their stacked factor.  With one grid
on the path (``ne_solve``, or a stack whose other grids are zero on the
path's sub-support) the single-grid loop runs instead.  The arrays are
small, so per-call overhead sets the cost of both loops: on one thread of
a shared 2-core x86 host, single solves through the stacked loop took
3.1-3.3x as long (1.92-2.01 vs 0.62 ms per path over 600 qubit
staircases), and the paths of 19-angle sweeps of the four families on the
staircase XX,XY,YY,YZ through the single-grid loop 2.4-3.8x as long
(8.9-11.8 vs 2.9-3.7 ms).

The kernels call LAPACK through numpy's own linalg gufuncs, bound once as
``numpy.linalg._umath_linalg``: ``cholesky_lo``, ``inv``, ``solve1`` and
``solve`` are the compiled routines that ``np.linalg.cholesky``, ``inv``
and ``solve`` call, so every bit is theirs.  The public functions check
shapes and types and enter an errstate on each call, which costs more than
LAPACK does at these sizes: on a side-5 active block, on one thread, the
public function against the gufunc took 6.2 vs 1.3 us per factorization,
9.3 vs 3.7 us per inverse and 8.8 vs 2.5 us per solve.  That private
module is the solver's one binding outside numpy's public API, and a test
holds each kernel to the public function's bits.  A gufunc does not
raise: where it cannot factor or solve a matrix it writes a NaN matrix.  A
failure is read there, from one entry for a single grid (the last pivot of
a factor, the first entry of a step) and from one entry per row in a
stack.  Each barrier path runs inside one ``np.errstate`` that
ignores the invalid, overflow, divide and underflow flags, as numpy's
functions do around the same calls.

The results of a stack are built together: the shared support is checked
once, the (N, k) coefficients as one array, and one stacked SVD gives the N
spectral norms of the witness bounds, each equal to the single matrix's.
The polish of all grids on the path takes its norms in one stacked SVD
too.  A sweep hands its (N, k) array of grid values to the stacked entry
directly, without a grid object per angle.

Solver failures raise SolverError, which is not an input error; its message
names the stage mu the path had reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from .grids import CorrelatorGrid, read_support
from .witness import CoefficientMatrix, NEResult, make_witness_pair, spectral_norms

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
    max_iter   cap on Newton steps, an int >= 1.
    mu_factor  geometric shrink of the barrier weight per outer stage.
    """

    tol: float = 1e-8
    max_iter: int = 200
    mu_factor: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if type(self.max_iter) is not int or self.max_iter < 1:
            raise ValueError(f"max_iter must be an int >= 1, got {self.max_iter!r}")
        if not (0.0 < self.mu_factor < 1.0):
            raise ValueError("mu_factor must lie in (0, 1)")


def _kernel_errstate() -> np.errstate:
    """The floating-point state the Newton kernels run in.

    numpy's linalg wrappers ignore these flags around the same gufuncs; a
    factorization or solve that fails is read from its NaN output instead.
    """
    return np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")


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

        A stack c (N, k) gets its (N, s, s) factors, with a NaN matrix for
        each B(c) that is not PD.
        """
        if c.ndim == 1:
            big = self.base.copy()
            big.put(self.entries, c)
            chol = _lapack.cholesky_lo(big)
            # a failed factorization is all NaN; a finished one has a
            # positive last pivot
            return None if math.isnan(chol[-1, -1]) else chol
        big = np.repeat(self.base[None], len(c), axis=0)
        big.reshape(len(c), -1)[:, self.entries] = np.concatenate([c, c], axis=1)
        return _lapack.cholesky_lo(big)


def _derivatives(
    block: _ActiveBlock, chol: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """H and the diagonal of B^-1's mixed block, for one factor or a stack.

    The stage objective f(c) = -<v, c> - mu log det B(c) has gradient
    -2 mu g, with g = v / (2 mu) + that diagonal, and Hessian 2 mu H.
    """
    half = _lapack.inv(chol).take(block.picks, axis=-1)
    sel = half.swapaxes(-1, -2) @ half
    mixed = sel[..., :k, k:]
    hess = sel[..., :k, :k] * sel[..., k:, k:] + mixed * mixed.swapaxes(-1, -2)
    return hess, mixed.diagonal(0, -2, -1)


def _newton_step(hess: np.ndarray, g: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Newton step H^-1 g and the squared decrement of f / mu.

    Takes one H (k, k) and g (k,), or a stack (N, k, k) and (N, k).  A
    singular H gives no step (step 0 in a stack) and decrement 0: near a
    degenerate optimal face H spans ~1/mu to ~mu and roundoff leaves it
    singular, so the iterate is as centered as working precision allows.
    The solve of a singular H writes NaN.
    """
    if g.ndim == 2:
        step = _lapack.solve(hess, g[:, :, None])
        lambda_sq = 2.0 * (g[:, None, :] @ step)[:, 0, 0]
        singular = np.isnan(step[:, 0, 0])
        if singular.any():
            step[singular] = lambda_sq[singular] = 0.0
        return step[:, :, 0], lambda_sq
    step = _lapack.solve1(hess, g)
    if math.isnan(step[0]):
        return None, 0.0
    return step, 2.0 * float(g @ step)


def _guarded_step(
    block: _ActiveBlock,
    c: np.ndarray,
    step: np.ndarray,
    alpha: float | np.ndarray,
    mu: float | np.ndarray,
    steps: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The step from c, halved while roundoff leaves B(c) not PD.

    A stack (c and step of shape (N, k), alpha, mu and steps of shape (N,))
    tries every row's step at once; each row whose B(c) is not PD is then
    guarded alone, and the others keep their stacked factor.  ``mu`` and
    ``steps`` name the stage in the error of a stalled line search.
    """
    if c.ndim == 2:
        trial = c + alpha[:, None] * step
        chol = block.cholesky(trial)
        for row in np.flatnonzero(np.isnan(chol[:, -1, -1])):
            trial[row], chol[row] = _guarded_step(
                block, c[row], step[row], float(alpha[row]), float(mu[row]), steps[row]
            )
        return trial, chol
    trial = c + alpha * step
    chol = block.cholesky(trial)
    while chol is None:
        alpha *= _BACKTRACK
        # written so that a NaN step length stops too
        if not alpha >= 1e-14:
            raise SolverError(
                f"line search stalled at stage mu={mu:.3g} (Newton step {steps})"
            )
        trial = c + alpha * step
        chol = block.cholesky(trial)
    return trial, chol


def _iteration_limit(mu: float, opts: SolverOptions) -> SolverError:
    return SolverError(
        "interior-point iteration limit exceeded at stage"
        f" mu={mu:.3g} (max_iter={opts.max_iter})"
    )


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
    mu = 1.0
    steps = 0
    with _kernel_errstate():
        chol = block.cholesky(c)
        while True:
            # H does not depend on mu: when the iterate is centered, mu
            # shrinks and only g is formed anew
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
                raise _iteration_limit(mu, opts)
            # feasible by construction (alpha * lambda < 1); halving guards
            # roundoff
            lam = math.sqrt(lambda_sq)
            alpha = 1.0 if lam <= _QUADRATIC_PHASE else 1.0 / (1.0 + lam)
            c, chol = _guarded_step(block, c, step, alpha, mu, steps)


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
    mu = np.ones(count)
    steps = np.zeros(count, dtype=int)
    # a stopped row keeps its iterate: it takes step 0 with decrement 0
    done = np.zeros(count, dtype=bool)

    with _kernel_errstate():
        chol = block.cholesky(c)
        while True:
            hess, diag = _derivatives(block, chol, k)
            while True:
                # a row centered for its mu stops on its last stage, or else
                # shrinks mu and forms g again, as the scalar loop does; any
                # other row, a stopped one too, gets the same step again
                g = v * (0.5 / mu)[:, None] + diag
                step, lambda_sq = _newton_step(hess, g)
                last = nu * mu <= 0.5 * opts.tol
                bound = np.where(last, _CENTERED_DECREMENT, _STAGE_DECREMENT)
                centered = lambda_sq <= bound
                done |= centered & last
                shrink = centered & ~last
                if not shrink.any():
                    break
                mu = np.where(shrink, mu * opts.mu_factor, mu)
            if done.all():
                return c, steps, nu * mu
            steps += ~done
            if steps.max() > opts.max_iter:
                raise _iteration_limit(mu[steps.argmax()], opts)
            step = np.where(done[:, None], 0.0, step)
            lam = np.sqrt(np.where(done, 0.0, lambda_sq))
            alpha = np.where(lam <= _QUADRATIC_PHASE, 1.0, 1.0 / (1.0 + lam))
            c, chol = _guarded_step(block, c, step, alpha, mu, steps)


def _components(
    support: Sequence[tuple[int, int]],
) -> tuple[list[list[int]], list[list[int]], list[list[list[int]]], list[int]]:
    """Positions of the support's lines, corners and complete blocks, and of
    its other cells.

    Cells sharing a row or a column are connected.  A component whose cells
    all lie in one row or one column is a line.  Any other component of
    three cells is a corner, given as (corner, row mate, column mate).  Any
    other component that fills every cell of the rows and columns it spans
    is a complete block, given row-major as one list of positions per row.
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
    lines, corners, blocks, rest = [], [], [], []
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
        elif len(cells) == len(rows) * len(cols):
            at = {support[k]: k for k in cells}
            blocks.append([[at[i, j] for j in sorted(cols)] for i in sorted(rows)])
        else:
            rest += cells
    return lines, corners, blocks, sorted(rest)


def _unit_shift(peak: np.ndarray) -> np.ndarray:
    """The powers of two that put each nonzero ``peak`` in (0.5, 1]."""
    mantissa, exponent = np.frexp(peak)
    return exponent - (mantissa == 0.5)


def _corners(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optima and coefficients of corners at t = 1, from (..., 3) entries (a, b, c).

    a shares its row with b and its column with c (module docstring).
    """
    shift = _unit_shift(np.abs(part).max(axis=-1))
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


def _complete_blocks(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optima and coefficients of complete blocks at t = 1, from (N, r, c) entries.

    The optimum is the nuclear norm, reached by the polar factor of the
    block (module docstring); a zero block keeps zero coefficients.
    """
    shift = _unit_shift(np.abs(part).max(axis=(1, 2)))
    scaled = np.ldexp(part, -shift[:, None, None])
    u, sigma, vt = np.linalg.svd(scaled, full_matrices=False)
    polar = u @ vt
    # one Newton-Schulz step (3X - X X^T X) / 2: the largest singular value
    # of the coefficients is then 1 to within a few ulps
    polar = 1.5 * polar - 0.5 * (polar @ polar.swapaxes(1, 2)) @ polar
    polar[sigma[:, 0] == 0.0] = 0.0
    return np.ldexp(sigma.sum(axis=1), shift), polar


def _polish(
    v: np.ndarray,
    c: np.ndarray,
    dims: tuple[int, int],
    support: Sequence[tuple[int, int]],
    t: float,
) -> np.ndarray:
    """Barrier path ends c (..., k) rescaled onto the boundary ||C(c)||_inf = t."""
    # the optimum is attained on the boundary.  On data so small that the
    # path never leaves c = 0, the data scaled to a largest entry of 1 are
    # the direction instead: any feasible c gives a lower bound, and the
    # scaling keeps t / norm finite on subnormal data.
    moved = c.any(axis=-1, keepdims=True)
    direction = np.where(moved, c, v / np.abs(v).max(axis=-1, keepdims=True))
    return direction * (t / spectral_norms(dims, support, direction)[..., None])


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
        support = tuple(sorted(read_support(dims, measurements)))
    values = np.array([[g.value_at(cell) for cell in support] for g in grids])
    return _ne_solve_stack(dims, support, values, options)


def _ne_solve_stack(
    dims: tuple[int, int],
    support: tuple[tuple[int, int], ...],
    values: np.ndarray,
    options: SolverOptions | None = None,
) -> list[NEResult]:
    """``ne_solve`` for each row of ``values`` (N, k), the correlators of a
    grid on ``support``, checked as ``CorrelatorGrid`` checks them."""
    opts = options or SolverOptions()
    count = len(values)
    da, db = dims
    m, n = da * da - 1, db * db - 1
    t = 1.0 / math.sqrt((da - 1) * (db - 1))

    # indexing columns with a list gives a column-major array, so the parts
    # below are made row-major: a strided row would round its sums and dot
    # products differently from the same row solved alone
    lines, corners, blocks, rest = _components(support)
    coeffs = np.zeros(values.shape)
    ne = np.zeros(count)
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
    for block in blocks:
        optima, polar = _complete_blocks(np.ascontiguousarray(values[:, block]))
        ne += t * optima
        coeffs[:, np.ravel(block)] = t * polar.reshape(count, -1)
    steps = np.zeros(count, dtype=int)
    gaps = np.zeros(count)
    if rest:
        cells = [support[k] for k in rest]
        part = np.ascontiguousarray(values[:, rest])
        rows = np.flatnonzero(part.any(axis=1))
        # the stack height picks the loop: at one row the scalar one is faster
        if len(rows) == 1:
            c, steps[rows], gaps[rows] = _maximize(part[rows[0]], cells, m, n, t, opts)
            paths = c[None]
        elif len(rows) > 1:
            paths, steps[rows], gaps[rows] = _maximize_stack(
                part[rows], cells, m, n, t, opts
            )
        if len(rows):
            coeffs[np.ix_(rows, rest)] = _polish(part[rows], paths, dims, cells, t)
        for row in rows:
            ne[row] += abs(float(part[row] @ coeffs[row, rest]))

    # every feasible point is optimal on zero data; the witness needs a
    # nonzero one
    coeffs[~values.any(axis=1), 0] = t
    matrices = CoefficientMatrix.stack(dims, support, coeffs)
    return [
        NEResult(
            value=value,
            coefficients=matrix,
            iterations=iterations,
            gap=gap,
            witness=make_witness_pair(matrix),
        )
        for value, matrix, iterations, gap in zip(
            ne.tolist(), matrices, steps.tolist(), gaps.tolist()
        )
    ]


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
    supports = [read_support(g.dims, s) for s in sets]
    for prev, nxt in zip(supports, supports[1:]):
        if not set(prev) <= set(nxt):
            raise ValueError("measurement sets must be nested")
    results = tuple(ne_solve(g, s, options) for s in supports)
    monotone = all(
        later.value >= earlier.value - _MONOTONE_SLACK
        for earlier, later in zip(results, results[1:])
    )
    return MonotoneReport(sets, results, monotone)
