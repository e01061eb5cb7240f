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
c = t * v_line / ||v_line||_2 (zero on a zero line).  A line whose norm is
subnormal is first scaled by the power of two that puts its largest
|entry| in (0.5, 1]: unscaled, hypot(5e-324, 5e-324) rounds to 5e-324 and
v / ||v|| is (1, -1), of spectral norm sqrt(2).  The scaling is exact and
no other line is scaled, so every other line keeps its bits.

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
(0.5, 1], so that nothing overflows; the value is scaled back.  A corner
entry far below its row mate can still underflow a^4 - (bc)^2 and
a |a| row col to 0 (on {ZZ: 1e-22, YX: -1e-284, ZX: 1e-143}); there alone
the coefficients are taken again as products of ratios, which stay finite.

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

Before the support is split, sibling leaves are merged.  A leaf of a row
is a cell whose column holds no other cell, and two or more leaves of a
row that also holds another cell are siblings; so are two or more leaves
of a column (cells whose rows hold nothing else) beside another cell of
it.  A group of p siblings is replaced by one cell, its representative,
holding r = hypot(v_1, ..., v_p).  The reduction is exact: right-multiplying
C by an orthogonal map on the group's columns keeps ||C||_inf and the
support's shape and turns the group's data into (r, 0, ..., 0), and a
column with zero data can be zeroed without raising ||C||_inf.  So the
optimum on the merged support is that of the whole support, and
c_member = c_rep * v_member / r (0 where r = 0) reaches it there.  A row
of leaves alone is a line and is left as it is, and no line, corner or
complete block holds siblings, so every support without them keeps its
bits.  A merged component of three cells is a corner: the fork
[[a, b, c], [d, ., .]] takes the corner's closed form on (a, hypot(b, c),
d).  A group's norm and unit vector are taken as a line's, so that v / r
stays a unit vector on subnormal data too.  The witness bound is still one
SVD of the full coefficients, so its soundness does not rest on the merge.

Every other component goes into one sub-support, which follows the path
above with nu still counting the whole grid: the blocks it holds have side
at most nu, so nu * mu still bounds its gap.  Only that part is polished.
A support made of lines, corners and complete blocks alone, or whose other
components hold zero data, takes no Newton step and reports gap 0; so do
every qubit support of at most three cells and every full grid.  Of 50
random qubit supports of 2-9 cells, 28 keep a component for the path,
which takes about 34 steps on average; 7 more hold a complete block.  On
supports of 2-6 cells in local dimensions 2 and 3, as the separable
soundness test draws them, the merge takes 7 of every 15 path solves off
the path (700 of 1,500 in 4,000 solves on 40 supports).

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
stack shares its merge of sibling leaves and its split into lines,
corners, complete blocks and the path's sub-support, and the merge and the
closed forms work elementwise.  Each grid keeps its
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

The kernels call LAPACK through numpy's own linalg gufuncs, bound once
in ``entcert._linalg``: ``cholesky_lo``, ``inv``, ``solve1`` and ``solve``
are the compiled routines that ``np.linalg.cholesky``, ``inv`` and
``solve`` call, and the thin SVD that the complete blocks take, and the
values-only one of the witness bound, are those of ``np.linalg.svd``, so
every bit is theirs.  The public functions check shapes and types and
enter an errstate on each call, which costs more than LAPACK does at these
sizes: on one thread, the public function against the gufunc took 6.2 vs
1.3 us per factorization, 9.3 vs 3.7 us per inverse and 8.8 vs 2.5 us per
solve of a side-5 active block, and 6.2 vs 2.9 us for the singular values
and 8.6 vs 4.2 us for the thin SVD of a 3 x 3 matrix (an errstate adds
1.3-1.5 us).  A test holds each gufunc to the public function's bits.  A
gufunc does not raise: where it cannot factor, solve or decompose a matrix
it writes a NaN matrix.  A failure is read there, from one entry for a
single grid (the last pivot of a factor, the first entry of a step), from
one entry per row in a stack, and from the singular values of an SVD.
Each barrier path, and each SVD call, runs inside one ``np.errstate`` that
ignores the invalid, overflow, divide and underflow flags, as numpy's
functions do around the same calls.

What a solve derives from (dims, support) alone, before it reads any
data, is the support's plan: t, m and n; the positions the merged support
keeps, and the groups of sibling leaves with their ``reduceat`` offsets,
sizes and representatives; and on the merged support, the lines'
positions, with their offsets and sizes; the corner triples; each
complete block's row-major positions; and the path's cells and their
positions.  Supports repeat: the separable soundness test solves 100
grids on each, and a sweep or a bisection solves one again and again.
So ``_plan`` keeps the plans last used, keyed by (dims, support), with
read-only arrays, and ``_active_block`` keeps the path's active block per
(cells, t), where the path loops look it up.  A miss builds the plan as
every solve once did, and every input check still runs on every call.

The results of a stack are built together: the shared support is checked
once, the (N, k) coefficients as one array, and one stacked SVD gives the N
spectral norms of the witness bounds, each equal to the single matrix's.
``witness.spectral_norms`` scatters them into the dense matrices at
positions kept per (dims, support) and calls the SVD gufunc directly.
The polish of all grids on the path takes its norms in one stacked SVD
too.  A sweep hands its (N, k) array of grid values to the stacked entry
directly, without a grid object per angle.  Each result carries the
expectation c . v that ``witness.expansion_value`` sums on its row, the
sum ``evaluate_witness`` takes on the grid, so its verdict is the
witness's on that grid, stacked and sweep rows too.

Solver failures raise SolverError, which is not an input error.  On the
path its message names the stage mu the path had reached; a failed SVD,
of a complete block or of the witness bound, raises it too.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _linalg
from ._linalg import SolverError
from ._linalg import errstate as _kernel_errstate
from ._linalg import lapack as _lapack
from .grids import CorrelatorGrid, read_support
from .witness import (
    CoefficientMatrix,
    NEResult,
    expansion_value,
    make_witness_pair,
    spectral_norms,
)

_BACKTRACK = 0.5
_CENTERED_DECREMENT = 1e-4  # squared Newton decrement: lambda <= 0.01
_STAGE_DECREMENT = 0.25  # before the last stage: lambda <= 1/2
_QUADRATIC_PHASE = 0.25  # below this lambda the undamped step is safe
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
#: Plans and path blocks held, one per key, least recently used out.  The
#: separable test reuses one support at a time; 32 keep over half the hits of
#: an unbounded cache where supports recur between others (BENCH_23.json).
_CACHED_PLANS = 32


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
        for array in (self.base, self.entries, self.picks):
            array.setflags(write=False)

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


#: The active block of the path on (cells, t): built once per key and shared.
_active_block = functools.lru_cache(maxsize=_CACHED_PLANS)(_ActiveBlock)


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
    block = _active_block(tuple(support), t)
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
    block = _active_block(tuple(support), t)
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


def _positions(positions: object) -> np.ndarray:
    """``positions`` as a read-only index array."""
    out = np.array(positions, dtype=np.intp)
    out.setflags(write=False)
    return out


def _sibling_leaves(support: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Positions of each group of sibling leaves, its representative first.

    A leaf of a row is a cell whose column holds no other cell; two or more
    leaves of a row that also holds another cell are siblings.  So are the
    leaves of a column, cells whose rows hold no other cell.  A row of
    leaves alone is a line and forms no group.
    """
    row_count = Counter(i for i, _ in support)
    col_count = Counter(j for _, j in support)
    leaves: dict[tuple[int, int], list[int]] = {}
    for k, (i, j) in enumerate(support):
        # only a row (column) of three or more cells can hold siblings
        if col_count[j] == 1 and row_count[i] > 2:
            leaves.setdefault((0, i), []).append(k)
        elif row_count[i] == 1 and col_count[j] > 2:
            leaves.setdefault((1, j), []).append(k)
    counts = (row_count, col_count)
    return [
        group for (axis, index), group in leaves.items()
        if 1 < len(group) < counts[axis][index]
    ]


class _Merge(NamedTuple):
    """A support's groups of sibling leaves, each merged into its
    representative."""

    kept: np.ndarray  # the positions of the merged support's cells
    members: np.ndarray  # each group's positions, group after group
    starts: np.ndarray  # the reduceat offset of each group in ``members``
    sizes: np.ndarray
    reps: np.ndarray  # each group's representative, as a position in ``kept``


class _Plan(NamedTuple):
    """What a solve derives from (dims, support) alone, before any data.

    The positions from ``lines`` on index the values on the merged support
    (the support itself where ``merge`` is None).
    """

    t: float
    m: int
    n: int
    merge: _Merge | None  # None where no sibling leaves merge
    lines: np.ndarray  # the lines' positions, line after line
    line_starts: np.ndarray  # the reduceat offset of each line in ``lines``
    line_sizes: np.ndarray
    corners: np.ndarray  # (count, 3): corner, row mate, column mate
    blocks: tuple[np.ndarray, ...]  # each complete block's (r, c) positions
    cells: tuple[tuple[int, int], ...]  # the path's cells, at positions ``rest``
    rest: np.ndarray


def _offsets(sizes: list[int]) -> np.ndarray:
    """The ``reduceat`` offsets of consecutive runs of ``sizes``."""
    return _positions(list(itertools.accumulate(sizes[:-1], initial=0)))


@functools.lru_cache(maxsize=_CACHED_PLANS)
def _plan(dims: tuple[int, int], support: tuple[tuple[int, int], ...]) -> _Plan:
    """The plan of ``support``: built once per key and shared."""
    da, db = dims
    t = 1.0 / math.sqrt((da - 1) * (db - 1))
    groups = _sibling_leaves(support)
    merge, merged = None, support
    if groups:
        dropped = {k for group in groups for k in group[1:]}
        kept = [k for k in range(len(support)) if k not in dropped]
        merged = tuple(support[k] for k in kept)
        group_sizes = [len(group) for group in groups]
        merge = _Merge(
            _positions(kept),
            _positions([k for group in groups for k in group]),
            _offsets(group_sizes),
            _positions(group_sizes),
            _positions([kept.index(group[0]) for group in groups]),
        )
    lines, corners, blocks, rest = _components(merged)
    sizes = [len(line) for line in lines]
    return _Plan(
        t, da * da - 1, db * db - 1,
        merge,
        _positions([k for line in lines for k in line]),
        _offsets(sizes),
        _positions(sizes),
        _positions(corners).reshape(-1, 3),
        tuple(map(_positions, blocks)),
        tuple(merged[k] for k in rest),
        _positions(rest),
    )


def _unit_shift(peak: np.ndarray) -> np.ndarray:
    """The powers of two that put each nonzero ``peak`` in (0.5, 1]."""
    mantissa, exponent = np.frexp(peak)
    return exponent - (mantissa == 0.5)


def _runs(
    part: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The norm of each run of entries of ``part`` (N, k), with ``reduceat``
    offsets ``starts`` and ``sizes``, and each run divided by its norm (a
    zero run stays zero).

    A run whose norm is subnormal is first scaled by the power of two that
    puts its largest |entry| in (0.5, 1]: its unscaled norm rounds so
    coarsely that the run over it is no unit vector.  Every other run is
    taken as it is, so each run's bits depend on its own entries alone.
    """
    # hypot scales, so no square underflows; reduceat gives a one-entry run
    # its own entry, hence abs
    magnitude = np.abs(part)
    norms = np.hypot.reduceat(magnitude, starts, axis=1)
    scaled = norms
    small = norms < _SMALLEST_NORMAL
    if small.any():
        peaks = np.maximum.reduceat(magnitude, starts, axis=1)
        shift = np.where(small, _unit_shift(peaks), 0)
        part = np.ldexp(part, -np.repeat(shift, sizes, axis=1))
        scaled = np.hypot.reduceat(np.abs(part), starts, axis=1)
        norms = np.ldexp(scaled, shift)
    spread = np.repeat(scaled, sizes, axis=1)
    return norms, np.divide(part, spread, out=np.zeros(part.shape), where=spread > 0.0)


def _corners(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optima and coefficients of corners at t = 1, from (N, count, 3) entries
    (a, b, c).

    a shares its row with b and its column with c (module docstring).
    """
    shift = _unit_shift(np.maximum.reduce(np.abs(part), axis=-1))
    scaled = np.ldexp(part, -shift[..., None])
    # a, b and c are made contiguous, as the gathers below would make them:
    # the formulas are elementwise, and contiguous operands run the loops that
    # one corner alone runs, whatever numpy dispatches on strides
    a, b, c = scaled.transpose(2, 0, 1).copy()
    # mu* = sign(bc) a: the polar factor is the signed swap of b and c.  Where
    # b or c is zero so is a, and a zero coefficient on it is optimal too.
    value = np.abs(b) + np.abs(c)
    coeffs = np.sign(scaled)
    coeffs[..., 0] = 0.0
    # mu* = bc/a: the completion has rank one, and the corner fixes the
    # weight -sign(a) bc/a^2 of the complementary singular pair.  Where every
    # corner is rank one, the whole arrays serve and nothing is gathered.
    rank_one = np.abs(b * c) < a * a
    where = Ellipsis if rank_one.all() else rank_one
    a, b, c = a[where], b[where], c[where]
    row, col, size = np.hypot(a, b), np.hypot(a, c), np.abs(a)
    value[where] = row * col / size
    # a corner of extreme spread underflows a^4 - (bc)^2 and a |a| row col to
    # 0, and 0/0 is NaN: only such rows are taken again, as products of ratios
    with _kernel_errstate():
        coeffs[where, 0] = (a**4 - (b * c) ** 2) / (a * size * row * col)
        coeffs[where, 1] = b * col / (size * row)
        coeffs[where, 2] = c * row / (size * col)
    if not np.isfinite(coeffs).all():
        fast = coeffs[where]
        lost = ~np.isfinite(fast).all(axis=-1)
        a, b, c, row, col, size = (x[lost] for x in (a, b, c, row, col, size))
        fast[lost] = np.stack([
            np.sign(a) * ((a / row) * (a / col) - (b / row) * (c / col) * (b / a) * (c / a)),
            (b / row) * (col / size),
            (c / col) * (row / size),
        ], axis=-1)
        coeffs[where] = fast
    return np.ldexp(value, shift), coeffs


def _complete_blocks(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optima and coefficients of complete blocks at t = 1, from (N, r, c) entries.

    The optimum is the nuclear norm, reached by the polar factor of the
    block (module docstring); a zero block keeps zero coefficients.
    """
    shift = _unit_shift(np.maximum.reduce(np.abs(part), axis=(1, 2)))
    scaled = np.ldexp(part, -shift[:, None, None])
    with _kernel_errstate():
        u, sigma, vt = _linalg.svd_thin(scaled)
    if np.isnan(sigma[:, 0]).any():
        raise SolverError("the SVD of a complete block did not converge")
    polar = u @ vt
    # one Newton-Schulz step (3X - X X^T X) / 2: the largest singular value
    # of the coefficients is then 1 to within a few ulps
    polar = 1.5 * polar - 0.5 * (polar @ polar.swapaxes(1, 2)) @ polar
    polar[sigma[:, 0] == 0.0] = 0.0
    return np.ldexp(np.add.reduce(sigma, axis=1), shift), polar


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
    plan = _plan(dims, support)
    merge = plan.merge
    if merge is not None:
        # each group of sibling leaves becomes one cell holding the norm r of
        # its data
        sizes = merge.sizes
        grouped = np.ascontiguousarray(values[:, merge.members])
        norms, unit = _runs(grouped, merge.starts, sizes)
        merged = np.ascontiguousarray(values[:, merge.kept])
        merged[:, merge.reps] = norms
        part, ne, steps, gaps = _solve_merged(plan, dims, merged, opts)
        # c_member = c_rep * v_member / r, zero on a zero group
        coeffs = np.zeros(values.shape)
        coeffs[:, merge.kept] = part
        coeffs[:, merge.members] = np.repeat(part[:, merge.reps], sizes, axis=1) * unit
    else:
        coeffs, ne, steps, gaps = _solve_merged(plan, dims, values, opts)

    # every feasible point is optimal on zero data; the witness needs a
    # nonzero one
    coeffs[~values.any(axis=1), 0] = plan.t
    matrices = CoefficientMatrix.stack(dims, support, coeffs)
    # each verdict reads the expectation that evaluate_witness sums on the
    # same grid
    return [
        NEResult(
            value=value,
            coefficients=matrix,
            iterations=iterations,
            gap=gap,
            witness=make_witness_pair(matrix),
            expectation=expansion_value(matrix.coeffs, row),
        )
        for value, matrix, iterations, gap, row in zip(
            ne.tolist(), matrices, steps.tolist(), gaps.tolist(), values.tolist()
        )
    ]


def _solve_merged(
    plan: _Plan, dims: tuple[int, int], values: np.ndarray, opts: SolverOptions
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (N, k), optima, step counts and gaps of ``values``, the
    data on the plan's merged support: the closed forms, then the path."""
    count = len(values)
    t, cells, rest = plan.t, plan.cells, plan.rest

    # indexing columns with an index array gives a column-major array, so
    # the parts below are made row-major: a strided row would round its sums
    # and dot products differently from the same row solved alone
    coeffs = np.zeros(values.shape)
    ne = np.zeros(count)
    if len(plan.lines):
        part = np.ascontiguousarray(values[:, plan.lines])
        norms, unit = _runs(part, plan.line_starts, plan.line_sizes)
        ne += t * norms.sum(axis=1)
        # a zero line keeps zero coefficients
        coeffs[:, plan.lines] = t * unit
    if len(plan.corners):
        optima, unit = _corners(np.ascontiguousarray(values[:, plan.corners]))
        ne += t * optima.sum(axis=1)
        coeffs[:, plan.corners] = t * unit
    for block in plan.blocks:
        optima, polar = _complete_blocks(np.ascontiguousarray(values[:, block]))
        ne += t * optima
        coeffs[:, block] = t * polar
    steps = np.zeros(count, dtype=int)
    gaps = np.zeros(count)
    if cells:
        part = np.ascontiguousarray(values[:, rest])
        rows = np.flatnonzero(part.any(axis=1))
        m, n = plan.m, plan.n
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
    return coeffs, ne, steps, gaps
