"""Interior-point solver against closed forms, identities, and sampling."""

import itertools
import math
import warnings

import numpy as np
import pytest

from entcert import patterns, qmodel, solver
from entcert.grids import CorrelatorGrid, MeasurementSet
from entcert.witness import CoefficientMatrix, NEResult


def _grid(d):
    return CorrelatorGrid.from_labels(d)


# the worked example is a corner, which ne_solve takes in closed form;
# BLOCK is a staircase on two rows and three columns, neither a line, a
# corner nor a complete block, so it takes the barrier path
MAIN = _grid({"XX": -0.95, "XY": 0.03, "ZX": -0.96})
BLOCK = _grid({"XX": 0.9, "XY": -0.3, "YY": 0.8, "YZ": 0.2})


def _barrier(grid, cells):
    """The whole support through the barrier path, polished, as an NEResult."""
    support = tuple(sorted(cells))
    v = np.array([grid.value_at(c) for c in support])
    dims = grid.dims
    m, n = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    t = 1.0 / math.sqrt((dims[0] - 1) * (dims[1] - 1))
    c, steps, gap = solver._maximize(v, support, m, n, t, solver.SolverOptions())
    coeffs = solver._polish(v, c, dims, support, t)
    matrix = CoefficientMatrix(dims, support, tuple(coeffs.tolist()))
    return NEResult(abs(float(v @ coeffs)), matrix, steps, gap)


def test_options_validation():
    with pytest.raises(ValueError):
        solver.SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        solver.SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        solver.SolverOptions(mu_factor=1.0)
    # a step cap is a count: a float or a bool is rejected, not truncated
    for bad in (2.5, 30.7, 1.0, True, False, "5", None):
        with pytest.raises(ValueError, match=r"max_iter must be an int >= 1, got "):
            solver.SolverOptions(max_iter=bad)
    assert solver.SolverOptions(max_iter=1).max_iter == 1


def test_worked_example_matches_closed_form():
    mset = MeasurementSet.parse("XX,XY,ZX")
    got = _barrier(MAIN, mset)
    ref = patterns.ne_closed_form(mset, MAIN)
    assert got.value == pytest.approx(ref.value, abs=1e-6)
    assert got.value == pytest.approx(1.35, abs=0.01)
    assert got.verdict == "entangled"
    assert got.iterations > 0
    assert got.gap <= 0.5 * solver.SolverOptions().tol
    sign = 1.0 if got.coefficients.coeffs[0] * ref.coefficients.coeffs[0] >= 0 else -1.0
    for a, b in zip(got.coefficients.coeffs, ref.coefficients.coeffs):
        assert sign * a == pytest.approx(b, abs=1e-4)


def _count_factorizations(monkeypatch):
    calls = [0]
    original = solver._ActiveBlock.cholesky

    def counted(self, c):
        calls[0] += 1
        return original(self, c)

    monkeypatch.setattr(solver._ActiveBlock, "cholesky", counted)
    return calls


def test_worked_example_takes_few_damped_steps(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    got = _barrier(MAIN, MeasurementSet.parse("XX,XY,ZX"))
    assert got.value == pytest.approx(1.3512657203864136, abs=1e-12)
    assert got.iterations <= 25
    # one factorization at the start, then one per accepted step
    assert calls[0] == got.iterations + 1


def _has_block(cells):
    """Whether some component of the cells (linked through shared rows or
    columns) spans two rows and two columns, holds more than three cells and
    leaves some cell of its rows and columns out, so that it is neither a
    line, a corner nor a complete block."""
    left = set(cells)
    while left:
        component = {left.pop()}
        frontier = list(component)
        while frontier:
            i, j = frontier.pop()
            linked = {c for c in left if c[0] == i or c[1] == j}
            left -= linked
            component |= linked
            frontier.extend(linked)
        rows, cols = {i for i, _ in component}, {j for _, j in component}
        spans = len(rows) * len(cols)
        if len(rows) > 1 and len(cols) > 1 and 3 < len(component) < spans:
            return True
    return False


def test_every_damped_step_is_feasible_first_time(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(31)
    blocks = 0
    for k in range(50):
        # every other support holds a staircase, which takes the barrier path
        g = _random_grid(rng, int(rng.integers(2, 4)), staircase=k % 2 == 1)
        calls[0] = 0
        got = solver.ne_solve(g)
        if _has_block(g.measured):
            blocks += 1
            assert calls[0] == got.iterations + 1, sorted(g.values.items())
        else:
            # only lines, corners and complete blocks: closed forms, no
            # barrier path
            assert calls[0] == got.iterations == 0, sorted(g.values.items())
    assert blocks > 25


def test_qubit_supports_of_up_to_three_cells_take_no_newton_step(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(101)
    cells = [(i, j) for i in range(3) for j in range(3)]
    supports = [s for k in (1, 2, 3) for s in itertools.combinations(cells, k)]
    assert len(supports) == 129
    for support in supports:
        values = rng.uniform(-1.0, 1.0, size=len(support))
        g = CorrelatorGrid((2, 2), dict(zip(support, values.tolist())))
        got = solver.ne_solve(g)
        assert (got.iterations, got.gap) == (0, 0.0), support
    assert calls[0] == 0


def test_a_corner_beside_a_block_leaves_only_the_block_on_the_path(monkeypatch):
    paths = []
    maximize = solver._maximize

    def recorded(v, support, m, n, t, opts):
        paths.append(tuple(support))
        return maximize(v, support, m, n, t, opts)

    monkeypatch.setattr(solver, "_maximize", recorded)
    rng = np.random.default_rng(103)
    corner = [(0, 0), (0, 1), (1, 0)]
    block = [(2, 2), (2, 3), (3, 3), (3, 4)]
    for _ in range(10):
        values = dict(zip(corner + block, rng.uniform(-1.0, 1.0, size=7).tolist()))
        both = solver.ne_solve(CorrelatorGrid((3, 3), values))
        alone = [
            solver.ne_solve(CorrelatorGrid((3, 3), {c: values[c] for c in part}))
            for part in (corner, block)
        ]
        assert paths == [tuple(block)] * 2
        paths.clear()
        assert both.value == alone[0].value + alone[1].value
        assert (both.iterations, both.gap) == (alone[1].iterations, alone[1].gap)
        # the corner's optimum is t = 1/2 times the qubit one
        qubit = CorrelatorGrid((2, 2), {c: values[c] for c in corner})
        assert alone[0].value == 0.5 * solver.ne_solve(qubit).value


def test_agrees_with_every_closed_form_class():
    rng = np.random.default_rng(5)
    reps = ["XX,XY", "XZ,YZ", "XX,ZZ", "ZX,ZY,ZZ", "XX,YY,ZZ", "XX,XZ,ZX",
            "XX,XY,YZ", "XZ,YZ,ZX"]
    for label in reps:
        mset = MeasurementSet.parse(label)
        for _ in range(12):
            vals = rng.uniform(-1.0, 1.0, size=len(mset))
            g = CorrelatorGrid(
                (2, 2), {c: v for c, v in zip(mset.indices(), vals)}
            )
            ref = patterns.ne_closed_form(mset, g)
            got = _barrier(g, mset)
            assert got.value == pytest.approx(ref.value, abs=1e-6), label


def test_full_support_is_nuclear_norm():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dense = rng.uniform(-0.9, 0.9, size=(3, 3))
        g = CorrelatorGrid(
            (2, 2),
            {(i, j): dense[i, j] for i in range(3) for j in range(3)},
        )
        got = solver.ne_solve(g)
        assert got.value == pytest.approx(
            np.linalg.svd(dense, compute_uv=False).sum(), abs=1e-8
        )


def test_full_support_qutrit_scaled_nuclear_norm():
    rng = np.random.default_rng(13)
    for _ in range(4):
        dense = rng.uniform(-0.5, 0.5, size=(8, 8))
        g = CorrelatorGrid(
            (3, 3),
            {(i, j): dense[i, j] for i in range(8) for j in range(8)},
        )
        got = solver.ne_solve(g)
        assert got.value == pytest.approx(
            0.5 * np.linalg.svd(dense, compute_uv=False).sum(), abs=1e-8
        )


def test_full_support_barrier_path_is_nuclear_norm():
    # the data of the two tests above, which ne_solve now takes in closed
    # form, through the barrier path and its polish instead
    cases = [(9, 2, 3, 0.9, 20), (13, 3, 8, 0.5, 4)]
    for seed, d, side, bound, count in cases:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            dense = rng.uniform(-bound, bound, size=(side, side))
            g = CorrelatorGrid(
                (d, d), {(i, j): dense[i, j] for i in range(side) for j in range(side)}
            )
            got = _barrier(g, g.measured)
            assert got.iterations > 0
            assert got.value == pytest.approx(
                np.linalg.svd(dense, compute_uv=False).sum() / (d - 1), abs=1e-8
            )


def test_four_term_value_against_boundary_sampling():
    rng = np.random.default_rng(17)
    mset = MeasurementSet.parse("XX,XY,YX,ZZ")
    cells = mset.indices()
    vals = rng.uniform(-1.0, 1.0, size=4)
    g = CorrelatorGrid((2, 2), {c: v for c, v in zip(cells, vals)})
    got = solver.ne_solve(g, mset)
    # every spectral norm of the sampled coefficient matrices in one call
    batch = rng.standard_normal((200_000, 4))
    dense = np.zeros((len(batch), 3, 3))
    rows, cols = zip(*cells)
    dense[:, rows, cols] = batch
    best = float((np.abs(batch @ vals) / np.linalg.norm(dense, 2, axis=(1, 2))).max())
    assert got.value >= best - 1e-9
    assert got.value == pytest.approx(best, abs=2e-3)


def test_separable_states_stay_below_one():
    rng = np.random.default_rng(21)
    supports = [MeasurementSet.parse(s) for s in
                ("XX,YY,ZZ", "XX,XY,ZX", "XX,ZZ", "XY,YZ,ZX,XX")]
    for k in range(40):
        rho = qmodel.sample_separable(2, terms=3, seed=1000 + k)
        g = qmodel.correlator_grid(rho)
        for mset in supports:
            r = solver.ne_solve(g, mset)
            assert r.value <= 1.0 + 1e-6
            assert r.verdict == "undetected"


def test_entangled_bell_diagonal():
    g = _grid({"XX": 1.0, "YY": -1.0, "ZZ": 1.0})
    r = solver.ne_solve(g)
    assert r.value == pytest.approx(3.0, abs=1e-7)
    assert r.verdict == "entangled"
    assert r.witness is not None
    assert r.witness.bound == pytest.approx(1.0, abs=1e-9)


def test_zero_grid_short_circuit():
    g = _grid({"XX": 0.0, "ZZ": 0.0})
    r = solver.ne_solve(g)
    assert r.value == 0.0
    assert r.iterations == 0
    assert r.verdict == "undetected"


def test_monotone_report_nested_chain():
    g = _grid({"XX": 0.9, "YX": -0.7, "ZY": 0.6, "ZZ": 0.8})
    chain = [MeasurementSet.parse(s) for s in
             ("XX,ZZ", "XX,ZY,ZZ", "XX,YX,ZY,ZZ")]
    rep = solver.ne_monotone_report(chain, g)
    assert rep.monotone
    assert len(rep.values) == 3
    assert rep.values[0] <= rep.values[1] <= rep.values[2] + 1e-9
    assert rep.values[0] == pytest.approx(1.7, abs=1e-7)


def test_monotone_report_rejects_non_nested():
    g = _grid({"XX": 0.9, "ZZ": 0.8, "YY": 0.1})
    chain = [MeasurementSet.parse("XX,ZZ"), MeasurementSet.parse("XX,YY")]
    with pytest.raises(ValueError, match="nested"):
        solver.ne_monotone_report(chain, g)
    with pytest.raises(ValueError, match="empty"):
        solver.ne_monotone_report([], g)


def test_missing_correlator_raises():
    g = _grid({"XX": 0.5})
    with pytest.raises(ValueError, match="missing correlator"):
        solver.ne_solve(g, MeasurementSet.parse("XX,ZZ"))


def test_branch_tie_reports_plus():
    r = solver.ne_solve(MAIN)
    assert r.sign_branch == "+"
    flipped = CorrelatorGrid(
        (2, 2), {c: -MAIN.value_at(c) for c in MAIN.measured}
    )
    r2 = solver.ne_solve(flipped)
    assert r2.sign_branch == "+"
    assert r2.value == pytest.approx(r.value, abs=1e-9)
    # central symmetry: the flipped data's optimum is the negated one
    for a, b in zip(r2.coefficients.coeffs, r.coefficients.coeffs):
        assert a == pytest.approx(-b, abs=1e-6)


def test_solver_speed_on_worked_example():
    import time

    mset = MeasurementSet.parse("XX,XY,ZX")
    solver.ne_solve(MAIN, mset)  # warm the code path
    # best of three warm calls: one call alone times scheduler noise
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        solver.ne_solve(MAIN, mset)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.01


def test_line_pattern_on_the_separable_boundary_is_never_certified():
    # chi3 data on the line XX,XY,XZ sit exactly at NE = 1; the verdict
    # must not hinge on the last bit of the solver's arithmetic
    mset = MeasurementSet.parse("XX,XY,XZ")
    for mu_factor in (0.2, 0.05):
        opts = solver.SolverOptions(mu_factor=mu_factor)
        for k in range(1, 37):
            params = qmodel.StateFamilyParams("chi3", k * math.pi / 18)
            grid = qmodel.correlator_grid(qmodel.make_state(params))
            r = solver.ne_solve(grid, mset, opts)
            assert r.value == pytest.approx(1.0, abs=1e-8)
            assert r.verdict == "undetected", (mu_factor, k, r.value)


def test_pure_product_full_grid_is_rank_one_nuclear_norm():
    # a pure product state has a rank-one correlator matrix, so the optimal
    # face is degenerate and the Hessian loses rank to roundoff near mu = 0
    for seed in range(100):
        grid = qmodel.correlator_grid(qmodel.sample_separable(2, 1, seed=seed))
        r = solver.ne_solve(grid)
        nuclear = np.linalg.svd(grid.matrix(), compute_uv=False).sum()
        assert r.value == pytest.approx(nuclear, abs=1e-8)
        assert r.verdict == "undetected"


def _random_stack(rng):
    """Grids on one random support, with the stack's hard cases mixed in."""
    d = int(rng.integers(2, 4))
    side = d * d - 1
    if d == 2 and rng.random() < 0.25:
        # pure product states on the qubit grid less one cell, which is
        # not a complete block and takes the barrier path: singular Hessians
        cells = [(i, j) for i in range(3) for j in range(3)]
        del cells[int(rng.integers(9))]
        seeds = rng.integers(2**31, size=int(rng.integers(2, 26)))
        grids = [
            qmodel.correlator_grid(qmodel.sample_separable(2, 1, seed=int(s)))
            for s in seeds
        ]
        return cells, grids
    flat = rng.choice(side * side, size=int(rng.integers(2, 10)), replace=False)
    cells = [divmod(int(f), side) for f in flat]
    rows = []
    for _ in range(int(rng.integers(2, 26))):
        kind = rng.integers(4)
        if kind == 0:
            rows.append(np.zeros(len(cells)))
        elif kind == 1:  # +-1 values: the roundoff guard fires
            rows.append(rng.choice([-1.0, 1.0], size=len(cells)))
        else:
            rows.append(rng.uniform(-1.0, 1.0, size=len(cells)))
    grids = [
        CorrelatorGrid((d, d), {c: float(x) for c, x in zip(cells, row)})
        for row in rows
    ]
    return cells, grids


def test_stacked_solve_matches_each_grid_alone(monkeypatch):
    rng = np.random.default_rng(47)
    # the damped step from this grid's iterates leaves B(c) not PD to
    # roundoff, so the guard must halve it
    signs = {"XX": 1.0, "XZ": -1.0, "YX": 1.0, "YZ": -1.0, "ZX": -1.0, "ZY": -1.0}
    guarded = [_grid(signs), _grid(dict.fromkeys(signs, 0.5))]
    stacks = [_random_stack(rng) for _ in range(60)]
    stacks.append((guarded[0].measured, guarded))

    counts = {"stack failed": 0, "singular": 0}
    factor, step = solver._ActiveBlock.cholesky, solver._newton_step

    def counted_factor(self, c):
        out = factor(self, c)
        # a stack marks each row whose B(c) is not PD with a NaN factor
        counts["stack failed"] += c.ndim == 2 and bool(np.isnan(out[:, -1, -1]).any())
        return out

    def counted_step(hess, g):
        out = step(hess, g)
        # a singular H gets decrement 0 (in its row of a stack), which no
        # other H has while g != 0
        counts["singular"] += bool(np.any(out[1] == 0.0))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(solver._ActiveBlock, "cholesky", counted_factor)
        patch.setattr(solver, "_newton_step", counted_step)
        stacked = [solver.ne_solve_batch(grids, cells) for cells, grids in stacks]
    # the stacks reach the roundoff guard and the singular-Hessian rule
    assert counts["stack failed"] > 0 and counts["singular"] > 0

    kinds = set()
    for (cells, grids), results in zip(stacks, stacked):
        assert len(results) == len(grids)
        for grid, got in zip(grids, results):
            alone = solver.ne_solve(grid, cells)
            assert got.value == pytest.approx(alone.value, abs=1e-12)
            assert got.iterations == alone.iterations
            assert got.gap == alone.gap
            assert got.verdict == alone.verdict
            assert np.allclose(
                got.coefficients.coeffs, alone.coefficients.coeffs, atol=1e-9
            )
            kinds.add("zero" if alone.iterations == 0 else grid.dims)
    assert kinds == {"zero", (2, 2), (3, 3)}


def test_stacked_loop_factorizes_once_per_step(monkeypatch):
    calls = {"stack": 0, "single": 0}
    factor = solver._ActiveBlock.cholesky

    def counted(self, c):
        calls["stack" if c.ndim == 2 else "single"] += 1
        return factor(self, c)

    monkeypatch.setattr(solver._ActiveBlock, "cholesky", counted)
    rng = np.random.default_rng(53)
    blocks = 0
    for _ in range(10):
        d = int(rng.integers(2, 4))
        side = d * d - 1
        flat = rng.choice(side * side, size=5, replace=False)
        cells = [divmod(int(f), side) for f in flat]
        grids = [
            CorrelatorGrid((d, d), {c: float(rng.uniform(-1, 1)) for c in cells})
            for _ in range(8)
        ]
        calls.update(stack=0, single=0)
        results = solver.ne_solve_batch(grids)
        steps = max(r.iterations for r in results)
        if _has_block(cells):
            blocks += 1
            # one factorization at the start, then one per lockstep step
            assert calls == {"stack": steps + 1, "single": 0}
        else:
            assert calls == {"stack": 0, "single": 0} and steps == 0
    assert blocks > 5


def test_stacked_solve_needs_shared_dims_and_support():
    qubit = _grid({"XX": 0.5, "ZZ": 0.5})
    with pytest.raises(ValueError, match="support"):
        solver.ne_solve_batch([qubit, _grid({"XX": 0.5, "YY": 0.5})])
    qutrit = CorrelatorGrid((3, 3), {(0, 0): 0.5, (2, 2): 0.5})
    with pytest.raises(ValueError, match="dimensions"):
        solver.ne_solve_batch([qubit, qutrit], [(0, 0), (2, 2)])
    assert solver.ne_solve_batch([]) == []


def test_solver_failures_raise_solver_error():
    with pytest.raises(solver.SolverError, match="iteration limit") as single:
        solver.ne_solve(BLOCK, options=solver.SolverOptions(max_iter=1))
    with pytest.raises(solver.SolverError, match="iteration limit") as stacked:
        solver.ne_solve_batch([BLOCK, BLOCK], options=solver.SolverOptions(max_iter=1))
    # the message names the stage the path had reached, and the cap
    for caught in (single, stacked):
        assert "mu=" in str(caught.value) and "max_iter=1" in str(caught.value)
    # the stack reports the stage of a row that ran into the cap
    assert str(stacked.value) == str(single.value)


def test_a_stalled_line_search_names_its_stage():
    # a step so long that no halving above 1e-14 brings it back inside
    support = [(0, 0), (0, 1), (1, 1)]
    block = solver._ActiveBlock(support, 1.0)
    c, step = np.zeros(3), np.full(3, 1e20)
    message = r"line search stalled at stage mu=0\.04 \(Newton step 7\)"
    with solver._kernel_errstate():
        with pytest.raises(solver.SolverError, match=message):
            solver._guarded_step(block, c, step, 1.0, 0.04, 7)
        with pytest.raises(solver.SolverError, match=message):
            solver._guarded_step(
                block, np.zeros((2, 3)), np.stack([step, -step]),
                np.ones(2), np.full(2, 0.04), np.full(2, 7),
            )


def test_a_nan_step_length_stalls_instead_of_halving_forever():
    block = solver._ActiveBlock([(0, 0), (0, 1), (1, 1)], 1.0)
    message = r"line search stalled at stage mu=0\.04 \(Newton step 7\)"
    with solver._kernel_errstate():
        with pytest.raises(solver.SolverError, match=message):
            solver._guarded_step(block, np.zeros(3), np.ones(3), math.nan, 0.04, 7)
        with pytest.raises(solver.SolverError, match=message):
            solver._guarded_step(
                block, np.zeros((2, 3)), np.ones((2, 3)),
                np.array([1.0, math.nan]), np.full(2, 0.04), np.full(2, 7),
            )


def _staircase(rng, side):
    """Cells on two random rows and three random columns of a side x side
    grid, in a staircase: neither a line, a corner nor a complete block."""
    a, b = rng.choice(side, size=2, replace=False).tolist()
    x, y, z = rng.choice(side, size=3, replace=False).tolist()
    return [(a, x), (a, y), (b, y), (b, z)]


def _random_grid(rng, dims, staircase=False):
    """Random data on 2-9 random cells, joined by a random staircase if asked."""
    side = dims * dims - 1
    flat = rng.choice(side * side, size=int(rng.integers(2, 10)), replace=False)
    cells = [divmod(int(f), side) for f in flat]
    if staircase:
        cells += [c for c in _staircase(rng, side) if c not in cells]
    values = rng.uniform(-1.0, 1.0, size=len(cells))
    return CorrelatorGrid(
        (dims, dims), {c: float(x) for c, x in zip(cells, values)}
    )


def _dense_decrement(v, support, m, n, t, c, mu):
    """Newton decrement of -<v, c>/mu - log det B(c), from the dense B^-1."""
    size = m + n
    units = []
    for i, j in support:
        unit = np.zeros((size, size))
        unit[i, m + j] = unit[m + j, i] = 1.0
        units.append(unit)
    inverse = np.linalg.inv(t * np.eye(size) + sum(x * u for x, u in zip(c, units)))
    grad = -v / mu - np.array([np.trace(inverse @ u) for u in units])
    hess = np.array(
        [[np.trace(inverse @ a @ inverse @ b) for b in units] for a in units]
    )
    return math.sqrt(grad @ np.linalg.solve(hess, grad))


def test_returned_iterate_is_centered_on_its_last_stage(monkeypatch):
    # earlier stages stop at lambda <= 1/2; the last one must still reach
    # lambda <= 0.01, or gap = nu * mu would not bound the optimum
    ends = []
    maximize = solver._maximize

    def recorded(v, support, m, n, t, opts):
        out = maximize(v, support, m, n, t, opts)
        ends.append((v, support, m, n, t, out))
        return out

    monkeypatch.setattr(solver, "_maximize", recorded)
    rng = np.random.default_rng(59)
    # every other random support holds a staircase, which takes the path
    grids = [MAIN] + [
        _random_grid(rng, d, staircase=k % 2 == 1) for d in (2, 3) for k in range(12)
    ]
    for g in grids:
        solver.ne_solve(g)
    assert {g.dims for g in grids} == {(2, 2), (3, 3)}
    # lines, corners and complete blocks take their closed forms: one path
    # per grid with another component
    assert len(ends) == sum(_has_block(g.measured) for g in grids) > len(grids) / 2
    for v, support, m, n, t, (c, steps, gap) in ends:
        assert steps > 0
        assert _dense_decrement(v, support, m, n, t, c, gap / (m + n)) <= 0.01


def test_worked_example_takes_few_steps_on_the_short_path():
    got = _barrier(MAIN, MeasurementSet.parse("XX,XY,ZX"))
    assert got.value == pytest.approx(1.3512657203864136, abs=1e-12)
    assert got.iterations <= 15


def test_random_qubit_supports_take_few_steps_on_average():
    rng = np.random.default_rng(61)
    steps = [solver.ne_solve(_random_grid(rng, 2)).iterations for _ in range(50)]
    assert np.mean(steps) <= 45


def test_active_block_is_feasible_exactly_inside_the_norm_ball():
    # B(c) = [[tI, C], [C^T, tI]] is positive definite exactly when
    # sigma_1(C) < t, and rows the support leaves out only add t on the
    # diagonal, so both factorizations of the active block must agree
    rng = np.random.default_rng(19)
    cases = 0
    for da, db in ((2, 2), (2, 3), (3, 3)):
        m, n = da * da - 1, db * db - 1
        t = 1.0 / math.sqrt((da - 1) * (db - 1))
        for _ in range(60):
            k = int(rng.integers(1, 10))
            flat = rng.choice(m * n, size=k, replace=False)
            support = [(int(f // n), int(f % n)) for f in flat]
            cells = tuple(np.array(support).T)
            dense = np.zeros((m, n))
            dense[cells] = rng.normal(size=k)
            sigma = np.linalg.svd(dense, compute_uv=False)[0]
            dense *= t * rng.uniform(0.5, 1.5) / sigma
            c = dense[cells]
            ratio = np.linalg.svd(dense, compute_uv=False)[0] / t
            if abs(ratio - 1.0) < 1e-6:
                continue
            block = solver._ActiveBlock(support, t)
            inside = ratio < 1.0
            with solver._kernel_errstate():
                assert (block.cholesky(c) is not None) == inside
                # a stack keeps its row, a NaN matrix where B(c) is not PD
                stacked = block.cholesky(c[None])
                assert stacked.shape == (1,) + block.base.shape
                assert np.isfinite(stacked).all() if inside else np.isnan(stacked).all()
            cases += 1
    assert cases > 150


@pytest.mark.parametrize("scale", [1e-12, 1e-16, 1e-300])
def test_data_too_small_to_move_the_path_give_a_feasible_lower_bound(scale):
    # two lines take their closed form; on the two staircases below the path
    # ends at c = 0, in the stacked loop and in the scalar one
    tiny = solver.ne_solve(_grid({"XX": scale, "YY": -scale}))
    assert tiny.iterations == 0
    assert tiny.value == 2 * scale
    assert tiny.coefficients.coeffs == (1.0, -1.0)
    assert tiny.verdict == "undetected"
    shapes = [
        {"XX": 1.0, "YY": -1.0, "XY": 0.5, "YZ": 1.0},
        {"XX": -1.0, "YY": 1.0, "XY": 1.0, "YZ": 0.25},
    ]
    grids = [_grid({k: scale * v for k, v in s.items()}) for s in shapes]
    for shape, g, r in zip(shapes, grids, solver.ne_solve_batch(grids)):
        assert _bits(r) == _bits(solver.ne_solve(g))
        optimum = solver.ne_solve(_grid(shape)).value
        coeffs = dict(zip(r.coefficients.support, r.coefficients.coeffs))
        assert r.coefficients.operator_norm() <= 1.0 + 1e-12
        attained = abs(sum(c * g.value_at(cell) for cell, c in coeffs.items()))
        assert r.value == pytest.approx(attained, rel=1e-12)
        assert 0.0 < r.value <= scale * optimum * (1.0 + 1e-9)
        assert r.verdict == "undetected"


def test_split_value_lies_between_whole_barrier_path_and_its_gap():
    # the whole support through the barrier path, polished here, against
    # the split's closed forms plus its barrier on the remaining block
    rng = np.random.default_rng(67)
    tol = solver.SolverOptions().tol
    lines = 0
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        m, n = dims[0] ** 2 - 1, dims[1] ** 2 - 1
        t = 1.0 / math.sqrt((dims[0] - 1) * (dims[1] - 1))
        for _ in range(25):
            flat = rng.choice(m * n, size=int(rng.integers(2, 8)), replace=False)
            support = sorted((int(f // n), int(f % n)) for f in flat)
            v = rng.uniform(-1.0, 1.0, size=len(support))
            c, _, _ = solver._maximize(v, support, m, n, t, solver.SolverOptions())
            dense = np.zeros((m, n))
            dense[tuple(np.array(support).T)] = c
            barrier = abs(float(v @ c)) * t / np.linalg.svd(dense, compute_uv=False)[0]
            grid = CorrelatorGrid(dims, dict(zip(support, v.tolist())))
            split = solver.ne_solve(grid).value
            assert barrier - 1e-12 <= split <= barrier + tol, (dims, support)
            lines += not _has_block(support)
    assert lines > 10


def test_line_only_supports_factorize_nothing(monkeypatch):
    # counts one grid's factorizations and stacked ones alike
    calls = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(71)
    for dims in ((2, 2), (2, 3), (3, 3)):
        m, n = dims[0] ** 2 - 1, dims[1] ** 2 - 1
        t = 1.0 / math.sqrt((dims[0] - 1) * (dims[1] - 1))
        for _ in range(10):
            # a row line, a column line in other rows and columns, a lone cell
            rows = rng.permutation(m)
            cols = rng.permutation(n)
            row_line = [(int(rows[0]), int(j)) for j in cols[: int(rng.integers(1, n - 1))]]
            col_line = [(int(i), int(cols[-1])) for i in rows[1 : m - 1]]
            lines = [row_line, col_line, [(int(rows[-1]), int(cols[-2]))]]
            cells = [cell for line in lines for cell in line]
            assert not _has_block(cells)
            grids = [
                CorrelatorGrid(dims, {c: float(rng.uniform(-1, 1)) for c in cells})
                for _ in range(3)
            ]
            grids.append(CorrelatorGrid(dims, dict.fromkeys(cells, 0.0)))
            for got, g in zip(solver.ne_solve_batch(grids), grids):
                alone = solver.ne_solve(g)
                want = t * sum(math.hypot(*(g.value_at(c) for c in line)) for line in lines)
                for r in (got, alone):
                    assert (r.iterations, r.gap) == (0, 0.0)
                    assert r.value == pytest.approx(want, rel=1e-15, abs=0.0)
                    assert r.coefficients.operator_norm() <= t * (1.0 + 1e-15)
    assert calls[0] == 0


def test_stacks_mixing_lines_and_a_block_equal_each_grid_alone():
    rng = np.random.default_rng(73)
    blocks = 0
    # a qubit grid has no room for a line beside a component that takes the
    # barrier path, so the (3, 2) grid stands in for it
    for dims in ((3, 2), (2, 3), (3, 3)):
        m, n = dims[0] ** 2 - 1, dims[1] ** 2 - 1
        # laid out on the transposed grid when only three columns are there
        flip = n == 3
        p, q = (n, m) if flip else (m, n)
        for _ in range(8):
            # a staircase on two rows and three columns, plus lines elsewhere
            rows, cols = rng.permutation(p).tolist(), rng.permutation(q).tolist()
            block = [(rows[0], cols[0]), (rows[0], cols[1]),
                     (rows[1], cols[1]), (rows[1], cols[2])]
            wide = p > 3 and q > 3
            row_line = [(rows[2], j) for j in cols[3 : q - wide]]
            lines = row_line + [(rows[-1], cols[-1])] * wide
            if flip:
                block = [(j, i) for i, j in block]
                lines = [(j, i) for i, j in lines]
            cells = block + lines
            assert _has_block(cells)
            grids = [
                CorrelatorGrid(dims, {c: float(rng.uniform(-1, 1)) for c in cells})
                for _ in range(6)
            ]
            # zero data on the block, and zero data on the lines
            grids.append(CorrelatorGrid(dims, {c: (c in lines) * 0.5 for c in cells}))
            grids.append(CorrelatorGrid(dims, {c: (c in block) * 0.5 for c in cells}))
            stacked = solver.ne_solve_batch(grids, cells)
            for got, g in zip(stacked, grids):
                alone = solver.ne_solve(g, cells)
                assert got.value == pytest.approx(alone.value, abs=1e-12)
                assert (got.iterations, got.gap) == (alone.iterations, alone.gap)
                assert np.allclose(
                    got.coefficients.coeffs, alone.coefficients.coeffs, atol=1e-9
                )
                blocks += got.iterations > 0
            # zero data on the block take no path and report no gap
            assert (stacked[-2].iterations, stacked[-2].gap) == (0, 0.0)
            t = 1.0 / math.sqrt((dims[0] - 1) * (dims[1] - 1))
            assert stacked[-2].value == pytest.approx(
                t * 0.5 * (math.sqrt(len(row_line)) + wide), rel=1e-15
            )
    assert blocks == 7 * 24


def _bits(result):
    return (
        result.value.hex(),
        result.gap.hex(),
        result.iterations,
        tuple(float(c).hex() for c in result.coefficients.coeffs),
    )


def test_stacked_results_are_those_of_each_grid_alone_bit_for_bit():
    rng = np.random.default_rng(83)
    signs = {"XX": 1.0, "XZ": -1.0, "YX": 1.0, "YZ": -1.0, "ZX": -1.0, "ZY": -1.0}
    guarded = [_grid(signs), _grid(dict.fromkeys(signs, 0.5))]
    stacks = [_random_stack(rng) for _ in range(30)]
    stacks.append((guarded[0].measured, guarded))
    # two corners and a line at scales far apart: each corner of each grid
    # is solved at its own power of two
    cells = [(0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (3, 2), (5, 5), (5, 6)]
    scales = 10.0 ** -rng.integers(0, 300, size=(12, len(cells)))
    stacks.append((cells, [
        CorrelatorGrid((3, 3), dict(zip(cells, row.tolist())))
        for row in scales * rng.uniform(-1.0, 1.0, size=scales.shape)
    ]))
    # a 19-angle psi_theta sweep on a staircase at noise 0.1, and its rows
    # scaled down: the rows on the path stop 5 to 29 lockstep steps in, and a
    # stopped row stays in every later step
    cells = sorted(MeasurementSet.parse("XX,XY,YY,YZ"))
    full = qmodel.family_grid_values("psi_theta", np.linspace(-np.pi, np.pi, 19), 0.1)
    sweep = full[:, [3 * i + j for i, j in cells]]
    sweep = np.concatenate([sweep, sweep * 10.0 ** -(np.arange(19) % 5 * 2)[:, None]])
    stacks.append((cells, [
        CorrelatorGrid((2, 2), dict(zip(cells, row.tolist()))) for row in sweep
    ]))
    paths = 0
    for cells, grids in stacks:
        for grid, got in zip(grids, solver.ne_solve_batch(grids, cells)):
            alone = solver.ne_solve(grid, cells)
            assert _bits(got) == _bits(alone), (cells, sorted(grid.values.items()))
            paths += alone.iterations > 0
    assert paths > 100


def test_stacked_norms_and_bounds_are_the_single_matrix_svd_bit_for_bit():
    rng = np.random.default_rng(29)
    results = 0
    for cells, grids in [_random_stack(rng) for _ in range(40)]:
        for res in solver.ne_solve_batch(grids, cells):
            coefficients = res.coefficients
            dense = coefficients.dense()
            norm = float(np.linalg.svd(dense, compute_uv=False)[0])
            da, db = coefficients.dims
            assert coefficients.operator_norm() == norm
            assert res.witness.bound == math.sqrt((da - 1) * (db - 1)) * norm
            assert res.witness.expansion is coefficients
            # the matrix is what the checking constructor builds
            rebuilt = CoefficientMatrix(
                coefficients.dims, coefficients.support, coefficients.coeffs
            )
            assert rebuilt.support == coefficients.support == tuple(sorted(cells))
            assert rebuilt.coeffs == coefficients.coeffs
            assert rebuilt.operator_norm() == norm
            results += 1
    assert results > 300


@pytest.mark.parametrize(
    "support, coeffs, message",
    [
        (((0, 0), (1, 1)), [[0.5, 0.5], [0.5, np.nan]], "coefficients must be finite"),
        (((0, 0), (1, 1)), [[np.inf, 0.5]], "coefficients must be finite"),
        (((0, 0), (0, 3)), [[0.5, 0.5]], r"index pair \(0, 3\) outside basis range"),
        (((0, 0), (0, 0)), [[0.5, 0.5]], r"duplicate support entry \(0, 0\)"),
        (((0, 0),), [[0.5, 0.5]], "support and coefficients differ in length"),
    ],
)
def test_stacked_coefficients_are_checked_as_each_matrix_is(support, coeffs, message):
    with pytest.raises(ValueError, match=message):
        CoefficientMatrix((2, 2), support, tuple(coeffs[-1]))
    with pytest.raises(ValueError, match=message):
        CoefficientMatrix.stack((2, 2), support, np.array(coeffs))


def _inside(rng, count, k):
    """Rows c with ||C||_inf <= ||C||_F < 0.49: inside the ball of t = 0.5."""
    cs = rng.uniform(-1.0, 1.0, size=(count, k))
    return cs * 0.49 * rng.random((count, 1)) / np.linalg.norm(cs, axis=1, keepdims=True)


def _random_block(rng):
    """A random qutrit support (t = 0.5), its active block and a stack inside."""
    flat = rng.choice(64, size=int(rng.integers(2, 10)), replace=False)
    support = [divmod(int(f), 8) for f in flat]
    cs = _inside(rng, int(rng.integers(2, 8)), len(support))
    return support, solver._ActiveBlock(support, 0.5), cs


def test_kernels_give_each_row_of_a_stack_its_single_grid_bits():
    rng = np.random.default_rng(89)
    with solver._kernel_errstate():
        for _ in range(40):
            _, block, cs = _random_block(rng)
            k = cs.shape[1]
            chol = block.cholesky(cs)
            hess, diag = solver._derivatives(block, chol, k)
            g = rng.uniform(-1.0, 1.0, size=cs.shape) + diag
            step, lambda_sq = solver._newton_step(hess, g)
            for row, c in enumerate(cs):
                one = block.cholesky(c)
                assert np.array_equal(chol[row], one)
                h, d = solver._derivatives(block, one, k)
                assert np.array_equal(hess[row], h) and np.array_equal(diag[row], d)
                s, sq = solver._newton_step(h, g[row])
                assert np.array_equal(step[row], s) and lambda_sq[row] == sq
            # a singular Hessian gets step 0 and decrement 0; the others keep theirs
            singular = int(rng.integers(len(cs)))
            hess[singular] = 0.0
            fallback, fallback_sq = solver._newton_step(hess, g)
            assert not fallback[singular].any() and fallback_sq[singular] == 0.0
            others = np.arange(len(cs)) != singular
            assert np.array_equal(fallback[others], step[others])
            assert np.array_equal(fallback_sq[others], lambda_sq[others])


def test_a_singular_hessian_gives_no_step():
    g = np.array([0.5, -1.0, 0.25])
    repeated = np.array([[2.0, 1.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with solver._kernel_errstate():
        for hess in (np.zeros((3, 3)), repeated):
            assert solver._newton_step(hess, g) == (None, 0.0)


def test_guarded_stack_halves_only_the_rows_that_leave_the_ball():
    rng = np.random.default_rng(97)
    with solver._kernel_errstate():
        for _ in range(40):
            support, block, cs = _random_block(rng)
            alpha = rng.uniform(0.5, 1.0, size=len(cs))
            steps = (_inside(rng, *cs.shape) - cs) / alpha[:, None]
            # one row steps from c = 0 to sigma_1(C) = 0.75: its full step leaves
            # the ball of t = 0.5, its halved step stays inside
            out = int(rng.integers(len(cs)))
            cells = tuple(np.array(support).T)
            dense = np.zeros((8, 8))
            dense[cells] = rng.normal(size=len(support))
            dense *= 0.75 / np.linalg.svd(dense, compute_uv=False)[0]
            cs[out], steps[out], alpha[out] = 0.0, dense[cells], 1.0
            stage = np.ones(len(cs)), np.ones(len(cs), dtype=int)
            trial, chol = solver._guarded_step(block, cs, steps, alpha, *stage)
            for row in range(len(cs)):
                one, factor = solver._guarded_step(
                    block, cs[row], steps[row], alpha[row], 1.0, 1
                )
                assert np.array_equal(trial[row], one) and np.array_equal(chol[row], factor)
                taken = alpha[row] * (0.5 if row == out else 1.0)
                assert np.array_equal(one, cs[row] + taken * steps[row])


def _matrices(rng, side):
    """A stack of PD, indefinite and singular (side, side) matrices."""
    a = rng.normal(size=(side, side))
    pd = a @ a.T + side * np.eye(side)
    repeated = rng.normal(size=(side, side))
    repeated[-1] = repeated[0]
    rank_one = np.outer(a[0], a[0])
    return np.stack([
        pd, a + a.T, -pd, np.zeros((side, side)), repeated, rank_one, pd + a + a.T,
    ])


def test_bound_gufuncs_give_the_public_bits_or_nan_where_it_raises():
    # the Newton kernels call numpy's private linalg gufuncs: an import
    # error or a missing name here means numpy moved them
    from numpy.linalg import _umath_linalg

    assert solver._lapack is _umath_linalg
    kernels = {
        "cholesky_lo": (np.linalg.cholesky, lambda a, b: (a,)),
        "inv": (np.linalg.inv, lambda a, b: (a,)),
        "solve1": (np.linalg.solve, lambda a, b: (a, b)),
        "solve": (np.linalg.solve, lambda a, b: (a, b[..., None])),
    }
    rng = np.random.default_rng(211)
    outcomes = {(name, ok): 0 for name in kernels for ok in (True, False)}
    with solver._kernel_errstate():
        for side in (1, 2, 3, 8, 12, 16):
            stack = _matrices(rng, side)
            rhs = rng.normal(size=(len(stack), side))
            for name, (public, args) in kernels.items():
                kernel = getattr(_umath_linalg, name)
                assert isinstance(kernel, np.ufunc), name
                stacked = kernel(*args(stack, rhs))
                for row in range(len(stack)):
                    one = kernel(*args(stack[row], rhs[row]))
                    try:
                        want = public(*args(stack[row], rhs[row]))
                    except np.linalg.LinAlgError:
                        assert np.isnan(one).all() and np.isnan(stacked[row]).all()
                        outcomes[name, False] += 1
                    else:
                        assert np.array_equal(one, want), (name, side, row)
                        assert np.array_equal(stacked[row], want), (name, side, row)
                        outcomes[name, True] += 1
                # a stack the public function takes whole gives its bits too;
                # numpy 2 reads a 2-D b as one matrix, so solve1 is left out
                if name != "solve1":
                    pd = stack[[0, 0]] if name == "cholesky_lo" else stack[[0, 2]]
                    whole = args(pd, rhs[:2])
                    assert np.array_equal(kernel(*whole), public(*whole)), name
    # every kernel both succeeded and failed
    assert min(outcomes.values()) > 0, outcomes


# the parent of the gufunc kernels gave these (value, gap, steps,
# coefficients); GUARD and its scalings reach the roundoff guard
SIGNS = {"XX": 1.0, "XZ": -1.0, "YX": 1.0, "YZ": -1.0, "ZX": -1.0, "ZY": -1.0}
GUARD = {"XX": 1.0, "XY": 1.0, "YX": -1.0, "YY": -1.0, "ZX": -1.0, "ZY": -1.0, "ZZ": -1.0}
PINNED_GRIDS = {
    "block": BLOCK,
    "qutrit": CorrelatorGrid((3, 3), {
        (0, 0): 0.5, (0, 1): -0.25, (1, 1): 0.375, (1, 2): 0.125, (2, 2): -0.3,
    }),
    "signs": _grid(SIGNS),
    "guard": _grid(GUARD),
    "guard/2": _grid({k: 0.5 * v for k, v in GUARD.items()}),
    "guard*3/4": _grid({k: 0.75 * v for k, v in GUARD.items()}),
}
PINNED = {
    "block": (
        "0x1.b980c52087974p+0",
        "0x1.51c51ce3718e5p-28",
        29,
        (
            "0x1.fffffffd055fap-1",
            "-0x1.bbdcb59ab7c4cp-31",
            "0x1.f0b684895442bp-1",
            "0x1.f0b6848bee0dbp-3",
        ),
    ),
    "qutrit": (
        "0x1.2ccccccacecf2p-1",
        "0x1.6849b86a12ba0p-29",
        42,
        (
            "0x1.fffffffb5a048p-2",
            "-0x1.683c3c9c23797p-31",
            "0x1.fffffff753aadp-2",
            "0x1.d0d1daa0626bdp-32",
            "-0x1.fffffff8e682ep-2",
        ),
    ),
    "signs": (
        "0x1.7fffffff1ef54p+1",
        "0x1.51c51ce3718e5p-28",
        30,
        (
            "0x1.fff3e874fdda6p-2",
            "-0x1.000483d1441a4p-1",
            "0x1.000173e9f796fp-1",
            "-0x1.fffa084397d6bp-2",
            "-0x1.87f3a6ba2d7d9p-15",
            "-0x1.fffcf0165a626p-1",
        ),
    ),
    "guard": (
        "0x1.7fffffff209bap+1",
        "0x1.51c51ce3718e5p-28",
        30,
        (
            "0x1.7ef023809d6b3p-1",
            "0x1.021cabf14a391p-2",
            "-0x1.0220cbcb5c65fp-2",
            "-0x1.7eee1399da6d8p-1",
            "-0x1.fa42786eb23aep-18",
            "-0x1.473ab68cf58eap-15",
            "-0x1.fffcf2f7a0db0p-1",
        ),
    ),
    "guard/2": (
        "0x1.7ffffffe3de93p+0",
        "0x1.51c51ce3718e5p-28",
        29,
        (
            "0x1.00021e86086d7p-1",
            "0x1.fff76e561aa3dp-2",
            "-0x1.fff76dfe2f092p-2",
            "-0x1.00021eb1fdceep-1",
            "-0x1.1531dc8a91298p-15",
            "-0x1.151be1e26f1d0p-15",
            "-0x1.fffbab5fd2dddp-1",
        ),
    ),
    "guard*3/4": (
        "0x1.1fffffff1ef42p+1",
        "0x1.51c51ce3718e5p-28",
        30,
        (
            "0x1.fff61457a6a09p-2",
            "0x1.0003313c50e4cp-1",
            "-0x1.000331319742dp-1",
            "-0x1.fff6146d19d6dp-2",
            "-0x1.c49c7093e0201p-16",
            "-0x1.c491b6fae0559p-16",
            "-0x1.fffc76ceb83fdp-1",
        ),
    ),
}


def test_path_solves_keep_the_parents_bits_without_warnings(monkeypatch):
    counts = {}
    factor = solver._ActiveBlock.cholesky

    def counted(self, c):
        out = factor(self, c)
        if c.ndim == 1:
            counts["single"] = counts.get("single", 0) + 1
            counts["single failed"] = counts.get("single failed", 0) + (out is None)
        else:
            rows = int(np.isnan(out[:, -1, -1]).sum())
            counts["rows failed"] = counts.get("rows failed", 0) + rows
        return out

    monkeypatch.setattr(solver._ActiveBlock, "cholesky", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, grid in PINNED_GRIDS.items():
            assert _bits(solver.ne_solve(grid)) == PINNED[name], name
            for got in solver.ne_solve_batch([grid] * 10):
                assert _bits(got) == PINNED[name], name
        counts.clear()
        solver.ne_solve(PINNED_GRIDS["guard"])
        alone = counts["single failed"]
        # a stack of GUARD and its scalings: only GUARD's rows leave the ball
        names = ["guard", "guard/2", "guard*3/4", "guard"]
        counts.clear()
        mixed = solver.ne_solve_batch([PINNED_GRIDS[n] for n in names])
        assert [_bits(got) for got in mixed] == [PINNED[n] for n in names]
    # the two GUARD rows left the ball on one step and were each halved as
    # GUARD alone is, ending on one factor that succeeds; the other rows kept
    # their stacked factor
    assert alone > 0
    assert counts == {
        "rows failed": 2, "single": 2 * alone + 2, "single failed": 2 * alone,
    }


# -- complete blocks ------------------------------------------------------------


def _complete(rng, dims, shape, scale=1.0):
    """Random data on a complete block of the given shape, at random rows and
    columns, and the block as a dense (rows, columns) matrix."""
    m, n = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    rows = sorted(rng.choice(m, size=shape[0], replace=False).tolist())
    cols = sorted(rng.choice(n, size=shape[1], replace=False).tolist())
    dense = scale * rng.uniform(-1.0, 1.0, size=shape)
    values = {
        (i, j): float(dense[a, b]) for a, i in enumerate(rows) for b, j in enumerate(cols)
    }
    return CorrelatorGrid(dims, values), dense


def _t(dims):
    return 1.0 / math.sqrt((dims[0] - 1) * (dims[1] - 1))


@pytest.mark.parametrize(
    "dims, shape",
    [((2, 2), (2, 3)), ((2, 2), (3, 3)), ((2, 4), (3, 15)), ((3, 3), (8, 8))],
)
def test_complete_blocks_are_t_times_the_nuclear_norm_on_the_boundary(
    monkeypatch, dims, shape
):
    calls = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(107)
    t = _t(dims)
    for _ in range(20):
        g, dense = _complete(rng, dims, shape)
        got = solver.ne_solve(g)
        assert (got.iterations, got.gap) == (0, 0.0)
        nuclear = np.linalg.svd(dense, compute_uv=False).sum()
        assert got.value == pytest.approx(t * nuclear, rel=1e-14)
        assert abs(got.coefficients.operator_norm() - t) <= 1e-15
        data = np.array([g.value_at(c) for c in got.coefficients.support])
        attained = float(data @ np.array(got.coefficients.coeffs))
        assert attained == pytest.approx(got.value, rel=1e-13)
    assert calls[0] == 0


def test_rank_one_complete_blocks_are_pure_product_states():
    for d in (2, 3):
        t = _t((d, d))
        for seed in range(20):
            grid = qmodel.correlator_grid(qmodel.sample_separable(d, 1, seed=seed))
            got = solver.ne_solve(grid)
            # the correlator matrix of a pure product state is an outer
            # product, whose nuclear norm is its Frobenius norm
            assert (got.iterations, got.gap) == (0, 0.0)
            assert got.value == pytest.approx(t * np.linalg.norm(grid.matrix()), rel=1e-14)
            assert abs(got.coefficients.operator_norm() - t) <= 1e-15
            assert got.verdict == "undetected"


@pytest.mark.parametrize("scale", [1e-150, 1e-300])
def test_complete_blocks_far_below_one_keep_their_closed_form(scale):
    rng = np.random.default_rng(109)
    for dims, shape in (((2, 2), (3, 3)), ((3, 3), (8, 8)), ((2, 3), (3, 2))):
        t = _t(dims)
        for _ in range(10):
            unit, dense = _complete(rng, dims, shape)
            tiny = CorrelatorGrid(dims, {c: scale * v for c, v in unit.values.items()})
            got, ref = solver.ne_solve(tiny), solver.ne_solve(unit)
            assert (got.iterations, got.gap) == (0, 0.0)
            assert got.value == pytest.approx(scale * ref.value, rel=1e-14, abs=0.0)
            assert abs(got.coefficients.operator_norm() - t) <= 1e-15
            assert np.allclose(got.coefficients.coeffs, ref.coefficients.coeffs, atol=1e-14)
            assert got.verdict == "undetected"


def test_a_zero_complete_block_keeps_zero_coefficients():
    block = [(i, j) for i in range(2) for j in range(3)]
    line = [(5, 6), (5, 7)]
    g = CorrelatorGrid((3, 3), {**dict.fromkeys(block, 0.0), (5, 6): 0.3, (5, 7): -0.4})
    got = solver.ne_solve(g)
    assert (got.iterations, got.gap) == (0, 0.0)
    assert got.value == 0.5 * math.hypot(0.3, 0.4)
    coeffs = dict(zip(got.coefficients.support, got.coefficients.coeffs))
    assert all(coeffs[c] == 0.0 for c in block)
    assert [coeffs[c] for c in line] == pytest.approx([0.3, -0.4], rel=1e-15)
    # all zero: the witness still gets its one nonzero coefficient
    zero = solver.ne_solve(CorrelatorGrid((3, 3), dict.fromkeys(block, 0.0)))
    assert zero.value == 0.0
    assert zero.coefficients.coeffs == (0.5,) + (0.0,) * 5


def test_a_complete_block_beside_lines_a_corner_and_a_path_component(monkeypatch):
    paths = []
    maximize = solver._maximize

    def recorded(v, support, m, n, t, opts):
        paths.append(tuple(support))
        return maximize(v, support, m, n, t, opts)

    monkeypatch.setattr(solver, "_maximize", recorded)
    rng = np.random.default_rng(113)
    # in that order the components are summed: lines, corner, block, path
    parts = [
        [(6, 7), (7, 7)],
        [(2, 2), (2, 3), (3, 2)],
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        [(4, 4), (4, 5), (5, 5), (5, 6)],
    ]
    for _ in range(10):
        values = {c: float(rng.uniform(-1.0, 1.0)) for part in parts for c in part}
        both = solver.ne_solve(CorrelatorGrid((3, 3), values))
        alone = [
            solver.ne_solve(CorrelatorGrid((3, 3), {c: values[c] for c in part}))
            for part in parts
        ]
        assert paths == [tuple(parts[-1])] * 2
        paths.clear()
        assert both.value == sum(r.value for r in alone)
        assert (both.iterations, both.gap) == (alone[-1].iterations, alone[-1].gap)
        assert alone[-1].iterations > 0
        coeffs = dict(zip(both.coefficients.support, both.coefficients.coeffs))
        for r in alone:
            assert r.coefficients.coeffs == tuple(coeffs[c] for c in r.coefficients.support)


def test_stacks_with_complete_blocks_equal_each_grid_alone_bit_for_bit():
    rng = np.random.default_rng(127)
    supports = [
        ((2, 2), [(i, j) for i in range(3) for j in range(3)]),
        ((2, 4), [(i, j) for i in range(3) for j in range(15)]),
        ((3, 3), [(i, j) for i in range(8) for j in range(8)]),
        # two complete blocks of different shapes, a corner, a staircase and
        # two lines
        ((4, 4), [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (2, 4), (3, 2),
                  (3, 3), (3, 4), (4, 5), (4, 6), (5, 5), (6, 7), (6, 8), (7, 8),
                  (7, 9), (8, 10), (8, 11), (9, 12)]),
    ]
    for dims, cells in supports:
        rows = [rng.uniform(-1.0, 1.0, size=len(cells)) for _ in range(8)]
        rows += [np.zeros(len(cells)), rng.choice([-1.0, 1.0], size=len(cells))]
        # cells at scales far apart, and zero data but on the first four cells
        rows += [10.0 ** -rng.integers(0, 300, size=len(cells)) * rows[0]]
        rows += [rows[1] * (np.arange(len(cells)) < 4)]
        grids = [CorrelatorGrid(dims, dict(zip(cells, row.tolist()))) for row in rows]
        for grid, got in zip(grids, solver.ne_solve_batch(grids, cells)):
            assert _bits(got) == _bits(solver.ne_solve(grid, cells))
