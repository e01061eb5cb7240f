"""Interior-point solver against closed forms, identities, and sampling."""

import itertools
import math

import numpy as np
import pytest

from entcert import patterns, qmodel, solver
from entcert.grids import CorrelatorGrid, MeasurementSet
from entcert.witness import CoefficientMatrix, NEResult


def _grid(d):
    return CorrelatorGrid.from_labels(d)


# the worked example is a corner, which ne_solve takes in closed form;
# BLOCK is a full 2 x 2 block, which takes the barrier path
MAIN = _grid({"XX": -0.95, "XY": 0.03, "ZX": -0.96})
BLOCK = _grid({"XX": 0.9, "XY": -0.3, "YX": 0.2, "YY": 0.8})


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
    columns) spans two rows and two columns and holds more than three cells,
    so that it is neither a line nor a corner."""
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
        if len(rows) > 1 and len(cols) > 1 and len(component) > 3:
            return True
    return False


def test_every_damped_step_is_feasible_first_time(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(31)
    blocks = 0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        side = d * d - 1
        cells = rng.choice(side * side, size=int(rng.integers(2, 10)), replace=False)
        values = rng.uniform(-1.0, 1.0, size=len(cells))
        g = CorrelatorGrid(
            (d, d), {divmod(int(c), side): float(v) for c, v in zip(cells, values)}
        )
        calls[0] = 0
        got = solver.ne_solve(g)
        if _has_block(g.measured):
            blocks += 1
            assert calls[0] == got.iterations + 1, sorted(g.values.items())
        else:
            # only lines and corners: closed forms, no barrier path
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
    block = [(2, 2), (2, 3), (3, 2), (3, 3)]
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


def test_four_term_value_against_boundary_sampling():
    rng = np.random.default_rng(17)
    mset = MeasurementSet.parse("XX,XY,YX,ZZ")
    cells = mset.indices()
    vals = rng.uniform(-1.0, 1.0, size=4)
    g = CorrelatorGrid((2, 2), {c: v for c, v in zip(cells, vals)})
    got = solver.ne_solve(g, mset)
    best = 0.0
    for row in rng.standard_normal((200_000, 4)):
        dense = np.zeros((3, 3))
        for k, (i, j) in enumerate(cells):
            dense[i, j] = row[k]
        nrm = np.linalg.norm(dense, 2)
        val = abs(float(vals @ row)) / nrm
        best = max(best, val)
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
        # pure product states on the full qubit grid: singular Hessians
        cells = [(i, j) for i in range(3) for j in range(3)]
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
        counts["stack failed"] += c.ndim == 2 and out is None
        return out

    def counted_step(hess, g):
        out = step(hess, g)
        counts["singular"] += out[0] is None
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
    with pytest.raises(solver.SolverError, match="iteration limit"):
        solver.ne_solve(BLOCK, options=solver.SolverOptions(max_iter=1))
    with pytest.raises(solver.SolverError, match="iteration limit"):
        solver.ne_solve_batch([BLOCK, BLOCK], options=solver.SolverOptions(max_iter=1))


def _random_grid(rng, dims):
    side = dims * dims - 1
    flat = rng.choice(side * side, size=int(rng.integers(2, 10)), replace=False)
    values = rng.uniform(-1.0, 1.0, size=len(flat))
    return CorrelatorGrid(
        (dims, dims), {divmod(int(f), side): float(x) for f, x in zip(flat, values)}
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
    grids = [MAIN] + [_random_grid(rng, d) for d in (2, 3) for _ in range(12)]
    for g in grids:
        solver.ne_solve(g)
    assert {g.dims for g in grids} == {(2, 2), (3, 3)}
    # lines and corners take their closed forms: one path per grid with a block
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
            assert (block.cholesky(c) is not None) == inside
            assert (block.cholesky(c[None]) is not None) == inside
            cases += 1
    assert cases > 150


@pytest.mark.parametrize("scale", [1e-12, 1e-16, 1e-300])
def test_data_too_small_to_move_the_path_give_a_feasible_lower_bound(scale):
    # the path ends at c = 0 here: the scalar loop gets one grid, the stacked
    # loop two
    tiny = solver.ne_solve(_grid({"XX": scale, "YY": -scale}))
    assert tiny.iterations == 0
    assert tiny.value == 2 * scale
    assert tiny.coefficients.coeffs == (1.0, -1.0)
    assert tiny.verdict == "undetected"
    shapes = [
        {"XX": 1.0, "YY": -1.0, "XY": 0.5, "ZZ": 1.0},
        {"XX": -1.0, "YY": 1.0, "XY": 1.0, "ZZ": 0.25},
    ]
    grids = [_grid({k: scale * v for k, v in s.items()}) for s in shapes]
    for shape, g, r in zip(shapes, grids, solver.ne_solve_batch(grids)):
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
    for dims in ((2, 2), (2, 3), (3, 3)):
        m, n = dims[0] ** 2 - 1, dims[1] ** 2 - 1
        for _ in range(8):
            # a full block on two rows and two columns, plus lines elsewhere
            rows, cols = rng.permutation(m), rng.permutation(n)
            block = [(int(i), int(j)) for i in rows[:2] for j in cols[:2]]
            wide = m > 3 and n > 3
            row_line = [(int(rows[2]), int(j)) for j in cols[2 : n - wide]]
            lines = row_line + [(int(rows[-1]), int(cols[-1]))] * wide
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
    paths = 0
    for cells, grids in stacks:
        for grid, got in zip(grids, solver.ne_solve_batch(grids, cells)):
            alone = solver.ne_solve(grid, cells)
            assert _bits(got) == _bits(alone), (cells, sorted(grid.values.items()))
            paths += alone.iterations > 0
    assert paths > 100


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


def test_guarded_stack_halves_only_the_rows_that_leave_the_ball():
    rng = np.random.default_rng(97)
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
        trial, chol = solver._guarded_step(block, cs, steps, alpha)
        for row in range(len(cs)):
            one, factor = solver._guarded_step(block, cs[row], steps[row], alpha[row])
            assert np.array_equal(trial[row], one) and np.array_equal(chol[row], factor)
            taken = alpha[row] * (0.5 if row == out else 1.0)
            assert np.array_equal(one, cs[row] + taken * steps[row])
