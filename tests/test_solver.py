"""Interior-point solver against closed forms, identities, and sampling."""

import math

import numpy as np
import pytest

from entcert import patterns, qmodel, solver
from entcert.grids import CorrelatorGrid, MeasurementSet


def _grid(d):
    return CorrelatorGrid.from_labels(d)


MAIN = _grid({"XX": -0.95, "XY": 0.03, "ZX": -0.96})


def test_options_validation():
    with pytest.raises(ValueError):
        solver.SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        solver.SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        solver.SolverOptions(mu_factor=1.0)


def test_worked_example_matches_closed_form():
    mset = MeasurementSet.parse("XX,XY,ZX")
    got = solver.ne_solve(MAIN, mset)
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
    got = solver.ne_solve(MAIN, MeasurementSet.parse("XX,XY,ZX"))
    assert got.value == pytest.approx(1.3512657203864136, abs=1e-12)
    assert got.iterations <= 25
    # one factorization at the start, then one per accepted step
    assert calls[0] == got.iterations + 1


def test_every_damped_step_is_feasible_first_time(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(31)
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
        assert calls[0] == got.iterations + 1, sorted(g.values.items())


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
            got = solver.ne_solve(g, mset)
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
    stack, step = solver._ActiveBlock.cholesky_stack, solver._newton_step

    def counted_stack(self, cs):
        out = stack(self, cs)
        counts["stack failed"] += out is None
        return out

    def counted_step(hess, g):
        out = step(hess, g)
        counts["singular"] += out[0] is None
        return out

    with monkeypatch.context() as patch:
        patch.setattr(solver._ActiveBlock, "cholesky_stack", counted_stack)
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
    stack, single = solver._ActiveBlock.cholesky_stack, solver._ActiveBlock.cholesky

    def counted_stack(self, cs):
        calls["stack"] += 1
        return stack(self, cs)

    def counted_single(self, c):
        calls["single"] += 1
        return single(self, c)

    monkeypatch.setattr(solver._ActiveBlock, "cholesky_stack", counted_stack)
    monkeypatch.setattr(solver._ActiveBlock, "cholesky", counted_single)
    rng = np.random.default_rng(53)
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
        # one factorization at the start, then one per lockstep step
        assert calls == {"stack": max(r.iterations for r in results) + 1, "single": 0}


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
        solver.ne_solve(MAIN, options=solver.SolverOptions(max_iter=1))
    with pytest.raises(solver.SolverError, match="iteration limit"):
        solver.ne_solve_batch([MAIN, MAIN], options=solver.SolverOptions(max_iter=1))


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
    assert len(ends) == len(grids)
    for v, support, m, n, t, (c, steps, gap) in ends:
        assert steps > 0
        assert _dense_decrement(v, support, m, n, t, c, gap / (m + n)) <= 0.01


def test_worked_example_takes_few_steps_on_the_short_path():
    got = solver.ne_solve(MAIN, MeasurementSet.parse("XX,XY,ZX"))
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
            assert (block.cholesky_stack(c[None]) is not None) == inside
            cases += 1
    assert cases > 150
