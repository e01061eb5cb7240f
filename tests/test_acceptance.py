"""Acceptance suite: headline numbers the library must reproduce.

Each test pins an end-to-end behavior -- solver values on reference data,
exact identities for named state families, soundness on separable states,
closed-form/iterative agreement, the relabeling census, and the
product-state search -- together with runtime budgets where performance
is part of the contract.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from entcert import multipartite as mp
from entcert import patterns, qmodel, solver
from entcert.grids import CorrelatorGrid, MeasurementSet
from entcert.multipartite import ObservableSum, spi_lambda_max
from entcert.qmodel import StateFamilyParams, correlator_grid, make_state
from entcert.solver import SolverOptions
from entcert.witness import decide, evaluate_witness
from nested import ne_monotone_report

_AXES = "XYZ"


def _cell(label):
    return (_AXES.index(label[0]), _AXES.index(label[1]))


def _split_reconstruction(support, weights, value, sub_support, sub_value):
    """Correlators consistent with a reported pair of optima.

    The four-entry support splits into two dominoes occupying disjoint
    rows and columns, so the optimal value is the sum of the blocks'
    Euclidean data norms and the reported coefficients fix each block's
    direction.  The reported three-entry optimum (same support minus one
    cell) pins how the total splits across the blocks.
    """
    cells = {lab: _cell(lab) for lab in support}
    blocks = None
    for first in itertools.combinations(support, 2):
        second = tuple(lab for lab in support if lab not in first)
        groups = (first, second)
        pairs = [tuple(cells[lab] for lab in grp) for grp in groups]
        if any(p[0][0] != p[1][0] and p[0][1] != p[1][1] for p in pairs):
            continue
        rows = [{c[0] for c in p} for p in pairs]
        cols = [{c[1] for c in p} for p in pairs]
        if rows[0] & rows[1] or cols[0] & cols[1]:
            continue
        blocks = groups
        break
    assert blocks is not None, "support does not split into disjoint dominoes"
    w = dict(zip(support, weights))
    (dropped,) = set(support) - set(sub_support)
    inner = blocks[0] if dropped in blocks[0] else blocks[1]
    outer = blocks[1] if inner is blocks[0] else blocks[0]
    unit = {}
    for grp in blocks:
        vec = np.array([w[lab] for lab in grp])
        unit[grp] = vec / np.linalg.norm(vec)
    kept = next(lab for lab in inner if lab != dropped)
    kept_weight = abs(unit[inner][inner.index(kept)])
    s_inner = (value - sub_value) / (1.0 - kept_weight)
    s_outer = value - s_inner
    assert 0.0 < s_inner < value
    data = {}
    for grp, s in ((inner, s_inner), (outer, s_outer)):
        for lab, u in zip(grp, unit[grp]):
            data[lab] = float(s * u)
    return data


def test_worked_example_value_coefficients_and_speed():
    grid = CorrelatorGrid.from_labels({"XX": -0.95, "XY": 0.03, "ZX": -0.96})
    res = solver.ne_solve(grid)
    assert res.value == pytest.approx(1.35, abs=0.01)
    assert res.verdict == "entangled"
    got = np.array([res.coefficients.label_dict()[k] for k in ("XX", "XY", "ZX")])
    want = np.array([-0.70, 0.04, -0.71])
    deviation = min(np.abs(got - want).max(), np.abs(got + want).max())
    assert deviation <= 0.02
    # warmed timing: the call above already paid any one-off costs
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        solver.ne_solve(grid)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.010


_REFERENCE_FORMS = (
    ({"XX": 1.0, "ZZ": 1.0}, 1.36),
    ({"XX": 1.0, "ZY": 0.67, "ZZ": 0.74}, 1.60),
    ({"XX": 0.76, "YX": -0.65, "ZY": 0.67, "ZZ": 0.74}, 1.82),
)


def test_nested_estimation_rows_and_monotone_report():
    data = _split_reconstruction(
        support=("XX", "YX", "ZY", "ZZ"),
        weights=(0.76, -0.65, 0.67, 0.74),
        value=1.82,
        sub_support=("XX", "ZY", "ZZ"),
        sub_value=1.60,
    )
    for form, expected in _REFERENCE_FORMS:
        got = abs(sum(w * data[lab] for lab, w in form.items()))
        assert got == pytest.approx(expected, abs=0.02)
    grid = CorrelatorGrid.from_labels(data)
    chain = [
        MeasurementSet.parse(s) for s in ("XX,ZZ", "XX,ZY,ZZ", "XX,YX,ZY,ZZ")
    ]
    report = ne_monotone_report(chain, grid)
    assert report.monotone
    assert np.allclose(report.values, (1.36, 1.60, 1.82), atol=0.02)


def test_bell_diagonal_and_rotation_family_identities():
    bell = correlator_grid(make_state(StateFamilyParams("bell")))
    res = patterns.ne_closed_form(MeasurementSet.parse("XX,YY,ZZ"), bell)
    assert abs(res.value - 3.0) <= 1e-9
    mset = MeasurementSet.parse("XX,ZZ")
    for theta in np.linspace(-math.pi, math.pi, 19):
        params = StateFamilyParams("psi_theta", float(theta))
        grid = correlator_grid(make_state(params))
        got = patterns.ne_closed_form(mset, grid).value
        assert abs(got - (1.0 + abs(math.sin(2.0 * theta)))) <= 1e-9


def test_line_patterns_never_certify():
    rng = np.random.default_rng(41)
    lines = [MeasurementSet.parse(",".join(a + b for b in _AXES)) for a in _AXES]
    lines += [MeasurementSet.parse(",".join(a + b for a in _AXES)) for b in _AXES]
    for k in range(1000):
        if k % 2:
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            rho = qmodel.DensityMatrix(np.outer(v, v.conj()), (2, 2))
        else:
            gmat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = gmat @ gmat.conj().T
            rho = qmodel.DensityMatrix(m / np.trace(m).real, (2, 2))
        grid = correlator_grid(rho)
        # every line pattern is bounded by its full row or column value
        for mset in lines:
            assert patterns.ne_closed_form(mset, grid).value <= 1.0 + 1e-9
    # a maximally entangled state invisible to the {XX, ZZ} pair
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    vec = (np.kron([1.0, 0.0], plus) + np.kron([0.0, 1.0], minus)) / math.sqrt(2.0)
    rho = qmodel.DensityMatrix(np.outer(vec, vec), (2, 2))
    hidden = patterns.ne_closed_form(
        MeasurementSet.parse("XX,ZZ"), correlator_grid(rho)
    )
    assert hidden.value <= 1e-9


def test_separable_states_are_never_flagged():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    opts = SolverOptions(tol=1e-6, mu_factor=0.05)
    solves = 0
    for s in range(100):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        cols = db * db - 1
        cap = (da * da - 1) * cols
        flat = rng.choice(cap, size=min(int(rng.integers(2, 7)), cap), replace=False)
        cells = [(int(f) // cols, int(f) % cols) for f in flat]
        for j in range(100):
            rho = qmodel.sample_separable(
                da, terms=int(rng.integers(1, 4)), seed=100_000 + 100 * s + j, d_b=db
            )
            grid = correlator_grid(rho)
            res = solver.ne_solve(grid, cells, opts)
            assert res.value <= 1.0 + 1e-6
            evaluation = evaluate_witness(res.witness, grid)
            assert evaluation.tr_plus >= -1e-9
            assert evaluation.tr_minus >= -1e-9
            solves += 1
    assert solves == 10_000
    assert time.perf_counter() - start < 60.0


def _barrier_value(grid, cells):
    """The whole qubit support through the barrier path, polished."""
    support = sorted(cells)
    v = np.array([grid.value_at(c) for c in support])
    c, _, _ = solver._maximize(v, support, 3, 3, 1.0, SolverOptions())
    return abs(float(v @ solver._polish(v, c, (2, 2), support, 1.0)))


def test_closed_forms_match_interior_point():
    rng = np.random.default_rng(29)
    for k in (2, 3):
        for _, members in patterns.enumerate_orbits(k):
            for _ in range(100):
                mset = members[rng.integers(len(members))]
                values = {lab: float(rng.uniform(-1.0, 1.0)) for lab in mset.labels()}
                grid = CorrelatorGrid.from_labels(values)
                closed = patterns.ne_closed_form(mset, grid).value
                assert abs(closed - _barrier_value(grid, mset)) <= 1e-6
    # full support: the optimum is the (scaled) nuclear norm of the data
    for _ in range(5):
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        grid = CorrelatorGrid(
            (2, 2), {(i, j): float(m[i, j]) for i in range(3) for j in range(3)}
        )
        nuclear = np.linalg.svd(m, compute_uv=False).sum()
        assert abs(solver.ne_solve(grid).value - nuclear) <= 1e-8
    m = rng.uniform(-0.5, 0.5, size=(8, 8))
    grid = CorrelatorGrid(
        (3, 3), {(i, j): float(m[i, j]) for i in range(8) for j in range(8)}
    )
    nuclear = np.linalg.svd(m, compute_uv=False).sum()
    assert abs(solver.ne_solve(grid).value - 0.5 * nuclear) <= 1e-8


def test_complete_blocks_lie_within_the_barrier_bracket():
    # 1,008 random complete blocks, whose closed form is t times the nuclear
    # norm, against the barrier path on the same data
    rng = np.random.default_rng(131)
    stacks = {}
    for k in range(1008):
        dims = ((2, 2), (2, 3), (3, 2), (3, 3))[k % 4]
        m, n = dims[0] ** 2 - 1, dims[1] ** 2 - 1
        shape = (int(rng.integers(2, m + 1)), int(rng.integers(2, n + 1)))
        rows = sorted(rng.choice(m, size=shape[0], replace=False).tolist())
        cols = sorted(rng.choice(n, size=shape[1], replace=False).tolist())
        dense = (1.0, 0.3, 0.05)[k % 3] * rng.uniform(-1.0, 1.0, size=shape)
        grid = CorrelatorGrid(dims, {
            (i, j): float(dense[a, b])
            for a, i in enumerate(rows) for b, j in enumerate(cols)
        })
        closed = solver.ne_solve(grid)
        assert (closed.iterations, closed.gap) == (0, 0.0)
        stacks.setdefault((dims, shape), []).append((dense.ravel(), closed))
    for (dims, shape), cases in stacks.items():
        # the active block of B(c), and so the path, is the same wherever the
        # block sits: each shape takes one stacked path in the top-left corner
        support = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
        t = 1.0 / math.sqrt((dims[0] - 1) * (dims[1] - 1))
        v = np.array([data for data, _ in cases])
        paths, _, gaps = solver._maximize_stack(
            v, support, dims[0] ** 2 - 1, dims[1] ** 2 - 1, t, SolverOptions()
        )
        for data, c, gap, (_, closed) in zip(v, paths, gaps, cases):
            barrier = abs(float(data @ solver._polish(data, c, dims, support, t)))
            assert barrier - 1e-12 <= closed.value <= barrier + gap + 1e-12
            # boundary-scaled coefficients: the witness bound is 1
            assert closed.verdict == decide(barrier, 1.0)


def test_orbit_census_and_diagonal_members():
    two = patterns.enumerate_orbits(2)
    three = patterns.enumerate_orbits(3)
    assert sorted(len(members) for _, members in two) == [9, 9, 18]
    assert sorted(len(members) for _, members in three) == [3, 3, 6, 36, 36]
    diagonal = next(members for _, members in three if len(members) == 6)
    got = {frozenset(m.labels()) for m in diagonal}
    assert got == {
        frozenset({"XX", "YY", "ZZ"}),
        frozenset({"XX", "YZ", "ZY"}),
        frozenset({"YY", "XZ", "ZX"}),
        frozenset({"ZZ", "XY", "YX"}),
        frozenset({"XY", "YZ", "ZX"}),
        frozenset({"XZ", "YX", "ZY"}),
    }


def _random_four_terms(rng):
    words = set()
    while len(words) < 4:
        word = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=3))
        if word != "III":
            words.add(word)
    return [(float(rng.uniform(0.3, 1.0) * rng.choice((-1, 1))), w)
            for w in sorted(words)]


def _bloch_values(terms, blochs):
    """Product-state expectations from per-site Bloch vectors, vectorized."""
    total = np.zeros(blochs.shape[0])
    for coeff, word in terms:
        factor = np.full(blochs.shape[0], coeff)
        for site, letter in enumerate(word):
            if letter != "I":
                factor = factor * blochs[:, site, _AXES.index(letter)]
        total += factor
    return total


def _polish_bloch(terms, bloch):
    # exact cyclic single-site maximization of the multilinear form
    bloch = bloch.copy()
    value = _bloch_values(terms, bloch[None])[0]
    for _ in range(300):
        for site in range(3):
            grad = np.zeros(3)
            for coeff, word in terms:
                if word[site] == "I":
                    continue
                partial = coeff
                for s2, letter in enumerate(word):
                    if s2 != site and letter != "I":
                        partial *= bloch[s2, _AXES.index(letter)]
                grad[_AXES.index(word[site])] += partial
            norm = np.linalg.norm(grad)
            if norm > 0.0:
                bloch[site] = grad / norm
        new_value = _bloch_values(terms, bloch[None])[0]
        if new_value - value <= 1e-13:
            return new_value
        value = new_value
    return value


def test_product_state_search_monotone_exact_and_sampled():
    start = time.perf_counter()
    res = spi_lambda_max(ObservableSum.from_pauli_strings([(1.0, "ZZZ")]))
    assert abs(res.lambda_max - 1.0) <= 1e-10
    assert res.converged

    rng = np.random.default_rng(3)
    for _ in range(5):
        terms = _random_four_terms(rng)
        obs = ObservableSum.from_pauli_strings(terms)

        # ascent never dips, observed after every single-site update
        vectors = []
        for d in obs.dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vectors.append(v / np.linalg.norm(v))
        value = obs.expectation(mp.ProductState(vectors))
        for _ in range(8):
            for site in range(obs.parties):
                eff = mp._effective_operator(obs, vectors, site)
                vectors[site] = mp._top_eigenvector(eff, vectors[site])
                new_value = obs.expectation(mp.ProductState(vectors))
                assert new_value >= value - 1e-12
                value = new_value

        # a million-sample product-state search with local refinement
        best_value = -math.inf
        candidates = []
        for _ in range(4):
            blochs = rng.standard_normal((250_000, 3, 3))
            blochs /= np.linalg.norm(blochs, axis=2, keepdims=True)
            values = _bloch_values(terms, blochs)
            order = np.argpartition(values, -10)[-10:]
            candidates.extend(blochs[order])
            best_value = max(best_value, float(values.max()))
        for cand in candidates:
            best_value = max(best_value, _polish_bloch(terms, cand))

        found = spi_lambda_max(obs).lambda_max
        assert abs(found - best_value) <= 1e-3
    assert time.perf_counter() - start < 30.0


_REFERENCE_SPLIT_CASES = (
    dict(
        support=("XX", "YX", "ZY", "ZZ"),
        weights=(0.76, -0.65, 0.67, 0.74),
        value=1.82,
        sub=dict(support=("XX", "ZY", "ZZ"), weights=(1.00, 0.67, 0.74), value=1.60),
        pair=dict(support=("XX", "ZZ"), weights=(1.0, 1.0), value=1.36),
    ),
    dict(
        support=("XX", "YX", "ZY", "ZZ"),
        weights=(0.69, 0.72, 0.66, 0.75),
        value=1.88,
        sub=dict(support=("XX", "YX", "ZZ"), weights=(0.69, 0.72, 1.00), value=1.66),
        pair=dict(support=("YX", "ZZ"), weights=(1.0, 1.0), value=1.38),
    ),
    dict(
        support=("XX", "YX", "ZY", "ZZ"),
        weights=(0.73, -0.68, 0.73, 0.68),
        value=1.95,
        sub=dict(support=("XX", "ZY", "ZZ"), weights=(1.00, 0.73, 0.68), value=1.71),
        pair=dict(support=("XX", "ZY"), weights=(1.0, 1.0), value=1.43),
    ),
    dict(
        support=("XX", "XY", "YZ", "ZZ"),
        weights=(0.70, 0.71, 0.65, 0.76),
        value=1.85,
        sub=dict(support=("XX", "XY", "ZZ"), weights=(0.70, 0.71, 1.00), value=1.64),
        pair=dict(support=("XY", "ZZ"), weights=(1.0, 1.0), value=1.35),
    ),
    dict(
        support=("XX", "XY", "YZ", "ZZ"),
        weights=(0.72, -0.69, 0.68, 0.73),
        value=1.88,
        sub=dict(support=("XX", "XY", "ZZ"), weights=(0.72, -0.69, 1.00), value=1.63),
        pair=dict(support=("XX", "ZZ"), weights=(1.0, 1.0), value=1.36),
    ),
    dict(
        support=("XY", "YX", "YZ", "ZY"),
        weights=(0.77, 0.65, 0.76, 0.64),
        value=1.89,
        sub=dict(support=("XY", "YX", "YZ"), weights=(1.00, 0.65, 0.76), value=1.68),
        pair=dict(support=("XY", "YZ"), weights=(1.0, 1.0), value=1.44),
    ),
)


def _min_completion_nuclear(a, b, c):
    # smallest nuclear norm over completions [[a, x], [b, c]]
    def nuc(x):
        return float(
            np.linalg.svd(np.array([[a, x], [b, c]]), compute_uv=False).sum()
        )

    return minimize_scalar(
        nuc, bounds=(-4.0, 4.0), method="bounded", options={"xatol": 1e-12}
    ).fun


def _check_rows(grid, data, rows):
    for labels, weights, expected in rows:
        linear = abs(sum(w * data[lab] for lab, w in zip(labels, weights)))
        assert linear == pytest.approx(expected, abs=0.03)
        mset = MeasurementSet.parse(",".join(labels))
        assert solver.ne_solve(grid, mset).value == pytest.approx(
            expected, abs=0.03
        )
    return len(rows)


def test_reference_witness_rows_reproduce_from_four_term_data():
    checked = 0
    for case in _REFERENCE_SPLIT_CASES:
        data = _split_reconstruction(
            case["support"],
            case["weights"],
            case["value"],
            case["sub"]["support"],
            case["sub"]["value"],
        )
        grid = CorrelatorGrid.from_labels(data)
        checked += _check_rows(
            grid,
            data,
            (
                (case["support"], case["weights"], case["value"]),
                (case["sub"]["support"], case["sub"]["weights"], case["sub"]["value"]),
                (case["pair"]["support"], case["pair"]["weights"], case["pair"]["value"]),
            ),
        )

    # one reported row occupies a full 2x2 sub-block: the four-entry
    # coefficients are an orthogonal direction pair, and the three-entry
    # value (an L on the same block) pins the two row magnitudes
    support = ("XY", "XZ", "ZY", "ZZ")
    weights = np.array([[-0.71, 0.71], [0.71, 0.71]])
    unit = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    total = 1.70

    def l_value(s_top):
        top, bottom = s_top * unit[0], (total - s_top) * unit[1]
        return _min_completion_nuclear(top[0], bottom[0], bottom[1])

    s_top = brentq(lambda s: l_value(s) - 1.23, 1e-6, total - 1e-6, xtol=1e-10)
    flat = np.concatenate([s_top * unit[0], (total - s_top) * unit[1]])
    data = {lab: float(v) for lab, v in zip(support, flat)}
    grid = CorrelatorGrid.from_labels(data)
    checked += _check_rows(
        grid,
        data,
        (
            (support, (-0.71, 0.71, 0.71, 0.71), 1.70),
            (("XY", "ZY", "ZZ"), (-0.73, 0.46, 0.73), 1.23),
            (("XY", "ZZ"), (-1.0, 1.0), 1.20),
        ),
    )
    assert checked >= 5
