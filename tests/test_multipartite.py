"""Product-state optimization: sweeps, blocks, and the coefficient search."""

import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.optimize

from entcert import multipartite as mp
from entcert import solver
from entcert.grids import CorrelatorGrid, MeasurementSet
from entcert.qmodel import PAULI, gell_mann_basis
from entcert.witness import DETECTION_TOL, decide

AXIS = {"X": 0, "Y": 1, "Z": 2}


def _bloch_sample_max(terms, samples=200_000, seed=3, polish=True):
    """Independent oracle for Pauli-string observables on qubits.

    Product-state expectations factor through Bloch vectors r_s, so the
    maximum is over unit 3-vectors per site; random search plus a smooth
    local polish of the best candidate.
    """
    n = len(terms[0][1])
    rng = np.random.default_rng(seed)

    def value(blochs):
        total = 0.0
        for coeff, label in terms:
            prod = coeff
            for s, ch in enumerate(label):
                if ch != "I":
                    prod = prod * blochs[s][AXIS[ch]]
            total += prod
        return total

    vecs = rng.standard_normal((samples, n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    best_val, best = -np.inf, None
    # evaluate vectorized: accumulate per-term products
    totals = np.zeros(samples)
    for coeff, label in terms:
        prod = np.full(samples, coeff)
        for s, ch in enumerate(label):
            if ch != "I":
                prod = prod * vecs[:, s, AXIS[ch]]
        totals += prod
    i = int(np.argmax(totals))
    best_val, best = float(totals[i]), vecs[i]
    if not polish:
        return best_val

    def negative(flat):
        blochs = flat.reshape(n, 3)
        blochs = blochs / np.linalg.norm(blochs, axis=1, keepdims=True)
        return -value(blochs)

    out = scipy.optimize.minimize(negative, best.ravel(), method="BFGS")
    return max(best_val, -float(out.fun))


def test_zzz_product_eigenvector():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "ZZZ")])
    res = mp.spi_lambda_max(obs)
    assert abs(res.lambda_max - 1.0) <= 1e-10
    assert res.converged
    assert res.restarts_used == 216 + 8


def test_xx_two_party():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XX")])
    res = mp.spi_lambda_max(obs)
    assert abs(res.lambda_max - 1.0) <= 1e-10


def test_result_consistency_invariant():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XXX"), (1.0, "ZZI")])
    res = mp.spi_lambda_max(obs)
    assert obs.expectation(res.optimizer) == pytest.approx(res.lambda_max, abs=1e-8)


def test_two_term_matches_bloch_search():
    terms = [(1.0, "XXX"), (1.0, "ZZI")]
    obs = mp.ObservableSum.from_pauli_strings(terms)
    res = mp.spi_lambda_max(obs)
    oracle = _bloch_sample_max(terms)
    assert res.lambda_max == pytest.approx(oracle, abs=1e-3)
    assert res.lambda_max >= oracle - 1e-9


def test_random_terms_match_bloch_search():
    rng = np.random.default_rng(41)
    labels = ["XZY", "YIX", "ZZZ", "XXI"]
    coeffs = rng.uniform(-1, 1, size=4)
    terms = list(zip(coeffs, labels))
    obs = mp.ObservableSum.from_pauli_strings(terms)
    res = mp.spi_lambda_max(obs)
    oracle = _bloch_sample_max(terms, samples=150_000)
    assert res.lambda_max == pytest.approx(oracle, abs=1e-3)


def test_single_site_updates_never_decrease():
    rng = np.random.default_rng(43)
    obs = mp.ObservableSum.from_pauli_strings(
        [(0.7, "XYZ"), (-0.4, "ZZX"), (0.2, "YIY")]
    )
    vectors = []
    for d in obs.dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vectors.append(v / np.linalg.norm(v))
    value = obs.expectation(mp.ProductState(vectors))
    for _ in range(6):
        for site in range(obs.parties):
            eff = mp._effective_operator(obs, vectors, site)
            vectors[site] = mp._top_eigenvector(eff, vectors[site])
            new_value = obs.expectation(mp.ProductState(vectors))
            assert new_value >= value - 1e-12
            value = new_value


def test_scaling_and_identity_shift():
    obs = mp.ObservableSum.from_pauli_strings([(0.9, "XXZ"), (0.3, "ZYI")])
    lam = mp.spi_lambda_max(obs).lambda_max
    doubled = mp.ObservableSum.from_pauli_strings([(1.8, "XXZ"), (0.6, "ZYI")])
    assert mp.spi_lambda_max(doubled).lambda_max == pytest.approx(2 * lam, abs=1e-8)
    shifted = mp.ObservableSum.from_pauli_strings(
        [(0.9, "XXZ"), (0.3, "ZYI"), (0.25, "III")]
    )
    assert mp.spi_lambda_max(shifted).lambda_max == pytest.approx(
        lam + 0.25, abs=1e-8
    )


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-11, 1.0, 1e100, 1e200])
def test_spi_is_accurate_at_any_scale(scale):
    # the product-state maximum of ZZ + XZ is sqrt(2) at every scale: the
    # sweep's absolute tolerances would freeze every start below ~1e-10,
    # and h . h would overflow above ~1e154, without the power-of-two scaling
    obs = mp.ObservableSum.from_pauli_strings([(scale, "ZZ"), (scale, "XZ")])
    res = mp.spi_lambda_max(obs)
    assert res.converged
    assert res.lambda_max == pytest.approx(math.sqrt(2) * scale, rel=1e-14, abs=0)


def _reference_eigen_starts(dims, cap):
    """Eigenvector combinations enumerated one at a time by itertools.product."""
    per_site = [mp._site_eigenvectors(d) for d in dims]
    combos = itertools.islice(itertools.product(*(range(len(v)) for v in per_site)), cap)
    rows = [[v[i] for v, i in zip(per_site, combo)] for combo in combos]
    return [np.array([row[s] for row in rows]) for s in range(len(dims))]


def _reference_starts(dims, seed):
    """The multistart drawn one start and one site at a time."""
    rng = np.random.default_rng(seed)
    randoms = [[] for _ in dims]
    for _ in range(mp._RANDOM_STARTS):
        for s, d in enumerate(dims):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            randoms[s].append(v / np.linalg.norm(v))
    eigen = _reference_eigen_starts(dims, mp._EIGEN_STARTS)
    return [np.concatenate([e, np.array(r)]) for e, r in zip(eigen, randoms)]


@pytest.mark.parametrize(
    "dims", [(2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (2, 3, 2), (4, 2), (8, 8)]
)
def test_start_arrays_equal_the_one_at_a_time_construction(dims):
    # 2000 exceeds the number of combinations for every dims but (8, 8)
    for cap in (12, 216, 2000):
        got = mp._eigen_starts(dims, cap)
        want = _reference_eigen_starts(dims, cap)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    for seed in (0, 1, 5, 11, 99):
        got = mp._starts(dims, seed)
        want = _reference_starts(dims, seed)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_bipartite_pauli_lambda_is_operator_norm():
    rng = np.random.default_rng(47)
    for _ in range(10):
        dense = np.zeros((3, 3))
        cells = [(0, 0), (0, 1), (1, 2), (2, 2), (1, 1)]
        vals = rng.uniform(-1, 1, size=len(cells))
        terms = []
        for (i, j), v in zip(cells, vals):
            dense[i, j] = v
            terms.append((v, "XYZ"[i] + "XYZ"[j]))
        obs = mp.ObservableSum.from_pauli_strings(terms)
        res = mp.spi_lambda_max(obs)
        assert res.lambda_max == pytest.approx(
            np.linalg.svd(dense, compute_uv=False)[0], abs=1e-8
        )


def test_block_partition_nesting_and_identity():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XXX"), (1.0, "ZZI")])
    fine = mp.spi_lambda_max(obs)
    same = mp.k_separable_lambda_max(obs, [[0], [1], [2]])
    assert same.lambda_max == pytest.approx(fine.lambda_max, abs=1e-8)
    coarse = mp.k_separable_lambda_max(obs, [[0, 1], [2]])
    assert coarse.lambda_max >= fine.lambda_max - 1e-9
    # a maximally entangled block can satisfy XX.X and ZZ.I at once
    assert coarse.lambda_max == pytest.approx(2.0, abs=1e-8)


def test_block_value_against_sampled_search():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XXX"), (1.0, "ZZI")])
    res = mp.k_separable_lambda_max(obs, [[0, 1], [2]])
    dense = obs.dense()
    rng = np.random.default_rng(53)

    def expectation(flat):
        a = flat[:4].astype(complex) + 1j * flat[4:8]
        b = flat[8:10].astype(complex) + 1j * flat[10:12]
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        full = np.kron(a, b)
        return float((full.conj() @ dense @ full).real)

    best = -np.inf
    best_flat = None
    for _ in range(4000):
        flat = rng.standard_normal(12)
        v = expectation(flat)
        if v > best:
            best, best_flat = v, flat
    out = scipy.optimize.minimize(
        lambda f: -expectation(f), best_flat, method="BFGS"
    )
    oracle = max(best, -float(out.fun))
    assert res.lambda_max == pytest.approx(oracle, abs=1e-3)


def test_invalid_partitions():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XXX")])
    for bad in ([[0, 1]], [[0, 1], [1, 2]], [[0], [1], [2], []]):
        with pytest.raises(ValueError, match="partition"):
            mp.k_separable_lambda_max(obs, bad)


@pytest.mark.parametrize(
    "partition, entry",
    [
        ([[0, True], [2]], True),
        ([[0, 1.0], [2]], 1.0),
        ([[0, 1], [np.float64(2.0)]], np.float64(2.0)),
        ([[0, 1], [3]], 3),
        ([[0, 1], [-1]], -1),
    ],
)
def test_partition_entries_are_read_as_ints(partition, entry):
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XXX")])
    with pytest.raises(ValueError, match=r"partition entry must lie in \[0, 2\] as an int") as err:
        obs.blocked(partition)
    assert str(err.value).endswith(f"got {entry!r}")


@pytest.mark.parametrize("partition, block", [(["01", [2]], "01"), ([[0, 1], 2], 2)])
def test_partition_blocks_must_be_sequences(partition, block):
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XXX")])
    with pytest.raises(ValueError, match="a block must be a sequence of party indices") as err:
        obs.blocked(partition)
    assert str(err.value).endswith(f"got {block!r}")


def test_partitions_of_numpy_integers_are_the_int_partitions():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XXZ"), (0.5, "ZYY")])
    want = obs.blocked([[0, 1], [2]])
    for partition in (
        [[np.int64(0), np.int64(1)], [np.int64(2)]],
        [np.array([0, 1]), (2,)],
    ):
        got = obs.blocked(partition)
        assert [g.tobytes() for g in got.factor_stacks] == [w.tobytes() for w in want.factor_stacks]


def test_observable_validation():
    with pytest.raises(ValueError, match="at least one term"):
        mp.ObservableSum([])
    with pytest.raises(ValueError, match="two parties"):
        mp.ObservableSum.from_pauli_strings([(1.0, "X")])
    with pytest.raises(ValueError, match="Pauli letter"):
        mp.ObservableSum.from_pauli_strings([(1.0, "XQ")])
    with pytest.raises(ValueError, match="Hermitian"):
        mp.ObservableSum([(1.0, [np.array([[0, 1], [0, 0]]), PAULI["X"]])])
    with pytest.raises(ValueError, match="local dimensions"):
        mp.ObservableSum(
            [
                (1.0, [PAULI["X"], PAULI["X"]]),
                (1.0, [np.eye(3), PAULI["X"]]),
            ]
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_observable_rejects_non_finite_factors(bad):
    z = PAULI["Z"]
    qubit = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        mp.ObservableSum([(1.0, [qubit, z]), (0.5, [z, z])])
    off_diagonal = np.array([[0.0, bad], [np.conj(bad), 0.0]])
    with pytest.raises(ValueError, match="finite"):
        mp.ObservableSum([(1.0, [z, off_diagonal])])
    qutrit = np.diag([1.0, 0.0, 0.0]).astype(complex)
    qutrit[1, 1] = bad
    lam8 = gell_mann_basis(3).operators[8]
    with pytest.raises(ValueError, match="finite"):
        mp.ObservableSum([(1.0, [lam8, lam8]), (0.5, [lam8, qutrit])])


def test_blocked_rejects_factors_that_overflow():
    # 1e200 Z (x) 1e200 Z overflows to inf on the diagonal of the block
    big = 1e200 * PAULI["Z"]
    obs = mp.ObservableSum([(1.0, [big, big, PAULI["X"]])])
    with pytest.raises(ValueError, match="finite"):
        obs.blocked([[0, 1], [2]])
    with pytest.raises(ValueError, match="finite"):
        mp.k_separable_lambda_max(obs, [[0, 1], [2]])


def test_product_state_validation():
    with pytest.raises(ValueError, match="unit"):
        mp.ProductState([np.array([1.0, 1.0]), np.array([1.0, 0.0])])


def test_product_state_rejects_nan_factors():
    for bad in ([np.nan, 0.0], [1.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="unit"):
            mp.ProductState([np.array(bad), np.array([1.0, 0.0])])


def test_sweep_unit_check_rejects_nan_rows():
    good = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    mp._require_unit([good, good])
    for bad in ([np.nan, 0.0], [np.nan + 1j, 0.0]):
        rows = good.copy()
        rows[1] = bad
        with pytest.raises(ValueError, match="unit"):
            mp._require_unit([good, rows])


@pytest.mark.parametrize("kind", ["bloch", "complex"])
def test_the_unit_check_holds_its_tolerance_and_fails_nan_and_inf(kind):
    # a qubit Bloch stack (n_q, S, 3) and a complex stack (S, d), as swept
    rng = np.random.default_rng(89)
    if kind == "bloch":
        good = rng.standard_normal((2, 6, 3))
        bad_entries = [np.nan, np.inf, -np.inf]
    else:
        good = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        bad_entries = [np.nan, complex(0.0, np.nan), np.inf, complex(0.5, -np.inf)]
    good /= np.linalg.norm(good, axis=-1, keepdims=True)
    mp._require_unit([good])

    def spoiled(scale=1.0, entry=None):
        """``good`` with one row, the next to last, scaled or given an entry."""
        bad = good.copy()
        row = bad.reshape(-1, bad.shape[-1])[-2]
        row *= scale
        if entry is not None:
            row[1] = entry
        return bad

    for off in (0.9e-12, -0.9e-12):
        mp._require_unit([spoiled(1.0 + off)])
    for off in (1.1e-12, -1.1e-12):
        with pytest.raises(ValueError, match="unit vectors"):
            mp._require_unit([spoiled(1.0 + off)])
    for entry in bad_entries:
        with pytest.raises(ValueError, match="unit vectors"):
            mp._require_unit([good, spoiled(entry=entry)])


def _sweep_with_a_bad_row(monkeypatch, obs, site, spoil):
    """Sweep with site ``site``'s update spoiling its middle row each time."""
    sites = mp._sites(obs)
    update = sites[site].update

    def spoiled(weights, x, screen):
        out = update(weights, x, screen).copy()
        out[len(out) // 2] = spoil(out[len(out) // 2])
        return out

    monkeypatch.setattr(sites[site], "update", spoiled)
    return mp._lockstep_sweeps(
        obs.coefficients, sites, mp._sweep_form(mp._starts(obs.dims, 11))
    )


@pytest.mark.parametrize(
    "case, site",
    [("qubits0", 1), ("mixed", 2), ("mixed", 1), ("blocked", 0), ("mixed", 0)],
)
def test_the_stacked_unit_check_is_no_weaker(monkeypatch, case, site):
    # the middle qubit of the Bloch stack, the last qubit beside a qutrit,
    # the qutrit, a block of two qubits, and the first qubit, whose NaN row
    # reaches the qutrit's eigensolve before the sweep ends
    obs = dict(_lockstep_cases())[case]
    for spoil in (
        lambda row: np.where(np.arange(row.size) == 0, np.nan, row),
        lambda row: row * (1.0 + 1e-11),
    ):
        with pytest.raises(ValueError, match="unit vectors"):
            _sweep_with_a_bad_row(monkeypatch, obs, site, spoil)
    values, _, converged = _sweep_with_a_bad_row(
        monkeypatch, obs, site, lambda row: row * (1.0 + 1e-13)
    )
    assert np.isfinite(values).all() and converged.all()


def test_product_expectations_respect_separable_bound():
    rng = np.random.default_rng(59)
    cells = [(0, 0), (1, 1), (2, 2), (0, 2)]
    vals = rng.uniform(-1, 1, size=4)
    dense = np.zeros((3, 3))
    terms = []
    for (i, j), v in zip(cells, vals):
        dense[i, j] = v
        terms.append((v, "XYZ"[i] + "XYZ"[j]))
    obs = mp.ObservableSum.from_pauli_strings(terms)
    bound = np.linalg.svd(dense, compute_uv=False)[0]  # = separable bound for qubit pairs
    for k in range(300):
        vecs = []
        for d in obs.dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(v / np.linalg.norm(v))
        got = obs.expectation(mp.ProductState(vecs))
        assert abs(got) <= bound + 1e-9


def test_ne_single_term_is_unity():
    res = mp.ne_multipartite(["ZZZ"], [1.0])
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.verdict == "undetected"
    assert res.lambda_max == pytest.approx(1.0, abs=1e-9)
    assert "heuristic" in res.note


def test_ne_ghz_support_detects():
    res = mp.ne_multipartite(["XXX", "ZZI", "ZIZ", "IZZ"], [1.0, 1.0, 1.0, 1.0])
    assert res.value > 1.0 + 1e-6
    assert res.verdict == "entangled"
    assert res.spi.lambda_max == pytest.approx(res.lambda_max)


def test_ne_bipartite_agrees_with_sdp():
    grid = CorrelatorGrid.from_labels({"XX": -0.95, "XY": 0.03, "ZX": -0.96})
    ref = solver.ne_solve(grid, MeasurementSet.parse("XX,XY,ZX"))
    res = mp.ne_multipartite(["XX", "XY", "ZX"], [-0.95, 0.03, -0.96])
    assert res.value == pytest.approx(ref.value, abs=2e-3)


def test_ne_input_validation():
    with pytest.raises(ValueError, match="equal length"):
        mp.ne_multipartite(["XX", "ZZ"], [1.0])
    with pytest.raises(ValueError, match="empty"):
        mp.ne_multipartite([], [])


def test_top_eigenvector_ties_go_to_the_largest_overlap():
    # the normalized projection of the current vector onto the tied top
    # eigenspace is the tied unit vector of largest overlap; where it is
    # negligible, the tied eigenvector of largest overlap wins
    tied = np.diag([1.0, 1.0, -1.0]).astype(complex)
    clear = np.diag([2.0, 1.0, 0.0]).astype(complex)
    effs = np.array([tied, tied, clear, clear, tied])
    currents = np.array(
        [[0.6, 0.8, 0.0], [0.6, 0.0, 0.8], [0.6j, 0.8, 0.0], [0.0, 1.0, 0.0],
         [0.0, 1e-12, 1.0]],
        dtype=complex,
    )
    expected = np.array(
        [[0.6, 0.8, 0.0], [1.0, 0.0, 0.0], [1j, 0.0, 0.0], [1.0, 0.0, 0.0],
         [0.0, 1.0, 0.0]],
        dtype=complex,
    )
    batched = mp._top_eigenvector(effs, currents)
    for k, (eff, current, row) in enumerate(zip(effs, currents, batched)):
        single = mp._top_eigenvector(eff, current)
        assert np.allclose(row, single, atol=1e-15)
        if k < 3:  # the projection keeps the current phase
            assert np.allclose(single, expected[k], atol=1e-12)
        else:  # an eigenvector, whose phase is the eigensolver's
            assert np.allclose(np.abs(single), np.abs(expected[k]), atol=1e-12)


def test_capped_starts_keep_an_optimal_vector_on_a_zero_operator():
    # in the 12 starts of ne_multipartite's inner search, X eigenvectors sit
    # on sites 1-2 of XYY, where the effective operator of site 0 vanishes;
    # the sweep must keep X+ there
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XYY")])
    states = mp._sweep_form(mp._eigen_starts(obs.dims, mp._INNER_STARTS))
    res = mp._best_start(obs.coefficients, mp._sites(obs), states)
    assert res.restarts_used == 12
    assert res.lambda_max == pytest.approx(1.0, abs=1e-12)


SIGMA = np.array([PAULI[a] for a in "XYZ"])


def _bloch_of(spinors):
    return np.einsum("si,aij,sj->sa", spinors.conj(), SIGMA, spinors).real


def test_bloch_spinors_are_unit_and_give_back_their_bloch_vectors():
    rng = np.random.default_rng(71)
    axes = np.vstack([np.eye(3), -np.eye(3)])  # both poles and four equator points
    c = math.sqrt(0.5)
    near_equator = np.array(
        [[1.0, 0.0, 1e-17], [1.0, 0.0, -1e-17], [0.0, -1.0, -1e-17], [c, c, -1e-17]]
    )
    random = rng.standard_normal((200, 3))
    random /= np.linalg.norm(random, axis=1, keepdims=True)
    r = np.vstack([axes, [[c, -c, 0.0]], near_equator, random])
    spinors = mp._bloch_spinors(r)
    assert spinors.shape == (len(r), 2)
    assert np.abs(np.linalg.norm(spinors, axis=1) - 1.0).max() <= 1e-14
    assert np.abs(_bloch_of(spinors) - r).max() <= 1e-14


def test_qubit_update_is_the_top_eigenvector_rule():
    # with the factors X, Y, Z the weights are h itself and g = 0
    site = mp._QubitSite(SIGMA)
    rng = np.random.default_rng(73)
    h = rng.standard_normal((50, 3))
    r = rng.standard_normal((50, 3))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    # the update writes into the rows it is given, so it gets a copy of r
    updated = site.update(h, r.copy())
    assert np.abs(updated - h / np.linalg.norm(h, axis=1, keepdims=True)).max() <= 1e-15
    # the eigensolver path on g 1 + h . sigma lands on the same Bloch vectors
    eff = np.einsum("sa,aij->sij", h, SIGMA)
    top = mp._top_eigenvector(eff, mp._bloch_spinors(r))
    assert np.abs(_bloch_of(top) - updated).max() <= 1e-14


def test_qubit_update_moves_an_antipodal_vector_to_the_top():
    # the current spinor has no overlap with the top eigenvector: the
    # eigensolver path falls back to that eigenvector, the Bloch path to h/|h|
    site = mp._QubitSite(SIGMA)
    h = np.array([[0.0, 0.0, 2.0], [0.3, -0.4, 0.0], [1.0, 2.0, -2.0]])
    top = h / np.linalg.norm(h, axis=1, keepdims=True)
    updated = site.update(h, -top)
    assert np.abs(updated - top).max() <= 1e-15
    eff = np.einsum("sa,aij->sij", h, SIGMA)
    fallback = mp._top_eigenvector(eff, mp._bloch_spinors(-top))
    assert np.abs(_bloch_of(fallback) - top).max() <= 1e-14


def test_qubit_update_keeps_the_vector_on_a_tied_operator():
    # zero, a multiple of the identity, and h below the degeneracy tolerance
    factors = np.array([PAULI["I"], PAULI["X"], PAULI["Z"]])
    site = mp._QubitSite(factors)
    weights = np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [-3.0, 1e-12, -1e-12]])
    r = np.array([[0.0, 0.6, 0.8], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert np.array_equal(site.update(weights, r.copy()), r)


def _random_qubit_site(rng, terms):
    """A site of random Hermitian factors a0 1 + a . sigma, norms 1e-3..1e3."""
    factors = np.einsum("ta,aij->tij", rng.standard_normal((terms, 4)), mp._PAULI_BASIS)
    norms = 10.0 ** rng.uniform(-3.0, 3.0, terms) / np.linalg.norm(factors, 2, axis=(1, 2))
    return mp._QubitSite(factors * norms[:, None, None])


def _h_sizes(site, weights):
    h = (weights @ site.reduced)[:, 1:]
    return np.sqrt(np.einsum("sa,sa->s", h, h))


def test_the_tie_screen_never_changes_a_qubit_update():
    # each batch of weights is c_t times expectations of at most 1 in size,
    # as a sweep's are, with c_t = max |weight| per term; the screen is then
    # the sweep's, and the screened update must give the exact rule's bits
    rng = np.random.default_rng(83)
    tol = mp._DEGENERACY_TOL
    outcomes = {"random": [], "near": [], "nan": []}
    for trial in range(600):
        terms = int(rng.integers(1, 6))
        site = _random_qubit_site(rng, terms)
        kind = ("random", "near", "nan")[trial % 3]
        scales = 2.0 ** rng.uniform(-40.0, 40.0, terms)
        weights = scales * rng.uniform(-1.0, 1.0, (8, terms))
        if kind == "near":
            # rows whose 2|h| is 0.5-2x the tie threshold tol * max(1, |top|):
            # scaled so that |top| stays below 1, the floor of both tests
            sizes = _h_sizes(site, weights)
            weights *= (rng.uniform(0.5, 2.0, 8) * tol / (2.0 * sizes))[:, None]
            gh = weights @ site.reduced
            assert (np.abs(gh[:, 0]) + _h_sizes(site, weights) < 1.0).all()
        elif kind == "nan":
            weights[int(rng.integers(8)), int(rng.integers(terms))] = np.nan
        r = rng.standard_normal((8, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        screen = mp._tie_screen(np.nanmax(np.abs(weights), axis=0), [site])
        # each update writes into the rows it is given: both start from r
        exact = site.update(weights, r.copy())
        screened = site.update(weights, r.copy(), screen)
        assert screened.tobytes() == exact.tobytes()
        outcomes[kind].append(bool(2.0 * _h_sizes(site, weights).min() > screen))
    # the screen both passed and declined on random and near-tie batches,
    # and never passed a batch with a NaN weight
    assert 0 < sum(outcomes["random"]) < len(outcomes["random"])
    assert 0 < sum(outcomes["near"]) < len(outcomes["near"])
    assert not any(outcomes["nan"])


def test_the_tie_screen_is_off_where_its_bound_overflows():
    huge = mp.ObservableSum([(1.0, [1e200 * PAULI["Z"], 1e200 * PAULI["X"]])])
    assert mp._tie_screen(huge.coefficients, mp._sites(huge)) == math.inf
    small = mp.ObservableSum.from_pauli_strings([(0.25, "ZZ"), (-0.5, "XZ")])
    assert mp._tie_screen(small.coefficients, mp._sites(small)) == mp._DEGENERACY_TOL * 1.5


def test_a_sweep_of_unscaled_coefficients_keeps_its_bits():
    # the coefficients 1e6 are swept as given, so the screen is 4e-4, far
    # above the floor of 1e-10; values, states and flags of commit c80ae11,
    # before the screen
    obs = mp.ObservableSum.from_pauli_strings([(1e6, "ZZ"), (1e6, "XZ")])
    values, states, converged = mp._lockstep_sweeps(
        obs.coefficients, mp._sites(obs), mp._sweep_form(mp._starts(obs.dims, 11))
    )

    def digest(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]

    assert (digest(values), digest(*states)) == ("5f88ac4bf515a800", "8de86bb5f0789aed")
    assert converged.all() and len(values) == 44
    assert values.max().hex() == "0x1.594458ff7aee4p+20"


def _reference_sweep(obs, vectors):
    """One start at a time, unbatched: the sweep as a plain loop."""
    vectors = list(vectors)
    value = obs.expectation(mp.ProductState(vectors))
    for _ in range(mp._MAX_SWEEPS):
        for site in range(obs.parties):
            eff = mp._effective_operator(obs, vectors, site)
            vectors[site] = mp._top_eigenvector(eff, vectors[site])
        new_value = obs.expectation(mp.ProductState(vectors))
        if new_value - value < mp._SWEEP_TOL:
            return new_value, True
        value = new_value
    return value, False


def _as_vectors(sites, states):
    """Each site's rows as vectors: a qubit site's Bloch rows become spinors."""
    return [
        mp._bloch_spinors(x) if isinstance(site, mp._QubitSite) else x
        for site, x in zip(sites, states)
    ]


def _random_local_observable(rng, ops_per_site, parties, terms=4):
    out = []
    for _ in range(terms):
        factors = [ops_per_site[int(rng.integers(len(ops_per_site)))] for _ in range(parties)]
        out.append((float(rng.uniform(-1, 1)), factors))
    return mp.ObservableSum(out)


def _lockstep_cases():
    rng = np.random.default_rng(61)
    paulis = [PAULI[ch] for ch in "IXYZ"]
    cases = [(f"qubits{k}", _random_local_observable(rng, paulis, 3)) for k in range(3)]
    cases.append(("qutrits", _random_local_observable(rng, gell_mann_basis(3).operators, 2)))
    cases.append(("blocked", _random_local_observable(rng, paulis, 3).blocked([[0, 1], [2]])))
    # qubit, qutrit, qubit: Bloch and eigensolver updates in one sweep
    per_site = [paulis, gell_mann_basis(3).operators, paulis]
    mixed = []
    for _ in range(4):
        factors = [ops[int(rng.integers(len(ops)))] for ops in per_site]
        mixed.append((float(rng.uniform(-1, 1)), factors))
    cases.append(("mixed", mp.ObservableSum(mixed)))
    return cases


@pytest.mark.parametrize("name, obs", _lockstep_cases())
def test_lockstep_sweep_equals_one_start_at_a_time(name, obs):
    """Batching the starts changes no start's value or convergence flag."""
    # the largest |coefficient| is in (0.5, 1] already, so spi_lambda_max's
    # power-of-two scaling leaves the coefficients swept here as they are
    assert 0.5 < np.abs(obs.coefficients).max() <= 1.0
    starts = mp._starts(obs.dims, 11)
    sites = mp._sites(obs)
    values, states, converged = mp._lockstep_sweeps(
        obs.coefficients, sites, mp._sweep_form(starts)
    )
    vectors = _as_vectors(sites, states)
    assert len(values) == 224
    for site in range(obs.parties):
        batched = mp._effective_operator(obs, starts, site)
        for i in (0, 100, 223):
            single = mp._effective_operator(obs, [v[i] for v in starts], site)
            assert np.allclose(batched[i], single, rtol=0, atol=1e-14)
    for i in range(len(values)):
        one_values, _, one_converged = mp._lockstep_sweeps(
            obs.coefficients, sites, mp._sweep_form([v[i:i + 1] for v in starts])
        )
        assert abs(one_values[0] - values[i]) <= 1e-12
        assert one_converged[0] == converged[i]
        ref_value, ref_converged = _reference_sweep(obs, [v[i] for v in starts])
        assert abs(ref_value - values[i]) <= 1e-12
        assert ref_converged == converged[i]
        state = mp.ProductState([v[i] for v in vectors])
        assert obs.expectation(state) == pytest.approx(values[i], abs=1e-12)
    res = mp.spi_lambda_max(obs)
    assert res.restarts_used == 224
    assert res.lambda_max == values.max()
    assert res.converged == converged[int(np.argmax(values))]


def test_ne_product_state_is_not_certified():
    # exact correlators of |000>; c = -(1,1,1) once gave 3 / lambda_max(-O) = 2.7
    res = mp.ne_multipartite(["ZII", "IZI", "ZZI"], [1.0, 1.0, 1.0])
    assert res.value <= 1.0 + DETECTION_TOL
    assert res.verdict == "undetected"
    assert float(np.dot(res.coefficients, [1.0, 1.0, 1.0])) >= 0.0


def test_ne_skips_starts_whose_inner_search_collapses():
    # the capped inner search returns lambda_max 0 for the single-term starts
    res = mp.ne_multipartite(["XXX", "XYY", "YXY", "YYX"], [1.0, -1.0, -1.0, -1.0])
    assert math.isfinite(res.value)
    assert res.verdict == "entangled"
    # every start collapses here; the first is still judged by the full search
    res = mp.ne_multipartite(["XZX", "YYI"], [-0.0064133, 0.4244311])
    assert math.isfinite(res.value)
    assert res.value <= 1.0 + DETECTION_TOL
    assert res.verdict == "undetected"


def test_ne_verdict_is_decide_on_c_dot_e_with_lambda_max_as_the_bound(monkeypatch):
    calls = []

    def recorded(expectation, bound):
        calls.append((expectation, bound))
        return decide(expectation, bound)

    monkeypatch.setattr(mp, "decide", recorded)
    for labels, estimates in (
        (["XXX", "XYY", "YXY", "YYX"], [1.0, -1.0, -1.0, -1.0]),
        (["ZII", "IZI", "ZZI"], [1.0, 1.0, 1.0]),
    ):
        calls.clear()
        res = mp.ne_multipartite(labels, estimates)
        expectation = float(np.array(res.coefficients) @ np.array(estimates))
        assert calls == [(expectation, res.lambda_max)]
        assert res.verdict == decide(expectation, res.lambda_max)
        assert res.value == expectation / res.lambda_max


def _product_mixture_correlators(rng, words):
    """Exact correlators of a random mixture of 3-qubit product states."""
    comps = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(comps))
    rho = np.zeros((8, 8), dtype=complex)
    for p in weights:
        state = np.array([[1.0]], dtype=complex)
        for _ in range(3):
            r = rng.standard_normal(3)
            r *= rng.uniform(0.0, 1.0) ** (1 / 3) / np.linalg.norm(r)
            local = 0.5 * (PAULI["I"] + r[0] * PAULI["X"] + r[1] * PAULI["Y"] + r[2] * PAULI["Z"])
            state = np.kron(state, local)
        rho += p * state
    out = []
    for word in words:
        op = np.array([[1.0]], dtype=complex)
        for ch in word:
            op = np.kron(op, PAULI[ch])
        out.append(float(np.trace(rho @ op).real))
    return out


def test_ne_multipartite_never_flags_product_mixtures():
    rng = np.random.default_rng(67)
    for _ in range(100):
        words: set[str] = set()
        size = int(rng.integers(2, 6))
        while len(words) < size:
            word = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=3))
            if word != "III":
                words.add(word)
        support = sorted(words)
        res = mp.ne_multipartite(support, _product_mixture_correlators(rng, support))
        assert res.value <= 1.0 + DETECTION_TOL, (support, res.value)
        assert res.verdict == "undetected"


# -- the cached multistart ------------------------------------------------------


def _uncached_search(obs, seed=11):
    """The search on freshly built starts, with every final row made vectors."""
    mantissa, exponent = np.frexp(np.abs(obs.coefficients).max())
    shift = int(exponent) - int(mantissa == 0.5)
    sites = mp._sites(obs)
    scaled, states, converged = mp._lockstep_sweeps(
        np.ldexp(obs.coefficients, -shift), sites, mp._sweep_form(mp._starts(obs.dims, seed))
    )
    values = np.ldexp(scaled, shift)
    vectors = _as_vectors(sites, states)
    best = int(np.argmax(values))
    return values[best], [v[best] for v in vectors], len(values), converged[best], scaled


GHZ_WORDS = ["XXX", "ZZI", "ZIZ", "IZZ"]


def _cached_path_cases():
    cases = list(_lockstep_cases())
    for name, terms in [
        ("ZZZ", [(1.0, "ZZZ")]),
        ("ghz_stabilizers", [(1.0, w) for w in GHZ_WORDS]),
        ("mermin", [(1.0, "XXX"), (-1.0, "XYY"), (-1.0, "YXY"), (-1.0, "YYX")]),
        ("four_qubit", [(1.0, "XXXX"), (0.5, "ZZII"), (0.7, "IZZI"), (-0.3, "YYZZ")]),
    ]:
        cases.append((name, mp.ObservableSum.from_pauli_strings(terms)))
    ghz = mp.ObservableSum.from_pauli_strings([(1.0, w) for w in GHZ_WORDS])
    cases.append(("k_separable", ghz.blocked([[0, 1], [2]])))
    return cases


def _assert_same_result(res, want):
    value, vectors, restarts, converged, _ = want
    assert res.lambda_max == value
    assert [v.tobytes() for v in res.optimizer.vectors] == [v.tobytes() for v in vectors]
    assert res.restarts_used == restarts
    assert res.converged == converged


@pytest.mark.parametrize("name, obs", _cached_path_cases())
def test_cached_multistart_gives_the_uncached_results_bit_for_bit(name, obs):
    for seed in (11, 4):
        _assert_same_result(mp.spi_lambda_max(obs, seed), _uncached_search(obs, seed))


def test_k_separable_search_is_the_uncached_blocked_search():
    ghz = mp.ObservableSum.from_pauli_strings([(1.0, w) for w in GHZ_WORDS])
    res = mp.k_separable_lambda_max(ghz, [[0, 1], [2]])
    _assert_same_result(res, _uncached_search(ghz.blocked([[0, 1], [2]])))


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3), (2, 3, 2), (4, 2)])
def test_cached_starts_are_read_only_and_equal_a_fresh_build(dims):
    cached = mp._sweep_starts(dims, 11)
    fresh = mp._sweep_form(mp._starts(dims, 11))
    assert all(np.array_equal(c, f) for c, f in zip(cached, fresh, strict=True))
    for x in cached:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 0.0
    # qubit sites are held as real Bloch vectors, the others as vectors
    assert [x.shape for x in cached] == [(224, 3 if d == 2 else d) for d in dims]


def test_searches_leave_the_cached_starts_as_they_were():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, w) for w in GHZ_WORDS])
    first = mp.spi_lambda_max(obs)
    before = [x.copy() for x in mp._sweep_starts(obs.dims, 11)]
    second = mp.spi_lambda_max(obs)
    assert first.lambda_max == second.lambda_max
    assert [v.tobytes() for v in first.optimizer.vectors] == [
        v.tobytes() for v in second.optimizer.vectors
    ]
    assert (first.restarts_used, first.converged, first.best_starts) == (
        second.restarts_used, second.converged, second.best_starts
    )
    after = mp._sweep_starts(obs.dims, 11)
    assert all(np.array_equal(b, a) for b, a in zip(before, after, strict=True))


def test_the_multistart_cache_is_bounded():
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "ZZ"), (0.5, "XZ")])
    bound = mp._sweep_starts.cache_info().maxsize
    assert bound is not None
    for seed in range(1000, 1200):
        mp.spi_lambda_max(obs, seed)
        assert mp._sweep_starts.cache_info().currsize <= bound


@pytest.mark.parametrize(
    "seed", [None, -1, True, False, 1.0, "11", [1, 2], np.int64(-3), np.True_]
)
def test_spi_seed_must_be_a_non_negative_int(seed):
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "ZZ")])
    mp._sweep_starts.cache_clear()
    with pytest.raises(ValueError, match=r"seed must be an int >= 0, got "):
        mp.spi_lambda_max(obs, seed)
    # rejected before the cache is consulted
    assert mp._sweep_starts.cache_info().hits + mp._sweep_starts.cache_info().misses == 0
    assert mp.spi_lambda_max(obs, 0).lambda_max == pytest.approx(1.0, abs=1e-12)


def test_spi_reads_a_numpy_integer_seed_as_its_int():
    # the seed is read as every sampling seed in qmodel is read
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XZ"), (0.5, "ZY"), (0.25, "YY")])
    for seed in (np.int64(4), np.uint8(4), np.int32(4)):
        mp._sweep_starts.cache_clear()
        got, want = mp.spi_lambda_max(obs, seed), mp.spi_lambda_max(obs, 4)
        assert got.lambda_max.hex() == want.lambda_max.hex()
        assert (got.restarts_used, got.best_starts) == (want.restarts_used, want.best_starts)
        # both calls share one multistart, keyed by the int
        assert mp._sweep_starts.cache_info().currsize == 1


# -- starts that reach the best value --------------------------------------------


@pytest.mark.parametrize("name, obs", _cached_path_cases())
def test_best_starts_counts_the_starts_at_the_best_scaled_value(name, obs):
    res = mp.spi_lambda_max(obs)
    scaled = _uncached_search(obs)[4]
    top = scaled.max()
    assert res.best_starts == np.count_nonzero(top - scaled <= 1e-9 * max(1.0, abs(top)))
    assert 1 <= res.best_starts <= res.restarts_used


def test_best_starts_is_scale_free():
    terms = [(1.0, "XXX"), (-1.0, "XYY"), (-1.0, "YXY"), (-1.0, "YYX"), (0.3, "ZZI")]
    counts = set()
    for scale in (2.0**-900, 2.0**-30, 1.0, 2.0**40, 2.0**900):
        obs = mp.ObservableSum.from_pauli_strings([(scale * c, w) for c, w in terms])
        counts.add(mp.spi_lambda_max(obs).best_starts)
    assert len(counts) == 1
    # ZZZ reaches 1 from every start that is a Z eigenvector product of even parity
    zzz = mp.spi_lambda_max(mp.ObservableSum.from_pauli_strings([(1.0, "ZZZ")]))
    assert 1 < zzz.best_starts < zzz.restarts_used


# spi_lambda_max at commit b40ab6b, before the sweep stacked its states:
# lambda_max in hex, the first 16 hex digits of the SHA-256 of the optimizer's
# bytes, restarts_used, converged and best_starts.  The random observables are
# those of the spi_search benchmark (the acceptance test's generator, seed 3).
SPI_PINS = [
    ("random0", [
        (-0.6353359086985838, "IIZ"),
        (-0.8142040059864502, "IXX"),
        (-0.37957041394498237, "ZII"),
        (-0.6617181278349545, "ZYI"),
    ], "0x1.b5dbc6e75e5eap+0", "1c7601a4b649ba2c", 224, True, 66),
    ("random1", [
        (-0.3010430584561853, "XXY"),
        (0.9814221923364888, "YIY"),
        (-0.5197902014240358, "YYZ"),
        (0.92419774931161, "ZZZ"),
    ], "0x1.1c4e7b6fb6cebp+0", "32f9eaf674dfcca2", 224, True, 72),
    ("random2", [
        (-0.7623500471995264, "IXY"),
        (0.9520246983189482, "IZX"),
        (-0.74106313984974, "YIX"),
        (-0.5087141634601973, "YXX"),
    ], "0x1.dd6bde306c00cp+0", "a7c26a70ea5bbd99", 224, True, 144),
    ("random3", [
        (0.6000010330089234, "IYI"),
        (-0.8310938228084432, "YIX"),
        (0.37162394534545207, "YXY"),
        (0.8948378362263076, "ZZY"),
    ], "0x1.6e5c3b83359cep+0", "78fdf2b86663fbb0", 224, True, 136),
    ("random4", [
        (-0.6932668031116229, "XII"),
        (-0.5797593547913169, "XZX"),
        (0.4376474678404866, "YZI"),
        (-0.4262012785901666, "YZX"),
    ], "0x1.89d7e60ef7d0ap+0", "d546ab75952a83e6", 224, True, 56),
    ("random5", [
        (-0.9750504046259958, "XYZ"),
        (0.7365849096743062, "XZY"),
        (0.9793911341928365, "YIZ"),
        (-0.8509228996521396, "ZXI"),
    ], "0x1.61cae6a9c23e0p+0", "b07a10c0fd0e61af", 224, True, 56),
    ("random6", [
        (0.3887284858028138, "IXI"),
        (-0.5077304378726146, "YIY"),
        (-0.8946222878326757, "YXI"),
        (0.9756619945861629, "ZZI"),
    ], "0x1.ca844c5be8492p+0", "915e633af8b7e6e9", 224, True, 149),
    ("random7", [
        (-0.7127902007454457, "XYY"),
        (0.7686732967991655, "YII"),
        (0.6661348428680994, "YYZ"),
        (0.6883162027255625, "YZI"),
    ], "0x1.b9febcd55b459p+0", "585f3b00878720fa", 224, True, 104),
    ("ZZZ", [
        (1.0, "ZZZ"),
    ], "0x1.0000000000000p+0", "f95bc6ef57612d10", 224, True, 64),
    ("GHZ", [
        (1.0, "XXX"),
        (1.0, "ZZI"),
        (1.0, "ZIZ"),
        (1.0, "IZZ"),
    ], "0x1.8000000000000p+1", "f95bc6ef57612d10", 224, True, 152),
    ("four_qubit", [
        (1.0, "XXXX"),
        (0.5, "ZZII"),
        (0.7, "IZZI"),
        (-0.3, "YYZZ"),
    ], "0x1.3333333333333p+0", "08d95ca4bff64239", 224, True, 127),
    ("mermin", [
        (1.0, "XXX"),
        (-1.0, "XYY"),
        (-1.0, "YXY"),
        (-1.0, "YYX"),
    ], "0x1.0000000000002p+0", "c9664aaf14855689", 224, True, 168),
]
# the cases of _lockstep_cases in the same form; sites that are not qubits
# are eigensolved, so only their value, flags and counts are pinned
LOCKSTEP_PINS = {
    "qubits0": ("0x1.45f5f18d6d19cp+0", "294ef26ac1a576f6", 224, True, 108),
    "qubits1": ("0x1.7a35de24b0544p+0", "735678e0ac2a8164", 224, True, 144),
    "qubits2": ("0x1.0d24293e1e3e4p+0", "0ab843b3196c0a16", 224, True, 8),
    "qutrits": ("0x1.072ed5c882d68p+1", None, 224, True, 134),
    "blocked": ("0x1.34fa9ff330e68p+0", None, 224, True, 128),
    "mixed": ("0x1.1d9ae272d8221p+0", None, 224, True, 6),
}

def _digest(state):
    return hashlib.sha256(b"".join(v.tobytes() for v in state.vectors)).hexdigest()[:16]


@pytest.mark.parametrize("name, terms, lam, digest, restarts, converged, best", SPI_PINS)
def test_qubit_searches_keep_their_bits(name, terms, lam, digest, restarts, converged, best):
    res = mp.spi_lambda_max(mp.ObservableSum.from_pauli_strings(terms))
    assert res.lambda_max == float.fromhex(lam)
    assert _digest(res.optimizer) == digest
    assert (res.restarts_used, res.converged, res.best_starts) == (restarts, converged, best)


@pytest.mark.parametrize("name, obs", _lockstep_cases())
def test_lockstep_cases_keep_their_values(name, obs):
    lam, digest, restarts, converged, best = LOCKSTEP_PINS[name]
    res = mp.spi_lambda_max(obs)
    assert (res.restarts_used, res.converged, res.best_starts) == (restarts, converged, best)
    want = float.fromhex(lam)
    if digest is None:
        assert abs(res.lambda_max - want) <= 1e-15 * max(1.0, abs(want))
    else:
        assert res.lambda_max == want
        assert _digest(res.optimizer) == digest


# every SPIResult field at commit a7616f5, before the sweep wrote its site
# states in place and read h . h through entcert._linalg: lambda_max in hex,
# each optimizer vector as the hex of its real and imaginary parts in order
# (its bytes), restarts_used, converged and best_starts
SPI_BITS = {
    "ZZZ": (
        "0x1.0000000000000p+0",
        (
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ),
        224, True, 64,
    ),
    "ghz_stabilizers": (
        "0x1.8000000000000p+1",
        (
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ),
        224, True, 152,
    ),
    "mermin": (
        "0x1.0000000000002p+0",
        (
            ("0x1.6a09e667f3bcdp-1", "0x0.0p+0", "-0x1.33b3ffcf24925p-1", "-0x1.7d87037cae2a9p-2"),
            ("0x1.6a09e667f3bcdp-1", "0x0.0p+0", "-0x1.eb10d8602a633p-2", "-0x1.0a0e3d51d7175p-1"),
            ("0x1.6a09e667f3bcdp-1", "0x0.0p+0", "0x1.11f9e16c3adcdp-3", "-0x1.63801d5fbeaeep-1"),
        ),
        224, True, 168,
    ),
    "XYY": (
        "0x1.0000000000000p+0",
        (
            ("0x1.6a09e667f3bcdp-1", "0x0.0p+0", "0x1.6a09e667f3bccp-1", "0x0.0p+0"),
            ("0x1.6a09e667f3bcdp-1", "0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bccp-1"),
            ("0x1.6a09e667f3bcdp-1", "0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bccp-1"),
        ),
        224, True, 64,
    ),
    "four_qubit": (
        "0x1.3333333333333p+0",
        (
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.6a09e667f3bcdp-1", "0x0.0p+0", "0x1.6a09e667f3bcbp-1", "0x0.0p+0"),
        ),
        224, True, 127,
    ),
    "mixed": (
        "0x1.1d9ae272d821fp+0",
        (
            ("0x1.6a09e668a445ep-1", "0x0.0p+0", "-0x1.7e1264587c20ap-3", "0x1.5d3603c6b729ap-1"),
            (
                "0x1.f542f896648c3p-35", "0x1.5f486a158882bp-37",
                "-0x1.a20ff00fbd72ap-1", "-0x1.24fa1b0767456p-3",
                "-0x1.8b578d8d94e19p-4", "0x1.1a10d856fe23ep-1",
            ),
            ("0x1.d08c6d9b94293p-1", "0x0.0p+0", "0x0.0p+0", "0x1.ae873c76c6c50p-2"),
        ),
        224, True, 6,
    ),
    "k_separable": (
        "0x1.8000000000000p+1",
        (
            ("0x1.0000000000000p+0",) + ("0x0.0p+0",) * 7,
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ),
        224, True, 144,
    ),
}


def _spi_bits_cases():
    ghz = mp.ObservableSum.from_pauli_strings([(1.0, w) for w in GHZ_WORDS])
    pauli = mp.ObservableSum.from_pauli_strings
    return [
        ("ZZZ", lambda: mp.spi_lambda_max(pauli([(1.0, "ZZZ")]))),
        ("ghz_stabilizers", lambda: mp.spi_lambda_max(ghz)),
        ("mermin", lambda: mp.spi_lambda_max(
            pauli([(1.0, "XXX"), (-1.0, "XYY"), (-1.0, "YXY"), (-1.0, "YYX")]))),
        ("XYY", lambda: mp.spi_lambda_max(pauli([(1.0, "XYY")]))),
        ("four_qubit", lambda: mp.spi_lambda_max(
            pauli([(1.0, "XXXX"), (0.5, "ZZII"), (0.7, "IZZI"), (-0.3, "YYZZ")]))),
        ("mixed", lambda: mp.spi_lambda_max(dict(_lockstep_cases())["mixed"])),
        ("k_separable", lambda: mp.k_separable_lambda_max(ghz, [[0, 1], [2]])),
    ]


@pytest.mark.parametrize("name, search", _spi_bits_cases())
def test_spi_results_keep_their_bits(name, search):
    lam, vectors, restarts, converged, best = SPI_BITS[name]
    res = search()
    assert res.lambda_max.hex() == lam
    want = [np.array([float.fromhex(x) for x in v]).view(complex) for v in vectors]
    assert [v.tobytes() for v in res.optimizer.vectors] == [v.tobytes() for v in want]
    assert (res.restarts_used, res.converged, res.best_starts) == (restarts, converged, best)


# -- ne_multipartite ----------------------------------------------------------------


# values of the implementation that rebuilt and converted the multistart on
# every evaluation (commit 54b7fae); the cached path must give the same bits
NE_PINS = [
    (GHZ_WORDS, [1.0] * 4, "0x1.ae20980b8217cp+0", "0x1.c5154cc3989bap-1",
     ["0x1.342e29ef8dea3p-1", "0x1.b348deebe585bp-4", "0x1.952c961b9b423p-1",
      "-0x1.a0194d5fd5d0cp-7"]),
    (["ZZZ"], [1.0], "0x1.0000000000000p+0", "0x1.0000000000000p+0",
     ["0x1.0000000000000p+0"]),
    (["XX", "XY", "ZX"], [-0.95, 0.03, -0.96], "0x1.59e14a1e8de30p+0", "0x1.ffefac9885608p-1",
     ["-0x1.680ca7ab809fap-1", "0x1.6bd6e4b816302p-6", "-0x1.6bd6e4b816302p-1"]),
    (["ZII", "IZI", "ZZI"], [1.0] * 3, "0x1.0000000000000p+0", "0x1.bb67ae8584cacp+0",
     ["0x1.279a74590331dp-1"] * 3),
    (["XXX", "XYY", "YXY", "YYX"], [1.0, -1.0, -1.0, -1.0], "0x1.ffffffffffffcp+1",
     "0x1.0000000000002p-1",
     ["0x1.0000000000000p-1", "-0x1.0000000000000p-1", "-0x1.0000000000000p-1",
      "-0x1.0000000000000p-1"]),
    (["XZX", "YYI"], [-0.0064133, 0.4244311], "0x1.b2b7784c214a1p-2", "0x1.fff10a0a3813ap-1",
     ["-0x1.ef144939834c2p-7", "0x1.fff10a0a3813ap-1"]),
]


@pytest.mark.parametrize("labels, estimates, value, lam, coefficients", NE_PINS)
def test_ne_multipartite_values_are_unchanged_bit_for_bit(
    labels, estimates, value, lam, coefficients
):
    res = mp.ne_multipartite(labels, estimates)
    assert res.value == float.fromhex(value)
    assert res.lambda_max == float.fromhex(lam)
    assert res.coefficients == tuple(float.fromhex(c) for c in coefficients)
    if labels == GHZ_WORDS:
        assert f"{res.value:.6f}" == "1.680185"


@pytest.mark.parametrize(
    "estimates, label",
    [
        ([math.nan, 1.0], "ZZZ"),
        ([1.0, math.inf], "XXX"),
        ([-math.inf, 1.0], "ZZZ"),
        ([1.0, 1.06], "XXX"),
        ([-1.06, 0.0], "ZZZ"),
        ([1e308, 1e308], "ZZZ"),
        ([1.0, 10**400], "XXX"),
    ],
)
def test_ne_rejects_non_finite_and_out_of_range_estimates(estimates, label):
    with pytest.raises(ValueError, match=rf"estimate of {label} must be finite and within"):
        mp.ne_multipartite(["ZZZ", "XXX"], estimates)


def test_ne_rejects_huge_estimates_on_three_terms_without_a_warning():
    # this once overflowed and returned 1.79e308 with "entangled"
    with pytest.raises(ValueError, match="estimate of ZZZ"):
        mp.ne_multipartite(["ZZZ", "XXX", "YYY"], [1e308] * 3)


def test_ne_accepts_estimates_at_the_value_cap():
    res = mp.ne_multipartite(["ZZZ", "XXX"], [1.05, -1.05])
    assert math.isfinite(res.value)
