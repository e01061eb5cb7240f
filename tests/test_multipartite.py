"""Product-state optimization: sweeps, blocks, and the coefficient search."""

import math

import numpy as np
import pytest
import scipy.optimize

from entcert import multipartite as mp
from entcert import solver
from entcert.grids import CorrelatorGrid, MeasurementSet
from entcert.qmodel import PAULI, gell_mann_basis
from entcert.witness import DETECTION_TOL

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


def test_product_state_validation():
    with pytest.raises(ValueError, match="unit"):
        mp.ProductState([np.array([1.0, 1.0]), np.array([1.0, 0.0])])


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
    # with 12 starts, X eigenvectors sit on sites 1-2 of XYY, where the
    # effective operator of site 0 vanishes; the sweep must keep X+ there
    obs = mp.ObservableSum.from_pauli_strings([(1.0, "XYY")])
    res = mp.spi_lambda_max(obs, mp.SPIOptions(restarts=12, random_starts=4))
    assert res.lambda_max == pytest.approx(1.0, abs=1e-12)


def _reference_sweep(obs, vectors, opts):
    """One start at a time, unbatched: the sweep as a plain loop."""
    vectors = list(vectors)
    value = obs.expectation(mp.ProductState(vectors))
    for _ in range(opts.max_sweeps):
        for site in range(obs.parties):
            eff = mp._effective_operator(obs, vectors, site)
            vectors[site] = mp._top_eigenvector(eff, vectors[site])
        new_value = obs.expectation(mp.ProductState(vectors))
        if new_value - value < opts.tol:
            return new_value, True
        value = new_value
    return value, False


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
    return cases


@pytest.mark.parametrize("name, obs", _lockstep_cases())
def test_lockstep_sweep_equals_one_start_at_a_time(name, obs):
    """Batching the starts changes no start's value or convergence flag."""
    opts = mp.SPIOptions()
    starts = mp._starts(obs.dims, opts, None)
    values, vectors, converged = mp._lockstep_sweeps(obs, starts, opts)
    assert len(values) == 224
    for site in range(obs.parties):
        batched = mp._effective_operator(obs, starts, site)
        for i in (0, 100, 223):
            single = mp._effective_operator(obs, [v[i] for v in starts], site)
            assert np.allclose(batched[i], single, rtol=0, atol=1e-14)
    for i in range(len(values)):
        one_values, _, one_converged = mp._lockstep_sweeps(obs, [v[i:i + 1] for v in starts], opts)
        assert abs(one_values[0] - values[i]) <= 1e-12
        assert one_converged[0] == converged[i]
        ref_value, ref_converged = _reference_sweep(obs, [v[i] for v in starts], opts)
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
