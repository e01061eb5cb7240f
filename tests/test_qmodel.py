import contextlib
import io
import math

import numpy as np
import pytest

from entcert import cli
from entcert import qmodel as qm
from entcert.grids import CorrelatorGrid, emit_grid


def _fidelity(rho: qm.DensityMatrix, vec: np.ndarray) -> float:
    v = vec / np.linalg.norm(vec)
    return float(np.real(v.conj() @ rho.matrix @ v))


def _partial_transpose(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    da, db = dims
    t = m.reshape(da, db, da, db).transpose(2, 1, 0, 3)
    return t.reshape(da * db, da * db)


def test_bell_state_standard_correlators():
    rho = qm.make_state(qm.StateFamilyParams("bell"))
    assert qm.ideal_correlator(rho, "X", "X") == pytest.approx(1.0, abs=1e-12)
    assert qm.ideal_correlator(rho, "Y", "Y") == pytest.approx(-1.0, abs=1e-12)
    assert qm.ideal_correlator(rho, "Z", "Z") == pytest.approx(1.0, abs=1e-12)


def test_psi_theta_reaches_bell_at_quarter_pi():
    rho = qm.make_state(qm.StateFamilyParams("psi_theta", math.pi / 4))
    bell = qm.family_vector(qm.StateFamilyParams("bell"))
    assert _fidelity(rho, bell) == pytest.approx(1.0, abs=1e-12)


def test_psi_theta_correlators_match_trig_forms():
    for th in np.linspace(-math.pi, math.pi, 9):
        rho = qm.make_state(qm.StateFamilyParams("psi_theta", float(th)))
        assert qm.ideal_correlator(rho, "X", "X") == pytest.approx(
            math.sin(2 * th), abs=1e-10
        )
        assert qm.ideal_correlator(rho, "Z", "Z") == pytest.approx(1.0, abs=1e-10)


def test_chi1_matches_direct_matrix_product_oracle():
    th = 0.7321
    rho = qm.make_state(qm.StateFamilyParams("chi1", th))
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)
    # Independent construction: hand-expanded column of (1 x R_Y)|Phi+>.
    c, s = math.cos(th / 2), math.sin(th / 2)
    oracle = np.array([c, s, -s, c], dtype=complex) / math.sqrt(2)
    assert _fidelity(rho, oracle) == pytest.approx(1.0, abs=1e-12)


def test_chi3_applies_a_unitary():
    th = 2.0944
    h = math.cos(th) * qm.PAULI_X + math.sin(th) * qm.PAULI_Z
    v = (qm.PAULI_I + 1j * h) / math.sqrt(2)
    assert np.abs(v @ v.conj().T - np.eye(2)).max() < 1e-12
    rho = qm.make_state(qm.StateFamilyParams("chi3", th))
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        qm.StateFamilyParams("chi2")


def test_counterexample_state_has_vanishing_xx_and_zz():
    # (|0>|+> + |1>|->)/sqrt(2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    vec = (np.kron([1.0, 0.0], plus) + np.kron([0.0, 1.0], minus)) / math.sqrt(2)
    rho = qm.DensityMatrix.from_vector(vec, (2, 2))
    assert qm.ideal_correlator(rho, "X", "X") == pytest.approx(0.0, abs=1e-12)
    assert qm.ideal_correlator(rho, "Z", "Z") == pytest.approx(0.0, abs=1e-12)


def test_ideal_correlator_linear_in_state_and_bounded():
    rng = np.random.default_rng(2)
    rho1 = qm.sample_separable(2, 3, seed=10)
    rho2 = qm.sample_separable(2, 2, seed=11)
    lam = 0.3
    mix = qm.DensityMatrix(
        lam * rho1.matrix + (1 - lam) * rho2.matrix, (2, 2)
    )
    for _ in range(20):
        a, b = rng.choice(list("XYZ"), size=2)
        v_mix = qm.ideal_correlator(mix, a, b)
        v1 = qm.ideal_correlator(rho1, a, b)
        v2 = qm.ideal_correlator(rho2, a, b)
        assert v_mix == pytest.approx(lam * v1 + (1 - lam) * v2, abs=1e-12)
        assert abs(v_mix) <= 1.0 + 1e-12


def test_ideal_correlator_dimension_mismatch():
    rho = qm.make_state(qm.StateFamilyParams("bell"))
    with pytest.raises(ValueError, match="dimension mismatch"):
        qm.ideal_correlator(rho, np.eye(3), "Z")


def test_sample_correlator_deterministic_distribution():
    rho = qm.make_state(qm.StateFamilyParams("bell"))
    # <ZZ> outcomes are deterministic for |Phi+>.
    for shots in (1, 10, 1000):
        assert qm.sample_correlator(rho, "Z", "Z", shots, seed=4) == 1.0


def test_sample_correlator_binomial_error_bound():
    mixed = qm.DensityMatrix(np.eye(4) / 4, (2, 2))
    est = qm.sample_correlator(mixed, "X", "X", shots=10**6, seed=42)
    assert abs(est) < 5e-3


def test_sample_correlator_seed_determinism():
    rho = qm.make_state(qm.StateFamilyParams("chi3", 1.0))
    a = qm.sample_correlator(rho, "X", "Z", 500, seed=9)
    b = qm.sample_correlator(rho, "X", "Z", 500, seed=9)
    c = qm.sample_correlator(rho, "X", "Z", 500, seed=10)
    assert a == b
    assert a != c  # overwhelmingly likely for 500 shots


def test_sample_correlator_rejects_zero_shots():
    rho = qm.make_state(qm.StateFamilyParams("bell"))
    with pytest.raises(ValueError, match="shots"):
        qm.sample_correlator(rho, "Z", "Z", 0, seed=1)


def test_gell_mann_qubit_basis_is_pauli():
    basis = qm.gell_mann_basis(2)
    assert np.allclose(basis.operators[0], np.eye(2))
    assert np.allclose(basis.operators[1], qm.PAULI_X)
    assert np.allclose(basis.operators[2], qm.PAULI_Y)
    assert np.allclose(basis.operators[3], qm.PAULI_Z)


def test_gell_mann_qutrit_normalization():
    basis = qm.gell_mann_basis(3)
    assert len(basis.operators) == 9
    for k, op in enumerate(basis.operators):
        for l, other in enumerate(basis.operators):
            want = 3.0 if k == l else 0.0
            assert np.trace(op.conj().T @ other).real == pytest.approx(
                want, abs=1e-9
            )


def test_gell_mann_rejects_dimension_one():
    with pytest.raises(ValueError):
        qm.gell_mann_basis(1)


def test_purity_identity_for_pure_states():
    # sum_{i>=1} |Tr(rho G_i)|^2 == d - 1 for pure qudit states.
    rng = np.random.default_rng(8)
    for d in (2, 3):
        basis = qm.gell_mann_basis(d).operators
        for _ in range(25):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            total = sum(
                abs(np.trace(rho @ basis[i]).real) ** 2 for i in range(1, d * d)
            )
            assert total == pytest.approx(d - 1, abs=1e-9)


def test_sample_separable_single_term_is_pure_product():
    rho = qm.sample_separable(2, 1, seed=3)
    assert rho.purity() == pytest.approx(1.0, abs=1e-10)


def test_sample_separable_is_ppt_for_qubit_pairs():
    for seed in range(30):
        rho = qm.sample_separable(2, terms=4, seed=seed)
        pt = _partial_transpose(rho.matrix, rho.dims)
        eigs = np.linalg.eigvalsh(pt)
        assert eigs.min() >= -1e-10


def test_sample_separable_seed_determinism_and_mixed_dims():
    a = qm.sample_separable(3, 2, seed=5, d_b=2)
    b = qm.sample_separable(3, 2, seed=5, d_b=2)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.dims == (3, 2)


def _separable_term_by_term(d, terms, seed, d_b):
    # one rng.normal(size=dim) call per real and per imaginary part, factor A
    # then factor B, term after term: the draw order sample_separable keeps
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    total = np.zeros((d * d_b, d * d_b), dtype=complex)
    for w in weights:
        va = rng.normal(size=d) + 1.0j * rng.normal(size=d)
        vb = rng.normal(size=d_b) + 1.0j * rng.normal(size=d_b)
        v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        total += w * np.outer(v, v.conj())
    return total


def test_sample_separable_keeps_the_term_by_term_draw_order():
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for terms in range(1, 5):
            for seed in range(20):
                rho = qm.sample_separable(dims[0], terms, seed=seed, d_b=dims[1])
                want = _separable_term_by_term(dims[0], terms, seed, dims[1])
                assert rho.dims == dims
                assert np.abs(rho.matrix - want).max() <= 1e-14


@pytest.mark.parametrize("d, d_b", [(1, None), (1, 1), (2, 1), (1, 2), (0, None), (2, 0)])
def test_sample_separable_rejects_dimensions_below_two(d, d_b):
    with pytest.raises(ValueError, match="local dimensions must be two integers >= 2, got"):
        qm.sample_separable(d, 2, seed=0, d_b=d_b)


@pytest.mark.parametrize("terms", [0, -1, True, False, 2.0, "2", None])
def test_sample_separable_rejects_terms_that_are_not_positive_ints(terms):
    with pytest.raises(ValueError, match=r"terms must be an int >= 1, got "):
        qm.sample_separable(2, terms, seed=0)


def test_sample_separable_accepts_numpy_integer_terms():
    a = qm.sample_separable(2, np.int64(3), seed=4)
    b = qm.sample_separable(2, 3, seed=4)
    assert np.array_equal(a.matrix, b.matrix)


def test_separable_correlations_respect_operator_norm_bound():
    # |sum c_ij <G_i x G_j>| <= sqrt((dA-1)(dB-1)) * ||C||_inf for separable
    # states; checked with exact correlator grids and random supports.
    rng = np.random.default_rng(77)
    for da, db in ((2, 2), (3, 3), (3, 2)):
        bound_scale = math.sqrt((da - 1) * (db - 1))
        basis_a = qm.gell_mann_basis(da).operators
        basis_b = qm.gell_mann_basis(db).operators
        for seed in range(8):
            rho = qm.sample_separable(da, 3, seed=1000 + seed, d_b=db)
            t = np.zeros((da * da - 1, db * db - 1))
            for i in range(da * da - 1):
                for j in range(db * db - 1):
                    t[i, j] = qm.ideal_correlator(
                        rho, basis_a[i + 1], basis_b[j + 1]
                    )
            for _ in range(10):
                c = rng.normal(size=t.shape)
                mask = rng.uniform(size=t.shape) < 0.5
                c = c * mask
                if not mask.any():
                    continue
                total = float((c * t).sum())
                cap = bound_scale * np.linalg.norm(c, 2)
                assert abs(total) <= cap + 1e-9


def test_correlator_grid_full_support_ideal():
    rho = qm.make_state(qm.StateFamilyParams("bell"))
    g = qm.correlator_grid(rho)
    assert len(g.measured) == 9
    assert g.value_at((0, 0)) == pytest.approx(1.0, abs=1e-10)
    assert g.value_at((1, 1)) == pytest.approx(-1.0, abs=1e-10)
    assert g.value_at((2, 2)) == pytest.approx(1.0, abs=1e-10)


def test_correlator_grid_matches_entrywise_traces():
    # the cached contraction table against one trace of G_i (x) G_j per entry;
    # the summation order differs, so equality holds to roundoff only
    for da, db in ((2, 2), (3, 3), (2, 3), (3, 2)):
        basis_a = qm.gell_mann_basis(da).operators
        basis_b = qm.gell_mann_basis(db).operators
        for seed in range(3):
            rho = qm.sample_separable(da, 2, seed=seed, d_b=db)
            g = qm.correlator_grid(rho)
            assert len(g.measured) == (da * da - 1) * (db * db - 1)
            for i, j in g.measured:
                want = qm.ideal_correlator(rho, basis_a[i + 1], basis_b[j + 1])
                assert g.value_at((i, j)) == pytest.approx(want, abs=1e-13)


def test_gell_mann_basis_is_shared_and_read_only():
    basis = qm.gell_mann_basis(3)
    assert qm.gell_mann_basis(3) is basis
    with pytest.raises(ValueError):
        basis.operators[1][0, 0] = 2.0


@pytest.mark.parametrize("shots, seed, message", [
    (2.5, 1, r"shots must lie in \[1, 9223372036854775807\] as an int, got 2\.5"),
    (True, 1, r"shots must lie in \[1, 9223372036854775807\] as an int, got True"),
    (2**63, 1, r"shots must lie in .* as an int, got 9223372036854775808"),
    (100, True, r"seed must be an int >= 0, got True"),
    (100, 1.0, r"seed must be an int >= 0, got 1\.0"),
    (100, -1, r"seed must be an int >= 0, got -1"),
])
def test_sampling_reads_shots_and_seed_as_ints(shots, seed, message):
    rho = qm.make_state(qm.StateFamilyParams("bell"))
    with pytest.raises(ValueError, match=message):
        qm.correlator_grid(rho, shots=shots, seed=seed)
    with pytest.raises(ValueError, match=message):
        qm.family_grid_values("bell", [0.0, 1.0], shots=shots, seed=seed)
    with pytest.raises(ValueError, match=message):
        qm.sample_correlator(rho, "X", "X", shots, seed)


@pytest.mark.parametrize("seed", [True, False, np.True_, 1.0, 2.5, -1, "3", None])
def test_sample_separable_reads_its_seed_as_an_int(seed):
    with pytest.raises(ValueError, match=r"seed must be an int >= 0, got "):
        qm.sample_separable(2, 2, seed=seed)


def test_numpy_integer_shots_and_seeds_sample_as_ints():
    rho = qm.make_state(qm.StateFamilyParams("chi1", 0.4))
    assert qm.correlator_grid(rho, np.int64(200), np.int64(6)) == qm.correlator_grid(
        rho, 200, 6
    )
    assert np.array_equal(
        qm.family_grid_values("chi1", [0.4], 0.0, np.int32(200), np.uint8(6)),
        qm.family_grid_values("chi1", [0.4], 0.0, 200, 6),
    )
    assert np.array_equal(
        qm.sample_separable(2, 2, seed=np.int64(5)).matrix,
        qm.sample_separable(2, 2, seed=5).matrix,
    )


def test_contraction_table_is_shared_and_read_only():
    table = qm._contraction_table(3, 2)
    assert qm._contraction_table(3, 2) is table
    assert table.shape == (8 * 3, 36)
    with pytest.raises(ValueError):
        table[0, 0] = 2.0


def test_correlator_grid_sampled_deterministic():
    rho = qm.make_state(qm.StateFamilyParams("chi1", 0.4))
    g1 = qm.correlator_grid(rho, shots=200, seed=6)
    g2 = qm.correlator_grid(rho, shots=200, seed=6)
    assert g1 == g2
    with pytest.raises(ValueError, match="seed"):
        qm.correlator_grid(rho, shots=200)


def test_depolarize_limits():
    rho = qm.make_state(qm.StateFamilyParams("bell"))
    noisy = qm.depolarize(rho, 1.0)
    assert np.allclose(noisy.matrix, np.eye(4) / 4)
    assert np.allclose(qm.depolarize(rho, 0.0).matrix, rho.matrix)
    with pytest.raises(ValueError):
        qm.depolarize(rho, 1.5)


def test_joint_projectors_are_shared_and_read_only():
    projectors = qm._joint_projectors("X", "Z")
    assert qm._joint_projectors("X", "Z") is projectors
    assert np.allclose(projectors.sum(axis=0), np.eye(4))
    grid = qm._grid_projectors()
    assert qm._grid_projectors() is grid
    assert grid.shape == (9, 4, 4, 4)
    assert grid[2] is not projectors and np.array_equal(grid[2], projectors)
    for table in (projectors, grid):
        with pytest.raises(ValueError):
            table[0, 0, 0] = 2.0


def _reference_vector(family, theta):
    """The family formulas written for one angle, with a kron per call."""
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    if family == "bell":
        return phi_plus
    if family == "psi_theta":
        return np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)
    if family == "chi1":
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        r_y = np.array([[c, -s], [s, c]], dtype=complex)
        return np.kron(qm.PAULI_I, r_y) @ phi_plus
    h = math.cos(theta) * qm.PAULI_X + math.sin(theta) * qm.PAULI_Z
    return np.kron(qm.PAULI_I, (qm.PAULI_I + 1.0j * h) / math.sqrt(2)) @ phi_plus


def _reference_grid(family, theta, noise, shots, seed):
    v = _reference_vector(family, theta)
    v = v / np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    if noise:
        rho = (1.0 - noise) * rho + noise * np.eye(4) / 4
    cells = [(i, j) for i in range(3) for j in range(3)]
    if shots is None:
        values = (qm._contraction_table(2, 2) @ rho.ravel()).real.tolist()
        return CorrelatorGrid((2, 2), dict(zip(cells, values)))
    streams = np.random.SeedSequence(seed).spawn(9)
    values = {}
    for (i, j), stream in zip(cells, streams):
        probs, outcomes = [], []
        for sa in (1.0, -1.0):
            proj_a = 0.5 * (qm.PAULI_I + sa * qm.PAULI["XYZ"[i]])
            for sb in (1.0, -1.0):
                proj_b = 0.5 * (qm.PAULI_I + sb * qm.PAULI["XYZ"[j]])
                p = np.trace(np.kron(proj_a, proj_b) @ rho).real
                probs.append(max(p, 0.0))
                outcomes.append(sa * sb)
        probs = np.array(probs)
        probs /= probs.sum()
        counts = np.random.default_rng(stream).multinomial(shots, probs)
        values[(i, j)] = float(np.dot(counts, outcomes) / shots)
    return CorrelatorGrid((2, 2), values)


@pytest.mark.parametrize("family", qm.FAMILIES)
def test_simulate_bytes_equal_the_one_angle_reference(family):
    rng = np.random.default_rng(sum(map(ord, family)))
    for theta in [0.0, math.pi / 4, -math.pi, *rng.uniform(-7.0, 7.0, size=6).tolist()]:
        for noise in (0.0, 0.1, 0.37):
            for shots in (None, 1, 500):
                seed = None if shots is None else int(rng.integers(2**31))
                argv = ["simulate", "--family", family, f"--theta={theta!r}",
                        "--noise", repr(noise)]
                if shots:
                    argv += ["--shots", str(shots), "--seed", str(seed)]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(argv) == 0
                want = _reference_grid(family, theta, noise, shots, seed)
                assert out.getvalue().encode() == emit_grid(want), argv


@pytest.mark.parametrize("family", qm.FAMILIES)
def test_stacked_family_grids_are_the_one_angle_grids_bit_for_bit(family):
    thetas = np.linspace(-4.0, 4.0, 23)
    for noise in (0.0, 0.2):
        states = qm.family_states(family, thetas, noise)
        for shots, seed in ((None, None), (300, 41)):
            values = qm.family_grid_values(family, thetas, noise, shots, seed)
            assert values.shape == (23, 9)
            for k, theta in enumerate(thetas.tolist()):
                rho = qm.make_state(qm.StateFamilyParams(family, theta))
                if noise:
                    rho = qm.depolarize(rho, noise)
                assert np.array_equal(states[k], rho.matrix)
                one = qm.correlator_grid(rho, shots, None if seed is None else seed + k)
                assert values[k].tolist() == [one.values[c] for c in one.measured]


def test_stacked_family_states_are_checked():
    with pytest.raises(ValueError, match="unknown family"):
        qm.family_states("ghz", [0.0])
    with pytest.raises(ValueError, match="theta must be finite"):
        qm.family_states("chi1", [0.0, math.inf])
    with pytest.raises(ValueError, match="noise probability"):
        qm.family_states("bell", [0.0], 1.5)
    with pytest.raises(ValueError, match="seed is required"):
        qm.family_grid_values("bell", [0.0], shots=10)
    with pytest.raises(ValueError, match="shots must lie in"):
        qm.family_grid_values("bell", [0.0], shots=0, seed=1)
    with pytest.raises(ValueError, match="zero state vector"):
        qm.DensityMatrix.from_vector(np.zeros(4), (2, 2))
    not_hermitian = np.zeros((2, 4, 4), dtype=complex)
    not_hermitian[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        qm._check_density(not_hermitian)


def test_states_with_nan_entries_are_rejected(monkeypatch):
    pair = np.eye(4, dtype=complex) / 4
    pair[0, 1] = pair[1, 0] = np.nan
    for bad in (np.full((4, 4), np.nan), pair):
        with pytest.raises(ValueError, match="not Hermitian"):
            qm.DensityMatrix(bad, (2, 2))
    rho = qm.DensityMatrix(np.eye(4) / 4, (2, 2))
    object.__setattr__(rho, "matrix", pair)
    with pytest.raises(ValueError, match="not Hermitian"):
        qm.depolarize(rho, 0.1)
    # one NaN pair in one state of a stack fails the stack
    pure = qm._pure_states

    def spoiled(vectors):
        states = pure(vectors)
        states[1, 0, 1] = states[1, 1, 0] = np.nan
        return states

    monkeypatch.setattr(qm, "_pure_states", spoiled)
    with pytest.raises(ValueError, match="not Hermitian"):
        qm.family_states("chi3", [0.1, 0.2, 0.3], 0.1)
    monkeypatch.undo()
    # finite states keep their bits
    thetas = [0.1, 0.2, 0.3]
    states = qm.family_states("chi3", thetas, 0.1)
    for theta, state in zip(thetas, states):
        alone = qm.depolarize(qm.make_state(qm.StateFamilyParams("chi3", theta)), 0.1)
        assert np.array_equal(alone.matrix, state)
        assert np.array_equal(qm.DensityMatrix(state, (2, 2)).matrix, state)


def test_states_with_infinite_entries_are_rejected_without_a_warning(monkeypatch):
    # inf - inf in the Hermitian check is NaN, so an infinite entry fails it
    # as NaN does, with no "invalid value" warning first (an error here)
    corner = np.eye(4, dtype=complex) / 4
    corner[0, 0] = np.inf
    pair = np.eye(4, dtype=complex) / 4
    pair[0, 1] = pair[1, 0] = np.inf
    for bad in (corner, pair):
        with pytest.raises(ValueError, match="not Hermitian"):
            qm.DensityMatrix(bad, (2, 2))
        rho = qm.DensityMatrix(np.eye(4) / 4, (2, 2))
        object.__setattr__(rho, "matrix", bad)
        with pytest.raises(ValueError, match="not Hermitian"):
            qm.depolarize(rho, 0.1)
    # one infinite entry in one state of a stack fails the stack
    pure = qm._pure_states
    for spoil in ((0, 0), (0, 1)):

        def spoiled(vectors):
            states = pure(vectors)
            states[1][spoil] = states[1][spoil[::-1]] = np.inf
            return states

        monkeypatch.setattr(qm, "_pure_states", spoiled)
        for noise in (0.0, 0.1):
            with pytest.raises(ValueError, match="not Hermitian"):
                qm.family_states("chi3", [0.1, 0.2, 0.3], noise)
        monkeypatch.undo()
