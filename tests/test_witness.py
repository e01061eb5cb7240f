import math

import numpy as np
import pytest

from entcert import qmodel as qm
from entcert.grids import CorrelatorGrid
from entcert.witness import (
    CoefficientMatrix,
    MirroredWitnessPair,
    decide,
    evaluate_witness,
    make_witness_pair,
    separable_bound,
    spectral_norms,
    witness_report,
)


def _diag_qubit(alpha: float, beta: float) -> CoefficientMatrix:
    return CoefficientMatrix.from_qubit_labels({"XX": alpha, "ZZ": beta})


def test_separable_bound_diagonal_two_correlators():
    assert separable_bound(_diag_qubit(0.4, 0.9)) == pytest.approx(0.9, abs=1e-12)


def test_separable_bound_qutrit_single_entry():
    c = CoefficientMatrix((3, 3), ((1, 1),), (1.0,))
    assert separable_bound(c) == pytest.approx(2.0, abs=1e-12)


def test_spectral_norms_read_any_sequence_of_pairs():
    support = ((0, 1), (1, 2), (2, 0))
    coeffs = np.array([[0.3, -0.7, 0.2], [1.0, 0.0, -0.5]])
    want = spectral_norms((2, 2), support, coeffs)
    assert want.tolist() == [
        separable_bound(CoefficientMatrix((2, 2), support, row)) for row in coeffs.tolist()
    ]
    for same in ([list(cell) for cell in support], np.array(support)):
        assert spectral_norms((2, 2), same, coeffs).tolist() == want.tolist()


def test_separable_bound_zero_matrix():
    c = CoefficientMatrix((2, 2), ((0, 0),), (0.0,))
    assert separable_bound(c) == 0.0


def test_separable_bound_scaling_covariance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        entries = {"XX": rng.normal(), "YZ": rng.normal(), "ZY": rng.normal()}
        c = CoefficientMatrix.from_qubit_labels(entries)
        t = float(rng.uniform(-3, 3))
        assert separable_bound(c.scaled(t)) == pytest.approx(
            abs(t) * separable_bound(c), rel=1e-12
        )


def test_make_witness_pair_dense_operators_and_bell_violation():
    c = _diag_qubit(1.0, 1.0)
    pair = make_witness_pair(c)
    w_minus = pair.operator("-")
    xx = np.kron(qm.PAULI_X, qm.PAULI_X)
    zz = np.kron(qm.PAULI_Z, qm.PAULI_Z)
    assert np.abs(w_minus - (np.eye(4) - xx - zz)).max() < 1e-12
    bell = qm.make_state(qm.StateFamilyParams("bell"))
    assert np.trace(w_minus @ bell.matrix).real == pytest.approx(-1.0, abs=1e-10)


def test_witness_pair_mirror_sum_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = CoefficientMatrix.from_qubit_labels(
            {"XY": rng.normal(), "YX": rng.normal(), "ZZ": rng.normal()}
        )
        if c.is_zero():
            continue
        pair = make_witness_pair(c)
        total = pair.operator("+") + pair.operator("-")
        assert np.abs(total - 2 * pair.bound * np.eye(4)).max() < 1e-12


def test_witness_expectation_on_maximally_mixed_is_bound():
    c = CoefficientMatrix.from_qubit_labels({"XX": 0.3, "ZY": -0.8})
    pair = make_witness_pair(c)
    mixed = np.eye(4) / 4
    for sign in "+-":
        val = np.trace(pair.operator(sign) @ mixed).real
        assert val == pytest.approx(pair.bound, abs=1e-12)
        assert val >= 0.0


def test_zero_coefficients_admit_no_witness():
    c = CoefficientMatrix((2, 2), ((0, 0), (2, 2)), (0.0, 0.0))
    with pytest.raises(ValueError, match="zero"):
        make_witness_pair(c)


def test_a_pair_takes_its_expansions_own_bound():
    c = CoefficientMatrix.from_qubit_labels({"XX": 0.3, "ZY": -0.8, "YY": 0.5})
    pair = MirroredWitnessPair(c)
    assert pair.bound == separable_bound(c) == make_witness_pair(c).bound


def test_decide_is_relative_to_the_bound():
    for bound in (2.0**-40, 0.125, 1.0, 8.0, 2.0**40):
        for sign in (1.0, -1.0):
            assert decide(sign * bound * (1.0 + 2e-9), bound) == "entangled"
            assert decide(sign * bound * (1.0 + 5e-10), bound) == "undetected"
            assert decide(sign * bound, bound) == "undetected"
    assert decide(math.nan, 1.0) == "undetected"


def test_evaluate_witness_bell_grid():
    pair = make_witness_pair(_diag_qubit(1.0, 1.0))
    g = CorrelatorGrid.from_labels({"XX": 1.0, "ZZ": 1.0})
    ev = evaluate_witness(pair, g)
    assert ev.tr_minus == pytest.approx(-1.0, abs=1e-12)
    assert ev.verdict == "entangled"


def test_evaluate_witness_zero_grid_not_detected():
    pair = make_witness_pair(_diag_qubit(1.0, 1.0))
    g = CorrelatorGrid.from_labels({"XX": 0.0, "ZZ": 0.0})
    ev = evaluate_witness(pair, g)
    assert ev.tr_plus == pytest.approx(pair.bound)
    assert ev.tr_minus == pytest.approx(pair.bound)
    assert ev.verdict == "undetected"


def test_evaluate_witness_missing_correlator():
    pair = make_witness_pair(_diag_qubit(1.0, 1.0))
    g = CorrelatorGrid.from_labels({"XX": 1.0})
    with pytest.raises(ValueError, match="missing correlator ZZ"):
        evaluate_witness(pair, g)


def test_decide_agrees_with_the_witness_margin():
    # the boundary-scaled witness for {XX: 1} has bound 1 and expectation value
    pair = make_witness_pair(CoefficientMatrix.from_qubit_labels({"XX": 1.0}))
    assert pair.bound == 1.0
    for value in (1.0, 1.0 + 4e-16, 1.0 + 5e-10, 1.0 + 2e-9, 1.04):
        g = CorrelatorGrid.from_labels({"XX": value})
        assert decide(value, pair.bound) == evaluate_witness(pair, g).verdict, value
    assert decide(1.0 + 4e-16, 1.0) == "undetected"
    assert decide(1.0 + 2e-9, 1.0) == "entangled"


def test_verdict_invariant_under_positive_rescaling():
    g = CorrelatorGrid.from_labels({"XX": 0.9, "ZZ": 0.9})
    for t in (0.1, 1.0, 7.5):
        pair = make_witness_pair(_diag_qubit(t, t))
        assert evaluate_witness(pair, g).verdict == "entangled"


def test_witness_nonnegative_on_sampled_separable_states():
    # EW definition: Tr[W sigma_sep] >= 0, checked against exact correlator
    # grids of sampled separable states for random expansions.
    rng = np.random.default_rng(100)
    labels = [a + b for a in "XYZ" for b in "XYZ"]
    mats = []
    for seed in range(300):
        rho = qm.sample_separable(2, terms=3, seed=seed)
        t = np.array(
            [
                [qm.ideal_correlator(rho, a, b) for b in "XYZ"]
                for a in "XYZ"
            ]
        )
        mats.append(t)
    stack = np.stack(mats)
    for _ in range(25):
        c = rng.normal(size=(3, 3)) * (rng.uniform(size=(3, 3)) < 0.6)
        if not c.any():
            continue
        cm = CoefficientMatrix.from_qubit_labels(
            {lab: c[i, j] for (i, j), lab in zip(np.ndindex(3, 3), labels)}
        )
        pair = make_witness_pair(cm)
        totals = (stack * c).sum(axis=(1, 2))
        assert (pair.bound + totals).min() >= -1e-9
        assert (pair.bound - totals).min() >= -1e-9


def test_witness_nonnegative_on_pure_product_states_dense():
    # Dense-operator route: expectation of W+- on sampled product vectors.
    rng = np.random.default_rng(200)
    c = CoefficientMatrix.from_qubit_labels({"XX": 0.7, "YZ": -0.4, "ZY": 0.2})
    pair = make_witness_pair(c)
    wp, wm = pair.operator("+"), pair.operator("-")
    for _ in range(500):
        va = rng.normal(size=2) + 1j * rng.normal(size=2)
        vb = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        assert (v.conj() @ wp @ v).real >= -1e-6
        assert (v.conj() @ wm @ v).real >= -1e-6


def test_witness_report_shape():
    pair = make_witness_pair(_diag_qubit(-1.0, 1.0))
    g = CorrelatorGrid.from_labels({"XX": -0.42, "ZZ": 0.78})
    report = witness_report(pair, evaluate_witness(pair, g))
    assert set(report) == {"bound", "coefficients", "tr_plus", "tr_minus", "verdict"}
    assert report["coefficients"] == {"XX": -1.0, "ZZ": 1.0}
    assert report["tr_plus"] == pytest.approx(1.0 + 0.42 + 0.78)
