"""Tests of the benchmark's own checks and references.

    python3 -m pytest bench -q

Each check must reject a wrong answer, and the references must agree with
each other where they overlap.
"""

import contextlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from checks import CheckFailed  # noqa: E402

import entcert.cli as cli  # noqa: E402
from entcert import multipartite, qmodel, solver  # noqa: E402


def _random_values(rng, cells):
    return {c: float(rng.uniform(-1, 1)) for c in cells}


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _doc(dims, values):
    return json.dumps({"dims": list(dims), "correlators": {
        checks.cell_label(c, dims): v for c, v in sorted(values.items())}})


# -- every check rejects a wrong answer -----------------------------------------


def _solved(seed=1):
    rng = np.random.default_rng(seed)
    cells = [(0, 0), (0, 1), (1, 2), (2, 1)]
    values = _random_values(rng, cells)
    from entcert.grids import CorrelatorGrid

    res = solver.ne_solve(CorrelatorGrid((2, 2), values))
    return values, res.value, dict(zip(res.coefficients.support, res.coefficients.coeffs))


def test_bipartite_check_accepts_the_solver_and_rejects_a_value_off_by_1e_3():
    values, value, coefficients = _solved()
    checks.check_bipartite((2, 2), values, value, coefficients, 1e-8)
    with pytest.raises(CheckFailed):
        checks.check_bipartite((2, 2), values, value + 1e-3, coefficients, 1e-8)
    with pytest.raises(CheckFailed):
        checks.check_bipartite((2, 2), values, value - 1e-3, coefficients, 1e-8)


def test_bipartite_check_rejects_infeasible_coefficients():
    values, value, coefficients = _solved()
    scaled = {c: 1.001 * v for c, v in coefficients.items()}
    with pytest.raises(CheckFailed):
        checks.check_bipartite((2, 2), values, 1.001 * value, scaled, 1e-8)


def test_bracket_rejects_values_outside_it():
    rng = np.random.default_rng(2)
    values = _random_values(rng, [(0, 0), (1, 1), (1, 2), (2, 0)])
    lower, upper = checks.bracket((2, 2), values)
    with pytest.raises(CheckFailed):
        checks.check_bipartite((2, 2), values, upper + 1e-3, {}, 1e-8)
    with pytest.raises(CheckFailed):
        checks.check_bipartite((2, 2), values, lower - 1e-3, {}, 1e-8)


def test_exact_checks_reject_a_value_off_by_1e_3():
    rng = np.random.default_rng(3)
    full = _random_values(rng, [(i, j) for i in range(3) for j in range(3)])
    nuclear = float(np.linalg.svd(checks.data_matrix((2, 2), full), compute_uv=False).sum())
    checks.check_exact((2, 2), full, nuclear, full=True)
    with pytest.raises(CheckFailed):
        checks.check_exact((2, 2), full, nuclear + 1e-3, full=True)
    lshape = _random_values(rng, [(0, 0), (0, 1), (1, 0)])
    exact = checks.qubit_closed_form(lshape)
    checks.check_exact((2, 2), lshape, exact, full=False)
    with pytest.raises(CheckFailed):
        checks.check_exact((2, 2), lshape, exact + 1e-3, full=False)


def test_verdict_check_rejects_a_flipped_verdict():
    checks.check_verdict(1.2, checks.ENTANGLED)
    checks.check_verdict(0.8, checks.UNDETECTED)
    with pytest.raises(CheckFailed):
        checks.check_verdict(1.2, checks.UNDETECTED)
    with pytest.raises(CheckFailed):
        checks.check_verdict(1.0 + 1e-10, checks.ENTANGLED)


@pytest.fixture(scope="module")
def envelope():
    values = {(0, 0): -0.95, (0, 1): 0.03, (2, 0): -0.96}
    doc = _doc((2, 2), values)
    code, out = _cli(["verify", "--grid", doc])
    return code, out, doc.encode(), values


def test_cli_check_accepts_the_program(envelope):
    code, out, data, values = envelope
    assert code == 0
    checks.check_cli_report("verify", code, out, data, (2, 2), values, 1e-8)


def test_cli_check_rejects_a_swapped_exit_code(envelope):
    code, out, data, values = envelope
    with pytest.raises(CheckFailed):
        checks.check_cli_report("verify", 1 - code, out, data, (2, 2), values, 1e-8)


def test_cli_check_rejects_a_flipped_verdict_or_value(envelope):
    code, out, data, values = envelope
    for mutate in (
        lambda r: r.update(verdict="undetected"),
        lambda r: r["witness"].update(verdict="undetected"),
        lambda r: r.update(ne=r["ne"] + 1e-3),
        lambda r: r["witness"].update(tr_minus=r["witness"]["tr_minus"] + 1e-3),
    ):
        doc = json.loads(out)
        mutate(doc["result"])
        with pytest.raises(CheckFailed):
            checks.check_cli_report("verify", code, json.dumps(doc), data, (2, 2), values, 1e-8)


def test_cli_check_rejects_a_wrong_digest_and_a_missing_note(envelope):
    code, out, data, values = envelope
    with pytest.raises(CheckFailed):
        checks.check_cli_report("verify", code, out, data + b" ", (2, 2), values, 1e-8)
    line = {(0, 0): 0.5, (0, 1): 0.4}
    doc = _doc((2, 2), line)
    code, out = _cli(["witness", "--grid", doc])
    checks.check_cli_report("witness", code, out, doc.encode(), (2, 2), line, 1e-8)
    stripped = json.loads(out)
    del stripped["result"]["note"]
    with pytest.raises(CheckFailed):
        checks.check_cli_report("witness", code, json.dumps(stripped), doc.encode(), (2, 2), line, 1e-8)


def test_product_search_check_rejects_non_unit_vectors_and_lambda_above_the_top():
    terms = [(1.0, "XXX"), (1.0, "ZZI"), (1.0, "ZIZ"), (1.0, "IZZ")]
    res = multipartite.spi_lambda_max(multipartite.ObservableSum.from_pauli_strings(terms))
    dense = checks.pauli_dense(terms)
    vectors = list(res.optimizer.vectors)
    checks.check_product_search(dense, res.lambda_max, vectors)
    with pytest.raises(CheckFailed):
        checks.check_product_search(dense, res.lambda_max, [1.01 * vectors[0]] + vectors[1:])
    top = float(np.linalg.eigvalsh(dense)[-1])
    with pytest.raises(CheckFailed):
        checks.check_product_search(dense, top + 1e-6, vectors)
    with pytest.raises(CheckFailed):
        checks.check_product_search(dense, res.lambda_max + 1e-3, vectors)


# -- the references agree with each other ---------------------------------------


def test_lshape_and_domino_formulas_lie_in_the_duality_bracket():
    rng = np.random.default_rng(5)
    for _ in range(500):
        for cells in ([(0, 0), (0, 1), (1, 0)], [(0, 0), (0, 1), (1, 2)], [(0, 0), (1, 0), (2, 1)]):
            values = _random_values(rng, cells)
            lower, upper = checks.bracket((2, 2), values)
            value = checks.qubit_closed_form(values)
            assert lower - 1e-12 <= value <= upper + 1e-12


def test_lshape_formula_is_the_smallest_completion_nuclear_norm():
    def nuclear(a, b, c, mu):
        # nuclear norm of [[a, b], [c, mu]] = sqrt(frobenius^2 + 2 |det|)
        return np.sqrt(a * a + b * b + c * c + mu * mu + 2 * np.abs(a * mu - b * c))

    rng = np.random.default_rng(6)
    mus = np.linspace(-4, 4, 80_001)
    for _ in range(200):
        a, b, c = rng.uniform(-1, 1, size=3)
        value = checks.lshape_value(a, b, c)
        # attained at the minimizer bc/a or -+a, and no scanned corner does better
        attained = min(nuclear(a, b, c, mu) for mu in (b * c / a, a, -a))
        assert value == pytest.approx(attained, abs=1e-12)
        assert value <= nuclear(a, b, c, mus).min() + 1e-12


def test_family_identities_match_numpy_nuclear_norms():
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-math.pi, math.pi, size=40):
        for family in checks.FAMILIES:
            corr = checks.family_correlators(family, theta)
            nuclear = np.linalg.svd(corr, compute_uv=False).sum()
            want = 1 + 2 * abs(math.sin(2 * theta)) if family == "psi_theta" else 3.0
            assert nuclear == pytest.approx(want, abs=1e-12)
        corr = checks.family_correlators("psi_theta", theta)
        pair = {(0, 0): corr[0, 0], (2, 2): corr[2, 2]}
        assert checks.qubit_closed_form(pair) == pytest.approx(1 + abs(math.sin(2 * theta)), abs=1e-12)


def test_family_correlators_match_the_program_conventions():
    # the program's ideal grids are checked against these in every run;
    # here the two states themselves are compared once
    for family in checks.FAMILIES:
        psi = checks.family_vector(family, 0.7)
        rho = qmodel.make_state(qmodel.StateFamilyParams(family, 0.7)).matrix
        assert np.allclose(np.outer(psi, psi.conj()), rho, atol=1e-14)


def test_gell_mann_basis_is_orthogonal_and_pauli_for_qubits():
    for d in (2, 3):
        basis = checks.gell_mann(d)
        gram = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
        assert np.allclose(gram, d * np.eye(d * d), atol=1e-14)
    for op, letter in zip(checks.gell_mann(2)[1:], "XYZ"):
        assert np.array_equal(op, checks.PAULI[letter])


def test_max_transversal_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(200):
        cells = [(int(i), int(j)) for i, j in zip(rng.integers(0, 4, 7), rng.integers(0, 4, 7))]
        values = _random_values(rng, sorted(set(cells)))
        best = 0.0
        for k in range(1, 5):
            for subset in itertools.combinations(values, k):
                rows, cols = {i for i, _ in subset}, {j for _, j in subset}
                if len(rows) == k and len(cols) == k:
                    best = max(best, sum(abs(values[c]) for c in subset))
        assert checks.max_transversal(values) == pytest.approx(best, abs=1e-15)


def test_product_state_reference_finds_the_known_maxima():
    assert checks.product_state_max([(1.0, "ZZZ")]) == pytest.approx(1.0, abs=1e-12)
    ghz = [(1.0, "XXX"), (1.0, "ZZI"), (1.0, "ZIZ"), (1.0, "IZZ")]
    assert checks.product_state_max(ghz) == pytest.approx(3.0, abs=1e-9)


# -- the harness ---------------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tracer_restores_every_patched_attribute():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.PATCH_POINTS}
    t = tracer.Tracer()
    t.install()
    t.active = True
    _cli(["verify", "--grid", _doc((2, 2), {(0, 0): 0.9, (1, 1): 0.8})])
    t.uninstall()
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.PATCH_POINTS}
    assert before == after
    names = {span[0] for span in t.spans}
    assert {"cli.verify", "grids.parse_grid", "solver.ne_solve", "witness.make_witness_pair",
            "witness.evaluate_witness", "patterns.classify"} <= names
    summary = tracer.summarize(t.spans)
    assert summary["solver.ne_solve"]["counted_work"] > 0
    assert summary["cli.verify"]["self"] < summary["cli.verify"]["total"]


def test_a_failed_operation_is_counted_and_does_not_make_the_run_wrong():
    from workloads import Op

    def boom():
        raise RuntimeError("solver failure")

    class Fake:
        def round(self, r):
            return [Op("good", lambda: 1, lambda out: None), Op("bad", boom, lambda out: None)]

    durations, scaled, timed, attempted, failed, errors, failures, rounds = run.measure(
        Fake(), 0.0, None, CheckFailed
    )
    assert (attempted, failed, rounds) == (2, 1, 1)
    assert errors == [] and len(failures) == 1
    assert list(durations) == list(scaled) == ["good"]


def test_times_are_scaled_by_the_reference_kernel_around_their_block(monkeypatch):
    from workloads import Op

    kernel_times = iter([0.01, 0.03])  # before and after the one block
    monkeypatch.setattr(run, "reference_kernel", lambda: next(kernel_times))

    class Fake:
        def round(self, r):
            return [Op("good", lambda: 1, lambda out: None)]

    durations, scaled, *_ = run.measure(Fake(), 0.0, None, CheckFailed)
    factor = 2 * run.REFERENCE_S / (0.01 + 0.03)
    assert scaled["good"] == [pytest.approx(durations["good"][0] * factor)]


def test_a_wrong_output_is_reported():
    from workloads import Op

    def wrong(out):
        raise CheckFailed("off by 1e-3")

    class Fake:
        def round(self, r):
            return [Op("good", lambda: 1, wrong)]

    _, _, _, attempted, failed, errors, failures, _ = run.measure(Fake(), 0.0, None, CheckFailed)
    assert (attempted, failed, failures) == (1, 0, [])
    assert len(errors) == 1 and "off by 1e-3" in errors[0]


def _result_set(root, scale):
    """Ten runs of every workload, every time metric scaled by ``scale``."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in ("separable_batch", "cli_session", "spi_search"):
        (root / workload).mkdir(parents=True)
        for seed in range(1, 11):
            jitter = 1.0 + 0.001 * seed
            metrics = {m["name"]: {"value": jitter * (1.0 if m["unit"] == "MB" else scale),
                                   "unit": m["unit"]} for m in spec["end_to_end"]}
            run_result = {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}
            (root / workload / f"seed{seed}.json").write_text(json.dumps(run_result))
    return root


def test_compare_judges_agreement_both_ways_and_every_metric(tmp_path, capsys):
    import compare

    a = _result_set(tmp_path / "a", 1.0)
    assert compare.main([str(a), str(_result_set(tmp_path / "same", 1.0))]) == 0
    # a set 40% better is as far from A as one 40% worse
    assert compare.main([str(a), str(_result_set(tmp_path / "faster", 0.6))]) == 1
    assert compare.main([str(a), str(_result_set(tmp_path / "slower", 1.4))]) == 1
    # an unsteady setup_s fails the comparison like any other metric
    unsteady = _result_set(tmp_path / "unsteady", 1.0)
    for seed in range(1, 11):
        path = unsteady / "cli_session" / f"seed{seed}.json"
        result = json.loads(path.read_text())
        result["metrics"]["setup_s"]["value"] = 0.5 + 0.1 * seed
        path.write_text(json.dumps(result))
    capsys.readouterr()
    assert compare.main([str(a), str(unsteady)]) == 1
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.split()[1:3] == ["setup_s", "B"]}
    assert lines["cli_session"].endswith("OUT")
    assert lines["spi_search"].endswith("within")
