"""End-to-end checks for the command-line interface."""

import importlib
import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from entcert import _linalg, cli, qmodel, solver
from entcert.cli import main, parse_angle
from entcert.grids import MeasurementSet, emit_grid, parse_grid, render_float
from entcert.multipartite import spi_lambda_max


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _chi3_file(tmp_path, fmt="json"):
    rho = qmodel.make_state(qmodel.StateFamilyParams("chi3", 7 * math.pi / 9))
    payload = emit_grid(qmodel.correlator_grid(rho), fmt)
    path = tmp_path / f"grid.{fmt}"
    path.write_bytes(payload)
    return str(path)


def test_parse_angle_pi_fractions():
    assert parse_angle("7pi/9") == 7 * math.pi / 9
    assert parse_angle("-pi/2") == -math.pi / 2
    assert parse_angle("pi") == math.pi
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("+pi/4") == math.pi / 4
    assert parse_angle("0.75") == 0.75
    assert parse_angle("-1.5") == -1.5


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValueError):
        parse_angle("two pi")
    with pytest.raises(ValueError):
        parse_angle("pi/0")


def test_verify_certifies_from_file(capsys, tmp_path):
    path = _chi3_file(tmp_path)
    rc, out, _ = _run(capsys, ["verify", "--input", path, "--set", "XX,XY,ZX"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "input_digest", "result"}
    assert payload["command"] == "verify"
    assert len(payload["input_digest"]) == 64
    result = payload["result"]
    assert result["verdict"] == "entangled"
    assert result["ne"] > 1.0
    assert result["witness"]["tr_minus"] == pytest.approx(1.0 - result["ne"])
    assert set(result["coefficients"]) == {"XX", "XY", "ZX"}


def test_verify_reads_csv_grids(capsys, tmp_path):
    path = _chi3_file(tmp_path, fmt="csv")
    rc, out, _ = _run(capsys, ["verify", "--input", path, "--set", "XX,XY,ZX"])
    assert rc == 0
    assert json.loads(out)["result"]["ne"] > 1.0


def test_verify_line_pattern_exits_one_with_note(capsys, tmp_path):
    path = _chi3_file(tmp_path)
    rc, out, _ = _run(capsys, ["verify", "--input", path, "--set", "XX,XY,XZ"])
    assert rc == 1
    result = json.loads(out)["result"]
    assert result["verdict"] == "undetected"
    assert result["ne"] == pytest.approx(1.0, abs=1e-8)
    assert "line pattern" in result["note"]


def test_verify_detecting_set_has_no_note(capsys, tmp_path):
    path = _chi3_file(tmp_path)
    rc, out, _ = _run(capsys, ["verify", "--input", path, "--set", "XX,ZY"])
    assert rc == 0
    assert "note" not in json.loads(out)["result"]


def test_verify_accepts_inline_grid(capsys):
    grid = json.dumps({"dims": [2, 2], "correlators": {"XX": 0.9}})
    rc, out, _ = _run(capsys, ["verify", "--grid", grid])
    assert rc == 1
    assert json.loads(out)["result"]["ne"] == pytest.approx(0.9, abs=1e-9)


def test_verify_needs_exactly_one_source(capsys, tmp_path):
    path = _chi3_file(tmp_path)
    grid = json.dumps({"dims": [2, 2], "correlators": {"XX": 0.9}})
    rc, _, err = _run(capsys, ["verify"])
    assert rc == 2
    assert "exactly one" in err
    rc, _, err = _run(capsys, ["verify", "--input", path, "--grid", grid])
    assert rc == 2


def test_verify_rejects_malformed_input(capsys):
    rc, out, err = _run(capsys, ["verify", "--grid", "not json"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_output_is_byte_stable(capsys, tmp_path):
    path = _chi3_file(tmp_path)
    argv = ["verify", "--input", path, "--set", "XX,XY,ZX,ZZ"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_tolerance_env_var_and_flag_precedence(capsys, tmp_path, monkeypatch):
    path = _chi3_file(tmp_path)
    # a staircase, neither a line, a corner nor a complete block: the
    # barrier path runs and reports its gap
    argv = ["verify", "--input", path, "--set", "XX,XY,YY,YZ"]
    monkeypatch.setenv("ENTCERT_TOL", "1e-2")
    _, out, _ = _run(capsys, argv)
    loose_gap = json.loads(out)["result"]["gap"]
    assert 1e-6 < loose_gap <= 5e-3
    _, out, _ = _run(capsys, argv + ["--tol", "1e-8"])
    assert json.loads(out)["result"]["gap"] <= 5e-9
    monkeypatch.setenv("ENTCERT_TOL", "loose")
    rc, _, err = _run(capsys, argv)
    assert rc == 2
    assert "ENTCERT_TOL" in err


def test_witness_report_fields(capsys, tmp_path):
    path = _chi3_file(tmp_path)
    rc, out, _ = _run(capsys, ["witness", "--input", path, "--set", "XX,XY,ZX"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert set(result) >= {"bound", "coefficients", "tr_plus", "tr_minus", "verdict"}
    assert result["tr_minus"] < 0.0 < result["tr_plus"]
    assert result["ne"] == pytest.approx(1.0 - result["tr_minus"], abs=1e-9)


def test_classify_reports_pattern_class(capsys):
    rc, out, _ = _run(capsys, ["classify", "--set", "zz,zy"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["tag"] == "LineRow"
    assert result["detects"] is False
    rc, out, _ = _run(capsys, ["classify", "--set", "XX,ZY"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["tag"] == "TwoGeneric"
    assert result["detects"] is True
    assert result["canonical"] == "XX,YY"


def test_orbit_sizes(capsys):
    rc, out, _ = _run(capsys, ["orbit", "--k", "2"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert sorted(result["sizes"]) == [9, 9, 18]
    assert sum(len(c["members"]) for c in result["classes"]) == 36
    rc, out, _ = _run(capsys, ["orbit", "--k", "3"])
    assert sorted(json.loads(out)["result"]["sizes"]) == [3, 3, 6, 36, 36]


def test_spi_inline_observable(capsys):
    obs = json.dumps([{"coeff": 1.0, "paulis": "ZZZ"}])
    rc, out, _ = _run(capsys, ["spi", "--observable", obs])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["lambda_max"] == pytest.approx(1.0, abs=1e-10)
    assert result["converged"] is True
    assert len(result["optimizer"]) == 3
    # the envelope reports the four fields it always has, not best_starts
    assert sorted(result) == ["converged", "lambda_max", "optimizer", "restarts_used"]


def test_spi_negative_seed_is_an_input_error(capsys):
    obs = json.dumps([{"coeff": 1.0, "paulis": "ZZZ"}])
    rc, out, err = _run(capsys, ["spi", "--observable", obs, "--seed=-1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "seed must be an int >= 0, got -1" in err


def test_spi_reads_observable_file(capsys, tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps([{"coeff": 1.0, "paulis": "XX"}]))
    rc, out, _ = _run(capsys, ["spi", "--input", str(path)])
    assert rc == 0
    assert json.loads(out)["result"]["lambda_max"] == pytest.approx(1.0, abs=1e-10)


def test_spi_needs_exactly_one_source(capsys):
    rc, _, err = _run(capsys, ["spi"])
    assert rc == 2
    assert "exactly one" in err


def test_spi_rejects_malformed_terms(capsys):
    rc, _, err = _run(capsys, ["spi", "--observable", '[{"coeff": 1.0}]'])
    assert rc == 2
    assert "paulis" in err


@pytest.mark.parametrize(
    "observable, message",
    [
        ('[{"coeff": true, "paulis": "ZZ"}]', "coeff True is not a number"),
        ('[{"coeff": "0.5", "paulis": "ZZ"}]', "coeff '0.5' is not a number"),
        ('[{"coeff": 1, "paulis": 7}]', "paulis 7 is not a string"),
        ('[{"coeff": 1, "coeff": -1, "paulis": "ZZ"}]', "duplicate key 'coeff'"),
    ],
    ids=["coeff_bool", "coeff_string", "paulis_number", "duplicate_key"],
)
def test_spi_rejects_terms_it_cannot_read_one_way(capsys, observable, message):
    rc, out, err = _run(capsys, ["spi", "--observable", observable])
    assert rc == 2
    assert out == ""
    assert message in err


_HUGE = "9" * 401  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--grid", '{"dims":[2,2],"correlators":{"XX":%s}}' % _HUGE],
         "correlator XX is too large"),
        (["witness", "--grid", '{"dims":[2,2],"correlators":{"ZY":-%s}}' % _HUGE],
         "correlator ZY is too large"),
        (["verify", "--grid", '{"dims":[%s,2],"correlators":{"0,0":0.5}}' % _HUGE],
         "local dimensions are too large"),
        (["spi", "--observable", '[{"coeff":%s,"paulis":"ZZ"}]' % _HUGE],
         "coeff is too large"),
        (["spi", "--observable",
          '[{"coeff":1.5e308,"paulis":"ZZ"},{"coeff":1.5e308,"paulis":"ZI"}]'],
         "sum of |coeff| is too large"),
        (["simulate", "--family", "bell", "--theta=%spi" % _HUGE], "is out of range"),
        (["simulate", "--family", "bell", "--theta=pi/%s" % _HUGE], "is out of range"),
        (["sweep", "--family", "bell", "--from=-%spi" % _HUGE], "is out of range"),
        (["simulate", "--family", "bell", "--shots", str(2**63), "--seed", "1"],
         "shots must lie in"),
        (["sweep", "--family", "chi3", "--shots", str(2**63), "--seed", "1"],
         "shots must lie in"),
        (["sweep", "--family", "bell", "--from", "1e999", "--to", "1"],
         "sweep range must be finite"),
        (["sweep", "--family", "bell", "--from", "1e308", "--to=-1e308"],
         "sweep range must be finite"),
        # rejected before any angle is allocated
        (["sweep", "--family", "bell", "--steps", str(10**12)],
         "--steps must be at most 10000"),
    ],
    ids=["verify_correlator", "witness_correlator", "dims", "spi_coeff", "spi_coeff_sum",
         "simulate_pi_numerator", "simulate_pi_denominator", "sweep_pi_numerator",
         "simulate_shots", "sweep_shots", "sweep_infinite_bound", "sweep_infinite_span",
         "sweep_steps"],
)
def test_numbers_beyond_range_are_input_errors(capsys, argv, message):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_spi_seed(capsys, monkeypatch):
    seeds = []

    def recording(obs, *args):
        seeds.append(args)
        return spi_lambda_max(obs, *args)

    monkeypatch.setattr(cli, "spi_lambda_max", recording)
    obs = json.dumps([{"coeff": 1.0, "paulis": "ZZZ"}, {"coeff": 0.5, "paulis": "XXI"}])
    rc, default, _ = _run(capsys, ["spi", "--observable", obs])
    assert rc == 0
    rc, eleven, _ = _run(capsys, ["spi", "--observable", obs, "--seed", "11"])
    assert rc == 0
    assert eleven == default
    rc, four, _ = _run(capsys, ["spi", "--observable", obs, "--seed", "4"])
    assert rc == 0
    expected = json.loads(default)["result"]["lambda_max"]
    assert json.loads(four)["result"]["lambda_max"] == pytest.approx(expected, abs=1e-9)
    assert seeds == [(), (11,), (4,)]


def test_simulate_emits_full_grid(capsys):
    rc, out, _ = _run(capsys, ["simulate", "--family", "bell"])
    assert rc == 0
    grid = parse_grid(out.encode(), "json")
    assert grid.dims == (2, 2)
    assert len(grid.measured) == 9
    assert grid.value_at((0, 0)) == pytest.approx(1.0)
    assert grid.value_at((1, 1)) == pytest.approx(-1.0)
    assert grid.value_at((2, 2)) == pytest.approx(1.0)


def test_simulate_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "bell.csv"
    rc, out, _ = _run(
        capsys,
        [
            "simulate",
            "--family",
            "bell",
            "--format",
            "csv",
            "--output",
            str(out_path),
        ],
    )
    assert rc == 0
    assert out == ""
    grid = parse_grid(out_path.read_bytes(), "csv")
    assert grid.value_at((0, 0)) == pytest.approx(1.0)


def test_simulate_sampling_needs_seed(capsys):
    rc, _, err = _run(capsys, ["simulate", "--family", "bell", "--shots", "500"])
    assert rc == 2
    assert "--seed" in err


def test_simulate_sampling_is_reproducible(capsys):
    argv = ["simulate", "--family", "bell", "--shots", "200", "--seed", "7"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    _, other, _ = _run(capsys, argv[:-1] + ["8"])
    assert other != first


def test_sweep_default_covers_nineteen_angles(capsys):
    rc, out, _ = _run(capsys, ["sweep", "--family", "psi_theta", "--set", "XX,ZZ"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,ne,verdict"
    assert len(lines) == 20
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    assert thetas == sorted(thetas)
    assert thetas[0] == pytest.approx(-math.pi)
    assert thetas[-1] == pytest.approx(math.pi)


def test_sweep_matches_closed_form_identity(capsys):
    rc, out, _ = _run(
        capsys,
        [
            "sweep",
            "--family",
            "psi_theta",
            "--set",
            "XX,ZZ",
            "--from=-pi/2",
            "--to",
            "pi/2",
            "--steps",
            "9",
        ],
    )
    assert rc == 0
    for line in out.strip().splitlines()[1:]:
        theta, ne, _ = line.split(",")
        expected = 1.0 + abs(math.sin(2.0 * float(theta)))
        assert float(ne) == pytest.approx(expected, abs=1e-9)


def test_sampled_sweep_rows_equal_solving_each_angle_alone(capsys):
    # more than three cells: the sweep solves its angles as one stack
    argv = ["sweep", "--family", "chi1", "--set", "XX,XY,YZ,ZZ",
            "--shots", "300", "--seed", "11", "--steps", "7"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    mset = MeasurementSet.parse("XX,XY,YZ,ZZ")
    expected = ["theta,ne,verdict"]
    for k, theta in enumerate(np.linspace(-math.pi, math.pi, 7)):
        rho = qmodel.make_state(qmodel.StateFamilyParams("chi1", float(theta)))
        grid = qmodel.correlator_grid(rho, shots=300, seed=11 + k)
        res = solver.ne_solve(grid, mset)
        row = (render_float(theta), render_float(res.value), res.verdict)
        expected.append(",".join(row))
    assert out.strip().splitlines() == expected


# the full grid, a staircase (barrier path), two lines and a corner
_SWEEP_SUPPORTS = (None, "XX,XY,YY,YZ", "XX,ZZ", "XX,XY,ZX")


@pytest.mark.parametrize("family", qmodel.FAMILIES)
@pytest.mark.parametrize("shots", [None, 250])
def test_sweep_rows_equal_the_grids_of_each_angle_solved_as_a_batch(capsys, family, shots):
    # the reference builds each angle's grid alone, as simulate does
    seed = 5 if shots else None
    lo, hi, steps = -2.5, 2.9, 7
    for noise in (0.0, 0.1):
        for labels in _SWEEP_SUPPORTS:
            argv = ["sweep", "--family", family, "--noise", str(noise),
                    f"--from={lo}", f"--to={hi}", "--steps", str(steps)]
            argv += ["--set", labels] if labels else []
            argv += ["--shots", str(shots), "--seed", str(seed)] if shots else []
            rc, out, err = _run(capsys, argv)
            assert (rc, err) == (0, "")
            thetas = [float(theta) for theta in np.linspace(lo, hi, steps)]
            grids = [
                cli._family_grid(family, theta, noise, shots, seed + k if shots else None)
                for k, theta in enumerate(thetas)
            ]
            mset = MeasurementSet.parse(labels or "XX,XY,XZ,YX,YY,YZ,ZX,ZY,ZZ")
            results = solver.ne_solve_batch(grids, mset)
            expected = ["theta,ne,verdict"] + [
                f"{render_float(theta)},{render_float(res.value)},{res.verdict}"
                for theta, res in zip(thetas, results)
            ]
            assert out.splitlines() == expected, argv


def test_solver_failure_has_its_own_exit_code(capsys, tmp_path):
    path = _chi3_file(tmp_path)
    # XX,XY,YY,YZ is a staircase, neither a line, a corner nor a complete
    # block: data there take the barrier path
    for argv in (
        ["verify", "--input", path, "--set", "XX,XY,YY,YZ", "--max-iter", "1"],
        ["sweep", "--family", "bell", "--set", "XX,XY,YY,YZ", "--max-iter", "1"],
    ):
        rc, out, err = _run(capsys, argv)
        assert rc == 3
        assert out == ""
        assert err == (
            "error: solver failure: interior-point iteration limit exceeded"
            " at stage mu=0.2 (max_iter=1)\n"
        )


def test_a_failed_bound_is_a_solver_failure_not_an_input_error(capsys, monkeypatch):
    # where the witness bound's SVD fails, LAPACK writes NaN, and that is a
    # solver failure (exit 3), not the LinAlgError, a ValueError, that the
    # public np.linalg.svd raises (exit 2)
    monkeypatch.setattr(
        _linalg, "svd_values", lambda a: np.full(a.shape[:-2] + (min(a.shape[-2:]),), np.nan)
    )
    grid = '{"dims":[2,2],"correlators":{"XX":-0.95,"XY":0.03,"ZX":-0.96}}'
    rc, out, err = _run(capsys, ["verify", "--grid", grid])
    assert (rc, out) == (3, "")
    assert err == (
        "error: solver failure: the SVD of the witness coefficients did not converge\n"
    )


def test_data_below_roundoff_are_undetected_not_a_crash(capsys):
    grid = '{"dims":[2,2],"correlators":{"XX":1e-16,"YY":1e-16}}'
    rc, out, err = _run(capsys, ["verify", "--grid", grid])
    assert (rc, err) == (1, "")
    assert json.loads(out)["result"]["ne"] == 2e-16
    # the data at theta = +-pi are +-1.2e-16 on this support
    argv = ["sweep", "--family", "chi3", "--from=-pi", "--to=pi"]
    rc, out, err = _run(capsys, argv + ["--set", "XY,YX,ZZ,XZ,ZX"])
    assert (rc, err) == (0, "")
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 19
    assert rows[0].endswith(",undetected") and rows[-1].endswith(",undetected")


def test_sweep_json_envelope_and_determinism(capsys):
    argv = [
        "sweep",
        "--family",
        "chi1",
        "--steps",
        "5",
        "--format",
        "json",
    ]
    rc, first, _ = _run(capsys, argv)
    assert rc == 0
    payload = json.loads(first)
    assert payload["command"] == "sweep"
    rows = payload["result"]["rows"]
    assert len(rows) == 5
    assert all(set(row) == {"theta", "ne", "verdict"} for row in rows)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_sweep_rejects_single_step(capsys):
    rc, _, err = _run(
        capsys, ["sweep", "--family", "bell", "--steps", "1"]
    )
    assert rc == 2
    assert "at least 2" in err


def test_sweep_with_sampling_uses_per_angle_seeds(capsys):
    argv = [
        "sweep",
        "--family",
        "psi_theta",
        "--set",
        "XX,ZZ",
        "--steps",
        "3",
        "--shots",
        "400",
        "--seed",
        "3",
    ]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    rows = first.strip().splitlines()[1:]
    # distinct angles see distinct sampling noise, not a shared draw
    values = [float(r.split(",")[1]) for r in rows]
    assert len(set(values)) > 1


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_console_script_entry_point_runs(capsys):
    # what the installed script would run, checked without installing it
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["entcert"] == "entcert.cli:main"
    module, attr = scripts["entcert"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    rc = entry(["classify", "--set", "XX,YY"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["result"]["tag"] == "TwoGeneric"


@pytest.mark.skipif(
    shutil.which("entcert") is None,
    reason="entcert console script is not installed (pip install -e .)",
)
def test_console_script_is_installed():
    exe = shutil.which("entcert")
    assert exe is not None
    proc = subprocess.run(
        [exe, "classify", "--set", "XX,YY"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["tag"] == "TwoGeneric"


def test_module_invocation_matches_entry_point(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "entcert.cli", "orbit", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rc, out, _ = _run(capsys, ["orbit", "--k", "2"])
    assert proc.stdout == out


def test_verify_full_grid_uses_every_entry(capsys):
    rng = np.random.default_rng(20)
    labels = [a + b for a in "XYZ" for b in "XYZ"]
    correlators = {lab: rng.uniform(-0.4, 0.4) for lab in labels}
    grid = json.dumps({"dims": [2, 2], "correlators": correlators})
    rc, out, _ = _run(capsys, ["verify", "--grid", grid])
    assert rc in (0, 1)
    assert set(json.loads(out)["result"]["coefficients"]) == set(labels)


def test_verify_and_witness_read_one_verdict(capsys):
    # NE = 1 + 1e-9, on the detection margin: the verdict and the witness's
    # verdict are one rule on one expectation, so the two commands agree
    grid = '{"dims":[2,2],"correlators":{"XX":0.5,"YY":0.5000000010000001}}'
    rc_verify, out, _ = _run(capsys, ["verify", "--grid", grid])
    rc_witness, _, _ = _run(capsys, ["witness", "--grid", grid])
    result = json.loads(out)["result"]
    assert result["verdict"] == result["witness"]["verdict"]
    assert rc_verify == rc_witness == {"entangled": 0, "undetected": 1}[result["verdict"]]


def test_a_corner_of_extreme_spread_is_solved(capsys):
    # corner ZX, row mate ZZ, column mate YX: scaled to a largest entry of
    # about 1, a^4 - (bc)^2 and a |a| row col both underflow to 0
    grid = '{"dims":[2,2],"correlators":{"ZZ":1e-22,"YX":-1e-284,"ZX":1e-143}}'
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = _run(capsys, ["verify", "--grid", grid])
    assert rc in (0, 1) and err == ""
    result = json.loads(out)["result"]
    coeffs = result["coefficients"]
    assert all(map(math.isfinite, coeffs.values()))
    dense = np.zeros((3, 3))
    for label, c in coeffs.items():
        dense["XYZ".index(label[0]), "XYZ".index(label[1])] = c
    assert np.linalg.svd(dense, compute_uv=False)[0] <= 1.0 + 1e-12
    # the closed form, on the data scaled by a power of two as the solver does
    a, b, c = (math.ldexp(v, 73) for v in (1e-143, 1e-22, -1e-284))
    assert abs(b * c) < a * a
    want = math.sqrt((a * a + b * b) * (a * a + c * c)) / abs(a)
    assert result["ne"] == math.ldexp(want, -73)
