"""Command-line front end: verify, sweep, simulate, classify, orbit, spi, witness.

Reports are machine-readable and reproducible: every JSON report is a
canonical envelope

    {"command": ..., "input_digest": <sha256 of the input bytes>, "result": ...}

with sorted keys and no whitespace, so identical invocations produce
byte-identical output.  Sweeps emit plot-ready CSV by default.  Exit codes
follow the certification outcome: 0 when the data certify entanglement,
1 when they do not, 2 on any input error, 3 when the solver fails on
valid input (iteration limit or stalled step).  A sweep solves all of its
angles as one stack.

Angles are accepted as exact fractions of pi ('7pi/9', '-pi/2', 'pi') or
as plain decimal radians.  The default solver tolerance can be set through
the ENTCERT_TOL environment variable; explicit --tol flags win.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import patterns, qmodel, solver
from .grids import (
    CorrelatorGrid,
    MeasurementSet,
    _reject_duplicate_pairs,
    emit_grid,
    parse_grid,
    render_float,
)
from .multipartite import ObservableSum, spi_lambda_max
from .solver import SolverOptions
from .witness import VERDICT_ENTANGLED, evaluate_witness, witness_report

EXIT_ENTANGLED = 0
EXIT_UNDETECTED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_FAILURE = 3

#: Every angle's state, grid and result are held at once: 10,000 angles take
#: a few seconds and some tens of MB.
MAX_SWEEP_STEPS = 10_000

_PI_FORM = re.compile(r"^([+-]?)(\d+)?pi(?:/(\d+))?$")


def parse_angle(text: str) -> float:
    """Angle in radians from '7pi/9'-style fractions or decimal text."""
    token = text.strip().lower().replace(" ", "")
    m = _PI_FORM.match(token)
    if m:
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise ValueError("zero denominator in angle")
        sign = -1.0 if m.group(1) == "-" else 1.0
        try:
            return sign * num * math.pi / den
        except OverflowError:
            raise ValueError(f"angle {text!r} is out of range") from None
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _envelope(command: str, input_digest: str, result: object) -> str:
    payload = {"command": command, "input_digest": input_digest, "result": result}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _read_grid(args: argparse.Namespace) -> tuple[CorrelatorGrid, str]:
    inline = getattr(args, "grid", None)
    path = getattr(args, "input", None)
    if bool(path) == bool(inline):
        raise ValueError("exactly one of --input and --grid is required")
    if path:
        data = Path(path).read_bytes()
        fmt = "csv" if path.endswith(".csv") else "json"
    else:
        data = inline.encode("utf-8")
        fmt = "json"
    return parse_grid(data, fmt), _digest(data)


def _measurement_set(args: argparse.Namespace) -> MeasurementSet | None:
    text = getattr(args, "set", None)
    return MeasurementSet.parse(text) if text else None


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    tol = getattr(args, "tol", None)
    if tol is None:
        env = os.environ.get("ENTCERT_TOL")
        if env is not None:
            try:
                tol = float(env)
            except ValueError:
                raise ValueError(f"ENTCERT_TOL is not a number: {env!r}") from None
    kwargs: dict[str, object] = {}
    if tol is not None:
        kwargs["tol"] = tol
    max_iter = getattr(args, "max_iter", None)
    if max_iter is not None:
        kwargs["max_iter"] = max_iter
    return SolverOptions(**kwargs)


def _non_detecting_note(grid: CorrelatorGrid, support) -> str | None:
    if grid.dims != (2, 2) or len(support) > 3 or patterns.classify(support).detects:
        return None
    return "line pattern cannot detect entanglement"


def _certification(grid: CorrelatorGrid, args: argparse.Namespace):
    mset = _measurement_set(args)
    if mset is not None and grid.dims != (2, 2):
        raise ValueError("--set uses Pauli labels and applies to qubit grids only")
    res = solver.ne_solve(grid, mset, _solver_options(args))
    evaluation = evaluate_witness(res.witness, grid)
    return res, evaluation


def cmd_verify(args: argparse.Namespace) -> int:
    grid, digest = _read_grid(args)
    res, evaluation = _certification(grid, args)
    result = {
        "ne": res.value,
        "verdict": res.verdict,
        "sign_branch": res.sign_branch,
        "iterations": res.iterations,
        "gap": res.gap,
        "coefficients": res.coefficients.label_dict(),
        "witness": witness_report(res.witness, evaluation),
    }
    note = _non_detecting_note(grid, res.coefficients.support)
    if note:
        result["note"] = note
    sys.stdout.write(_envelope("verify", digest, result))
    return EXIT_ENTANGLED if res.verdict == VERDICT_ENTANGLED else EXIT_UNDETECTED


def cmd_witness(args: argparse.Namespace) -> int:
    grid, digest = _read_grid(args)
    res, evaluation = _certification(grid, args)
    result = witness_report(res.witness, evaluation)
    result["ne"] = res.value
    note = _non_detecting_note(grid, res.coefficients.support)
    if note:
        result["note"] = note
    sys.stdout.write(_envelope("witness", digest, result))
    return (
        EXIT_ENTANGLED if evaluation.verdict == VERDICT_ENTANGLED else EXIT_UNDETECTED
    )


def cmd_classify(args: argparse.Namespace) -> int:
    mset = MeasurementSet.parse(args.set)
    pattern = patterns.classify(mset)
    normalized = ",".join(sorted(mset.labels()))
    result = {
        "set": normalized,
        "tag": pattern.tag,
        "canonical": ",".join(pattern.canonical.labels()),
        "detects": pattern.detects,
        "transposed": pattern.transposed,
        "perm_a": list(pattern.perm_a),
        "perm_b": list(pattern.perm_b),
    }
    sys.stdout.write(
        _envelope("classify", _digest(normalized.encode("utf-8")), result)
    )
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    orbits = patterns.enumerate_orbits(args.k)
    classes = [
        {
            "tag": rep.tag,
            "canonical": ",".join(rep.canonical.labels()),
            "detects": rep.detects,
            "size": len(members),
            "members": [",".join(m.labels()) for m in members],
        }
        for rep, members in orbits
    ]
    result = {
        "k": args.k,
        "sizes": [c["size"] for c in classes],
        "classes": classes,
    }
    sys.stdout.write(_envelope("orbit", _digest(f"k={args.k}".encode()), result))
    return 0


def cmd_spi(args: argparse.Namespace) -> int:
    inline = getattr(args, "observable", None)
    path = getattr(args, "input", None)
    if bool(path) == bool(inline):
        raise ValueError("exactly one of --input and --observable is required")
    data = Path(path).read_bytes() if path else inline.encode("utf-8")
    doc = json.loads(data, object_pairs_hook=_reject_duplicate_pairs)
    if not isinstance(doc, list):
        raise ValueError("observable description must be a JSON list")
    terms = []
    for item in doc:
        if not isinstance(item, dict) or not {"coeff", "paulis"} <= item.keys():
            raise ValueError("each observable term needs 'coeff' and 'paulis'")
        coeff, label = item["coeff"], item["paulis"]
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise ValueError(f"coeff {coeff!r} is not a number")
        if not isinstance(label, str):
            raise ValueError(f"paulis {label!r} is not a string")
        try:
            terms.append((float(coeff), label))
        except OverflowError:
            raise ValueError("coeff is too large") from None
    # lambda_max <= sum |coeff| for Pauli terms, so a finite sum keeps it finite
    if not math.isfinite(sum(abs(coeff) for coeff, _ in terms)):
        raise ValueError("sum of |coeff| is too large")
    obs = ObservableSum.from_pauli_strings(terms)
    res = spi_lambda_max(obs) if args.seed is None else spi_lambda_max(obs, args.seed)
    result = {
        "lambda_max": res.lambda_max,
        "restarts_used": res.restarts_used,
        "converged": res.converged,
        "optimizer": [
            [[float(z.real), float(z.imag)] for z in vec]
            for vec in res.optimizer.vectors
        ],
    }
    sys.stdout.write(_envelope("spi", _digest(data), result))
    return 0


def _family_grid(
    family: str, theta: float, noise: float, shots: int | None, seed: int | None
) -> CorrelatorGrid:
    rho = qmodel.make_state(qmodel.StateFamilyParams(family, theta))
    if noise:
        rho = qmodel.depolarize(rho, noise)
    return qmodel.correlator_grid(rho, shots=shots, seed=seed)


def cmd_simulate(args: argparse.Namespace) -> int:
    theta = parse_angle(args.theta)
    if args.shots is not None and args.seed is None:
        raise ValueError("--seed is required when sampling with --shots")
    grid = _family_grid(args.family, theta, args.noise, args.shots, args.seed)
    payload = emit_grid(grid, args.format)
    if args.output:
        Path(args.output).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if args.steps > MAX_SWEEP_STEPS:
        raise ValueError(f"--steps must be at most {MAX_SWEEP_STEPS}")
    if args.shots is not None and args.seed is None:
        raise ValueError("--seed is required when sampling with --shots")
    lo, hi = parse_angle(getattr(args, "from")), parse_angle(args.to)
    # np.linspace warns on bounds, or a span, that are not finite
    if not all(map(math.isfinite, (lo, hi, hi - lo))):
        raise ValueError("the sweep range must be finite")
    mset = _measurement_set(args) or MeasurementSet.parse("XX,XY,XZ,YX,YY,YZ,ZX,ZY,ZZ")
    support = tuple(sorted(mset))
    opts = _solver_options(args)
    thetas = np.linspace(lo, hi, args.steps)
    full = qmodel.family_grid_values(
        args.family, thetas, args.noise, args.shots, args.seed
    )
    # the full grids are row-major over the three axes
    values = full[:, [3 * i + j for i, j in support]]
    results = solver._ne_solve_stack((2, 2), support, values, opts)
    rows = [
        (theta, res.value, res.verdict) for theta, res in zip(thetas.tolist(), results)
    ]
    rows.sort(key=lambda r: r[0])
    config = (
        f"family={args.family};set={args.set or 'all'};from={render_float(lo)};"
        f"to={render_float(hi)};steps={args.steps};shots={args.shots};"
        f"noise={render_float(args.noise)};seed={args.seed}"
    )
    digest = _digest(config.encode("utf-8"))
    if args.format == "csv":
        lines = ["theta,ne,verdict"]
        lines.extend(
            f"{render_float(theta)},{render_float(ne)},{verdict}"
            for theta, ne, verdict in rows
        )
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        result = {
            "rows": [
                {"theta": theta, "ne": ne, "verdict": verdict}
                for theta, ne, verdict in rows
            ]
        }
        sys.stdout.write(_envelope("sweep", digest, result))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="entcert",
        description="Certify entanglement from sparse correlation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="path to a grid file (.json or .csv)")
        p.add_argument("--grid", help="inline JSON grid")
        p.add_argument("--set", help="comma-separated correlator labels, e.g. XX,ZZ")
        p.add_argument("--tol", type=float, help="solver tolerance")
        p.add_argument("--max-iter", type=int, dest="max_iter")

    p = sub.add_parser("verify", help="normalized estimation and verdict")
    add_grid_source(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="mirrored witness report for a grid")
    add_grid_source(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("classify", help="pattern class of a measurement set")
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="relabeling classes of k-element sets")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("spi", help="product-state maximum of a Pauli observable")
    p.add_argument("--input", help="path to a JSON observable description")
    p.add_argument(
        "--observable", help='inline JSON, e.g. [{"coeff":1,"paulis":"ZZZ"}]'
    )
    p.add_argument("--seed", type=int, help="seed for the random restarts")
    p.set_defaults(func=cmd_spi)

    def add_family(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, choices=qmodel.FAMILIES)
        p.add_argument("--noise", type=float, default=0.0, help="depolarizing weight")
        p.add_argument("--shots", type=int, help="finite sampling; omit for ideal")
        p.add_argument("--seed", type=int, help="required when --shots is given")

    p = sub.add_parser("simulate", help="write a synthetic correlator grid")
    add_family(p)
    p.add_argument("--theta", default="0", help="angle, e.g. 7pi/9")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write the grid here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="normalized estimation across angles")
    add_family(p)
    p.add_argument("--set", help="correlator labels; all nine when omitted")
    p.add_argument("--from", default="-pi", help="sweep start angle")
    p.add_argument("--to", default="pi", help="sweep end angle")
    p.add_argument(
        "--steps",
        type=int,
        default=19,
        help=f"number of angles, 2 to {MAX_SWEEP_STEPS}: every angle's state, grid "
        "and result are held in memory at once",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=float, help="solver tolerance")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except solver.SolverError as err:
        print(f"error: solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
