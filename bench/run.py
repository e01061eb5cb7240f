"""Run one workload of the entcert benchmark and print its metrics.

    python3 bench/run.py --workload separable_batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  One process, one caller in a closed loop, one thread of work.
The run executes whole rounds of operations (see workloads.py) until the
timed operations add up to ``--seconds``; each output is checked outside
the timed section.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, their times scaled
to a reference host speed (see REFERENCE_S).  With ``--trace 1``
each operation runs twice, untraced and traced, and the metrics are the
per-layer ones from the traced calls, with the tracing overhead measured
against the untraced ones; the spans go to ``bench/traces/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread of work: numpy's BLAS must not start helper threads of its own.
# Set before numpy is first imported; setup_once.py imports this module first.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
}
PER_LAYER = {
    "grids.parse_grid_us": "us",
    "grids.emit_grid_us": "us",
    "qmodel.sample_separable_us": "us",
    "qmodel.correlator_grid_us": "us",
    "qmodel.correlator_grid_shots_us": "us",
    "qmodel.make_state_us": "us",
    "solver.ne_solve_ms": "ms",
    "solver.newton_steps": "steps/solve",
    "solver.step_us": "us/step",
    "witness.make_witness_pair_us": "us",
    "witness.evaluate_witness_us": "us",
    "patterns.classify_us": "us",
    "patterns.closed_form_us": "us",
    "patterns.lshape_us": "us",
    "multipartite.spi_ms": "ms",
    "multipartite.restarts": "starts/search",
    "multipartite.k_separable_ms": "ms",
    "smallmat.hermitian_eig_us": "us",
    "smallmat.hermitian_eig_calls": "calls/search",
    "smallmat.svd_us": "us",
    "cli.verify_self_ms": "ms",
    "cli.simulate_self_ms": "ms",
    "cli.sweep_self_ms": "ms",
    "cli.verify_ms_p50": "ms",
    "cli.simulate_ms_p50": "ms",
    "cli.sweep_ms_p50": "ms",
    "trace.overhead_pct": "%",
}
# The host's speed drifts by 20-50% from one minute to the next, and even the
# fastest operations of a 30-second run move with it.  A fixed reference
# kernel, timed three times (median) between blocks of at least BLOCK_S of
# timed operations, tracks that drift; every end-to-end time is scaled by
# REFERENCE_S / (the kernel's time around it), that is, to a host on which
# the kernel takes REFERENCE_S.
REFERENCE_S = 0.005
BLOCK_S = 0.25
_KERNEL_MATRIX = np.arange(36.0).reshape(6, 6) % 7.0
_KERNEL_MATRIX = _KERNEL_MATRIX + _KERNEL_MATRIX.T
_KERNEL_ROWS = _KERNEL_MATRIX.tolist()
# Fresh interpreters timed by setup_once.py, some before the timed phase and
# the rest after it, so that their median spans the run; setup_s is that median.
SETUP_BEFORE, SETUP_AFTER = 4, 3
WALL_LIMIT_S = 150.0  # stop at a round boundary past this, well inside 180 s


def import_program():
    """Import entcert from this checkout's src/, never from elsewhere."""
    package = SRC / "entcert"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no entcert sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import entcert

    if Path(entcert.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported entcert from {entcert.__file__}, not from {package}")


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 40:
        return None
    for p in (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0):
        if n * (1 - p / 100) >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


def reference_kernel() -> float:
    """Median seconds of three runs of a fixed mix of small numpy calls and
    Python arithmetic.

    It does what entcert's hot paths do (tiny eigenproblems and products
    driven by Python loops) and never calls entcert, so a change to the
    program leaves it unmoved.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for _ in range(80):
            total += float(np.linalg.eigh(_KERNEL_MATRIX)[0][0])
            total += float((_KERNEL_MATRIX @ _KERNEL_MATRIX).trace())
            for row in _KERNEL_ROWS:  # a 6x6 product in Python floats
                for col in _KERNEL_ROWS:
                    total += sum(x * y for x, y in zip(row, col))
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def set_up(cls, seed: int):
    """Build the workload and run one untimed warm-up operation."""
    workload = cls(seed)
    workload.warmup().run()
    return workload


def setup_times(name: str, seed: int, repeats: int) -> list[float]:
    """Scaled set-up times of ``repeats`` fresh interpreters, started one at a time.

    Each interpreter prints its set-up time and then the reference kernel's
    time (median of three runs); the set-up time is scaled like an operation.
    """
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), name, str(seed)],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: set-up of {name} failed:\n{proc.stderr}")
        seconds, kernel = map(float, proc.stdout.split()[-2:])
        times.append(seconds * REFERENCE_S / kernel)
    return times


def measure(workload, seconds: float, tracer, check_failed):
    """Run whole rounds until the timed operations add up to ``seconds``.

    ``durations`` holds each kind's times as measured, ``scaled`` the same
    times scaled to the reference host speed (see REFERENCE_S): the
    reference kernel runs before the first operation and after every block
    of operations that adds up to BLOCK_S, and a block's times are scaled
    by the mean of the kernel's times before and after it.  With a tracer,
    every operation runs twice, untraced and traced, in alternating order,
    so that host speed drifts cancel out of the overhead; nothing is scaled.
    """
    durations: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    block: list[tuple[str, float]] = []
    kernel_before = reference_kernel() if tracer is None else 0.0

    def end_block():
        nonlocal kernel_before
        kernel_after = reference_kernel()
        factor = 2.0 * REFERENCE_S / (kernel_before + kernel_after)
        for kind, elapsed in block:
            scaled.setdefault(kind, []).append(elapsed * factor)
        block.clear()
        kernel_before = kernel_after

    timed = {False: 0.0, True: 0.0}
    attempted = failed = 0
    errors: list[str] = []  # wrong outputs
    failures: list[str] = []  # operations the program failed
    wall_start = time.perf_counter()
    r = 0
    while True:
        if tracer:
            tracer.round = r
        for index, op in enumerate(workload.round(r)):
            passes = (False,) if tracer is None else (False, True) if index % 2 else (True, False)
            for traced in passes:
                attempted += 1
                if traced:
                    tracer.install()
                    tracer.active = True
                start = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # the program failed: count it, keep going
                    failed += 1
                    failures.append(f"round {r} {op.kind}: failed: {exc!r}")
                    continue
                finally:
                    elapsed = time.perf_counter() - start
                    if traced:
                        tracer.active = False
                        tracer.uninstall()
                timed[traced] += elapsed
                if not traced:
                    durations.setdefault(op.kind, []).append(elapsed)
                    if tracer is None:
                        block.append((op.kind, elapsed))
                        if sum(t for _, t in block) >= BLOCK_S:
                            end_block()
                try:
                    op.check(out)
                except check_failed as exc:
                    errors.append(f"round {r} {op.kind}: wrong output: {exc}")
                except Exception as exc:  # an output the checks cannot read is wrong too
                    errors.append(f"round {r} {op.kind}: unreadable output: {exc!r}")
        r += 1
        if time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
        if timed[False] + timed[True] >= seconds:
            break
    if block:
        end_block()
    return durations, scaled, timed, attempted, failed, errors, failures, r


def layer_metrics(summary: dict, durations: dict, timed: dict) -> dict[str, float]:
    def mean(name: str, scale: float) -> float:
        entry = summary.get(name)
        return entry["mean"] * scale if entry else 0.0

    def self_mean(names, scale: float) -> float:
        entries = [summary[n] for n in names if n in summary]
        calls = sum(e["calls"] for e in entries)
        return sum(e["self"] for e in entries) / calls * scale if calls else 0.0

    def per(name: str, key: str, base_key: str) -> float:
        entry = summary.get(name)
        return entry[key] / entry[base_key] if entry and entry[base_key] else 0.0

    def p50(kind: str) -> float:
        return statistics.median(durations[kind]) * 1e3 if kind in durations else 0.0

    solve = summary.get("solver.ne_solve")
    searches = sum(summary[n]["counted_top"] for n in ("multipartite.spi", "multipartite.k_separable")
                   if n in summary)
    eig = summary.get("smallmat.hermitian_eig")
    return {
        "grids.parse_grid_us": mean("grids.parse_grid", 1e6),
        "grids.emit_grid_us": mean("grids.emit_grid", 1e6),
        "qmodel.sample_separable_us": mean("qmodel.sample_separable", 1e6),
        "qmodel.correlator_grid_us": mean("qmodel.correlator_grid", 1e6),
        "qmodel.correlator_grid_shots_us": mean("qmodel.correlator_grid_shots", 1e6),
        "qmodel.make_state_us": mean("qmodel.make_state", 1e6),
        "solver.ne_solve_ms": mean("solver.ne_solve", 1e3),
        "solver.newton_steps": per("solver.ne_solve", "counted_work", "counted_calls"),
        "solver.step_us": solve["self"] / solve["count"] * 1e6 if solve and solve["count"] else 0.0,
        "witness.make_witness_pair_us": mean("witness.make_witness_pair", 1e6),
        "witness.evaluate_witness_us": mean("witness.evaluate_witness", 1e6),
        "patterns.classify_us": mean("patterns.classify", 1e6),
        "patterns.closed_form_us": mean("patterns.closed_form", 1e6),
        "patterns.lshape_us": mean("patterns.lshape", 1e6),
        "multipartite.spi_ms": mean("multipartite.spi", 1e3),
        "multipartite.restarts": per("multipartite.spi", "counted_work", "counted_calls"),
        "multipartite.k_separable_ms": mean("multipartite.k_separable", 1e3),
        "smallmat.hermitian_eig_us": mean("smallmat.hermitian_eig", 1e6),
        "smallmat.hermitian_eig_calls": eig["counted_calls"] / searches if eig and searches else 0.0,
        "smallmat.svd_us": mean("smallmat.svd", 1e6),
        "cli.verify_self_ms": self_mean(("cli.verify", "cli.witness"), 1e3),
        "cli.simulate_self_ms": self_mean(("cli.simulate",), 1e3),
        "cli.sweep_self_ms": self_mean(("cli.sweep",), 1e3),
        "cli.verify_ms_p50": p50("verify"),
        "cli.simulate_ms_p50": p50("simulate"),
        "cli.sweep_ms_p50": p50("sweep"),
        "trace.overhead_pct": 100.0 * (timed[True] / timed[False] - 1.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import checks
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    setups = [] if args.trace else setup_times(args.workload, args.seed, SETUP_BEFORE)
    wall_start = time.perf_counter()
    workload = set_up(workloads.WORKLOADS[args.workload], args.seed)
    tracer = tracing.Tracer() if args.trace else None
    try:
        durations, scaled, timed, attempted, failed, errors, failures, rounds = measure(
            workload, args.seconds, tracer, checks.CheckFailed
        )
    finally:
        workload.close()
    if not args.trace:
        setups += setup_times(args.workload, args.seed, SETUP_AFTER)

    all_scaled = [t for kind in scaled.values() for t in kind]
    raw_rate = sum(len(v) for v in durations.values()) / timed[False] if timed[False] else 0.0
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"attempted={attempted} failed={failed} wrong={len(errors)} "
          f"timed_s={timed[False]:.3f} wall_s={time.perf_counter() - wall_start:.3f} "
          f"raw_ops_per_s={raw_rate:.4g} setups_s={' '.join(f'{t:.3f}' for t in setups)}")
    for kind, values in sorted(durations.items()):
        line = f"# {kind}: n={len(values)} p50={statistics.median(values) * 1e3:.4f} ms"
        found = tail(values)
        if found:
            line += f" p{found[0]:g}={found[1] * 1e3:.4f} ms ({len(values)} samples)"
        print(line)
    for message in failures[:5] + errors[:10]:
        print(f"bench: {message}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": len(all_scaled) / sum(all_scaled),
            "op_ms_p50": statistics.median(
                [t for kind in workload.primary for t in scaled.get(kind, [])]
            ) * 1e3,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracing.summarize(tracer.spans), durations, timed)
        units = PER_LAYER
        tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        for name, value in metrics.items():
            print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
