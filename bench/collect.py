"""Make a result set: run the benchmark once per seed on each workload.

    python3 bench/collect.py --out bench/results/first --runs 10 --seconds 30

The seeds are 1 to ``--runs``, and every workload is run.
Each run is a separate process, started and awaited one at a time, from
the root of the checkout.  Its last stdout line is stored as
``<out>/<workload>/seed<n>.json`` and its whole output as ``.log``.
``compare.py`` reads these sets.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("separable_batch", "cli_session", "spi_search")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in WORKLOADS:
        target = args.out / workload
        target.mkdir(parents=True, exist_ok=True)
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
            (target / f"seed{seed}.log").write_text(proc.stdout + proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            (target / f"seed{seed}.json").write_text(json.dumps(result) + "\n")
            summary = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {summary}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
