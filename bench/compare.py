"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py bench/results/first bench/results/second

For each workload and end-to-end metric it prints each set's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and how far the second median lies from the first, as
a share of the first.  A metric passes when each set's spread is within
its bound in BENCHMARK.json and the two medians differ, either way, by no
more than that bound.  The share of failed operations must be the same in
both sets.  Exit code 0 when everything passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[str, list[dict]]:
    sets: dict[str, list[dict]] = {}
    for workload_dir in sorted(p for p in path.iterdir() if p.is_dir()):
        runs = [json.loads(f.read_text()) for f in sorted(workload_dir.glob("seed*.json"))]
        if runs:
            sets[workload_dir.name] = runs
    return sets


def failed_share(runs: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    first, second = load(args.first), load(args.second)
    ok = True
    print("workload         metric        set   n     q1         median     q3         "
          "spread  bound  change   verdict")
    for workload, runs_a in first.items():
        runs_b = second.get(workload, [])
        sides = [("A", runs_a), ("B", runs_b)]
        if not runs_b:
            print(f"{workload}: no runs in set B")
            ok = False
            continue
        for side, runs in sides:
            if not all(r["correct"] for r in runs):
                print(f"{workload}: set {side} has a run with wrong outputs")
                ok = False
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for side, runs in sides:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians[side] = q2
                s = (q3 - q1) / q2
                steady = s <= bound
                ok &= steady
                line = (f"{workload:16} {name:13} {side:5} {len(values):<5} {q1:<10.5g} {q2:<10.5g} "
                        f"{q3:<10.5g} {s:<7.3f} {bound:<6.3g}")
                if side == "B":
                    a, b = medians["A"], medians["B"]
                    change = (b - a) / a
                    agree = abs(change) <= bound
                    ok &= agree
                    line += f" {change:+.3f}   {'within' if agree and steady else 'OUT'}"
                else:
                    line += f" {'':8} {'steady' if steady else 'UNSTEADY'}"
                print(line)
        fa, fb = failed_share(runs_a), failed_share(runs_b)
        same = fa[0] * fb[1] == fb[0] * fa[1]
        ok &= same
        print(f"{workload:16} failed share  A {fa[0]}/{fa[1]}  B {fb[0]}/{fb[1]}  "
              f"{'same' if same else 'DIFFERENT'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
