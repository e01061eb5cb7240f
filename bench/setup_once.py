"""Time one set-up of a workload in a fresh interpreter and print the seconds.

    python3 bench/setup_once.py separable_batch 1

The time runs from the first line of this file, before numpy is imported,
to the end of one untimed warm-up operation.  It covers importing entcert
and the benchmark's modules, building the workload's inputs and the
warm-up.  It then prints the reference kernel's time (see run.py) after
the set-up time.  run.py starts this several times, one after the other,
scales each set-up time by the kernel's, and reports the median as
``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    run.import_program()
    import workloads

    workload = run.set_up(workloads.WORKLOADS[name], seed)
    elapsed = time.perf_counter() - START
    workload.close()
    print(repr(elapsed), repr(run.reference_kernel()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
