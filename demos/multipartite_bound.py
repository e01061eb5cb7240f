"""Product-state bounds and a heuristic entanglement test beyond two parties.

The separable bound for a multipartite Pauli observable is its maximum
over product states, found by cyclic single-site power iteration (SPI).
The GHZ state reaches 4 on the sum of four GHZ-stabilizer correlators,
while SPI finds 3 for product states.  ``ne_multipartite`` on those
correlators at value 1 tests full separability only, not genuine
three-qubit entanglement, and against SPI's value, a lower bound on the
product-state maximum.  So its verdict is heuristic, not certified, as
the note printed last says.
"""

from entcert.multipartite import (
    ObservableSum,
    ne_multipartite,
    spi_lambda_max,
)


def main() -> None:
    words = ["XXX", "ZZI", "ZIZ", "IZZ"]
    obs = ObservableSum.from_pauli_strings([(1.0, w) for w in words])

    spi = spi_lambda_max(obs)
    print(f"product-state maximum : {spi.lambda_max:.6f}")
    print(f"restarts / converged  : {spi.restarts_used} / {spi.converged}")
    print(f"starts at the maximum : {spi.best_starts}")

    # GHZ stabilizer data: every listed correlator is exactly 1
    result = ne_multipartite(words, [1.0, 1.0, 1.0, 1.0])
    print(f"normalized estimation : {result.value:.6f}")
    print(f"verdict               : {result.verdict}")
    print(f"coefficients          : "
          + ", ".join(f"{w}={c:+.3f}" for w, c in zip(result.labels, result.coefficients)))
    print(f"note                  : {result.note}")


if __name__ == "__main__":
    main()
