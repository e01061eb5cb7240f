"""Reference computations that the benchmark checks entcert's outputs against.

Nothing here imports entcert.  Every reference is rebuilt from numpy and
from the conventions that the entcert docstrings state (Pauli matrices,
the generalized Gell-Mann ordering, the state families), or is a property
the method must have:

* nuclear-norm duality: on a support S with data V0 (zeros off S), the
  optimum is at most t * ||V0||_* and equals it on full support;
* explicit feasible points: a signed transversal of S, or one measured
  row or column, scaled by t, is a feasible coefficient matrix, so the
  optimum is at least t times the best such objective;
* closed forms for qubit sets of up to three cells.

A failed check raises ``CheckFailed`` with a message naming the quantity.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from typing import Iterable, Sequence

import numpy as np

#: The detection margin of a verdict: 'entangled' exactly when NE > 1 + margin.
DETECTION_TOL = 1e-9

AXES = "XYZ"
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
FAMILIES = ("bell", "psi_theta", "chi1", "chi3")
ENTANGLED, UNDETECTED = "entangled", "undetected"


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: got {got!r}, want {want!r} (tolerance {tol:g})",
    )


# -- operator bases and states ----------------------------------------------


@functools.cache
def gell_mann(d: int) -> tuple[np.ndarray, ...]:
    """Identity, symmetric, antisymmetric, then diagonal Gell-Mann matrices.

    Normalized to Tr(G_k G_l) = d delta_kl; for d = 2 this is (1, X, Y, Z).
    Built once per d; the matrices are read-only.
    """
    scale = math.sqrt(d / 2.0)
    sym, anti = [], []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = scale
            sym.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[j, k], a[k, j] = -1j * scale, 1j * scale
            anti.append(a)
    diag = []
    for l in range(1, d):
        entries = np.zeros(d)
        entries[:l] = 1.0
        entries[l] = -float(l)
        diag.append(np.diag(entries * scale * math.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    basis = tuple([np.eye(d, dtype=complex)] + sym + anti + diag)
    for op in basis:
        op.setflags(write=False)
    return basis


def correlator(rho: np.ndarray, dims: tuple[int, int], cell: tuple[int, int]) -> float:
    """Tr((G_i (x) G_j) rho) for the traceless basis indices (i, j)."""
    ga, gb = gell_mann(dims[0]), gell_mann(dims[1])
    op = np.kron(ga[cell[0] + 1], gb[cell[1] + 1])
    return float(np.trace(op @ rho).real)


def family_vector(family: str, theta: float) -> np.ndarray:
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    if family == "bell":
        return phi_plus
    if family == "psi_theta":
        return np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
    if family == "chi1":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        local = np.array([[c, -s], [s, c]], dtype=complex)  # exp(-i theta Y / 2)
    elif family == "chi3":
        h = math.cos(theta) * PAULI["X"] + math.sin(theta) * PAULI["Z"]
        local = (PAULI["I"] + 1j * h) / math.sqrt(2)
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.kron(PAULI["I"], local) @ phi_plus


def family_correlators(family: str, theta: float) -> np.ndarray:
    """3x3 matrix of <psi| P_a (x) P_b |psi> for P in (X, Y, Z)."""
    psi = family_vector(family, theta)
    out = np.empty((3, 3))
    for i, a in enumerate(AXES):
        for j, b in enumerate(AXES):
            out[i, j] = float((psi.conj() @ np.kron(PAULI[a], PAULI[b]) @ psi).real)
    return out


# -- grids as the benchmark reads them ---------------------------------------


def label_cell(label: str, dims: tuple[int, int]) -> tuple[int, int]:
    if tuple(dims) == (2, 2):
        return AXES.index(label[0]), AXES.index(label[1])
    i, j = label.split(",")
    return int(i), int(j)


def cell_label(cell: tuple[int, int], dims: tuple[int, int]) -> str:
    if tuple(dims) == (2, 2):
        return AXES[cell[0]] + AXES[cell[1]]
    return f"{cell[0]},{cell[1]}"


def read_json_grid(data: bytes) -> tuple[tuple[int, int], dict]:
    doc = json.loads(data)
    dims = (int(doc["dims"][0]), int(doc["dims"][1]))
    return dims, {label_cell(k, dims): float(v) for k, v in doc["correlators"].items()}


def read_qubit_csv(data: bytes) -> tuple[tuple[int, int], dict]:
    lines = data.decode("utf-8").strip("\n").split("\n")
    require(lines[0] == "a,b,value", "CSV header")
    values = {}
    for line in lines[1:]:
        a, b, v = line.split(",")
        values[(AXES.index(a), AXES.index(b))] = float(v)
    return (2, 2), values


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- bounds on the bipartite optimum -----------------------------------------


def t_factor(dims: Sequence[int]) -> float:
    return 1.0 / math.sqrt((dims[0] - 1) * (dims[1] - 1))


def data_matrix(dims, values: dict) -> np.ndarray:
    out = np.zeros((dims[0] ** 2 - 1, dims[1] ** 2 - 1))
    for (i, j), v in values.items():
        out[i, j] = v
    return out


def max_transversal(values: dict) -> float:
    """Largest sum of |v| over measured cells in distinct rows and columns."""
    cols = sorted({j for _, j in values})
    bit = {c: 1 << k for k, c in enumerate(cols)}
    by_row: dict[int, list] = {}
    for (i, j), v in values.items():
        by_row.setdefault(i, []).append((bit[j], abs(v)))
    best = {0: 0.0}
    for entries in by_row.values():
        nxt = dict(best)
        for mask, total in best.items():
            for b, w in entries:
                if not mask & b and total + w > nxt.get(mask | b, -1.0):
                    nxt[mask | b] = total + w
        best = nxt
    return max(best.values())


def max_line_norm(values: dict) -> float:
    """Largest Euclidean norm of one measured row or column."""
    rows: dict[int, float] = {}
    cols: dict[int, float] = {}
    for (i, j), v in values.items():
        rows[i] = rows.get(i, 0.0) + v * v
        cols[j] = cols.get(j, 0.0) + v * v
    return math.sqrt(max(max(rows.values()), max(cols.values())))


def bracket(dims, values: dict) -> tuple[float, float]:
    """(lower, upper) bounds on the optimum from feasible points and duality."""
    t = t_factor(dims)
    upper = t * float(np.linalg.svd(data_matrix(dims, values), compute_uv=False).sum())
    lower = t * max(max_transversal(values), max_line_norm(values))
    return lower, upper


def qubit_closed_form(values: dict) -> float | None:
    """Exact optimum of a qubit set of at most three cells, else None."""
    cells = sorted(values)
    if len(cells) > 3:
        return None
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    v = [values[c] for c in cells]
    if is_line(cells):
        return math.sqrt(sum(x * x for x in v))
    if len(set(rows)) == len(cells) and len(set(cols)) == len(cells):
        return sum(abs(x) for x in v)
    if len(set(rows)) == 2 and len(set(cols)) == 2:
        corner = next(c for c in cells if rows.count(c[0]) == 2 and cols.count(c[1]) == 2)
        a = values[corner]
        b = next(values[c] for c in cells if c != corner and c[0] == corner[0])
        c_ = next(values[c] for c in cells if c != corner and c[1] == corner[1])
        return lshape_value(a, b, c_)
    repeated_row = len(set(rows)) == 2
    key = (lambda c: c[0]) if repeated_row else (lambda c: c[1])
    keys = [key(c) for c in cells]
    domino = [values[c] for c in cells if keys.count(key(c)) == 2]
    isolated = next(values[c] for c in cells if keys.count(key(c)) == 1)
    return math.hypot(*domino) + abs(isolated)


def lshape_value(a: float, b: float, c: float) -> float:
    """min over mu of ||[[a, b], [c, mu]]||_*, solved in closed form."""
    if abs(b * c) < a * a:
        return math.sqrt((a * a + b * b) * (a * a + c * c)) / abs(a)
    return abs(b) + abs(c)


def is_line(cells: Iterable[tuple[int, int]]) -> bool:
    cells = list(cells)
    return len({i for i, _ in cells}) == 1 or len({j for _, j in cells}) == 1


# -- checks on one bipartite result ------------------------------------------


def check_verdict(ne: float, verdict: str) -> None:
    want = ENTANGLED if ne > 1.0 + DETECTION_TOL else UNDETECTED
    require(verdict == want, f"verdict {verdict!r} for NE {ne!r}, want {want!r}")


def check_bipartite(dims, values: dict, value: float, coefficients: dict, tol: float) -> None:
    """Bracket, feasibility and objective of one optimum on support ``values``.

    ``coefficients`` maps cells to the reported coefficients.
    """
    require(set(coefficients) <= set(values), "coefficients off the measured support")
    lower, upper = bracket(dims, values)
    require(value <= upper + 1e-9, f"NE {value!r} above the duality bound {upper!r}")
    require(value >= lower - tol - 1e-12, f"NE {value!r} below the feasible-point bound {lower!r}")
    t = t_factor(dims)
    top = float(np.linalg.svd(data_matrix(dims, coefficients), compute_uv=False)[0])
    require(top <= t * (1.0 + 1e-9), f"coefficients infeasible: sigma_max {top!r} > t = {t!r}")
    objective = abs(sum(c * values[cell] for cell, c in coefficients.items()))
    close(objective, value, 1e-12 * max(1.0, value), "|v . c| against the reported NE")


def check_exact(dims, values: dict, value: float, full: bool) -> None:
    """NE against the exact optimum where the benchmark knows it."""
    if full:
        nuclear = float(np.linalg.svd(data_matrix(dims, values), compute_uv=False).sum())
        close(value, t_factor(dims) * nuclear, 1e-7, "NE on full support against t * ||V||_*")
    elif tuple(dims) == (2, 2) and len(values) <= 3:
        close(value, qubit_closed_form(values), 1e-6, "NE against the closed form")


def check_witness(tr_plus: float, tr_minus: float, bound: float, ne: float, verdict: str) -> None:
    """Witness traces agree with NE and the verdict: min tr = bound - NE."""
    close(bound, 1.0, 1e-9, "witness bound of boundary-scaled coefficients")
    close(min(tr_plus, tr_minus), bound - ne, 1e-9, "min witness trace against bound - NE")
    detected = min(tr_plus, tr_minus) < -DETECTION_TOL
    require(detected == (verdict == ENTANGLED), f"witness traces disagree with verdict {verdict!r}")


def check_cli_report(
    command: str,
    exit_code: int,
    stdout: str,
    input_bytes: bytes,
    dims,
    values: dict,
    tol: float,
) -> None:
    """One ``verify`` or ``witness`` envelope against its input."""
    envelope = json.loads(stdout)
    require(envelope["command"] == command, "envelope command")
    require(envelope["input_digest"] == sha256(input_bytes), "input_digest is not sha256 of the input")
    result = envelope["result"]
    ne = result["ne"]
    verdict = result["verdict"]
    check_verdict(ne, verdict)
    report = result["witness"] if command == "verify" else result
    require(report["verdict"] == verdict, "witness verdict differs from the NE verdict")
    check_witness(report["tr_plus"], report["tr_minus"], report["bound"], ne, verdict)
    require(exit_code == (0 if verdict == ENTANGLED else 1), f"exit code {exit_code} for {verdict!r}")
    coefficients = {label_cell(k, dims): float(c) for k, c in result["coefficients"].items()}
    require(coefficients == {label_cell(k, dims): float(c) for k, c in report["coefficients"].items()},
            "witness coefficients differ from the NE coefficients")
    check_bipartite(dims, values, ne, coefficients, tol)
    full = len(values) == (dims[0] ** 2 - 1) * (dims[1] ** 2 - 1)
    check_exact(dims, values, ne, full)
    line = tuple(dims) == (2, 2) and len(values) <= 3 and is_line(values)
    require(("note" in result) == line, "line-pattern note present exactly on qubit line sets")
    if command == "verify":
        require(0.0 <= result["gap"] <= tol, f"duality-gap bound {result['gap']!r} above tol")


# -- multipartite product-state maxima ----------------------------------------


def pauli_dense(terms: Sequence[tuple[float, str]]) -> np.ndarray:
    n = len(terms[0][1])
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for coeff, word in terms:
        op = np.array([[coeff]], dtype=complex)
        for letter in word:
            op = np.kron(op, PAULI[letter])
        out += op
    return out


def bloch_values(terms, blochs: np.ndarray) -> np.ndarray:
    """Product-state expectations from per-site Bloch vectors (N, sites, 3)."""
    total = np.zeros(blochs.shape[0])
    for coeff, word in terms:
        factor = np.full(blochs.shape[0], float(coeff))
        for site, letter in enumerate(word):
            if letter != "I":
                factor = factor * blochs[:, site, AXES.index(letter)]
        total += factor
    return total


def polish_bloch(terms, bloch: np.ndarray) -> float:
    """Cyclic exact single-site maximization of the multilinear form."""
    bloch = bloch.copy()
    value = bloch_values(terms, bloch[None])[0]
    for _ in range(300):
        for site in range(bloch.shape[0]):
            grad = np.zeros(3)
            for coeff, word in terms:
                if word[site] == "I":
                    continue
                partial = float(coeff)
                for other, letter in enumerate(word):
                    if other != site and letter != "I":
                        partial *= bloch[other, AXES.index(letter)]
                grad[AXES.index(word[site])] += partial
            norm = np.linalg.norm(grad)
            if norm > 0.0:
                bloch[site] = grad / norm
        new_value = bloch_values(terms, bloch[None])[0]
        if new_value - value <= 1e-13:
            return float(new_value)
        value = new_value
    return float(value)


def product_state_max(terms, seed: int = 0, samples: int = 40_000, keep: int = 24,
                      chunk: int = 2_000) -> float:
    """Sampled Bloch vectors, then a cyclic polish of the best candidates.

    The samples are drawn ``chunk`` at a time, keeping the running best
    ``keep``, so that the check adds little to the peak memory of the
    process whose program it checks.
    """
    rng = np.random.default_rng(seed)
    sites = len(terms[0][1])
    best = np.empty((0, sites, 3))
    best_values = np.empty(0)
    for _ in range(samples // chunk):
        blochs = rng.standard_normal((chunk, sites, 3))
        blochs /= np.linalg.norm(blochs, axis=2, keepdims=True)
        blochs = np.concatenate([best, blochs])
        values = np.concatenate([best_values, bloch_values(terms, blochs)])
        top = np.argpartition(values, -keep)[-keep:]
        best, best_values = blochs[top], values[top]
    return max(polish_bloch(terms, b) for b in best)


def check_product_search(dense: np.ndarray, lam: float, vectors: Sequence[np.ndarray]) -> None:
    """lambda is below the top eigenvalue and is attained by the returned state."""
    top = float(np.linalg.eigvalsh(dense)[-1])
    require(lam <= top + 1e-9, f"lambda {lam!r} above the dense top eigenvalue {top!r}")
    state = np.array([1.0], dtype=complex)
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        close(float(np.linalg.norm(v)), 1.0, 1e-9, "norm of an optimizer vector")
        state = np.kron(state, v)
    close(float((state.conj() @ dense @ state).real), lam, 1e-9, "<psi|O|psi> against lambda")
