"""The three workloads: inputs made from the seed, operations, and their checks.

A workload hands out rounds.  A round is a list of ``Op``s; every run
executes whole rounds, so each run attempts the same mix of operations.
``primary`` names the kinds of operation whose median is ``op_ms_p50``.
``Op.run`` is the timed call into entcert; ``Op.check`` runs outside the
timed section and raises ``checks.CheckFailed`` on a wrong output.  Every
call into entcert goes through a module attribute (``solver.ne_solve``,
``cli.main``), which is where the tracer puts its spans.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import close, require

import entcert.cli as cli
import entcert.multipartite as multipartite
import entcert.qmodel as qmodel
import entcert.solver as solver
import entcert.witness as witness


class OpFailed(Exception):
    """The command line exited with code 2: a failed operation."""


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run: Callable[[], object], check: Callable[[object], None]):
        self.kind, self.run, self.check = kind, run, check


# -- separable_batch ------------------------------------------------------------


class SeparableBatch:
    """The soundness generator of the separable-states acceptance test.

    Each support has 2-6 cells, drawn in local dimensions 2-3, and is
    shared by 100 consecutive operations.  One operation samples a
    separable mixture of 1-3 Haar-random product states, builds its full
    grid, certifies the support with ne_solve(tol=1e-6, mu_factor=0.05)
    and evaluates the witness on the grid.  A round holds one support for
    each pair of local dimensions and each cell count, 20 in all, in a
    seeded order: the draws are those of the test, stratified, so that
    every run sees the same mix of problem sizes.
    """

    name = "separable_batch"
    primary = ("certify",)
    grids_per_support = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.opts = solver.SolverOptions(tol=1e-6, mu_factor=0.05)
        self._rounds: dict[int, list[Op]] = {}

    def round(self, r: int) -> list[Op]:
        if r not in self._rounds:
            self._rounds = {r: self._make_round(np.random.default_rng([self.seed, r]))}
        return self._rounds[r]

    def warmup(self) -> Op:
        return self.round(0)[0]

    def _make_round(self, rng) -> list[Op]:
        strata = [(da, db, k) for da in (2, 3) for db in (2, 3) for k in range(2, 7)]
        ops = []
        for index in rng.permutation(len(strata)):
            da, db, k = strata[index]
            cols = db * db - 1
            flat = rng.choice((da * da - 1) * cols, size=k, replace=False)
            cells = [(int(f) // cols, int(f) % cols) for f in flat]
            for _ in range(self.grids_per_support):
                terms = int(rng.integers(1, 4))
                state_seed = int(rng.integers(2**62))
                ops.append(Op(
                    "certify",
                    lambda da=da, db=db, terms=terms, s=state_seed, cells=cells:
                        self._certify(da, db, terms, s, cells),
                    lambda out, cells=cells: self._check(cells, out),
                ))
        return ops

    def _certify(self, da, db, terms, state_seed, cells):
        rho = qmodel.sample_separable(da, terms=terms, seed=state_seed, d_b=db)
        grid = qmodel.correlator_grid(rho)
        res = solver.ne_solve(grid, cells, self.opts)
        evaluation = witness.evaluate_witness(res.witness, grid)
        return rho, grid, res, evaluation

    def _check(self, cells, out) -> None:
        rho, grid, res, evaluation = out
        dims = grid.dims
        m = rho.matrix
        require(np.abs(m - m.conj().T).max() <= 1e-12, "state is not Hermitian")
        close(float(np.trace(m).real), 1.0, 1e-12, "trace of the state")
        require(np.linalg.eigvalsh(m)[0] >= -1e-12, "state is not positive semidefinite")
        values = {}
        for cell in cells:
            values[cell] = grid.values[cell]
            close(values[cell], checks.correlator(m, dims, cell), 1e-12,
                  f"correlator {cell} against Tr((G_i x G_j) rho)")
        coefficients = dict(zip(res.coefficients.support, res.coefficients.coeffs))
        checks.check_bipartite(dims, values, res.value, coefficients, self.opts.tol)
        require(res.value <= 1.0 + 1e-6, f"separable state gives NE {res.value!r}")
        require(res.verdict == checks.UNDETECTED, "separable state flagged")
        require(min(evaluation.tr_plus, evaluation.tr_minus) >= -1e-9,
                "a witness trace is negative on a separable state")
        require(evaluation.verdict == checks.UNDETECTED, "witness flags a separable state")
        checks.check_witness(evaluation.tr_plus, evaluation.tr_minus, res.witness.bound,
                             res.value, res.verdict)

    def close(self) -> None:
        pass


# -- cli_session ------------------------------------------------------------------

_PATTERN_CLASSES = (
    ((0, 0), (0, 1)),            # line in a row
    ((0, 0), (1, 0)),            # line in a column
    ((0, 0), (1, 1)),            # two generic cells
    ((0, 0), (0, 1), (0, 2)),    # three in a row
    ((0, 0), (1, 0), (2, 0)),    # three in a column
    ((0, 0), (1, 1), (2, 2)),    # transversal
    ((0, 0), (0, 1), (1, 0)),    # L-shape
    ((0, 0), (0, 1), (1, 2)),    # domino in a row plus an isolated cell
    ((0, 0), (1, 0), (2, 1)),    # domino in a column plus an isolated cell
)
_LSHAPE = _PATTERN_CLASSES[6]
_DOMINO = _PATTERN_CLASSES[7]
_TRANSVERSAL = _PATTERN_CLASSES[5]
_PSI_IDENTITY_SET = [(0, 0), (2, 2)]  # XX,ZZ: psi_theta gives 1 + |sin 2 theta|
_SHOTS = 2000
_CLI_TOL = 1e-8  # the default solver tolerance of the command line


def _relabel(cells, rng) -> list[tuple[int, int]]:
    pa, pb = rng.permutation(3), rng.permutation(3)
    return sorted((int(pa[i]), int(pb[j])) for i, j in cells)


def _random_cells(shape, k, rng) -> list[tuple[int, int]]:
    flat = rng.choice(shape[0] * shape[1], size=k, replace=False)
    return sorted((int(f) // shape[1], int(f) % shape[1]) for f in flat)


def _labels(cells) -> str:
    return ",".join(checks.cell_label(c, (2, 2)) for c in cells)


def _check_repeat(op: Op) -> None:
    """Make ``op`` also check that running its command again prints the same bytes."""
    first_check = op.check

    def check(out):
        first_check(out)
        require(op.run()[1] == out[1], "repeating a command changed its stdout")

    op.check = check


def _grid_doc(dims, values: dict) -> str:
    body = ",".join(
        f'"{checks.cell_label(cell, dims)}":{values[cell]!r}' for cell in sorted(values)
    )
    return f'{{"dims":[{dims[0]},{dims[1]}],"correlators":{{{body}}}}}'


class CliSession:
    """In-process calls of ``entcert.cli.main`` with stdout captured.

    Each round writes 16 grid files (``simulate`` of the four families,
    ideal and sampled, JSON and CSV), then runs 30 reads (``verify`` and
    ``witness`` on 8 of those files with ``--set`` subsets and on 22 inline
    documents) and 12 nineteen-step sweeps, in a seeded order.  Every
    round draws new angles, supports and data, so no two reads share an
    input.
    """

    name = "cli_session"
    primary = ("verify",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        parent = Path(__file__).parent / "_work"
        parent.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=parent))
        self._rounds: dict[int, list[Op]] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def warmup(self) -> Op:
        rng = np.random.default_rng([self.seed, 2**31])
        return self._inline((2, 2), {c: float(rng.uniform(-1, 1)) for c in _DOMINO}, "verify")

    def round(self, r: int) -> list[Op]:
        if r not in self._rounds:
            self._rounds = {r: self._make_round(r)}
        return self._rounds[r]

    @staticmethod
    def _call(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code == 2:
            raise OpFailed(f"{' '.join(argv[:1])}: exit code 2: {err.getvalue().strip()}")
        return code, out.getvalue()

    def _make_round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        writes, reads = [], []
        for family in checks.FAMILIES:
            theta = float(rng.uniform(-math.pi, math.pi))
            shot_seed = int(rng.integers(2**31))
            stem = self.workdir / f"{r}-{family}"
            for fmt in ("json", "csv"):
                writes.append(self._simulate(family, theta, None, None, fmt, stem))
                writes.append(self._simulate(family, theta, _SHOTS, shot_seed, fmt, stem))
            for command, path in (("verify", f"{stem}-ideal.json"), ("witness", f"{stem}-shots.csv")):
                cells = _random_cells((3, 3), int(rng.integers(2, 7)), rng)
                reads.append(self._from_file(command, Path(path), cells))
        documents = [((2, 2), _relabel(cells, rng)) for cells in _PATTERN_CLASSES]
        for k in range(4, 10):
            documents.append(((2, 2), _random_cells((3, 3), k, rng)))
        for dims, lo, hi in (((2, 3), 2, 13), ((2, 3), 2, 13), ((2, 3), 2, 13),
                             ((3, 3), 3, 17), ((3, 3), 3, 17)):
            shape = (dims[0] ** 2 - 1, dims[1] ** 2 - 1)
            documents.append((dims, _random_cells(shape, int(rng.integers(lo, hi)), rng)))
        for dims in ((2, 3), (3, 3)):
            shape = (dims[0] ** 2 - 1, dims[1] ** 2 - 1)
            documents.append((dims, [(i, j) for i in range(shape[0]) for j in range(shape[1])]))
        for dims, cells in documents:
            values = {c: float(rng.uniform(-1, 1)) for c in cells}
            reads.append(self._inline(dims, values, str(rng.choice(["verify", "witness"]))))
        sweeps = []
        small_sets = {
            "bell": _relabel(_TRANSVERSAL, rng),
            "psi_theta": _PSI_IDENTITY_SET,
            "chi1": _relabel(_LSHAPE, rng),
            "chi3": _relabel(_DOMINO, rng),
        }
        for family in checks.FAMILIES:
            for cells in (None, _random_cells((3, 3), 4, rng), small_sets[family]):
                lo = float(rng.uniform(-math.pi, 0.0))
                hi = lo + float(rng.uniform(math.pi / 2, 2 * math.pi))
                sweeps.append(self._sweep(family, cells, lo, hi))
        rest = reads + sweeps
        order = rng.permutation(len(rest))
        ops = writes + [rest[k] for k in order]
        _check_repeat(ops[len(writes)])
        return ops

    # writes

    def _simulate(self, family, theta, shots, seed, fmt, stem) -> Op:
        kind = "ideal" if shots is None else "shots"
        path = Path(f"{stem}-{kind}.{fmt}")
        argv = ["simulate", "--family", family, f"--theta={theta!r}", "--format", fmt,
                "--output", str(path)]
        if shots is not None:
            argv += ["--shots", str(shots), "--seed", str(seed)]

        def check(out):
            code, stdout = out
            require(code == 0 and stdout == "", "simulate with --output prints nothing, exit 0")
            data = path.read_bytes()
            if fmt == "json":
                dims, values = checks.read_json_grid(data)
            else:
                dims, values = checks.read_qubit_csv(data)
                json_values = checks.read_json_grid(Path(f"{stem}-{kind}.json").read_bytes())[1]
                require(values == json_values, "the JSON and CSV of one grid differ")
            require(dims == (2, 2) and len(values) == 9, "simulate writes a full qubit grid")
            if shots is None:
                want = checks.family_correlators(family, theta)
                for (i, j), v in values.items():
                    close(v, float(want[i, j]), 1e-12, f"ideal {family} correlator {(i, j)}")
            else:
                for v in values.values():
                    n = v * shots
                    require(-1.0 <= v <= 1.0 and abs(n - round(n)) <= 1e-9
                            and (round(n) - shots) % 2 == 0,
                            f"sampled value {v!r} is not a multiple of 2/{shots}")

        return Op("simulate", lambda: self._call(argv), check)

    # reads

    def _from_file(self, command, path: Path, cells) -> Op:
        argv = [command, "--input", str(path), "--set", _labels(cells)]

        def check(out):
            data = path.read_bytes()
            reader = checks.read_json_grid if path.suffix == ".json" else checks.read_qubit_csv
            dims, values = reader(data)
            checks.check_cli_report(command, out[0], out[1], data, dims,
                                    {c: values[c] for c in cells}, _CLI_TOL)

        return Op("verify", lambda: self._call(argv), check)

    def _inline(self, dims, values, command) -> Op:
        doc = _grid_doc(dims, values)
        argv = [command, "--grid", doc]

        def check(out):
            checks.check_cli_report(command, out[0], out[1], doc.encode("utf-8"),
                                    dims, values, _CLI_TOL)

        return Op("verify", lambda: self._call(argv), check)

    # sweeps

    def _sweep(self, family, cells, lo, hi) -> Op:
        argv = ["sweep", "--family", family, f"--from={lo!r}", f"--to={hi!r}"]
        if cells is not None:
            argv += ["--set", _labels(cells)]

        def check(out):
            code, stdout = out
            require(code == 0, "sweep exits 0")
            lines = stdout.strip("\n").split("\n")
            require(lines[0] == "theta,ne,verdict" and len(lines) == 20, "sweep has 19 rows")
            thetas = np.linspace(lo, hi, 19)
            for line, want_theta in zip(lines[1:], thetas):
                theta, ne, verdict = line.split(",")
                theta, ne = float(theta), float(ne)
                require(theta == float(want_theta), f"sweep angle {theta!r}")
                checks.check_verdict(ne, verdict)
                corr = checks.family_correlators(family, theta)
                full = [(i, j) for i in range(3) for j in range(3)]
                values = {c: float(corr[c]) for c in (cells or full)}
                if cells is None:
                    want = 1 + 2 * abs(math.sin(2 * theta)) if family == "psi_theta" else 3.0
                    close(ne, want, 1e-7, f"{family} full-support identity")
                elif family == "psi_theta" and cells == _PSI_IDENTITY_SET:
                    close(ne, 1 + abs(math.sin(2 * theta)), 1e-9, "psi_theta XX,ZZ identity")
                elif len(cells) <= 3:
                    close(ne, checks.qubit_closed_form(values), 1e-6, "sweep closed form")
                else:
                    lower, upper = checks.bracket((2, 2), values)
                    require(lower - _CLI_TOL - 1e-9 <= ne <= upper + 1e-9,
                            f"sweep NE {ne!r} outside [{lower!r}, {upper!r}]")

        return Op("sweep", lambda: self._call(argv), check)


# -- spi_search ------------------------------------------------------------------

GHZ_TERMS = [(1.0, "XXX"), (1.0, "ZZI"), (1.0, "ZIZ"), (1.0, "IZZ")]
FIXED_TERMS = {
    "ZZZ": [(1.0, "ZZZ")],
    "GHZ": GHZ_TERMS,
    "four_qubit": [(1.0, "XXXX"), (0.5, "ZZII"), (0.7, "IZZI"), (-0.3, "YYZZ")],
}
KNOWN_MAXIMA = {"ZZZ": 1.0, "GHZ": 3.0}
PARTITION = [[0, 1], [2]]
RANDOM_OBSERVABLES = 8


def random_four_terms(rng) -> list[tuple[float, str]]:
    """The random observables of the product-state acceptance test."""
    words: set[str] = set()
    while len(words) < 4:
        word = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=3))
        if word != "III":
            words.add(word)
    return [(float(rng.uniform(0.3, 1.0) * rng.choice((-1, 1))), w) for w in sorted(words)]


class SpiSearch:
    """Product-state maxima with the default ``SPIOptions``.

    The inputs are fixed: eight random 4-term 3-qubit observables from the
    acceptance test's generator and seed, ZZZ, the GHZ-stabilizer sum, a
    4-qubit observable, and the GHZ sum under the partition [[0,1],[2]].
    A round searches each of them once; the workload seed sets the order.
    """

    name = "spi_search"
    primary = ("spi", "k_separable")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(3)
        self.terms = {f"random{k}": random_four_terms(rng) for k in range(RANDOM_OBSERVABLES)}
        self.terms.update(FIXED_TERMS)
        self.observables = {
            key: multipartite.ObservableSum.from_pauli_strings(t) for key, t in self.terms.items()
        }
        self._dense: dict[str, np.ndarray] = {}
        self._reference: dict[str, float] = {}
        self._rounds: dict[int, list[Op]] = {}

    def close(self) -> None:
        pass

    def warmup(self) -> Op:
        return self._search("ZZZ")

    def round(self, r: int) -> list[Op]:
        if r not in self._rounds:
            keys = list(self.terms) + ["k_separable"]
            order = np.random.default_rng([self.seed, r]).permutation(len(keys))
            ops = [self._k_separable() if keys[k] == "k_separable" else self._search(keys[k])
                   for k in order]
            self._rounds = {r: ops}
        return self._rounds[r]

    def _dense_of(self, key) -> np.ndarray:
        if key not in self._dense:
            self._dense[key] = checks.pauli_dense(self.terms[key])
        return self._dense[key]

    def _search(self, key) -> Op:
        obs = self.observables[key]

        def check(res):
            checks.check_product_search(self._dense_of(key), res.lambda_max, res.optimizer.vectors)
            if key in KNOWN_MAXIMA:
                close(res.lambda_max, KNOWN_MAXIMA[key], 1e-9, f"product-state maximum of {key}")
            else:
                if key not in self._reference:
                    self._reference[key] = checks.product_state_max(self.terms[key])
                close(res.lambda_max, self._reference[key], 1e-3,
                      f"lambda of {key} against the sampled product-state search")

        return Op("spi", lambda: multipartite.spi_lambda_max(obs), check)

    def _k_separable(self) -> Op:
        obs = self.observables["GHZ"]

        def check(res):
            checks.check_product_search(self._dense_of("GHZ"), res.lambda_max, res.optimizer.vectors)
            require(res.lambda_max >= KNOWN_MAXIMA["GHZ"] - 1e-9,
                    "k-separable value below the fully separable value")

        return Op("k_separable", lambda: multipartite.k_separable_lambda_max(obs, PARTITION), check)


WORKLOADS = {cls.name: cls for cls in (SeparableBatch, CliSession, SpiSearch)}
