"""Correlator grids with explicit measured-support masks, plus JSON/CSV IO.

A grid stores expectation values of products of local basis observables for
a bipartite system.  Only the entries actually present count as measured;
everything else is treated as unknown by the analysis modules.

Index conventions:
    * Local basis observables are indexed 0 .. d^2 - 2 (the identity is not
      part of a grid).  For qubits the indices 0, 1, 2 carry the labels
      X, Y, Z.
    * A grid key is the pair (row index, column index) = (first party,
      second party).

Serialization is canonical: equal grids produce byte-identical output.

JSON schema (qubits):
    {"dims":[2,2],"correlators":{"XX":-0.95,"XY":0.03}}
JSON schema (any other dimensions):
    {"dims":[3,3],"correlators":{"0,4":0.5}}
CSV: header ``a,b,value``, one correlator per row, UTF-8, LF line endings.
    Qubit grids use axis labels (``X,Z,0.5``).  Any other grid uses basis
    indices and must declare its dimensions in a ``# dims=3,3`` line before
    the header; undeclared numeric-index CSV is rejected, because the
    largest index present does not determine the dimensions.

Values may exceed 1 in magnitude by a small experimental-noise headroom;
anything beyond |value| = 1.05 is rejected on ingestion and construction.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

#: Qubit basis labels in index order.
AXES = ("X", "Y", "Z")
_AXIS_INDEX = {"X": 0, "Y": 1, "Z": 2}

#: Magnitude cap on ingested correlator values (experimental headroom).
VALUE_CAP = 1.05

FORMATS = ("json", "csv")

_DIMS_LINE = re.compile(r"^#\s*dims=(\d+),(\d+)$")


def render_float(value: float) -> str:
    """Shortest round-trip decimal rendering; integral values lose the '.0'."""
    if value == 0.0:
        return "0"
    text = repr(float(value))
    if text.endswith(".0"):
        return text[:-2]
    return text


def pair_label(dims: tuple[int, int], pair: tuple[int, int]) -> str:
    """Human-readable key for a grid entry ('XY' for qubits, 'i,j' otherwise)."""
    if dims == (2, 2):
        return AXES[pair[0]] + AXES[pair[1]]
    return f"{pair[0]},{pair[1]}"


@dataclass(frozen=True)
class MeasurementSet:
    """An ordered collection of distinct qubit correlator labels.

    ``pairs`` holds (first-party axis, second-party axis) label pairs such
    as ("X", "Z").  Between one and nine pairs are allowed.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.pairs) <= 9:
            raise ValueError("a measurement set holds between 1 and 9 pairs")
        seen = set()
        for a, b in self.pairs:
            if a not in _AXIS_INDEX or b not in _AXIS_INDEX:
                raise ValueError(f"unknown Pauli label {a + b!r}")
            if (a, b) in seen:
                raise ValueError(f"duplicate pair {a + b!r}")
            seen.add((a, b))

    @classmethod
    def parse(cls, text: str) -> "MeasurementSet":
        """Parse a comma-separated label list such as 'XX,ZZ'."""
        items = [part.strip().upper() for part in text.split(",") if part.strip()]
        pairs = []
        for item in items:
            if len(item) != 2:
                raise ValueError(f"malformed correlator label {item!r}")
            pairs.append((item[0], item[1]))
        return cls(tuple(pairs))

    def indices(self) -> tuple[tuple[int, int], ...]:
        return tuple((_AXIS_INDEX[a], _AXIS_INDEX[b]) for a, b in self.pairs)

    def labels(self) -> tuple[str, ...]:
        return tuple(a + b for a, b in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.pairs)


@dataclass(frozen=True)
class CorrelatorGrid:
    """Measured correlators for one bipartite state.

    ``values`` maps (row, col) basis-index pairs to measured expectation
    values; entries absent from the map are unmeasured.  The grid is
    immutable after construction.
    """

    dims: tuple[int, int]
    values: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        da, db = self.dims
        if da < 2 or db < 2:
            raise ValueError(f"local dimensions must be >= 2, got {self.dims}")
        if not self.values:
            raise ValueError("no measured entries")
        ra, rb = self.basis_size
        # physical magnitude bound for trace-normalized local bases; the
        # 5% headroom tolerates slightly out-of-range empirical estimates
        cap = VALUE_CAP * math.sqrt((da - 1) * (db - 1))
        cleaned: dict[tuple[int, int], float] = {}
        for pair, value in self.values.items():
            i, j = int(pair[0]), int(pair[1])
            if not (0 <= i < ra and 0 <= j < rb):
                raise ValueError(f"index pair {pair} outside basis range")
            v = float(value)
            if not math.isfinite(v):
                raise ValueError(f"correlator {pair_label(self.dims, (i, j))} is not finite")
            if abs(v) > cap:
                raise ValueError(
                    f"correlator {pair_label(self.dims, (i, j))} out of range: "
                    f"{render_float(v)} (|value| > {render_float(cap)})"
                )
            cleaned[(i, j)] = v
        object.__setattr__(self, "values", cleaned)

    # -- structure ---------------------------------------------------------

    @property
    def basis_size(self) -> tuple[int, int]:
        return (self.dims[0] ** 2 - 1, self.dims[1] ** 2 - 1)

    @property
    def measured(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.values.keys()))

    def value_at(self, pair: tuple[int, int]) -> float:
        key = (int(pair[0]), int(pair[1]))
        if key not in self.values:
            raise ValueError(f"missing correlator {pair_label(self.dims, key)}")
        return self.values[key]

    def matrix(self) -> np.ndarray:
        """Dense data matrix with zeros at unmeasured entries."""
        out = np.zeros(self.basis_size)
        for (i, j), v in self.values.items():
            out[i, j] = v
        return out

    def mask(self) -> np.ndarray:
        out = np.zeros(self.basis_size, dtype=bool)
        for i, j in self.values:
            out[i, j] = True
        return out

    # -- qubit conveniences --------------------------------------------------

    @classmethod
    def from_labels(cls, correlators: Mapping[str, float]) -> "CorrelatorGrid":
        """Build a two-qubit grid from Pauli labels, e.g. {'XX': -0.95}."""
        values: dict[tuple[int, int], float] = {}
        for label, v in correlators.items():
            key = parse_qubit_label(label)
            if key in values:
                raise ValueError(f"duplicate key {label!r}")
            values[key] = v
        return cls((2, 2), values)

    def label_values(self) -> dict[str, float]:
        return {
            pair_label(self.dims, pair): self.values[pair] for pair in self.measured
        }


def parse_qubit_label(label: str) -> tuple[int, int]:
    """Basis-index pair of a two-qubit Pauli label, e.g. 'XZ' -> (0, 2)."""
    if len(label) != 2 or label[0] not in _AXIS_INDEX or label[1] not in _AXIS_INDEX:
        raise ValueError(f"unknown Pauli label {label!r}")
    return (_AXIS_INDEX[label[0]], _AXIS_INDEX[label[1]])


def _parse_key(key: str, dims: tuple[int, int]) -> tuple[int, int]:
    if dims == (2, 2):
        return parse_qubit_label(key)
    parts = key.split(",")
    if len(parts) != 2:
        raise ValueError(f"malformed index key {key!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(f"malformed index key {key!r}") from None


# -- parsing ----------------------------------------------------------------


def parse_grid(text: bytes | str, format: str = "json") -> CorrelatorGrid:
    """Parse a serialized grid.  See the module docstring for the formats."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if format == "json":
        return _parse_json(text)
    if format == "csv":
        return _parse_csv(text)
    raise ValueError(f"unknown format {format!r}")


def _reject_duplicate_pairs(pairs: list[tuple[str, object]]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _parse_json(text: str) -> CorrelatorGrid:
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_pairs)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("malformed document: expected a JSON object")
    dims_raw = doc.get("dims")
    if (
        not isinstance(dims_raw, list)
        or len(dims_raw) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims_raw)
    ):
        raise ValueError('malformed document: "dims" must be two integers')
    dims = (dims_raw[0], dims_raw[1])
    correlators = doc.get("correlators")
    if not isinstance(correlators, dict):
        raise ValueError('malformed document: "correlators" must be an object')
    if not correlators:
        raise ValueError("no measured entries")
    values: dict[tuple[int, int], float] = {}
    for key, raw in correlators.items():
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError(f"correlator {key!r} is not a number")
        pair = _parse_key(key, dims)
        if pair in values:
            raise ValueError(f"duplicate key {key!r}")
        values[pair] = float(raw)
    return CorrelatorGrid(dims, values)


def _parse_csv(text: str) -> CorrelatorGrid:
    lines = [line.strip() for line in text.split("\n") if line.strip()]
    declared = None
    if lines and lines[0].startswith("#"):
        m = _DIMS_LINE.match(lines.pop(0))
        if not m:
            raise ValueError("malformed CSV document: expected '# dims=dA,dB'")
        declared = (int(m.group(1)), int(m.group(2)))
    if not lines or lines[0] != "a,b,value":
        raise ValueError("malformed CSV document: expected header 'a,b,value'")
    rows = []
    for line in lines[1:]:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != 3:
            raise ValueError(f"malformed CSV row {line!r}")
        rows.append(cells)
    if not rows:
        raise ValueError("no measured entries")
    qubit_labels = all(a in AXES and b in AXES for a, b, _ in rows)
    values: dict[tuple[int, int], float] = {}
    for a, b, raw in rows:
        try:
            v = float(raw)
        except ValueError:
            raise ValueError(f"correlator {a + ',' + b!r} is not a number") from None
        if qubit_labels:
            pair = (_AXIS_INDEX[a], _AXIS_INDEX[b])
        else:
            try:
                pair = (int(a), int(b))
            except ValueError:
                raise ValueError(f"unknown Pauli label {a + b!r}") from None
        if pair in values:
            raise ValueError(f"duplicate key {a + b!r}")
        values[pair] = v
    if qubit_labels:
        if declared not in (None, (2, 2)):
            raise ValueError(
                f"axis labels name qubit entries, but dims={declared[0]},{declared[1]}"
            )
        dims = (2, 2)
    elif declared is None:
        raise ValueError(
            "numeric-index CSV must declare its local dimensions: "
            "add a line '# dims=dA,dB' before the 'a,b,value' header"
        )
    else:
        dims = declared
    return CorrelatorGrid(dims, values)


# -- emission ----------------------------------------------------------------


def emit_grid(grid: CorrelatorGrid, format: str = "json") -> bytes:
    """Canonical serialization: sorted keys, shortest round-trip floats."""
    if format == "json":
        entries = ",".join(
            f'"{pair_label(grid.dims, pair)}":{render_float(grid.values[pair])}'
            for pair in grid.measured
        )
        text = (
            f'{{"dims":[{grid.dims[0]},{grid.dims[1]}],'
            f'"correlators":{{{entries}}}}}\n'
        )
        return text.encode("utf-8")
    if format == "csv":
        lines = ["a,b,value"]
        if grid.dims != (2, 2):
            lines.insert(0, f"# dims={grid.dims[0]},{grid.dims[1]}")
        for i, j in grid.measured:
            if grid.dims == (2, 2):
                a, b = AXES[i], AXES[j]
            else:
                a, b = str(i), str(j)
            lines.append(f"{a},{b},{render_float(grid.values[(i, j)])}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


# -- restriction --------------------------------------------------------------


def restrict(
    grid: CorrelatorGrid, subset: MeasurementSet | Iterable[tuple[int, int]]
) -> CorrelatorGrid:
    """Grid containing exactly the requested measured entries.

    Every requested pair must be measured in ``grid``; a missing pair is an
    error naming the offending correlator.  Restriction is idempotent.
    """
    if isinstance(subset, MeasurementSet):
        wanted: Sequence[tuple[int, int]] = subset.indices()
    else:
        wanted = [(int(i), int(j)) for i, j in subset]
    values = {pair: grid.value_at(pair) for pair in wanted}
    return CorrelatorGrid(grid.dims, values)
