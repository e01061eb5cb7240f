"""Correlator grids, measurement supports, and JSON/CSV IO.

A grid stores expectation values of products of local basis observables for
a bipartite system.  Only the entries actually present count as measured;
everything else is treated as unknown by the analysis modules.

Index conventions:
    * Local basis observables are indexed 0 .. d^2 - 2 (the identity is not
      part of a grid).  For qubits the indices 0, 1, 2 carry the labels
      X, Y, Z.
    * A grid key, or cell, is the pair (row index, column index) = (first
      party, second party).
    * A support is an iterable of cells, read by ``read_support`` alone, as
      local dimensions are by ``read_dims``: an index is an int, or what
      ``operator.index`` takes, but not a bool; a cell lies inside the basis
      range and appears once; a support is not empty.  Anything else is a
      ValueError.  ``MeasurementSet`` is the qubit support, parsed from
      labels such as 'XX,ZZ'.  ``parse_qubit_label`` is the one place a
      Pauli label becomes a cell, and ``pair_label`` the one place a cell
      becomes a label, the only form a JSON key or CSV field may take.

Serialization is canonical: equal grids produce byte-identical output.

JSON schema (qubits):
    {"dims":[2,2],"correlators":{"XX":-0.95,"XY":0.03}}
JSON schema (any other dimensions):
    {"dims":[3,3],"correlators":{"0,4":0.5}}
CSV: header ``a,b,value``, one correlator per row, UTF-8, LF line endings.
    Qubit grids use axis labels (``X,Z,0.5``).  Any other grid uses basis
    indices and must declare its dimensions in a ``# dims=3,3`` line before
    the header; undeclared numeric-index CSV is rejected, because the
    largest index present does not determine the dimensions.  The first
    row's form, labels or indices, is that of every row.

Values may exceed 1 in magnitude by a small experimental-noise headroom;
anything beyond |value| = 1.05 is rejected on ingestion and construction.
"""

from __future__ import annotations

import json
import math
import operator
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

_DIMS_LINE = re.compile(r"^#\s*dims=([1-9][0-9]*),([1-9][0-9]*)$")


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


def _int_pair(pair: object) -> tuple[int, int]:
    """``pair`` as two ints, else ValueError; a bool, float or string is no index."""
    try:
        i, j = pair
        if bool not in (type(i), type(j)):
            return (operator.index(i), operator.index(j))
    except (TypeError, ValueError):
        pass
    raise ValueError(f"index pair {pair!r} is not a pair of integers")


def read_dims(dims: object) -> tuple[int, int]:
    """Local dimensions (dA, dB): two integers >= 2, else ValueError."""
    try:
        da, db = _int_pair(dims)
    except ValueError:
        da = db = 0
    if da < 2 or db < 2:
        raise ValueError(f"local dimensions must be two integers >= 2, got {dims!r}")
    return (da, db)


def read_support(dims: tuple[int, int], cells: Iterable) -> tuple[tuple[int, int], ...]:
    """``cells`` as distinct (int, int) cells inside the basis range of
    ``dims``, in the given order, at least one; else ValueError."""
    ra, rb = dims[0] * dims[0] - 1, dims[1] * dims[1] - 1
    support: dict[tuple[int, int], None] = {}
    for cell in cells:
        i, j = cell = _int_pair(cell)
        if not (0 <= i < ra and 0 <= j < rb):
            raise ValueError(f"index pair {cell} outside basis range")
        if cell in support:
            raise ValueError(f"duplicate support entry {cell}")
        support[cell] = None
    if not support:
        raise ValueError("empty support")
    return tuple(support)


@dataclass(frozen=True)
class MeasurementSet:
    """An ordered collection of distinct two-qubit correlator cells.

    ``cells`` holds (first-party, second-party) basis-index pairs such as
    (0, 2) for XZ, in the order given, as ``read_support`` reads them.
    Iterating a set yields its cells, so it can be passed wherever the
    analysis modules take an iterable of cells.
    """

    cells: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", read_support((2, 2), self.cells))

    @classmethod
    def parse(cls, text: str) -> "MeasurementSet":
        """Parse a comma-separated label list such as 'XX,ZZ'."""
        items = [part.strip().upper() for part in text.split(",") if part.strip()]
        for item in items:
            if len(item) != 2:
                raise ValueError(f"malformed correlator label {item!r}")
        return cls(tuple(parse_qubit_label(item) for item in items))

    def indices(self) -> tuple[tuple[int, int], ...]:
        return self.cells

    def labels(self) -> tuple[str, ...]:
        return tuple(pair_label((2, 2), cell) for cell in self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.cells)


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
        dims = read_dims(self.dims)
        if not self.values:
            raise ValueError("no measured entries")
        cells, values = _read_entries(dims, self.values)
        check_correlators(dims, cells, values)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", dict(zip(cells, values)))

    @classmethod
    def _from_array(
        cls, dims: tuple[int, int], cells: Sequence[tuple[int, int]], values: np.ndarray
    ) -> "CorrelatorGrid":
        """Grid of ``values`` (k,) on ``cells``, distinct (int, int) pairs.

        The values are checked as one array, so a grid computed as an array
        skips the per-entry conversions of the constructor.
        """
        check_correlators(dims, cells, values)
        grid = object.__new__(cls)
        object.__setattr__(grid, "dims", dims)
        object.__setattr__(grid, "values", dict(zip(cells, values.tolist())))
        return grid

    # -- structure ---------------------------------------------------------

    @property
    def basis_size(self) -> tuple[int, int]:
        return (self.dims[0] ** 2 - 1, self.dims[1] ** 2 - 1)

    @property
    def measured(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.values.keys()))

    def value_at(self, pair: tuple[int, int]) -> float:
        """The value at the measured cell equal to ``pair``, else read and named."""
        try:
            return self.values[pair]
        except (KeyError, TypeError):
            pass
        (cell,) = read_support(self.dims, [pair])
        if cell not in self.values:
            raise ValueError(f"missing correlator {pair_label(self.dims, cell)}")
        return self.values[cell]

    def matrix(self) -> np.ndarray:
        """Dense data matrix with zeros at unmeasured entries."""
        out = np.zeros(self.basis_size)
        for (i, j), v in self.values.items():
            out[i, j] = v
        return out

    # -- qubit conveniences --------------------------------------------------

    @classmethod
    def from_labels(cls, correlators: Mapping[str, float]) -> "CorrelatorGrid":
        """Build a two-qubit grid from Pauli labels, e.g. {'XX': -0.95}."""
        return cls((2, 2), {parse_qubit_label(k): v for k, v in correlators.items()})


def check_correlators(
    dims: tuple[int, int], cells: Sequence[tuple[int, int]], values: np.ndarray
) -> None:
    """Reject correlators outside the basis range, not finite, or beyond the cap.

    ``values`` holds one grid's correlators on ``cells`` (k,) or a stack of
    grids (N, k).  The error names the first offending entry in row-major
    order, checking its cell, then its finiteness, then its magnitude.
    """
    da, db = dims
    ra, rb = da * da - 1, db * db - 1
    # physical magnitude bound for trace-normalized local bases; the 5%
    # headroom tolerates slightly out-of-range empirical estimates
    try:
        cap = VALUE_CAP * math.sqrt((da - 1) * (db - 1))
    except OverflowError:
        raise ValueError("local dimensions are too large") from None
    values = np.asarray(values, dtype=float)
    inside = [0 <= i < ra and 0 <= j < rb for i, j in cells]
    # NaN and infinities fail the comparisons too
    if all(inside) and np.abs(values).max() <= cap:
        return
    bad = ~(np.abs(values) <= cap) | ~np.array(inside)
    first = np.unravel_index(np.argmax(bad), bad.shape)
    cell = cells[first[-1]]
    if not inside[first[-1]]:
        raise ValueError(f"index pair {cell} outside basis range")
    value = float(values[first])
    if not math.isfinite(value):
        raise ValueError(f"correlator {pair_label(dims, cell)} is not finite")
    raise ValueError(
        f"correlator {pair_label(dims, cell)} out of range: "
        f"{render_float(value)} (|value| > {render_float(cap)})"
    )


def _read_entries(dims: tuple[int, int], entries: Mapping) -> tuple[list, list[float]]:
    """The cells and float values of ``entries``.  An entry that does not read fails
    only after the entries before it, and its cell if that read, pass their checks."""
    cells: list[tuple[int, int]] = []
    values: list[float] = []
    try:
        for cell, value in entries.items():
            cells.append(_int_pair(cell))
            values.append(float(value))
    except (TypeError, ValueError, OverflowError) as err:
        if cells:
            check_correlators(dims, cells, values + [0.0] * (len(cells) - len(values)))
        if isinstance(err, ValueError):
            raise
        # the cell read last holds a value that float() does not take
        label = pair_label(dims, cells[-1])
        if isinstance(err, OverflowError):
            raise ValueError(f"correlator {label} is too large") from None
        raise ValueError(f"correlator {label!r} is not a number") from None
    return cells, values


def parse_qubit_label(label: str) -> tuple[int, int]:
    """Basis-index pair of a two-qubit Pauli label, e.g. 'XZ' -> (0, 2)."""
    if len(label) != 2 or label[0] not in _AXIS_INDEX or label[1] not in _AXIS_INDEX:
        raise ValueError(f"unknown Pauli label {label!r}")
    return (_AXIS_INDEX[label[0]], _AXIS_INDEX[label[1]])


def _index_key(key: str) -> tuple[int, int]:
    """The cell of a key 'i,j', read only in the form ``pair_label`` writes:
    ASCII digits with no sign, space, '_' or leading zero."""
    a, _, b = key.partition(",")
    if key.isascii() and a.isdigit() and b.isdigit() and (
        (a == "0" or a[0] != "0") and (b == "0" or b[0] != "0")
    ):
        return (int(a), int(b))
    raise ValueError(f"malformed index key {key!r}")


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
    dims = read_dims(doc.get("dims"))
    correlators = doc.get("correlators")
    if not isinstance(correlators, dict):
        raise ValueError('malformed document: "correlators" must be an object')
    values: dict[tuple[int, int], float] = {}
    for key, raw in correlators.items():
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError(f"correlator {key!r} is not a number")
        pair = parse_qubit_label(key) if dims == (2, 2) else _index_key(key)
        # the grid converts, and rejects an integer beyond the float range
        values[pair] = raw
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
    # the first row's form is every row's, so a row in the other form is named
    qubit_labels = rows[0][0] in AXES and rows[0][1] in AXES
    values: dict[tuple[int, int], float] = {}
    for a, b, raw in rows:
        key = f"{a},{b}"
        try:
            v = float(raw)
        except ValueError:
            raise ValueError(f"correlator {key!r} is not a number") from None
        if not qubit_labels:
            pair = _index_key(key)
        elif a in AXES and b in AXES:
            pair = parse_qubit_label(a + b)
        else:
            raise ValueError(f"unknown Pauli label {key!r}")
        if pair in values:
            raise ValueError(f"duplicate key {key!r}")
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
        for pair in grid.measured:
            label = pair_label(grid.dims, pair)
            if grid.dims == (2, 2):
                label = f"{label[0]},{label[1]}"
            lines.append(f"{label},{render_float(grid.values[pair])}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


# -- restriction --------------------------------------------------------------


def restrict(grid: CorrelatorGrid, subset: Iterable[tuple[int, int]]) -> CorrelatorGrid:
    """Grid containing exactly the requested measured entries.

    ``subset`` is any iterable of cells, a ``MeasurementSet`` among them.
    Every requested pair must be measured in ``grid``; a missing pair is an
    error naming the offending correlator.  Restriction is idempotent.
    """
    support = read_support(grid.dims, subset)
    return CorrelatorGrid(grid.dims, {cell: grid.value_at(cell) for cell in support})
