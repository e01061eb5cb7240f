"""Qubit measurement-pattern classification and closed-form estimation.

Which correlators were measured determines how much entanglement the data
can certify.  Up to independent relabelings of the two local measurement
triples (the unsigned permutation action of S3 x S3 on rows and columns of
the 3x3 correlator grid), every set of one to three qubit correlators falls
into one of a handful of classes, and each class has an exact closed form
for the optimal normalized estimation:

    LineRow / LineCol / ThreeLine   all entries share a row (or column);
                                    the optimum is the Euclidean norm of the
                                    measured values and never exceeds 1 on
                                    physical data - these patterns cannot
                                    detect entanglement.
    TwoGeneric                      two entries in distinct rows and
                                    columns: |v1| + |v2|.
    ThreeDiagonal                   a transversal of the grid:
                                    |a| + |b| + |c|.
    TwoPlusIsolated                 a same-row (or same-column) pair plus an
                                    entry sharing neither index:
                                    sqrt(a^2 + b^2) + |c|.
    LShape                          a corner: entry pairs sharing a row and
                                    a column.  The optimum is a smallest
                                    corner completion (see below).
    General                         four or more entries: no closed form
                                    here; use the interior-point solver.

Every class but the L-shape follows one rule.  The support splits into
row lines (column lines when two entries share a column) that share no
index with each other, so the coefficient matrix is a direct sum of line
vectors and its spectral norm is the largest of their norms.  The optimum
is therefore the sum of the lines' Euclidean norms, reached by aligning
each line's coefficients with its data; a zero line gets coefficient 1 on
its first cell.

The L-shape optimum comes from the completion identity

    NE = min_mu  nuclear_norm([[a, b], [c, mu]]):

adding an unconstrained coefficient at the unmeasured corner cannot help,
so the maximum over unit-spectral-norm coefficient matrices supported on
the L equals the smallest nuclear norm over corner completions of the
data.  With a the entry sharing a row with b and a column with c, the
minimizer is mu* = bc/a when |bc| < a^2, giving

    NE = sqrt((a^2 + b^2)(a^2 + c^2)) / |a|,

and mu* = sign(bc) a otherwise, giving NE = |b| + |c|.  The optimizing
coefficients are the polar factor of the completed matrix, in closed form
too, and sit exactly on the constraint boundary; the closed
eigenvalue form lambda_plus = (T + sqrt(T^2 - 4 b^2 g^2)) / 2 for the
squared spectral norm of an L-shaped matrix is exposed for cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import AXES, CorrelatorGrid, MeasurementSet
from .witness import (
    CoefficientMatrix,
    NEResult,
    make_witness_pair,
    ne_verdict,
)

TAG_LINE_ROW = "LineRow"
TAG_LINE_COL = "LineCol"
TAG_TWO_GENERIC = "TwoGeneric"
TAG_THREE_LINE = "ThreeLine"
TAG_THREE_DIAGONAL = "ThreeDiagonal"
TAG_L_SHAPE = "LShape"
TAG_TWO_PLUS_ISOLATED = "TwoPlusIsolated"
TAG_GENERAL = "General"

#: Classes whose optimum can exceed 1 on physical data.
DETECTING_TAGS = frozenset(
    {TAG_TWO_GENERIC, TAG_THREE_DIAGONAL, TAG_L_SHAPE, TAG_TWO_PLUS_ISOLATED, TAG_GENERAL}
)

_PERMS = tuple(itertools.permutations(range(3)))


@dataclass(frozen=True)
class PatternClass:
    """Classification of a measurement set under row/column relabelings.

    ``perm_a``/``perm_b`` give the witnessing relabelings: applying them to
    the canonical representative (transposing it first when ``transposed``)
    reproduces the classified set.  The two chiralities of the
    domino-plus-isolated pattern share one canonical representative and are
    told apart by the ``transposed`` flag.
    """

    tag: str
    canonical: MeasurementSet
    perm_a: tuple[int, int, int]
    perm_b: tuple[int, int, int]
    transposed: bool = False

    @property
    def detects(self) -> bool:
        return self.tag in DETECTING_TAGS

    def apply(self) -> tuple[tuple[int, int], ...]:
        """The member reconstructed from the canonical representative."""
        cells = self.canonical.indices()
        if self.transposed:
            cells = tuple((j, i) for i, j in cells)
        return tuple(
            sorted((self.perm_a[i], self.perm_b[j]) for i, j in cells)
        )


@dataclass(frozen=True)
class LShapeNorm:
    """Squared-spectral-norm data for an L-shaped coefficient matrix.

    For the 2x2 embedding [[alpha, beta], [gamma, 0]] the squared spectral
    norm is lambda_plus = (T + sqrt(T^2 - 4 beta^2 gamma^2)) / 2 where
    T = alpha^2 + beta^2 + gamma^2.
    """

    T: float
    lambda_plus: float


def lshape_norm(alpha: float, beta: float, gamma: float) -> LShapeNorm:
    total = alpha * alpha + beta * beta + gamma * gamma
    disc = total * total - 4.0 * beta * beta * gamma * gamma
    lam = 0.5 * (total + math.sqrt(max(disc, 0.0)))
    return LShapeNorm(total, lam)


def _cells_to_set(cells: tuple[tuple[int, int], ...]) -> MeasurementSet:
    return MeasurementSet(tuple((AXES[i], AXES[j]) for i, j in sorted(cells)))


_CANON_SINGLE = MeasurementSet.parse("XX")
_CANON_LINE_ROW = MeasurementSet.parse("XX,XY")
_CANON_LINE_COL = MeasurementSet.parse("XX,YX")
_CANON_TWO_GENERIC = MeasurementSet.parse("XX,YY")
_CANON_THREE_ROW = MeasurementSet.parse("XX,XY,XZ")
_CANON_THREE_COL = MeasurementSet.parse("XX,YX,ZX")
_CANON_DIAGONAL = MeasurementSet.parse("XX,YY,ZZ")
_CANON_L_SHAPE = MeasurementSet.parse("XX,XY,YX")
_CANON_TWO_PLUS_ISOLATED = MeasurementSet.parse("XX,XY,YZ")


def _tag_cells(cells: tuple[tuple[int, int], ...]) -> tuple[str, MeasurementSet, bool]:
    """(tag, canonical representative, needs transpose) for <= 3 cells."""
    k = len(cells)
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    row_kinds = len(set(rows))
    col_kinds = len(set(cols))
    if k == 1:
        return TAG_LINE_ROW, _CANON_SINGLE, False
    if k == 2:
        if row_kinds == 1:
            return TAG_LINE_ROW, _CANON_LINE_ROW, False
        if col_kinds == 1:
            return TAG_LINE_COL, _CANON_LINE_COL, False
        return TAG_TWO_GENERIC, _CANON_TWO_GENERIC, False
    if row_kinds == 1:
        return TAG_THREE_LINE, _CANON_THREE_ROW, False
    if col_kinds == 1:
        return TAG_THREE_LINE, _CANON_THREE_COL, False
    if row_kinds == 3 and col_kinds == 3:
        return TAG_THREE_DIAGONAL, _CANON_DIAGONAL, False
    if row_kinds == 2 and col_kinds == 2:
        return TAG_L_SHAPE, _CANON_L_SHAPE, False
    # Exactly one repeated index remains: a domino plus an isolated entry.
    # Row-repeat is the canonical chirality; column-repeat is its transpose.
    return TAG_TWO_PLUS_ISOLATED, _CANON_TWO_PLUS_ISOLATED, row_kinds == 3


def _find_permutations(
    canonical: MeasurementSet,
    target: tuple[tuple[int, int], ...],
    transposed: bool,
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    cells = canonical.indices()
    if transposed:
        cells = tuple((j, i) for i, j in cells)
    want = tuple(sorted(target))
    for pa in _PERMS:
        for pb in _PERMS:
            got = tuple(sorted((pa[i], pb[j]) for i, j in cells))
            if got == want:
                return pa, pb
    raise AssertionError("canonical representative does not reach the set")


def classify(mset: MeasurementSet | Sequence[tuple[int, int]]) -> PatternClass:
    """Pattern class of a measurement set, given by its labels or its cells.

    Sets of more than three correlators are classified General (no closed
    form).  Ties between witnessing permutation pairs are broken by the
    lexicographically smallest pair, preferring the untransposed embedding.
    """
    if isinstance(mset, MeasurementSet):
        mset = mset.indices()
    cells = tuple(sorted(mset))
    if len(cells) > 3:
        return PatternClass(
            TAG_GENERAL, _cells_to_set(cells), (0, 1, 2), (0, 1, 2), False
        )
    tag, canonical, transposed = _tag_cells(cells)
    pa, pb = _find_permutations(canonical, cells, transposed)
    return PatternClass(tag, canonical, pa, pb, transposed)


# -- closed forms -------------------------------------------------------------


def _grid_values(
    g: CorrelatorGrid, cells: tuple[tuple[int, int], ...]
) -> dict[tuple[int, int], float]:
    return {cell: g.value_at(cell) for cell in cells}


def _result(
    value: float,
    support: tuple[tuple[int, int], ...],
    coeffs: tuple[float, ...],
) -> NEResult:
    matrix = CoefficientMatrix((2, 2), support, coeffs)
    return NEResult(
        value=value,
        coefficients=matrix,
        sign_branch="+",
        verdict=ne_verdict(value),
        witness=make_witness_pair(matrix) if not matrix.is_zero() else None,
    )


def _lines_result(values: dict[tuple[int, int], float]) -> NEResult:
    # the rule of every class but the L-shape (module docstring): the sum of
    # the line norms, with coefficients aligned to each line's data
    cells = tuple(sorted(values))
    cols = [j for _, j in cells]
    axis = 1 if len(set(cols)) < len(cols) else 0
    lines: dict[int, list[tuple[int, int]]] = {}
    for cell in cells:
        lines.setdefault(cell[axis], []).append(cell)
    value = 0.0
    coeffs: dict[tuple[int, int], float] = {}
    for line in lines.values():
        vec = np.array([values[c] for c in line])
        nrm = float(np.linalg.norm(vec))
        value += nrm
        if nrm == 0.0:
            unit = [1.0] + [0.0] * (len(line) - 1)
        else:
            unit = (vec / nrm).tolist()
        coeffs.update(zip(line, unit))
    return _result(value, cells, tuple(coeffs[c] for c in cells))


def _lshape_result(values: dict[tuple[int, int], float]) -> NEResult:
    cells = tuple(sorted(values))
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    corner = next(
        c for c in cells if rows.count(c[0]) == 2 and cols.count(c[1]) == 2
    )
    rowmate = next(c for c in cells if c != corner and c[0] == corner[0])
    colmate = next(c for c in cells if c != corner and c[1] == corner[1])
    a, b, c = values[corner], values[rowmate], values[colmate]

    # The optimal coefficients are the polar factor of the completion at the
    # minimizing corner, which vanishes there.
    if abs(b * c) < a * a:
        # mu* = bc/a: the completion has rank one, and the corner fixes the
        # weight -sign(a) bc/a^2 of the complementary singular pair
        row, col = math.hypot(a, b), math.hypot(a, c)
        value = row * col / abs(a)
        coeffs = (
            (a**4 - (b * c) ** 2) / (a * abs(a) * row * col),
            b * col / (abs(a) * row),
            c * row / (abs(a) * col),
        )
    else:
        # mu* = sign(bc) a: the polar factor is the signed swap of b and c
        value = abs(b) + abs(c)
        coeffs = (0.0, math.copysign(1.0, b), math.copysign(1.0, c))
    by_cell = dict(zip((corner, rowmate, colmate), coeffs))
    return _result(value, cells, tuple(by_cell[cell] for cell in cells))


def ne_closed_form(mset: MeasurementSet, g: CorrelatorGrid) -> NEResult:
    """Exact optimal normalized estimation for 1-3 measured correlators.

    Raises for General patterns (no closed form) and for correlators missing
    from the grid.
    """
    if g.dims != (2, 2):
        raise ValueError("closed forms apply to qubit grids only")
    pattern = classify(mset)
    if pattern.tag == TAG_GENERAL:
        raise ValueError("no closed form for this pattern; use the general solver")
    cells = tuple(sorted(mset.indices()))
    values = _grid_values(g, cells)
    if pattern.tag == TAG_L_SHAPE:
        return _lshape_result(values)
    return _lines_result(values)


# -- orbit enumeration ---------------------------------------------------------


def enumerate_orbits(
    k: int,
) -> list[tuple[PatternClass, tuple[MeasurementSet, ...]]]:
    """Partition all C(9, k) measurement sets into relabeling classes.

    Returns one (representative pattern, members) entry per class, sorted by
    class size then canonical labels.  The two chiralities of the
    domino-plus-isolated pattern count as a single class.
    """
    if k not in (2, 3):
        raise ValueError("orbit enumeration covers k in {2, 3}")
    all_cells = [(i, j) for i in range(3) for j in range(3)]
    groups: dict[tuple[str, tuple], list[MeasurementSet]] = {}
    for combo in itertools.combinations(all_cells, k):
        mset = _cells_to_set(tuple(combo))
        pattern = classify(mset)
        key = (pattern.tag, pattern.canonical.pairs)
        groups.setdefault(key, []).append(mset)
    out = []
    for (tag, canonical_pairs), members in groups.items():
        canonical = MeasurementSet(canonical_pairs)
        rep = classify(canonical)
        members_sorted = tuple(sorted(members, key=lambda m: m.pairs))
        out.append((rep, members_sorted))
    out.sort(key=lambda item: (len(item[1]), item[0].canonical.pairs))
    return out
