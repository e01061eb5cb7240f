"""Qubit measurement-pattern classification.

Which correlators were measured determines how much entanglement the data
can certify.  Up to independent relabelings of the two local measurement
triples (the unsigned permutation action of S3 x S3 on rows and columns of
the 3x3 correlator grid), every set of one to three qubit correlators falls
into one of a handful of classes:

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
                                    a column; its optimum is a smallest
                                    corner completion.
    General                         four or more entries.

This module only classifies.  Every optimum above is a closed form that
the solver takes on the support's components (lines and corners; see
``entcert.solver``), so ``ne_closed_form`` checks that a support has a
class and returns ``ne_solve`` on it: every qubit support of one to three
cells takes no Newton step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from . import solver
from .grids import CorrelatorGrid, MeasurementSet
from .witness import NEResult
# unused here: the benchmark tracer wraps entcert.patterns.make_witness_pair by
# name, so the name stays importable from this module
from .witness import make_witness_pair  # noqa: F401

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


def classify(cells: Iterable[tuple[int, int]]) -> PatternClass:
    """Pattern class of a qubit support, given as any iterable of cells.

    Sets of more than three correlators are classified General (no closed
    form).  Ties between witnessing permutation pairs are broken by the
    lexicographically smallest pair, preferring the untransposed embedding.
    """
    mset = MeasurementSet(tuple(sorted(cells)))
    cells = mset.cells
    if len(cells) > 3:
        return PatternClass(TAG_GENERAL, mset, (0, 1, 2), (0, 1, 2), False)
    tag, canonical, transposed = _tag_cells(cells)
    pa, pb = _find_permutations(canonical, cells, transposed)
    return PatternClass(tag, canonical, pa, pb, transposed)


# -- closed forms -------------------------------------------------------------


def ne_closed_form(cells: Iterable[tuple[int, int]], g: CorrelatorGrid) -> NEResult:
    """Exact optimal normalized estimation for 1-3 measured correlators.

    ``cells`` is any iterable of qubit cells, a ``MeasurementSet`` among
    them.  The result is ``ne_solve`` on those cells, which solves every
    such support in closed form.  Raises for General patterns and for
    correlators missing from the grid.
    """
    if g.dims != (2, 2):
        raise ValueError("closed forms apply to qubit grids only")
    cells = tuple(sorted(cells))
    pattern = classify(cells)
    if pattern.tag == TAG_GENERAL:
        raise ValueError("no closed form for this pattern; use the general solver")
    return solver.ne_solve(g, cells)


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
        mset = MeasurementSet(combo)
        pattern = classify(mset)
        key = (pattern.tag, pattern.canonical.cells)
        groups.setdefault(key, []).append(mset)
    out = []
    for (tag, canonical_cells), members in groups.items():
        rep = classify(canonical_cells)
        members_sorted = tuple(sorted(members, key=lambda m: m.cells))
        out.append((rep, members_sorted))
    out.sort(key=lambda item: (len(item[1]), item[0].canonical.cells))
    return out
