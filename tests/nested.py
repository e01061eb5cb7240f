"""Nested supports for the tests: restricting a grid, and solving along a
chain of supports that only grows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from entcert.grids import CorrelatorGrid, read_support
from entcert.solver import SolverOptions, ne_solve
from entcert.witness import NEResult

_MONOTONE_SLACK = 1e-9


def restrict(grid: CorrelatorGrid, subset: Iterable[tuple[int, int]]) -> CorrelatorGrid:
    """Grid containing exactly the requested measured entries.

    ``subset`` is any iterable of cells, a ``MeasurementSet`` among them.
    Every requested pair must be measured in ``grid``; a missing pair is an
    error naming the offending correlator.  Restriction is idempotent.
    """
    support = read_support(grid.dims, subset)
    return CorrelatorGrid(grid.dims, {cell: grid.value_at(cell) for cell in support})


@dataclass(frozen=True)
class MonotoneReport:
    """Normalized estimation along a nested chain of supports."""

    measurement_sets: tuple[Collection[tuple[int, int]], ...]
    results: tuple[NEResult, ...]
    monotone: bool

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(r.value for r in self.results)


def ne_monotone_report(
    chain: Sequence[Collection[tuple[int, int]]],
    g: CorrelatorGrid,
    options: SolverOptions | None = None,
) -> MonotoneReport:
    """Solve along a chain S1 c S2 c ... and check the values never drop.

    Adding correlators can only widen the feasible coefficient supports, so
    the optimum is nondecreasing; a violation beyond solver slack would
    expose an inconsistent grid or a solver failure.  Each support is a
    collection of cells, such as a ``MeasurementSet``.  The chain must be
    nested, else ValueError.
    """
    if not chain:
        raise ValueError("empty measurement chain")
    sets = tuple(chain)
    supports = [read_support(g.dims, s) for s in sets]
    for prev, nxt in zip(supports, supports[1:]):
        if not set(prev) <= set(nxt):
            raise ValueError("measurement sets must be nested")
    results = tuple(ne_solve(g, s, options) for s in supports)
    monotone = all(
        later.value >= earlier.value - _MONOTONE_SLACK
        for earlier, later in zip(results, results[1:])
    )
    return MonotoneReport(sets, results, monotone)
