"""Spans around the calls into each entcert module, recorded from outside.

The tracer replaces a module attribute with a wrapper for as long as it is
installed, so each span sits at the name the caller looks up: solver.py
calls ``make_witness_pair`` through ``entcert.solver.make_witness_pair``,
cli.py calls ``parse_grid`` through ``entcert.cli.parse_grid``, and so on.
No file under ``src/`` is edited.

A span is ``[name, parent, start, end, count, round]``: ``parent`` is the
index of the enclosing span (-1 for a call made by the benchmark itself),
and ``count`` is a work count read from the public result (Newton steps,
SPI starts) or 0.  Spans stay in memory; ``write`` dumps them at the end.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + argv[0]


def _closed_form_name(args, kwargs) -> str:
    cells = args[0].indices()
    rows, cols = {i for i, _ in cells}, {j for _, j in cells}
    lshape = len(cells) == 3 and len(rows) == 2 and len(cols) == 2
    return "patterns.lshape" if lshape else "patterns.closed_form"


def _grid_name(args, kwargs) -> str:
    shots = args[1] if len(args) > 1 else kwargs.get("shots")
    return "qmodel.correlator_grid" if shots is None else "qmodel.correlator_grid_shots"


def _iterations(result) -> int:
    return result.iterations


def _restarts(result) -> int:
    return result.restarts_used


# (module, attribute, span name or naming function, work count of the result)
PATCH_POINTS = (
    ("entcert.cli", "main", _cli_name, None),
    ("entcert.cli", "parse_grid", "grids.parse_grid", None),
    ("entcert.cli", "emit_grid", "grids.emit_grid", None),
    ("entcert.cli", "evaluate_witness", "witness.evaluate_witness", None),
    ("entcert.qmodel", "sample_separable", "qmodel.sample_separable", None),
    ("entcert.qmodel", "correlator_grid", _grid_name, None),
    ("entcert.qmodel", "make_state", "qmodel.make_state", None),
    ("entcert.solver", "ne_solve", "solver.ne_solve", _iterations),
    ("entcert.solver", "make_witness_pair", "witness.make_witness_pair", None),
    ("entcert.patterns", "make_witness_pair", "witness.make_witness_pair", None),
    ("entcert.witness", "evaluate_witness", "witness.evaluate_witness", None),
    ("entcert.patterns", "classify", "patterns.classify", None),
    ("entcert.patterns", "ne_closed_form", _closed_form_name, None),
    ("entcert.multipartite", "spi_lambda_max", "multipartite.spi", _restarts),
    ("entcert.multipartite", "k_separable_lambda_max", "multipartite.k_separable", None),
    ("entcert.smallmat", "hermitian_eig", "smallmat.hermitian_eig", None),
    ("entcert.smallmat", "svd", "smallmat.svd", None),
)


class Tracer:
    """Records spans while installed and ``active``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.round = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [label, parent, start, end, 0, self.round]
            if count is not None:
                spans[index][4] = count(result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                name, parent, start, end, count, rnd = span
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "start": start,
                    "end": end, "count": count, "round": rnd,
                }) + "\n")


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, mean inclusive and self seconds, counts.

    Self time is a span's duration minus the durations of its direct
    children (calls are sequential, so children never overlap).  The
    ``counted_*`` keys cover only spans of round 0, which holds the same
    operations in every run with the same seed.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, count, rnd in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for index, (name, parent, start, end, count, rnd) in enumerate(spans):
        entry = out.setdefault(name, {
            "calls": 0, "total": 0.0, "self": 0.0, "count": 0,
            "counted_calls": 0, "counted_work": 0, "counted_top": 0,
        })
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
        entry["count"] += count
        if rnd == 0:
            entry["counted_calls"] += 1
            entry["counted_work"] += count
            entry["counted_top"] += parent < 0
    for entry in out.values():
        entry["mean"] = entry["total"] / entry["calls"]
    return out
