import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcert import patterns, qmodel, solver
from entcert.grids import (
    AXES,
    CorrelatorGrid,
    MeasurementSet,
    check_correlators,
    emit_grid,
    parse_grid,
    render_float,
)
from entcert.witness import CoefficientMatrix
from nested import ne_monotone_report, restrict

MAIN_EXAMPLE = b'{"dims":[2,2],"correlators":{"XX":-0.95,"XY":0.03,"ZX":-0.96}}'


def test_parse_json_main_example():
    g = parse_grid(MAIN_EXAMPLE)
    assert g.dims == (2, 2)
    assert len(g.measured) == 3
    assert g.value_at((0, 0)) == -0.95
    assert g.value_at((0, 1)) == 0.03
    assert g.value_at((2, 0)) == -0.96


def test_parse_rejects_empty_correlator_map():
    with pytest.raises(ValueError, match="no measured entries"):
        parse_grid(b'{"dims":[2,2],"correlators":{}}')


def test_parse_rejects_malformed_document():
    with pytest.raises(ValueError, match="malformed"):
        parse_grid(b"{not json")
    with pytest.raises(ValueError, match=r"local dimensions must be two integers >= 2, got \[2\]"):
        parse_grid(b'{"dims":[2],"correlators":{"XX":1}}')
    with pytest.raises(ValueError, match="not a number"):
        parse_grid(b'{"dims":[2,2],"correlators":{"XX":"big"}}')


def test_parse_rejects_out_of_range_value_and_names_labels():
    with pytest.raises(ValueError, match="XY"):
        parse_grid(b'{"dims":[2,2],"correlators":{"XY":1.06}}')
    # 1.05 itself is allowed: experimental headroom.
    g = parse_grid(b'{"dims":[2,2],"correlators":{"XY":1.05}}')
    assert g.value_at((0, 1)) == 1.05
    # qutrit bases reach larger magnitudes, so the cap scales with dims
    g = parse_grid(b'{"dims":[3,3],"correlators":{"0,3":-1.2}}')
    assert g.value_at((0, 3)) == -1.2
    with pytest.raises(ValueError, match="0,3"):
        parse_grid(b'{"dims":[3,3],"correlators":{"0,3":-2.2}}')


def test_parse_rejects_duplicate_key():
    with pytest.raises(ValueError, match="duplicate"):
        parse_grid(b'{"dims":[2,2],"correlators":{"XX":0.5,"XX":0.6}}')


def test_parse_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown"):
        parse_grid(b'{"dims":[2,2],"correlators":{"XQ":0.5}}')


def test_parse_qudit_indices():
    g = parse_grid(b'{"dims":[3,3],"correlators":{"0,0":1,"7,7":-0.5}}')
    assert g.dims == (3, 3)
    assert g.basis_size == (8, 8)
    assert g.value_at((7, 7)) == -0.5


def test_emit_orders_keys_and_renders_integral_floats():
    g = CorrelatorGrid.from_labels({"ZX": -0.96, "XX": 1.0, "XY": 0.03})
    out = emit_grid(g)
    assert out == b'{"dims":[2,2],"correlators":{"XX":1,"XY":0.03,"ZX":-0.96}}\n'


def test_emit_csv_and_reparse():
    g = CorrelatorGrid.from_labels({"XX": -0.95, "ZZ": 0.25})
    out = emit_grid(g, format="csv")
    assert out == b"a,b,value\nX,X,-0.95\nZ,Z,0.25\n"
    assert parse_grid(out, format="csv") == g


def test_csv_header_required():
    with pytest.raises(ValueError, match="header"):
        parse_grid(b"X,X,0.5\n", format="csv")


def test_qudit_csv_declares_dims_and_keeps_the_verdict():
    g = CorrelatorGrid((3, 3), {(0, 0): 0.9, (1, 1): 0.9})
    out = emit_grid(g, format="csv")
    assert out == b"# dims=3,3\na,b,value\n0,0,0.9\n1,1,0.9\n"
    again = parse_grid(out, format="csv")
    assert again == g
    before, after = solver.ne_solve(g), solver.ne_solve(again)
    assert before.value == pytest.approx(0.9, abs=1e-8)
    assert after.value == before.value
    assert after.verdict == before.verdict == "undetected"


def test_csv_numeric_indices_need_declared_dims():
    with pytest.raises(ValueError, match="# dims=dA,dB"):
        parse_grid(b"a,b,value\n0,0,0.9\n1,1,0.9\n", format="csv")
    with pytest.raises(ValueError, match="dims"):
        parse_grid(b"# dims=3\na,b,value\n0,0,0.9\n", format="csv")
    with pytest.raises(ValueError, match="qubit"):
        parse_grid(b"# dims=3,3\na,b,value\nX,X,0.9\n", format="csv")
    with pytest.raises(ValueError, match="outside basis range"):
        parse_grid(b"# dims=2,2\na,b,value\n3,0,0.9\n", format="csv")
    declared = parse_grid(b"# dims=2,2\na,b,value\n0,2,0.5\n", format="csv")
    assert declared == CorrelatorGrid.from_labels({"XZ": 0.5})


def test_a_csv_row_is_named_as_written():
    # the first row sets the form; the row that breaks it is the one named
    with pytest.raises(ValueError, match=re.escape("unknown Pauli label 'X,Q'")):
        parse_grid(b"a,b,value\nX,X,0.5\nX,Q,0.5\n", format="csv")
    with pytest.raises(ValueError, match=re.escape("unknown Pauli label '0,1'")):
        parse_grid(b"# dims=2,2\na,b,value\nX,X,0.5\n0,1,0.5\n", format="csv")
    # two fields do not join into one label
    with pytest.raises(ValueError, match=re.escape("unknown Pauli label 'XY,'")):
        parse_grid(b"a,b,value\nX,X,0.5\nXY,,0.5\n", format="csv")
    with pytest.raises(ValueError, match=re.escape("malformed index key 'X,X'")):
        parse_grid(b"# dims=3,3\na,b,value\n0,0,0.5\nX,X,0.5\n", format="csv")
    # '1,10' and '11,0' are distinct cells, which '110' would not tell apart
    with pytest.raises(ValueError, match=re.escape("duplicate key '1,10'")):
        parse_grid(b"# dims=4,4\na,b,value\n11,0,0.5\n1,10,0.5\n1,10,0.5\n", format="csv")
    with pytest.raises(ValueError, match=re.escape("duplicate key 'X,Z'")):
        parse_grid(b"a,b,value\nX,Z,0.5\nX,Z,0.5\n", format="csv")


def test_render_float_shortest_roundtrip():
    assert render_float(1.0) == "1"
    assert render_float(-0.0) == "0"
    assert render_float(0.03) == "0.03"
    assert render_float(1e-5) == "1e-05"
    for x in (0.1 + 0.2, math.pi, -2.5e-13, 3.0):
        assert float(render_float(x)) == x


@settings(max_examples=120, deadline=None)
@given(
    entries=st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.floats(min_value=-1.05, max_value=1.05, allow_nan=False),
        min_size=1,
        max_size=9,
    ),
    fmt=st.sampled_from(["json", "csv"]),
)
def test_roundtrip_fuzz_qubit(entries, fmt):
    g = CorrelatorGrid((2, 2), entries)
    emitted = emit_grid(g, format=fmt)
    again = parse_grid(emitted, format=fmt)
    assert again == g
    assert emit_grid(again, format=fmt) == emitted


@st.composite
def _qudit_grids(draw):
    da, db = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, da * da - 2), st.integers(0, db * db - 2)),
            st.floats(min_value=-1.05, max_value=1.05, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    return CorrelatorGrid((da, db), entries)


@settings(max_examples=120, deadline=None)
@given(g=_qudit_grids())
def test_roundtrip_fuzz_qudit_csv(g):
    emitted = emit_grid(g, format="csv")
    again = parse_grid(emitted, format="csv")
    assert again == g
    assert emit_grid(again, format="csv") == emitted


def test_roundtrip_random_qudit_grids():
    rng = np.random.default_rng(17)
    for _ in range(100):
        da, db = rng.integers(2, 5, size=2)
        count = int(rng.integers(1, 6))
        values = {}
        for _ in range(count):
            i = int(rng.integers(0, da * da - 1))
            j = int(rng.integers(0, db * db - 1))
            values[(i, j)] = float(rng.uniform(-1, 1))
        g = CorrelatorGrid((int(da), int(db)), values)
        emitted = emit_grid(g)
        assert parse_grid(emitted) == g
        assert emit_grid(parse_grid(emitted)) == emitted


def test_restrict_basics():
    full = CorrelatorGrid.from_labels(
        {a + b: 0.1 for a in AXES for b in AXES}
    )
    sub = restrict(full, MeasurementSet.parse("XX,ZZ"))
    assert sub.measured == ((0, 0), (2, 2))
    assert restrict(sub, MeasurementSet.parse("XX,ZZ")) == sub


def test_restrict_missing_pair_names_it():
    g = CorrelatorGrid.from_labels({"XX": 0.5})
    with pytest.raises(ValueError, match="missing correlator ZZ"):
        restrict(g, MeasurementSet.parse("XX,ZZ"))


def test_measurement_set_validation():
    with pytest.raises(ValueError, match="duplicate"):
        MeasurementSet.parse("XX,XX")
    with pytest.raises(ValueError, match="unknown"):
        MeasurementSet.parse("XW")
    with pytest.raises(ValueError, match="malformed"):
        MeasurementSet.parse("XXX")
    ms = MeasurementSet.parse("xx, zz")
    assert ms.labels() == ("XX", "ZZ")
    assert ms.indices() == ((0, 0), (2, 2))


# a full qubit grid, its negation, and a three-cell support in unsorted order
_FULL = CorrelatorGrid.from_labels(
    {a + b: 0.1 * k - 0.4 for k, (a, b) in enumerate(itertools.product(AXES, AXES))}
)
_NEGATED = CorrelatorGrid((2, 2), {cell: -v for cell, v in _FULL.values.items()})


def _solved(r):
    return (r.value, r.coefficients.support, r.coefficients.coeffs, r.iterations, r.gap)


_ENTRY_POINTS = {
    "classify": patterns.classify,
    "restrict": lambda s: restrict(_FULL, s),
    "ne_closed_form": lambda s: _solved(patterns.ne_closed_form(s, _FULL)),
    "ne_solve": lambda s: _solved(solver.ne_solve(_FULL, s)),
    "ne_solve_batch": lambda s: [
        _solved(r) for r in solver.ne_solve_batch([_FULL, _NEGATED], s)
    ],
    "ne_monotone_report": lambda s: ne_monotone_report(
        [MeasurementSet.parse("XY"), s], _FULL
    ).values,
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_support_entry_points_take_any_iterable_of_cells(name):
    entry = _ENTRY_POINTS[name]
    mset = MeasurementSet.parse("ZX,XY,YY")
    cells = list(mset.cells)
    assert entry(mset) == entry(cells) == entry(cells[::-1])


# every reader of a support: the entry points above, and the constructors
_SUPPORT_READERS = {
    **_ENTRY_POINTS,
    "MeasurementSet": lambda s: MeasurementSet(tuple(s)),
    "CoefficientMatrix": lambda s: CoefficientMatrix((2, 2), tuple(s), (1.0,) * len(s)),
    "CoefficientMatrix.stack": lambda s: CoefficientMatrix.stack(
        (2, 2), tuple(s), np.ones((2, len(s)))
    ),
}
# a grid takes its cells as mapping keys and value_at one cell at a time, so
# neither can be handed a repeated or empty support; value_at finds a key
# equal to a measured cell, as a dict does, and reads any other
_GRID = {"CorrelatorGrid": lambda s: CorrelatorGrid((2, 2), dict.fromkeys(s, 0.5))}
_VALUE_AT = {"value_at": lambda s: [_FULL.value_at(cell) for cell in s]}

_NOT_A_PAIR = "index pair {} is not a pair of integers"
_OUTSIDE = "index pair {} outside basis range"
_ALL = {**_SUPPORT_READERS, **_GRID, **_VALUE_AT}
# (support, message, readers); the offending cell comes last
_MALFORMED = {
    # cells equal to no measured cell reach every reader
    "float": ([(0, 0), (0.5, 0)], _NOT_A_PAIR.format((0.5, 0)), _ALL),
    "float after a valid cell": ([(1, 1), (0.7, 0)], _NOT_A_PAIR.format((0.7, 0)), _ALL),
    "string index": ([(0, 0), ("1", 0)], _NOT_A_PAIR.format(("1", 0)), _ALL),
    "label as a cell": ([(0, 0), "XY"], _NOT_A_PAIR.format("'XY'"), _ALL),
    "three indices": ([(0, 0, 0)], _NOT_A_PAIR.format((0, 0, 0)), _ALL),
    "past the basis": ([(0, 0), (5, 5)], _OUTSIDE.format((5, 5)), _ALL),
    "negative": ([(-1, 0)], _OUTSIDE.format((-1, 0)), _ALL),
    "one side past": ([(0, 3)], _OUTSIDE.format((0, 3)), _ALL),
    # cells equal to a measured cell
    "integral float": ([(0.0, 0)], _NOT_A_PAIR.format((0.0, 0)), {**_SUPPORT_READERS, **_GRID}),
    "bool": ([(1, 1), (True, 0)], _NOT_A_PAIR.format((True, 0)), {**_SUPPORT_READERS, **_GRID}),
    # whole supports
    "repeated cell": ([(0, 0), (1, 2), (1, 2)], "duplicate support entry (1, 2)", _SUPPORT_READERS),
    "empty": ([], "empty support", _SUPPORT_READERS),
}


@pytest.mark.parametrize(
    "case, reader",
    [(case, reader) for case, (_, _, readers) in _MALFORMED.items() for reader in sorted(readers)],
)
def test_every_reader_rejects_a_malformed_support_alike(case, reader):
    support, message, readers = _MALFORMED[case]
    with pytest.raises(ValueError) as caught:
        readers[reader](support)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_a_float_key_is_not_folded_into_an_int_key():
    # the dict keeps the first of two equal keys, (0.0, 0), and the grid
    # rejects it rather than keep one of the two values
    with pytest.raises(ValueError, match=re.escape(_NOT_A_PAIR.format((0.0, 0)))):
        CorrelatorGrid((2, 2), {(0.0, 0): 1.0, (0, 0): 0.5})
    # a cell given as a list is read, and names the cell it reads to
    assert _FULL.value_at([0, 0]) == _FULL.value_at((0, 0))
    with pytest.raises(ValueError, match="missing correlator ZZ"):
        CorrelatorGrid.from_labels({"XX": 0.5}).value_at([2, 2])


_DIMS = "local dimensions must be two integers >= 2, got {}"


@pytest.mark.parametrize("dims", [(2.5, 2), (2, 2.0), (True, 2), (1, 2), (2,), (2, 2, 2), "22", None])
def test_every_reader_rejects_malformed_dimensions_alike(dims):
    message = re.escape(_DIMS.format(repr(dims)))
    with pytest.raises(ValueError, match=message):
        CorrelatorGrid(dims, {(0, 0): 0.5})
    with pytest.raises(ValueError, match=message):
        CoefficientMatrix(dims, ((0, 0),), (1.0,))
    with pytest.raises(ValueError, match=message):
        CoefficientMatrix.stack(dims, ((0, 0),), np.ones((2, 1)))
    if isinstance(dims, tuple) and len(dims) == 2:
        with pytest.raises(ValueError, match=message):
            qmodel.sample_separable(dims[0], 1, 0, d_b=dims[1])
    doc = json.dumps({"dims": dims, "correlators": {"0,0": 0.5}})
    with pytest.raises(ValueError, match=re.escape(_DIMS.format(repr(json.loads(doc)["dims"])))):
        parse_grid(doc.encode())


def test_sample_separable_reads_its_dimensions():
    with pytest.raises(ValueError, match=re.escape(_DIMS.format((2.5, 2.5)))):
        qmodel.sample_separable(2.5, 1, 0)
    assert qmodel.sample_separable(np.int64(2), 1, 0).dims == (2, 2)


@pytest.mark.parametrize(
    "a, b", [("1_0", "0"), ("+1", "0"), ("\u0661", "0"), ("01", "0"), ("1", "00"), ("0", "-0"), ("1", "")]
)
def test_index_keys_are_read_only_as_pair_label_writes_them(a, b):
    key = f"{a},{b}"
    message = re.escape(f"malformed index key {key!r}")
    with pytest.raises(ValueError, match=message):
        parse_grid(json.dumps({"dims": [4, 4], "correlators": {key: 0.5}}).encode())
    with pytest.raises(ValueError, match=message):
        parse_grid(f"# dims=4,4\na,b,value\n{key},0.5\n".encode(), format="csv")


def test_index_keys_in_the_written_form_read():
    g = parse_grid(b'{"dims":[4,4],"correlators":{"10,0":0.5,"0,14":0.25}}')
    assert g.values == {(10, 0): 0.5, (0, 14): 0.25}
    # spaces around a JSON key are no part of the form
    for key in (" 1,0", "1,0 ", "1, 0"):
        with pytest.raises(ValueError, match=re.escape(f"malformed index key {key!r}")):
            parse_grid(json.dumps({"dims": [4, 4], "correlators": {key: 0.5}}).encode())


def test_a_csv_dims_line_is_read_only_as_emit_grid_writes_it():
    for line in ("# dims=03,3", "# dims=+3,3", "# dims=\u0663,3"):
        with pytest.raises(ValueError, match="expected '# dims=dA,dB'"):
            parse_grid(f"{line}\na,b,value\n0,0,0.5\n".encode(), format="csv")


def test_grid_requires_dimensions_at_least_two():
    with pytest.raises(ValueError, match="dimensions"):
        CorrelatorGrid((1, 2), {(0, 0): 0.5})


@pytest.mark.parametrize(
    "values, message",
    [
        # each entry fails its cell, then finiteness, then magnitude: the
        # first offending entry is named, whatever fails later
        ({(0, 0): 0.5, (9, 0): 0.1, (1, 1): 5.0}, r"index pair \(9, 0\) outside basis range"),
        ({(0, 0): 5.0, (9, 0): 0.1}, r"correlator 0,0 out of range: 5 \(\|value\| > 2.1\)"),
        ({(0, 0): math.nan, (1, 1): 5.0}, "correlator 0,0 is not finite"),
        ({(0, 0): 0.5, (1, 1): -math.inf}, "correlator 1,1 is not finite"),
        ({(0, 0): 0.5, (1, 1): 10**400, (9, 9): 0.1}, "correlator 1,1 is too large"),
        ({(9, 9): 0.1, (1, 1): 10**400}, r"index pair \(9, 9\) outside basis range"),
        ({(0, 0): 3.0, (1, 1): 10**400}, "correlator 0,0 out of range"),
        ({(0, 0): 3.0, (1, 1): "x"}, "correlator 0,0 out of range"),
        ({(0, 0): 0.5, (1, 1): "x"}, "could not convert string to float"),
    ],
)
def test_the_first_offending_entry_is_named(values, message):
    with pytest.raises(ValueError, match=message):
        CorrelatorGrid((3, 3), values)


@pytest.mark.parametrize("value", [None, [0.5], 1j])
def test_a_correlator_that_is_no_number_is_named(value):
    for dims, label in (((2, 2), "'XY'"), ((3, 3), "'0,1'")):
        with pytest.raises(ValueError, match=f"correlator {label} is not a number"):
            CorrelatorGrid(dims, {(0, 0): 0.5, (0, 1): value})
    # a cell outside the basis range is named first, as for any value
    with pytest.raises(ValueError, match="outside basis range"):
        CorrelatorGrid((2, 2), {(3, 0): value})


def test_stacked_correlators_name_the_first_offending_entry():
    cells = [(0, 0), (0, 1), (1, 0)]
    good = np.full((4, 3), 0.5)
    check_correlators((2, 2), cells, good)
    stack = good.copy()
    stack[1, 2] = 1.2
    stack[2, 0] = math.nan
    with pytest.raises(ValueError, match=r"correlator YX out of range: 1.2 \(\|value\| > 1.05\)"):
        check_correlators((2, 2), cells, stack)
    stack[1, 2] = 0.5
    with pytest.raises(ValueError, match="correlator XX is not finite"):
        check_correlators((2, 2), cells, stack)
    with pytest.raises(ValueError, match=r"index pair \(3, 0\) outside basis range"):
        check_correlators((2, 2), [(0, 0), (0, 1), (3, 0)], good)
    # a grid built from an array is checked the same way
    with pytest.raises(ValueError, match="correlator XY is not finite"):
        CorrelatorGrid._from_array((2, 2), cells, np.array([0.5, math.inf, 0.5]))
    grid = CorrelatorGrid._from_array((2, 2), cells, good[0])
    assert grid == CorrelatorGrid((2, 2), dict.fromkeys(cells, 0.5))
