"""Pattern classification, closed forms, and relabeling orbits."""

import itertools
import math

import numpy as np
import pytest

from entcert import patterns
from entcert.grids import AXES, CorrelatorGrid, MeasurementSet


def _grid(d: dict[str, float]) -> CorrelatorGrid:
    return CorrelatorGrid.from_labels(d)


def _ne_dense_oracle(mset: MeasurementSet, g: CorrelatorGrid, samples: int = 250_000,
                     seed: int = 7) -> float:
    """Brute boundary sampling of max <data, C> over ||C||_inf = 1.

    Supported C are 3x3 with the given sparsity; we draw random full 3x3
    matrices, project onto the support, and renormalize to the boundary.
    A lower bound that converges from below - good to roughly 1e-3.
    """
    rng = np.random.default_rng(seed)
    cells = mset.indices()
    data = np.array([g.value_at(c) for c in cells])
    batch = rng.standard_normal((samples, len(cells)))
    dense = np.zeros((samples, 3, 3))
    rows, cols = zip(*cells)
    dense[:, rows, cols] = batch
    nrm = np.linalg.norm(dense, 2, axis=(1, 2))
    keep = nrm != 0.0
    vals = np.abs(batch[keep] @ data) / nrm[keep]
    return float(vals.max(initial=0.0))


# -- classification ------------------------------------------------------------


def test_classify_single_and_lines():
    assert patterns.classify(MeasurementSet.parse("YZ")).tag == "LineRow"
    assert patterns.classify(MeasurementSet.parse("XX,XY")).tag == "LineRow"
    assert patterns.classify(MeasurementSet.parse("XZ,YZ")).tag == "LineCol"
    assert patterns.classify(MeasurementSet.parse("ZX,ZY,ZZ")).tag == "ThreeLine"
    assert patterns.classify(MeasurementSet.parse("XY,YY,ZY")).tag == "ThreeLine"
    for label in ("YZ", "XX,XY", "XZ,YZ", "ZX,ZY,ZZ"):
        assert not patterns.classify(MeasurementSet.parse(label)).detects


def test_classify_detecting_tags():
    assert patterns.classify(MeasurementSet.parse("XX,ZZ")).tag == "TwoGeneric"
    assert patterns.classify(MeasurementSet.parse("XY,ZX")).tag == "TwoGeneric"
    assert patterns.classify(MeasurementSet.parse("XX,YY,ZZ")).tag == "ThreeDiagonal"
    assert patterns.classify(MeasurementSet.parse("XY,YZ,ZX")).tag == "ThreeDiagonal"
    assert patterns.classify(MeasurementSet.parse("XX,XZ,ZX")).tag == "LShape"
    assert patterns.classify(MeasurementSet.parse("XX,XY,ZZ")).tag == "TwoPlusIsolated"
    assert patterns.classify(MeasurementSet.parse("XX,YX,ZZ")).tag == "TwoPlusIsolated"
    for label in ("XX,ZZ", "XX,YY,ZZ", "XX,XZ,ZX", "XX,XY,ZZ"):
        assert patterns.classify(MeasurementSet.parse(label)).detects


def test_classify_domino_chirality_shares_canonical():
    row = patterns.classify(MeasurementSet.parse("XX,XY,YZ"))
    col = patterns.classify(MeasurementSet.parse("XX,YX,ZY"))
    assert row.canonical == col.canonical
    assert not row.transposed
    assert col.transposed


def test_classify_permutations_reconstruct_member():
    reps = [
        "XZ", "YY,YZ", "XZ,ZZ", "XY,ZX", "ZX,ZY,ZZ", "XZ,YY,ZX",
        "YY,YZ,ZY", "XY,XZ,ZZ", "YX,ZX,XZ",
    ]
    for label in reps:
        mset = MeasurementSet.parse(label)
        pattern = patterns.classify(mset)
        assert pattern.apply() == tuple(sorted(mset.indices()))


def test_classify_general_for_four_plus():
    p = patterns.classify(MeasurementSet.parse("XX,XY,YX,YY"))
    assert p.tag == "General"
    assert p.detects


def test_classify_takes_cells_in_any_order():
    cells = [(i, j) for i in range(3) for j in range(3)]
    for k in range(1, 10):
        for combo in itertools.combinations(cells, k):
            mset = MeasurementSet(combo)
            assert patterns.classify(combo[::-1]) == patterns.classify(mset)


# -- closed forms --------------------------------------------------------------


def test_line_closed_form_is_euclidean_norm():
    g = _grid({"XX": 0.6, "XY": -0.8})
    r = patterns.ne_closed_form(MeasurementSet.parse("XX,XY"), g)
    assert r.value == pytest.approx(1.0, abs=1e-12)
    assert r.verdict == "undetected"


def test_line_cannot_exceed_one_on_physical_rows():
    # the measured row of a physical correlation matrix has 2-norm <= 1
    rng = np.random.default_rng(11)
    for _ in range(200):
        row = rng.standard_normal(3)
        row /= max(1.0, np.linalg.norm(row))
        g = _grid({"ZX": row[0], "ZY": row[1], "ZZ": row[2]})
        r = patterns.ne_closed_form(MeasurementSet.parse("ZX,ZY,ZZ"), g)
        assert r.value <= 1.0 + 1e-12


def test_two_generic_closed_form():
    g = _grid({"XX": -0.95, "ZZ": 0.9})
    r = patterns.ne_closed_form(MeasurementSet.parse("XX,ZZ"), g)
    assert r.value == pytest.approx(1.85, abs=1e-12)
    assert r.verdict == "entangled"
    labels = r.coefficients.label_dict()
    assert labels["XX"] == pytest.approx(-1.0)
    assert labels["ZZ"] == pytest.approx(1.0)


def test_diagonal_closed_form_bell():
    g = _grid({"XX": 1.0, "YY": -1.0, "ZZ": 1.0})
    r = patterns.ne_closed_form(MeasurementSet.parse("XX,YY,ZZ"), g)
    assert r.value == pytest.approx(3.0, abs=1e-12)


def test_domino_closed_form():
    g = _grid({"XX": 0.6, "XY": 0.8, "ZZ": -0.5})
    r = patterns.ne_closed_form(MeasurementSet.parse("XX,XY,ZZ"), g)
    assert r.value == pytest.approx(1.5, abs=1e-12)
    labels = r.coefficients.label_dict()
    assert labels["XX"] == pytest.approx(0.6)
    assert labels["XY"] == pytest.approx(0.8)
    assert labels["ZZ"] == pytest.approx(-1.0)


def test_lshape_worked_example():
    g = _grid({"XX": -0.95, "XY": 0.03, "ZX": -0.96})
    r = patterns.ne_closed_form(MeasurementSet.parse("XX,XY,ZX"), g)
    assert r.value == pytest.approx(1.35, abs=0.01)
    labels = r.coefficients.label_dict()
    want = {"XX": -0.70, "XY": 0.04, "ZX": -0.71}
    flip = 1.0 if labels["XX"] * want["XX"] >= 0 else -1.0
    for key, target in want.items():
        assert flip * labels[key] == pytest.approx(target, abs=0.02)
    assert r.verdict == "entangled"


def test_lshape_coefficients_on_boundary():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        g = _grid({"XX": a, "XY": b, "YX": c})
        r = patterns.ne_closed_form(MeasurementSet.parse("XX,XY,YX"), g)
        assert r.coefficients.operator_norm() == pytest.approx(1.0, abs=1e-9)
        data = np.array([a, b, c])
        cells = {pair: cv for pair, cv in zip(r.coefficients.support, r.coefficients.coeffs)}
        got = sum(g.value_at(pair) * cv for pair, cv in cells.items())
        assert got == pytest.approx(r.value, abs=1e-9)
        del data


def test_lshape_matches_dense_sampling():
    rng = np.random.default_rng(19)
    for _ in range(4):
        vals = rng.uniform(-1.0, 1.0, size=3)
        g = _grid({"XX": vals[0], "XZ": vals[1], "ZX": vals[2]})
        mset = MeasurementSet.parse("XX,XZ,ZX")
        r = patterns.ne_closed_form(mset, g)
        lower = _ne_dense_oracle(mset, g, samples=120_000)
        assert r.value >= lower - 1e-9
        assert r.value == pytest.approx(lower, abs=5e-3)


def test_lshape_boundary_constraint():
    # unit spectral norm (lambda_plus = 1) pins beta^2 gamma^2 = T - 1
    rng = np.random.default_rng(29)
    for _ in range(50):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        g = _grid({"YY": a, "YZ": b, "ZY": c})
        r = patterns.ne_closed_form(MeasurementSet.parse("YY,YZ,ZY"), g)
        labels = r.coefficients.label_dict()
        alpha, beta, gamma = labels["YY"], labels["YZ"], labels["ZY"]
        T = alpha**2 + beta**2 + gamma**2
        assert beta**2 * gamma**2 == pytest.approx(T - 1.0, abs=1e-8)


def test_closed_form_invariant_under_relabeling():
    rng = np.random.default_rng(31)
    base = MeasurementSet.parse("XX,XY,ZZ")
    for _ in range(30):
        vals = rng.uniform(-1.0, 1.0, size=3)
        cells = base.indices()
        g = CorrelatorGrid((2, 2), {c: v for c, v in zip(cells, vals)})
        r0 = patterns.ne_closed_form(base, g)
        pa, pb = rng.permutation(3), rng.permutation(3)
        moved = tuple(sorted((int(pa[i]), int(pb[j])) for i, j in cells))
        gm = CorrelatorGrid(
            (2, 2),
            {(int(pa[i]), int(pb[j])): v for (i, j), v in zip(cells, vals)},
        )
        mm = MeasurementSet(moved)
        r1 = patterns.ne_closed_form(mm, gm)
        assert r1.value == pytest.approx(r0.value, abs=1e-9)


def test_closed_form_rejects_general_and_qudits():
    g = _grid({"XX": 0.5, "XY": 0.5, "YX": 0.5, "YY": 0.5})
    with pytest.raises(ValueError, match="general solver"):
        patterns.ne_closed_form(MeasurementSet.parse("XX,XY,YX,YY"), g)
    qutrit = CorrelatorGrid((3, 3), {(0, 0): 0.5})
    with pytest.raises(ValueError, match="qubit"):
        patterns.ne_closed_form(MeasurementSet.parse("XX"), qutrit)


def test_closed_form_zero_grid():
    g = CorrelatorGrid((2, 2), {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0})
    r = patterns.ne_closed_form(MeasurementSet.parse("XX,XY,YX"), g)
    assert r.value == 0.0
    assert r.verdict == "undetected"


def test_line_norms_do_not_underflow():
    g = _grid({"XX": -1e-200, "YY": 1e-200})
    r = patterns.ne_closed_form(MeasurementSet.parse("XX,YY"), g)
    assert r.value == 2e-200
    assert r.coefficients.coeffs == (-1.0, 1.0)
    g = _grid({"XX": 3e-200, "XY": -4e-200})
    line = patterns.ne_closed_form(MeasurementSet.parse("XX,XY"), g)
    assert line.value == pytest.approx(5e-200, rel=1e-15)
    assert line.coefficients.coeffs == pytest.approx((0.6, -0.8), rel=1e-15)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-100, 1e-80, 1e-40, 1e-11, 1.0])
def test_lshape_is_accurate_at_any_scale(scale):
    g = _grid({"XX": scale, "XY": 0.1 * scale, "YX": 0.1 * scale})
    r = patterns.ne_closed_form(MeasurementSet.parse("XX,XY,YX"), g)
    assert r.value == pytest.approx(1.01 * scale, rel=1e-15, abs=0.0)
    assert r.coefficients.coeffs == pytest.approx((0.99, 0.1, 0.1), rel=1e-15, abs=0.0)
    assert (r.iterations, r.gap) == (0, 0.0)


# -- orbits --------------------------------------------------------------------


def test_orbit_sizes_k2():
    orbits = patterns.enumerate_orbits(2)
    sizes = sorted(len(members) for _, members in orbits)
    assert sizes == [9, 9, 18]
    assert sum(sizes) == math.comb(9, 2)
    tags = {rep.tag for rep, _ in orbits}
    assert tags == {"LineRow", "LineCol", "TwoGeneric"}


def test_orbit_sizes_k3():
    orbits = patterns.enumerate_orbits(3)
    sizes = sorted(len(members) for _, members in orbits)
    assert sizes == [3, 3, 6, 36, 36]
    assert sum(sizes) == math.comb(9, 3)


def test_orbit_members_partition_and_detect_flags():
    orbits = patterns.enumerate_orbits(3)
    seen = set()
    for rep, members in orbits:
        for m in members:
            assert m.cells not in seen
            seen.add(m.cells)
        flags = {patterns.classify(m).detects for m in members}
        assert flags == {rep.detects}
    assert len(seen) == math.comb(9, 3)


def test_orbit_diagonal_transversals():
    orbits = patterns.enumerate_orbits(3)
    diag = next(
        members for rep, members in orbits if rep.tag == "ThreeDiagonal"
    )
    assert len(diag) == 6
    got = {m.labels() for m in diag}
    want = set()
    for pb in itertools.permutations("XYZ"):
        want.add(tuple(sorted(f"{a}{b}" for a, b in zip("XYZ", pb))))
    assert got == want


def test_orbit_invariance_of_value_within_class():
    rng = np.random.default_rng(37)
    orbits = patterns.enumerate_orbits(3)
    for rep, members in orbits:
        vals = rng.uniform(-1.0, 1.0, size=3)
        canon_cells = rep.canonical.indices()
        baseline = None
        for m in members[:8]:
            pat = patterns.classify(m)
            cells = pat.apply()
            src = canon_cells
            if pat.transposed:
                src = tuple((j, i) for i, j in src)
            mapping = {
                (pat.perm_a[i], pat.perm_b[j]): v
                for (i, j), v in zip(src, vals)
            }
            g = CorrelatorGrid((2, 2), mapping)
            r = patterns.ne_closed_form(m, g)
            if baseline is None:
                baseline = r.value
            assert r.value == pytest.approx(baseline, abs=1e-9)
        del cells
