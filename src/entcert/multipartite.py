"""Multipartite product-state optimization and normalized estimation.

The single quantity everything here revolves around is

    lambda_max(O) = max over product states |psi_1> x ... x |psi_n>
                    of  <psi|O|psi>,

for observables O given as sums of local-operator products.  An
``ObservableSum`` holds its T terms in one form only, the one the sweep
reads: a coefficient vector (T,) and, per site, a factor stack (T, d, d).
Expectations, the dense matrix and block groupings are all computed from
those stacks.  On product states the expectation factorizes, so fixing
every site but one turns O into a small effective local operator whose top
eigenvector is the exact single-site optimum.  Sweeping that update
cyclically over the sites - separability power iteration - ascends
monotonically and converges to a (local) maximum; a multistart over local
basis eigenvectors plus random product states is used to escape poor
basins.  The policy is fixed: the first 216 combinations of local
eigenvectors, then 8 Haar-random product states drawn from ``seed`` (11 by
default), the one knob.  That multistart is built once per (dims, seed),
in the sweep's form below, and held read-only in a bounded cache, so a
search only sweeps.  All starts of one search advance in lockstep, and
a start leaves the active set at its first sweep that gains less than
1e-10, or after 500 sweeps.  A search sweeps the coefficients scaled by
the power of two that puts the largest |coefficient| in (0.5, 1], and
scales its values back, so that these tolerances are relative to the
observable.  Qubit sites are swept in Bloch coordinates: a qubit's
effective operator is g 1 + h . sigma, whose top eigenvector has Bloch
vector h / |h|, so each update is that closed form over the S starts still
active, and only the reported start is turned into spinors, at the end of
the search.  A row whose two eigenvalues tie, 2|h| <= 1e-10 *
max(1, |g + |h||), keeps its vector, and each search screens that test
once: B = sum_t |c_t| prod_s ||o_st||, from factor norms each site holds,
bounds every |g + |h|| of the search, so an update whose smallest 2|h|
exceeds 1e-10 * max(1, 2B) has no tie and returns h / |h| at once.  Only
where the screen fails is the exact test taken, so the screen cannot
change a result.  Every other site update is one batched eigensolve over
the ``(S, d, d)`` effective operators, which are formed, like that site's
expectations, by matrix products.  The live starts' per-term expectations
are held in one ``(n, S, T)`` array and the qubit sites' Bloch vectors in
one ``(n_q, S, 3)`` array.  So after every sweep one pass checks that each
qubit row is a unit vector to 1e-12 (NaN and inf fail), one more pass does
so for each other site, and each array is compacted once when starts stop.
A sweep writes in place: each qubit update writes its new Bloch vectors
into the held rows, and each site's expectations go into its row of the
``(n, S, T)`` array.  The h . h of the qubit updates and the squared
norms of the unit check are read through ``_linalg.einsum``, numpy's C
einsum bound without the wrapper that ``np.einsum`` adds, so a sweep
costs fewer numpy calls and the same bits.  No global-optimality claim is
attached to the outcome; results carry restart counts, the number of
starts that reached the best value, and convergence flags instead.

k-separable relaxations reuse the same iteration with sites grouped into
blocks: a block behaves as a single site of the product dimension and its
update takes the top eigenvector of the block-reduced operator.  A
block's factor stack is the term-by-term Kronecker product of its sites'
stacks.

``ne_multipartite`` turns lambda_max into a detection test: over
coefficient vectors c, oriented so that sum_k c_k e_k >= 0, it maximizes
sum_k c_k e_k / lambda_max(sum_k c_k O_k) for measured estimates e_k.  The
outer problem is non-convex; the implementation alternates a closed-form
coefficient step against the current optimizer state with full
re-evaluations, multistarted from 16 coefficient initializations (seed
5) of at most 40 rounds each, and reports the best local optimum found.
Each evaluation sweeps only the first 12 eigenvector combinations plus
the previous optimizer; the reported optimum gets the full multistart.
The Pauli products, their sweep sites and the inner starts are built
once per call, and each evaluation only reweights them and appends the
previous optimizer.  Estimates must be finite and within the qubit
correlator cap of ``grids.VALUE_CAP``.  Values above 1 are incompatible
with fully separable states provided lambda_max was not underestimated;
SPI's value is a lower bound on the maximum, so the verdict, the one rule
``witness.decide`` on c . e with lambda_max as the bound, is heuristic, not
certified.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._linalg import einsum
from .grids import VALUE_CAP
from .qmodel import PAULI, _read_int, gell_mann_basis
from .witness import decide

_UNIT_TOL = 1e-12
_DEGENERACY_TOL = 1e-10
_NEGLIGIBLE_PROJECTION = 1e-8
#: I, X, Y, Z: the basis in which qubit factors are read in Bloch coordinates.
_PAULI_BASIS = np.stack([PAULI[a] for a in "IXYZ"])
#: A start stops at its first sweep that gains less than _SWEEP_TOL, or after
#: _MAX_SWEEPS sweeps.
_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 500
#: The multistart of spi_lambda_max: eigenvector combinations, then random starts.
_EIGEN_STARTS = 216
_RANDOM_STARTS = 8
#: Multistarts held in sweep form, one per (dims, seed); past this many the
#: least recently used is dropped.
_CACHED_STARTS = 32
#: Starts whose scaled value is within _BEST_TOL * max(1, |best|) of the best
#: one count as reaching it.
_BEST_TOL = 1e-9
#: ne_multipartite's coefficient starts, the rounds of each, and their seed.
_COEFF_STARTS = 16
_MAX_ROUNDS = 40
_COEFF_SEED = 5
#: Eigenvector combinations swept by each evaluation inside ne_multipartite.
_INNER_STARTS = 12


def _kron_stack(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Term-by-term Kronecker product of ``(T, d_s, d_s)`` factor stacks."""
    out = stacks[0]
    for f in stacks[1:]:
        t, a, b = len(out), out.shape[1], f.shape[1]
        out = out[:, :, None, :, None] * f[:, None, :, None, :]
        out = out.reshape(t, a * b, a * b)
    return out


class ObservableSum:
    """Sum of local-operator products c_t * o_1t x o_2t x ... x o_nt.

    The terms are held stacked, as the sweep reads them: ``coefficients``
    of shape (T,) and, per site s, one factor stack of shape (T, d_s, d_s)
    in ``factor_stacks``.  Factors must be finite, Hermitian and
    consistently shaped per site; at least two parties and one term.
    """

    def __init__(
        self, terms: Sequence[tuple[float, Sequence[np.ndarray]]]
    ) -> None:
        if not terms:
            raise ValueError("observable needs at least one term")
        sites = len(terms[0][1])
        if any(len(factors) != sites for _, factors in terms):
            raise ValueError("terms disagree on local dimensions")
        try:
            stacks = tuple(
                np.stack([np.asarray(f[s], dtype=complex) for _, f in terms])
                for s in range(sites)
            )
        except ValueError:
            raise ValueError("terms disagree on local dimensions") from None
        self._hold([c for c, _ in terms], stacks)

    @classmethod
    def _stacked(
        cls, coefficients: Sequence[float], factor_stacks: tuple[np.ndarray, ...]
    ) -> "ObservableSum":
        """An observable of already stacked terms, validated as in ``__init__``."""
        obs = cls.__new__(cls)
        obs._hold(coefficients, factor_stacks)
        return obs

    def _hold(
        self, coefficients: Sequence[float], factor_stacks: tuple[np.ndarray, ...]
    ) -> None:
        """Validate the stacked terms and keep them."""
        coeffs = np.array(coefficients, dtype=float)
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        if len(factor_stacks) < 2:
            raise ValueError("observable needs at least two parties")
        for stack in factor_stacks:
            if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
                raise ValueError("factors must be square matrices")
            if not np.isfinite(stack).all():
                raise ValueError("factors must be finite")
            # written so that a NaN difference fails it too
            if not np.abs(stack - stack.conj().transpose(0, 2, 1)).max() <= 1e-10:
                raise ValueError("factors must be Hermitian")
        self.coefficients: np.ndarray = coeffs
        self.factor_stacks: tuple[np.ndarray, ...] = factor_stacks
        self.dims: tuple[int, ...] = tuple(stack.shape[1] for stack in factor_stacks)

    @property
    def parties(self) -> int:
        return len(self.dims)

    @classmethod
    def from_pauli_strings(
        cls, terms: Sequence[tuple[float, str]]
    ) -> "ObservableSum":
        """Build from (coefficient, label) pairs like (0.5, 'XZI')."""
        parsed = []
        for coeff, label in terms:
            try:
                factors = [PAULI[ch] for ch in label]
            except KeyError as err:
                raise ValueError(f"unknown Pauli letter in {label!r}") from err
            parsed.append((coeff, factors))
        return cls(parsed)

    def term_values(self, state: "ProductState") -> np.ndarray:
        """c_t prod_s <v_s|o_st|v_s> for each term t at a product state."""
        values = self.coefficients
        for stack, vec in zip(self.factor_stacks, state.vectors):
            # (v^H o_t) v as one row times one column per term, so that each
            # value has the bits of vec.conj() @ o_t @ vec
            rows = (vec.conj() @ stack)[:, None, :]
            values = values * (rows @ vec[:, None])[:, 0, 0].real
        return values

    def expectation(self, state: "ProductState") -> float:
        return float(self.term_values(state).sum())

    def dense(self) -> np.ndarray:
        """Full matrix; for cross-checks on a handful of parties only."""
        products = _kron_stack(self.factor_stacks)
        return (self.coefficients[:, None, None] * products).sum(axis=0)

    def blocked(self, partition: Sequence[Sequence[int]]) -> "ObservableSum":
        """Group parties into blocks, each becoming one site via Kronecker.

        Each block is a sequence of party indices, and each index is read
        as ``qmodel`` reads an int: a numpy integer counts, a bool, a float
        or a string does not.
        """
        blocks = []
        for block in partition:
            sequence = isinstance(block, Sequence) and not isinstance(block, (str, bytes))
            if not (sequence or isinstance(block, np.ndarray) and block.ndim == 1):
                raise ValueError(
                    f"invalid partition: a block must be a sequence of party indices, "
                    f"got {block!r}"
                )
            blocks.append(
                tuple(_read_int("partition entry", p, 0, self.parties - 1) for p in block)
            )
        flat = [p for b in blocks for p in b]
        if sorted(flat) != list(range(self.parties)) or not all(blocks):
            raise ValueError("invalid partition: blocks must cover all parties disjointly")
        # a product that overflows is rejected as a non-finite factor
        with np.errstate(over="ignore", invalid="ignore"):
            stacks = tuple(_kron_stack([self.factor_stacks[p] for p in b]) for b in blocks)
        return ObservableSum._stacked(self.coefficients, stacks)


class ProductState:
    """One unit vector per party."""

    def __init__(self, vectors: Sequence[np.ndarray]) -> None:
        vecs = tuple(np.asarray(v, dtype=complex).ravel() for v in vectors)
        for v in vecs:
            # written so that a NaN norm fails it too
            if not abs(np.linalg.norm(v) - 1.0) <= _UNIT_TOL:
                raise ValueError("product-state factors must be unit vectors")
        self.vectors: tuple[np.ndarray, ...] = vecs

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.vectors)


@dataclass(frozen=True)
class SPIResult:
    """The best start of a search.

    ``best_starts`` counts the starts that reached the best value, to
    within ``_BEST_TOL`` relative to it on the scaled coefficients.
    """

    lambda_max: float
    optimizer: ProductState
    restarts_used: int
    converged: bool
    best_starts: int


@functools.lru_cache(maxsize=None)
def _site_eigenvectors(d: int) -> np.ndarray:
    """Eigenvectors of the non-identity Gell-Mann operators, one per row.

    Each operator contributes its eigenvectors by descending eigenvalue.
    Shared per ``d`` and read-only.
    """
    rows = []
    for op in gell_mann_basis(d).operators[1:]:
        _, v = np.linalg.eigh(op)
        rows.extend(v[:, ::-1].T)
    vecs = np.array(rows)
    vecs.flags.writeable = False
    return vecs


def _eigen_starts(dims: tuple[int, ...], cap: int) -> list[np.ndarray]:
    """First ``cap`` eigenvector products, last site fastest: ``(S, d)`` per site."""
    per_site = [_site_eigenvectors(d) for d in dims]
    shape = tuple(len(v) for v in per_site)
    index = np.unravel_index(np.arange(min(cap, math.prod(shape))), shape)
    return [v[i] for v, i in zip(per_site, index)]


def _starts(dims: tuple[int, ...], seed: int) -> list[np.ndarray]:
    """The multistart of ``spi_lambda_max``, one ``(S, d)`` array per site.

    The first ``_EIGEN_STARTS`` combinations of local eigenvectors in
    enumeration order, then ``_RANDOM_STARTS`` Haar product states, each
    site's vector divided by its own ``np.linalg.norm`` (a row-wise norm
    differs in the last bits).
    """
    rows = np.random.default_rng(seed).standard_normal((_RANDOM_STARTS, 2 * sum(dims)))
    starts = []
    for v, d in zip(_eigen_starts(dims, _EIGEN_STARTS), dims):
        z = rows[:, :d] + 1j * rows[:, d:2 * d]
        rows = rows[:, 2 * d:]
        starts.append(np.concatenate([v, [u / np.linalg.norm(u) for u in z]]))
    return starts


def _site_expectations(factors: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """<v|o_t|v> for each term's factor ``(T, d, d)``; ``vecs`` is ``(..., d)``."""
    return np.einsum("...i,tij,...j->...t", vecs.conj(), factors, vecs).real


def _site_weights(
    coeffs: np.ndarray, expectations: Sequence[np.ndarray], site: int
) -> np.ndarray:
    """c_t prod_{s != site} e_{s,t}: the weight of each term at ``site``."""
    weights = coeffs
    for s, e in enumerate(expectations):
        if s != site:
            weights = weights * e
    return weights


def _effective_operator(
    obs: ObservableSum, vectors: Sequence[np.ndarray], site: int
) -> np.ndarray:
    """Effective operator at ``site``; vectors may carry a leading start axis."""
    expectations = [
        _site_expectations(f, np.asarray(v)) for f, v in zip(obs.factor_stacks, vectors)
    ]
    weights = _site_weights(obs.coefficients, expectations, site)
    return np.einsum("...t,tij->...ij", weights, obs.factor_stacks[site])


def _top_eigenvector(eff: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Top eigenvector of ``(..., d, d)`` nearest to ``current``.

    Eigenvalues within ``_DEGENERACY_TOL`` (relative, floored at 1) of the
    top one count as tied.  The result is the normalized projection of
    ``current`` onto their eigenspace, so an already optimal vector is
    kept.  Where that projection is negligible, the first tied eigenvector
    in descending order that overlaps most with ``current`` wins.
    """
    vals, vecs = np.linalg.eigh(eff)
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    top = vals[..., :1]
    tied = top - vals <= _DEGENERACY_TOL * np.maximum(1.0, np.abs(top))
    # <current|v_k> on the tied eigenvectors, which lead the descending order
    overlap = np.where(tied, (current.conj()[..., None, :] @ vecs)[..., 0, :], 0.0)
    size = np.abs(overlap)
    norm = np.sqrt((size * size).sum(axis=-1, keepdims=True))
    projection = (vecs @ overlap.conj()[..., None])[..., 0]
    kept = norm > _NEGLIGIBLE_PROJECTION
    if kept.all():
        return projection / norm
    best = size.argmax(axis=-1)
    fallback = np.take_along_axis(vecs, best[..., None, None], axis=-1)[..., 0]
    return np.where(kept, projection / np.where(kept, norm, 1.0), fallback)


def _bloch_spinors(r: np.ndarray) -> np.ndarray:
    """Unit spinors ``(S, 2)`` whose Bloch vectors are the rows of ``r``.

    The entry of larger modulus, sqrt((1 + |z|) / 2), is real and positive:
    the upper one where z >= 0, the lower one where z < 0.
    """
    x, y, z = r.T
    big = np.sqrt((1.0 + np.abs(z)) / 2.0)
    small = (x + 1j * y) / (2.0 * big)
    upper = z >= 0.0
    spinors = np.empty((len(r), 2), dtype=complex)
    spinors[:, 0] = np.where(upper, big, small.conj())
    spinors[:, 1] = np.where(upper, small, big)
    return spinors


class _QubitSite:
    """A qubit site held as real unit Bloch vectors ``(S, 3)``.

    Each factor reads o_t = f0_t 1 + f_t . sigma, with f0_t = tr(o_t) / 2 and
    f_t = tr(o_t sigma) / 2, so <v|o_t|v> = f0_t + r . f_t.  An effective
    operator g 1 + h . sigma has top eigenvalue g + |h| and, unless the two
    eigenvalues tie, the top eigenvector of Bloch vector h / |h|.
    """

    def __init__(self, factors: np.ndarray) -> None:
        # rows (f0_t, f_t), so that one product gives (g, h); the
        # expectations read f0 and f, kept contiguous, separately
        self.reduced = np.einsum("aji,tij->ta", _PAULI_BASIS, factors).real / 2.0
        self.f0 = self.reduced[:, 0].copy()
        self.f = self.reduced[:, 1:].T.copy()
        # the operator norm |f0_t| + |f_t| of each factor, as held here
        self.norms = np.abs(self.f0) + np.sqrt(np.einsum("at,at->t", self.f, self.f))

    @staticmethod
    def state(vecs: np.ndarray) -> np.ndarray:
        return _site_expectations(_PAULI_BASIS[1:], vecs)

    def expectations(self, r: np.ndarray, out: np.ndarray) -> None:
        """Write f0_t + r . f_t into ``out``; x + f0 rounds as f0 + x does."""
        np.matmul(r, self.f, out=out)
        out += self.f0

    def update(
        self, weights: np.ndarray, r: np.ndarray, screen: float = math.inf
    ) -> np.ndarray:
        """The rule of ``_top_eigenvector`` on g 1 + h . sigma, written into ``r``.

        The eigenvalues g +- |h| tie when 2|h| is within the degeneracy
        tolerance; the projection of ``r``'s spinor onto the tied C^2 is
        that spinor, so ``r`` stays.  Otherwise the top eigenvector is
        h / |h|, whatever its overlap with ``r``.  ``screen`` is the
        search's ``_tie_screen``: when the smallest 2|h| exceeds it, no row
        ties and the top eigenvalues are not formed; by default the rule is
        taken in full, which gives the same rows.  Returns ``r``.
        """
        gh = weights @ self.reduced
        h = gh[:, 1:]
        size = np.sqrt(einsum("sa,sa->s", h, h))
        if 2.0 * np.minimum.reduce(size) > screen:
            return np.divide(h, size[:, None], out=r)
        top = gh[:, 0] + size
        moved = 2.0 * size > _DEGENERACY_TOL * np.maximum(1.0, np.abs(top))
        # a row that ties is not divided, so it keeps its vector
        return np.divide(h, size[:, None], out=r, where=moved[:, None])


class _VectorSite:
    """A site of any dimension held as complex unit vectors ``(S, d)``.

    Both contractions are matrix products: the effective operators are the
    weights times the factors flattened to ``(T, d*d)``, and v^H o_t for
    every term is v^H times the factors laid side by side, ``(d, T*d)``.
    """

    def __init__(self, factors: np.ndarray) -> None:
        t, d, _ = factors.shape
        self.flat = factors.reshape(t, d * d)
        self.side_by_side = factors.transpose(1, 0, 2).reshape(d, t * d)
        # the Frobenius norm of each factor, which bounds the computed
        # expectations too: each is at most sum_ij |v_i| |o_ij| |v_j|
        self.norms = np.linalg.norm(self.flat, axis=1)

    @staticmethod
    def state(vecs: np.ndarray) -> np.ndarray:
        return vecs

    def expectations(self, vecs: np.ndarray, out: np.ndarray) -> None:
        """Write <v|o_t|v> for each row v and term t into ``out``."""
        s, d = vecs.shape
        rows = (vecs.conj() @ self.side_by_side).reshape(s, -1, d)
        out[...] = (rows @ vecs[:, :, None])[:, :, 0].real

    def update(
        self, weights: np.ndarray, vecs: np.ndarray, screen: float = math.inf
    ) -> np.ndarray:
        """The top eigenvector rule; ``screen`` serves qubit sites only."""
        d = vecs.shape[1]
        eff = (weights @ self.flat).reshape(-1, d, d)
        return _top_eigenvector(eff, vecs)


def _term_values(coeffs: np.ndarray, expectations: Sequence[np.ndarray]) -> np.ndarray:
    products = coeffs
    for e in expectations:
        products = products * e
    return products.sum(axis=-1)


def _require_unit(vectors: Sequence[np.ndarray]) -> None:
    """Raise unless every row v of every array has |‖v‖ - 1| <= _UNIT_TOL.

    NaN or inf fails: the largest |‖v‖ - 1| is NaN if any is, and NaN
    fails the comparison.
    """
    for v in vectors:
        # a real array is its own conjugate: the Bloch stack is read as is
        w = v.conj() if v.dtype.kind == "c" else v
        norms = np.sqrt(einsum("...i,...i->...", w, v).real)
        norms -= 1.0
        np.abs(norms, out=norms)
        if not np.maximum.reduce(norms, axis=None, initial=0.0) <= _UNIT_TOL:
            raise ValueError("product-state factors must be unit vectors")


def _site_class(d: int) -> type:
    """The sweep's form of a site of local dimension ``d``."""
    return _QubitSite if d == 2 else _VectorSite


def _sites(obs: ObservableSum) -> list:
    """One sweep site per party, built from its factor stack."""
    # a factor norm that overflows turns the tie screen off (_tie_screen)
    with np.errstate(over="ignore"):
        return [_site_class(f.shape[1])(f) for f in obs.factor_stacks]


def _tie_screen(coeffs: np.ndarray, sites: Sequence) -> float:
    """``_DEGENERACY_TOL * max(1, 2B)``, B = sum_t |c_t| prod_s ||o_st||.

    Every expectation e_st of a unit vector is at most the factor norm
    ||o_st|| that its site holds, so at a qubit site each weight is at most
    |c_t| prod_{s != k} ||o_st|| and each top eigenvalue g + |h| at most B
    in size; 2B leaves room for rounding.  A smallest 2|h| above the
    screen thus passes the update's exact test for every row.  A bound
    that overflows, or is NaN, gives an infinite screen, which no row
    passes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = sites[0].norms
        for site in sites[1:]:
            norms = norms * site.norms
        bound = 2.0 * float(np.abs(coeffs) @ norms)
    return _DEGENERACY_TOL * max(1.0, bound) if bound < math.inf else math.inf


def _sweep_form(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Unit vectors, one ``(S, d)`` array per site, checked and in state form."""
    _require_unit(vectors)
    return [_site_class(v.shape[-1]).state(v) for v in vectors]


@functools.lru_cache(maxsize=_CACHED_STARTS)
def _sweep_starts(dims: tuple[int, ...], seed: int) -> tuple[np.ndarray, ...]:
    """``_starts(dims, seed)`` in sweep form: built once per key, read-only."""
    states = tuple(_sweep_form(_starts(dims, seed)))
    for x in states:
        x.flags.writeable = False
    return states


def _per_site(
    qubits: Sequence[int], bloch: np.ndarray, others: Sequence[int], vectors: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Site k's array: row q of ``bloch`` for ``qubits[q]``, else its own."""
    per_site = [None] * (len(qubits) + len(others))
    for q, k in enumerate(qubits):
        per_site[k] = bloch[q]
    for x, k in zip(vectors, others):
        per_site[k] = x
    return per_site


def _lockstep_sweeps(
    coeffs: np.ndarray, sites: Sequence, states: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Sweep every start to convergence at once.

    ``states`` holds each site's starts in that site's state form
    (``_sweep_form``): Bloch vectors on qubits (``_QubitSite``), the
    vectors themselves elsewhere (``_VectorSite``).  A site maps states to
    per-term expectations (``expectations``) and term weights to the next
    states (``update``).  A qubit update writes into the held rows it is
    given and returns them, and ``expectations`` writes into the site's
    row of one ``(n, S, T)`` array, which holds the live starts'
    expectations.  The qubit sites' Bloch vectors are held in one
    ``(n_q, S, 3)`` array, so that each sweep checks every qubit row
    against ``_UNIT_TOL`` in one pass (each other site in one more) and
    compacts each array once; an eigensolve that a NaN row fails before
    that check runs the check at once, so the error is the same.  Its
    value is the last site's weights, c_t prod_{s < n} e_{s,t}, times that
    site's new expectations, summed: the product of ``_term_values``, bit
    for bit, without forming it again.
    A start leaves the active set at the first sweep that gains less than
    ``_SWEEP_TOL``; the rest advance together.  The given arrays are only
    read.  Returns the final values, states and convergence flags per
    start.
    """
    qubits = [k for k, site in enumerate(sites) if isinstance(site, _QubitSite)]
    others = [k for k in range(len(sites)) if k not in qubits]
    count = states[0].shape[0]
    screen = _tie_screen(coeffs, sites)
    bloch = np.array([states[k] for k in qubits]).reshape(len(qubits), count, 3)
    vectors = [states[k].copy() for k in others]
    # each site's live states, written in place: a row of ``bloch`` or one
    # of ``vectors``
    held = _per_site(qubits, bloch, others, vectors)
    # every row is written once, when its start stops or after the last sweep
    out_bloch, out_vectors = np.empty_like(bloch), [np.empty_like(x) for x in vectors]
    values = np.empty(count)
    converged = np.zeros(count, dtype=bool)
    live = np.arange(count)
    expectations = np.empty((len(sites), count, len(coeffs)))
    for site, x, e in zip(sites, held, expectations):
        site.expectations(x, e)
    # its rows as a list of views, which the sweep iterates without slicing
    # the array
    rows_of = list(expectations)
    value = _term_values(coeffs, expectations)
    for _ in range(_MAX_SWEEPS):
        # c_t prod_{s < k} e_{s,t} over the sites already updated in this
        # sweep: site k's weights multiply the rest onto it in the order of
        # _site_weights, and after the last site it is _term_values' product
        prefix = coeffs
        for k, site in enumerate(sites):
            weights = prefix
            for e in rows_of[k + 1:]:
                weights = weights * e
            try:
                # a qubit update returns the rows it wrote, held[k] itself,
                # and assigning an array to itself copies nothing
                held[k][...] = site.update(weights, held[k], screen)
            except np.linalg.LinAlgError:
                # a NaN row of a site updated earlier in this sweep fails
                # this eigensolve before the unit check below reads it
                _require_unit([bloch, *vectors] if qubits else vectors)
                raise
            site.expectations(held[k], rows_of[k])
            prefix = prefix * rows_of[k]
        _require_unit([bloch, *vectors] if qubits else vectors)
        new_value = np.add.reduce(prefix, axis=-1)
        done = new_value - value < _SWEEP_TOL
        value = new_value
        if not done.any():
            continue
        # row indices, since taking them along the start axis of a stack
        # costs less than a mask does
        stopped, kept = done.nonzero()[0], (~done).nonzero()[0]
        rows = live[stopped]
        out_bloch[:, rows] = bloch.take(stopped, axis=1)
        for x, o in zip(vectors, out_vectors):
            o[rows] = x[stopped]
        values[rows] = value[stopped]
        converged[rows] = True
        live, value = live[kept], value[kept]
        if live.size == 0:
            break
        bloch, expectations = bloch.take(kept, axis=1), expectations.take(kept, axis=1)
        vectors = [x[kept] for x in vectors]
        held = _per_site(qubits, bloch, others, vectors)
        rows_of = list(expectations)
    else:
        out_bloch[:, live] = bloch
        for x, o in zip(vectors, out_vectors):
            o[live] = x
        values[live] = value
    return values, _per_site(qubits, out_bloch, others, out_vectors), converged


def _best_start(
    coefficients: np.ndarray, sites: Sequence, states: Sequence[np.ndarray]
) -> SPIResult:
    """Sweep ``states`` (``_sweep_form``) and report the first best start.

    The sweep runs on the coefficients scaled by the power of two that puts
    the largest |coefficient| in (0.5, 1], so that the absolute tolerances
    and h . h see unit scale; the values are scaled back.  Only the
    reported start is turned back into vectors.
    """
    mantissa, exponent = np.frexp(np.abs(coefficients).max())
    shift = int(exponent) - int(mantissa == 0.5)
    scaled, final, converged = _lockstep_sweeps(
        np.ldexp(coefficients, -shift), sites, states
    )
    values = np.ldexp(scaled, shift)
    best = int(np.argmax(values))
    top = scaled.max()
    vectors = [x[best] for x in final]
    # the qubit sites' Bloch rows, stacked, become spinors in one call
    qubits = [k for k, site in enumerate(sites) if isinstance(site, _QubitSite)]
    spinors = _bloch_spinors(np.array([vectors[k] for k in qubits]).reshape(-1, 3))
    for k, spinor in zip(qubits, spinors):
        vectors[k] = spinor
    return SPIResult(
        lambda_max=float(values[best]),
        optimizer=ProductState(vectors),
        restarts_used=len(values),
        converged=bool(converged[best]),
        best_starts=int(np.count_nonzero(top - scaled <= _BEST_TOL * max(1.0, abs(top)))),
    )


def spi_lambda_max(obs: ObservableSum, seed: int = 11) -> SPIResult:
    """Best product-state expectation found by multistarted cyclic sweeps.

    Each sweep updates one site at a time to the top eigenvector of its
    effective operator (ties resolved toward the current vector), which
    never decreases the objective.  All starts advance in lockstep, each
    stopping at its own first sweep that gains less than ``_SWEEP_TOL``;
    the first start reaching the best value is reported.  ``seed``, an
    int >= 0 read as ``qmodel`` reads its seeds (a numpy integer counts, a
    bool or a float does not), draws the random starts; the multistart of
    each ``(obs.dims, seed)`` is built once and kept.
    """
    seed = _read_int("seed", seed, 0)
    return _best_start(obs.coefficients, _sites(obs), _sweep_starts(obs.dims, seed))


def k_separable_lambda_max(
    obs: ObservableSum, partition: Sequence[Sequence[int]]
) -> SPIResult:
    """lambda_max over states product across the given party blocks.

    Entanglement within a block is allowed (the block update is exact over
    its full local space), so coarser partitions can only raise the value.
    """
    return spi_lambda_max(obs.blocked(partition))


# -- multipartite normalized estimation ----------------------------------------


@dataclass(frozen=True)
class MultipartiteNEResult:
    """Outcome of the coefficient search: a heuristic local optimum.

    Nothing here is certified: lambda_max is SPI's value, a lower bound on
    the product-state maximum.  ``value`` > 1 is incompatible with fully
    separable states only if lambda_max was not underestimated; ``verdict``
    is ``witness.decide`` on c . e and lambda_max, and ``spi`` holds the
    final re-evaluation at the reported coefficients.
    """

    value: float
    labels: tuple[str, ...]
    coefficients: tuple[float, ...]
    lambda_max: float
    verdict: str
    spi: SPIResult
    note: str = field(
        default="heuristic multistart search; no global-optimality claim"
    )


def ne_multipartite(
    obs_support: Sequence[str], estimates: Sequence[float]
) -> MultipartiteNEResult:
    """Maximize sum c_k e_k / lambda_max(sum c_k O_k) over coefficients.

    ``obs_support`` are Pauli strings, ``estimates`` their measured values.
    Every coefficient vector is oriented so that sum c_k e_k >= 0 before it
    is evaluated: only then does lambda_max bound the numerator on
    separable data.  A start or proposal whose lambda_max vanishes under
    the inner search is skipped.  The inner search sweeps the first
    ``_INNER_STARTS`` eigenvector combinations plus, after the first
    evaluation of a start, the previous optimizer.
    Alternation: at the current coefficients, SPI yields a product state
    psi; against psi the objective is a linear/linear ratio whose ascent
    direction has the closed form e - F * o(psi), which proposes the next
    coefficients; proposals are kept only when the true objective improves.
    Multistarted; the best local optimum is reported together with a final
    full-multistart SPI evaluation.
    """
    labels = tuple(obs_support)
    raw = list(estimates)
    if len(labels) != len(raw):
        raise ValueError("supports and estimates must have equal length")
    if not labels:
        raise ValueError("empty observable support")
    values = []
    for label, e in zip(labels, raw):
        try:
            value = float(e)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        # written so that NaN fails it too
        if not abs(value) <= VALUE_CAP:
            raise ValueError(
                f"estimate of {label} must be finite and within +-{VALUE_CAP}, not {e!r}"
            )
        values.append(value)
    est = np.array(values)

    # the Pauli products, their sweep sites and the inner starts, built once;
    # each evaluation only reweights them and appends the previous optimizer
    paulis = ObservableSum.from_pauli_strings([(1.0, label) for label in labels])
    sites = _sites(paulis)
    inner = _sweep_form(_eigen_starts(paulis.dims, _INNER_STARTS))
    k = len(labels)
    starts: list[np.ndarray] = []
    nrm = float(np.linalg.norm(est))
    if nrm > 0:
        starts.append(est / nrm)
    starts.extend(np.eye(k)[i] for i in range(min(k, 7)))
    # at most 1 + 7 fixed starts, so random ones fill up to _COEFF_STARTS
    rng = np.random.default_rng(_COEFF_SEED)
    draws = rng.standard_normal((_COEFF_STARTS - len(starts), k))
    starts.extend(v / np.linalg.norm(v) for v in draws)

    def oriented(c: np.ndarray) -> np.ndarray:
        # sum c_k e_k <= lambda_max(sum c_k O_k) bounds separable data only
        # when the left side is the nonnegative one, so flip c to make it so.
        return -c if float(c @ est) < 0 else c

    def objective(c: np.ndarray, warm: ProductState | None):
        states = inner if warm is None else [
            np.concatenate([x, w])
            for x, w in zip(inner, _sweep_form([v[None] for v in warm.vectors]))
        ]
        res = _best_start(c, sites, states)
        lam = res.lambda_max
        if lam <= 1e-12:
            return -math.inf, res
        return float(c @ est) / lam, res

    # If the inner searches collapse at every start, the first start is
    # still judged by the full multistart below.
    best_f, best_c = -math.inf, oriented(starts[0])
    for c0 in starts:
        c = oriented(c0)
        f, res = objective(c, None)
        if not math.isfinite(f):
            continue
        for _ in range(_MAX_ROUNDS):
            state = res.optimizer
            direction = est - f * paulis.term_values(state)
            dn = float(np.linalg.norm(direction))
            if dn == 0.0:
                break
            proposal = oriented(direction / dn)
            f_new, res_new = objective(proposal, state)
            if f_new <= f + 1e-12:
                break
            c, f, res = proposal, f_new, res_new
        if f > best_f:
            best_f, best_c = f, c

    final = spi_lambda_max(ObservableSum._stacked(best_c, paulis.factor_stacks))
    lam = final.lambda_max
    if lam <= 1e-12:
        raise RuntimeError("normalization collapsed: lambda_max ~ 0 at the optimum")
    expectation = float(best_c @ est)
    return MultipartiteNEResult(
        value=expectation / lam,
        labels=labels,
        coefficients=tuple(float(x) for x in best_c),
        lambda_max=lam,
        verdict=decide(expectation, lam),
        spi=final,
    )
