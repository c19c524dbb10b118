"""Numerical time evolution: exact unitary, first-order split-step, Lindblad.

Operators are sparse and no dense full-space operator is formed.  Each
propagator works only on the sectors its start occupies: the connected
components of a sparse nonzero pattern on which the start is nonzero,
labelled in numpy (`_occupied_sectors`).  The exact path is the one-factor
case of the Trotter split-step kernel, which samples off its dt grid by a
remainder step; both read the operators' numpy triplets and import no scipy.
The Lindblad path, one for states and channel inputs alike, assembles the
Liouvillian only on the components its starts occupy, never the d^2 x d^2
one, and of a component and its mirror image (the coherences (S', S) of its
(S, S')) only one (`_lindblad_blocks`).  It propagates a start and its
conjugate transpose on that one by a Chebyshev series of its generator on an
ellipse that holds the block's field of values (`_chebyshev`), importing only
`scipy.sparse` inside the call.
All propagators share one time contract (`_check_times`) and are
deterministic.

A propagator returns its whole trajectory as one state with a leading sample
axis, validated once: a `StateVector` whose `values` (T, k) sit on the k
indices of the sectors its start occupies, built from the sector grids with
no (T, d) array (its dense `amplitudes` are a copy made on demand), or a
`DensityMatrix` of shape (T, d, d); `traj[k]` is sample k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    ImpossibleOutcomeError,
    InvalidOperatorError,
    InvalidParameterError,
)
from .fock import (
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    _check_modes,
    _check_single,
    ladder_op,
)
from .model import SystemParams, build_h_detune, build_h_tms


def _check_times(times) -> np.ndarray:
    """`times` as a float array: 1-D, finite, nonnegative, strictly increasing."""
    times = np.asarray(times, dtype=float)
    ok = times.ndim == 1 and np.all((times >= 0) & (times < np.inf))
    if not (ok and np.all(np.diff(times) > 0)):
        raise InvalidParameterError("times must be finite, nonnegative and strictly increasing")
    return times


#: The propagation methods: the exact unitary, the first-order split-step
#: and the master equation.
METHODS = ("exact", "trotter", "lindblad")


@dataclass(frozen=True)
class EvolutionSpec:
    """How to propagate: method (one of `METHODS`), step/tolerance controls,
    output times."""

    total_time: float
    method: str = "exact"
    trotter_dt: Optional[float] = None
    rtol: float = 1e-8
    sample_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0 <= self.total_time < np.inf:
            raise InvalidParameterError("total_time must be finite and nonnegative")
        if self.method not in METHODS:
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if self.method == "trotter" and not 0 < (self.trotter_dt or 0) < np.inf:
            raise InvalidParameterError("trotter method needs a finite trotter_dt > 0")
        if not 0 < self.rtol < np.inf:
            raise InvalidParameterError("integrator tolerance must be positive and finite")
        ts = tuple(_check_times(self.sample_times).tolist())
        if ts and ts[-1] > self.total_time + 1e-9:
            raise InvalidParameterError("sample_times must lie within [0, total_time]")
        object.__setattr__(self, "sample_times", ts)


def _occupied_sectors(
    edges: tuple[np.ndarray, np.ndarray, int], starts: Sequence[np.ndarray]
) -> list[list[np.ndarray]]:
    """For each start (a state vector or a flattened matrix), the sorted index
    arrays of the connected components of the undirected graph on n nodes
    with edges (rows[k], cols[k]), `edges` = (rows, cols, n), on which the
    start is nonzero.

    Evolution under a matrix with that nonzero pattern never leaves these
    components, and every other entry stays zero.  The components are
    labelled once for all starts, each by its smallest member: every root
    hooks to the smallest root it shares an edge with, then pointer jumping
    flattens the trees to stars (Shiloach & Vishkin, J. Algorithms 3, 57
    (1982)), until no edge joins two stars.  The label of a node never
    exceeds the node, so a star's root is its smallest member.
    """
    rows, cols, n = edges
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)  # index once, not per gather
    labels = np.arange(n)
    while rows.size:
        ends = labels[rows], labels[cols]
        cross = ends[0] != ends[1]  # an edge inside one star stays inside: drop it
        rows, cols = rows[cross], cols[cross]
        np.minimum.at(labels, np.maximum(*ends)[cross], np.minimum(*ends)[cross])
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]
    labels = (np.cumsum(labels == np.arange(n)) - 1)[labels]  # 0, 1, ... by smallest member
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    # bincount, not np.unique, whose masked-array check imports numpy.ma
    return [[blocks[k] for k in np.flatnonzero(np.bincount(labels, x != 0))] for x in starts]


def _sector_block(h: OperatorMatrix, idx: np.ndarray) -> np.ndarray:
    """Dense block of h on one sector, in the order of its indices `idx`.  A
    sector is closed under h, so an entry whose row lies in it has its column
    there too."""
    pos = np.full(h.dims.total, -1)  # the place in the block of each index, else -1
    pos[idx] = np.arange(idx.size)
    place = pos[h.rows]
    inside = place >= 0
    block = np.zeros((idx.size, idx.size), dtype=complex)
    block[place[inside], pos[h.cols[inside]]] = h.vals[inside]
    return block


def _check_start(state, dims) -> None:
    _check_single(state)
    if state.dims.dims != dims.dims:
        raise InvalidParameterError("state dims do not match the system's dims")


def _split_step(
    factors: Sequence[OperatorMatrix], psi: StateVector, times, dt: Optional[float] = None
) -> StateVector:
    """First-order split-step trajectory of H = sum(factors), one state of T
    samples held on the sectors of H that psi occupies.

    A step of length s is exp(-i F_1 s) ... exp(-i F_m s): the last factor
    acts first.  Sample t = n dt + r takes n whole steps on from the previous
    sample's grid state, then one step of length r that is not carried
    forward.  With dt None there are no whole steps, and one factor is exact.
    Each factor has one `eigh` per sector of H that psi occupies, and each
    sector's grid is written straight to its place in the sorted support.
    """
    _check_start(psi, factors[0].dims)
    times = _check_times(times)
    n_steps = np.zeros(times.size, int) if dt is None else np.floor(times / dt).astype(int)
    rest = times if dt is None else times - n_steps * dt
    start = psi.amplitudes
    # the factors' triplets together are the pattern: no operator sum is formed
    rows = np.concatenate([h.rows for h in factors])
    cols = np.concatenate([h.cols for h in factors])
    (sectors,) = _occupied_sectors((rows, cols, start.size), [start])
    support = np.sort(np.concatenate(sectors))
    values = np.empty((times.size, support.size), dtype=complex)
    for idx in sectors:
        eigs = [np.linalg.eigh(_sector_block(h, idx)) for h in factors]
        x = grid = start[idx]
        if n_steps.any():
            step = reduce(np.matmul, [(v * np.exp(-1j * e * dt)) @ v.conj().T for e, v in eigs])
            grid = np.empty((times.size, idx.size), dtype=complex)
            for row, n in zip(grid, np.diff(n_steps, prepend=0)):
                for _ in range(n):
                    x = step @ x
                row[:] = x
        for evals, evecs in reversed(eigs):
            phases = np.exp(-1j * np.outer(rest, evals))
            grid = (phases * (evecs.conj().T @ grid.T).T) @ evecs.T
        values[:, np.searchsorted(support, idx)] = grid
    return StateVector._on_support(support, values, psi.dims)


def evolve_unitary(
    H: OperatorMatrix, psi: StateVector, times: Sequence[float]
) -> StateVector:
    """The trajectory exp(-iHt) psi of a Hermitian H, one sample per entry of
    `times`, as one state of T samples.

    Each sector of H that psi occupies has one `eigh`: a charge sector
    Q = n2 - n1 - n3 of the pair coupling, a photon-number sector of the
    exchange baseline, one level of a diagonal H, or all of an unstructured H.
    """
    if not H.is_hermitian(tol=1e-10):
        raise InvalidOperatorError("Hamiltonian must be Hermitian")
    return _split_step([H], psi, times)


def evolve_trotter(
    params: SystemParams, psi: StateVector, times: Sequence[float], dt: float
) -> StateVector:
    """First-order split-step trajectory of the full H at `times`, one state
    of T samples.

    One step is exp(-i H dt) of the pair coupling S1-S2, times that of S3-S2,
    times that of the bus detuning; each conserves the charge of the full H.
    A sample off the dt grid takes one remainder step (`_split_step`).
    """
    if not 0 < dt < np.inf:
        raise InvalidParameterError("dt must be positive and finite")
    factors = [build_h_tms(params, b) for b in ("S1S2", "S3S2")] + [build_h_detune(params)]
    return _split_step(factors, psi, times, dt)


def evolve_lindblad(
    H: OperatorMatrix,
    collapse_ops: Sequence[OperatorMatrix],
    rho: DensityMatrix,
    times: Sequence[float],
    rtol: float = 1e-8,
) -> DensityMatrix:
    """Master-equation evolution, sampled at the sorted `times`, as one
    (T, d, d) state.

    drho/dt = -i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2), propagated
    by `propagate_lindblad_matrix`; the trajectory holds its Hermitian part,
    as every `DensityMatrix` does.  Raises ConvergenceError if a Chebyshev
    series does not meet its tail bound or the result is not finite.
    """
    _check_start(rho, H.dims)
    return DensityMatrix(
        propagate_lindblad_matrix(H, collapse_ops, [rho.elements], times, rtol)[0], rho.dims
    )


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[k] + arange(counts[k]), concatenated in order of k."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _row_entries(op: OperatorMatrix, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (k, e): triplet e of `op` lies in row which[k], for every k and
    every such e, grouped by k in order."""
    ptr = np.searchsorted(op.rows, np.arange(op.dims.total + 1))
    count = (ptr[1:] - ptr[:-1])[which]
    return np.repeat(np.arange(which.size), count), _ranges(ptr[which], count)


def _lindblad_blocks(
    H: OperatorMatrix, collapse_ops: Sequence[OperatorMatrix], starts: Sequence[np.ndarray]
) -> Iterator[tuple[np.ndarray, "scipy.sparse.csr_matrix", tuple, list[int]]]:
    """The components of the Lindblad generator that the starts (d x d
    matrices) occupy, one of each mirror pair, in the order of their
    smallest sector pair, as (keep, block, box, owners): the row-major flat
    indices i*d + j of the component, the generator on them as CSR, a
    `_field_box` that holds the block's field of values, and the indices of
    the starts that occupy the component or its mirror image.

    With K = -iH - sum_c c^dag c / 2 the generator is
    K rho + rho K^dag + sum_c c rho c^dag, so a Hilbert sector of the
    pattern of K, which is that of H + sum_c c^dag c, is closed under K, and
    the entries (i, j) of a sector pair (S, S') form one connected set.  The
    pairs are joined only by c rho c^dag: through each c's sector edges, the
    edge (Sa, Sb) times the edge (Sc, Sd) joins (Sa, Sc) with (Sb, Sd).  Each
    component is assembled from the triplets of K and of each c when it is
    reached: the d^2 x d^2 generator is never formed.

    The generator commutes with the conjugate transpose, so it maps the
    pairs (S', S) of a component's (S, S') to one component, its mirror
    image, which may be the component itself.  Of the two only the one whose
    smallest pair comes first is yielded: the image of a start x on the
    other is the conjugate transpose of that of x^dag on this one.
    """
    d = H.dims.total
    parts = [(H.rows, H.cols, H.vals * -1j)]
    for c in collapse_ops:  # c^dag c from the pairs of entries in one row of c
        e, f = _row_entries(c, c.rows)
        parts.append((c.cols[e], c.cols[f], -0.5 * c.vals[e].conj() * c.vals[f]))
    # one canonicalization: an entry's terms are summed in the order of parts
    K = OperatorMatrix(tuple(map(np.concatenate, zip(*parts))), H.dims)
    sectors = _occupied_sectors((K.rows, K.cols, d), [np.ones(d)])[0]
    ns = len(sectors)
    sec = np.empty(d, dtype=np.intp)
    for k, idx in enumerate(sectors):
        sec[idx] = k
    joins = [np.zeros(0, dtype=np.intp)] * 2
    for c in collapse_ops:
        edge = np.zeros((ns, ns), dtype=bool)
        edge[sec[c.rows], sec[c.cols]] = True
        a, b = np.nonzero(edge)
        joins = [np.r_[j, np.add.outer(x * ns, x).ravel()] for j, x in zip(joins, (a, b))]
    occupied = [np.bincount(sec[r] * ns + sec[s], minlength=ns * ns)
                for r, s in (np.nonzero(x) for x in starts)]
    owners = {}
    for k, components in enumerate(_occupied_sectors((*joins, ns * ns), occupied)):
        for pairs in components:
            mirror = np.sort(pairs % ns * ns + pairs // ns)
            if mirror[0] < pairs[0]:
                pairs = mirror
            found = owners.setdefault(pairs[0], (pairs, []))[1]
            if found[-1:] != [k]:  # a start on both the component and its mirror
                found.append(k)
    # the least and the greatest eigenvalue of H on each sector reached
    spread = {}
    jumps = float(sum(np.bincount(c.rows, np.abs(c.vals), d).max()
                      * np.bincount(c.cols, np.abs(c.vals), d).max() for c in collapse_ops))
    for first in sorted(owners):
        pairs, starts_in = owners[first]
        a, b = np.divmod(pairs, ns)
        for s in (set(a.tolist()) | set(b.tolist())) - spread.keys():
            evals = np.linalg.eigvalsh(_sector_block(H, sectors[s]))
            spread[s] = evals[0], evals[-1]
        im_lo = min(spread[y][0] - spread[x][1] for x, y in zip(a, b)) - jumps
        im_hi = max(spread[y][1] - spread[x][0] for x, y in zip(a, b)) + jumps
        keep, block = _assemble(K, collapse_ops, sectors, pairs)
        yield keep, block, _field_box(block, im_lo, im_hi), starts_in


def _assemble(
    K: OperatorMatrix, collapse_ops: Sequence[OperatorMatrix], sectors: list[np.ndarray],
    pairs: np.ndarray,
) -> tuple[np.ndarray, "scipy.sparse.csr_matrix"]:
    """(keep, block) of the component made of the sector pairs `pairs`
    (node a * len(sectors) + b for the pair (S_a, S_b)), the pairs one
    after another in `keep`."""
    from scipy import sparse

    d = K.dims.total
    a, b = np.divmod(pairs, len(sectors))
    i = np.concatenate([np.repeat(sectors[x], sectors[y].size) for x, y in zip(a, b)])
    j = np.concatenate([np.tile(sectors[y], sectors[x].size) for x, y in zip(a, b)])
    keep = i * d + j
    at = np.empty(d * d, dtype=np.int32)  # the place in keep of each kept entry
    at[keep] = np.arange(keep.size)

    def place(k, l):
        return at[k * d + l]

    def terms():
        # K rho: (i, j) <- (k, j); rho K^dag: (i, j) <- (i, l)
        n, e = _row_entries(K, i)
        yield place(K.cols[e], j[n]), K.vals[e]
        n, e = _row_entries(K, j)
        yield place(i[n], K.cols[e]), K.vals[e].conj()
        for c in collapse_ops:  # c rho c^dag: (i, j) <- (k, l)
            n, e = _row_entries(c, i)
            m, f = _row_entries(c, j[n])
            yield place(c.cols[e[m]], c.cols[f]), c.vals[e[m]] * c.vals[f].conj()

    # each term yields its entries grouped by row, in row order, so they go
    # straight to their CSR slots: no COO copy of the entries is formed
    per_row = [np.bincount(op.rows, minlength=d) for op in (K, *collapse_ops)]
    counts = [per_row[0][i], per_row[0][j], *(n[i] * n[j] for n in per_row[1:])]
    indptr = np.r_[0, np.cumsum(sum(counts))]
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1], dtype=complex)
    free = indptr[:-1].copy()
    for count, (cols, vals) in zip(counts, terms()):
        slot = _ranges(free, count)
        indices[slot], data[slot] = cols, vals
        free += count
    block = sparse.csr_matrix((data, indices, indptr), shape=(i.size, i.size))
    block.sum_duplicates()
    return keep, block


def _bessel_j(x: np.ndarray, n: int) -> np.ndarray:
    """J_k(x) for k = 0..n and each x >= 0 of a 1-D array, as (n + 1, x.size).

    Miller's backward recurrence f_(k-1) = (2k/x) f_k - f_(k+1) from f_m = 1
    far above max(n, x), carried as the ratios f_k / f_(k+1) so that nothing
    overflows, and normalized by J_0^2 + 2 sum J_k^2 = 1 (Abramowitz &
    Stegun 9.1.76, 9.12); J_m(x) > 0 for m > x, so f has the sign of J.  An
    x of 0 gives J_0 = 1 and J_k = 0.
    """
    x = np.maximum(x, 1e-300)
    m = int(max(n, x.max())) + 16 + int(np.sqrt(40.0 * max(n, x.max())))
    twice_k = np.arange(1, m + 1)[:, None] * (2.0 / x)
    ratio = np.empty((m, x.size))  # ratio[k] = f_k / f_(k+1)
    ratio[-1] = twice_k[-1]
    for k in range(m - 1, 0, -1):
        ratio[k - 1] = twice_k[k - 1] - 1.0 / ratio[k]
    with np.errstate(divide="ignore"):  # an f_k of exactly 0 has log -inf
        log_f = np.cumsum(np.log(np.abs(ratio[::-1])), axis=0)[::-1]
    f = np.cumprod(np.sign(ratio[::-1]), axis=0)[::-1] * np.exp(log_f - log_f.max(axis=0))
    return f[: n + 1] / np.sqrt(f[0] ** 2 + 2.0 * (f[1:] ** 2).sum(axis=0))


#: A window of the Chebyshev series spans at most this many radians of its
#: box's half-height: a longer one costs fewer terms per unit time, a
#: shorter one fewer coefficient-vector products per sample.
_WINDOW_PHASE = 20.0

#: The growth e^(b t) over a window that the enclosing ellipse may allow,
#: b its minor semi-axis: a thinner ellipse needs fewer terms to reach its
#: tip, and more to outgrow this factor in the tail.
_ELLIPSE_GROWTH = 2.0


def _field_box(
    gen: "scipy.sparse.csr_matrix", im_lo: float, im_hi: float
) -> tuple[float, float, float, float]:
    """A rectangle (re_lo, re_hi, im_lo, im_hi) that holds the field of
    values, and so the spectrum, of the generator block `gen`, given bounds
    on the imaginary part from `_lindblad_blocks`.

    The generator is -i[H, .] plus a dissipator.  The first is
    skew-Hermitian with eigenvalues i(E' - E), E in the sector of H of an
    entry's row and E' in that of its column: over the sector pairs (a, b)
    of the block these lie between min(low_b - high_a) and
    max(high_b - low_a), from the extreme eigenvalues of H on each sector.
    The skew-Hermitian part of the dissipator is that of sum_c c . c^dag, of
    norm at most sum_c ||c||^2 <= sum_c ||c||_1 ||c||_inf, which widens
    those bounds.  The real part is bounded by the Gershgorin discs of the
    Hermitian part (gen + gen^dag) / 2.
    """
    twice = (gen + gen.conj().T).tocsr()
    centre = twice.diagonal().real
    radius = np.asarray(abs(twice).sum(axis=1)).ravel() - np.abs(centre)
    return 0.5 * (centre - radius).min(), 0.5 * (centre + radius).max(), im_lo, im_hi


def _half_height(box: tuple[float, float, float, float]) -> float:
    """Half the height of the `box` (re_lo, re_hi, im_lo, im_hi), raised to
    its width if that is more, so that an ellipse about it has distinct
    foci on a vertical line."""
    re_lo, re_hi, im_lo, im_hi = box
    return max((im_hi - im_lo) / 2, re_hi - re_lo)


def _windows(times: np.ndarray, height: float) -> list[tuple[int, int, float]]:
    """(first, stop, origin) of each window of the sorted `times`: samples
    first..stop-1, reached from the window's origin, the previous window's
    last sample (t = 0 for the first).  A window takes samples while its
    span times `height` stays within `_WINDOW_PHASE`, and at least one, so
    a single interval is never split."""
    firsts, origins = [0], [0.0]
    for k in range(1, times.size):
        if (times[k] - origins[-1]) * height > _WINDOW_PHASE:
            firsts.append(k)
            origins.append(times[k - 1])
    return list(zip(firsts, firsts[1:] + [times.size], origins))


def _ellipse(box: tuple[float, float, float, float], span: float) -> tuple[complex, float, float]:
    """(c, R, rho): an ellipse with foci c +- iR, and semi-axes R (rho +-
    1/rho) / 2, that holds the `box` (re_lo, re_hi, im_lo, im_hi), made
    `_half_height` tall.

    It passes through the box's corners.  Its minor semi-axis b lets
    e^(b t) grow to e^_ELLIPSE_GROWTH over `span`, but is at least sqrt 2
    times the box's half-width, where the major one is sqrt 2 times its
    half-height, and at most half-height / sqrt 2, so that the foci stay
    apart; b = 0 for a box of no width.
    """
    re_lo, re_hi, im_lo, im_hi = box
    width = (re_hi - re_lo) / 2
    height = _half_height(box)
    minor = min(max(_ELLIPSE_GROWTH / span, np.sqrt(2.0) * width), height / np.sqrt(2.0)) if width else 0.0
    major = height / np.sqrt(1.0 - (width / minor) ** 2) if minor else height
    focal = np.sqrt(major ** 2 - minor ** 2)
    rho = (major + minor) / focal if focal else 1.0
    return complex(re_lo + re_hi, im_lo + im_hi) / 2, focal, rho


def _chebyshev(
    gen: "scipy.sparse.csr_matrix", y0: np.ndarray, times: np.ndarray, rtol: float,
    box: tuple[float, float, float, float],
) -> np.ndarray:
    """e^(gen t) y0 for the columns of y0 (n, s) at each of the sorted
    `times` >= 0, as (T, n, s), for a `box` (re_lo, re_hi, im_lo, im_hi)
    that holds the field of values of gen.

    With an ellipse of foci c +- iR around the box (`_ellipse`), X = (gen -
    c) / (iR) has its field of values in the ellipse E_rho of foci +-1, and
    e^(gen t) = e^(ct) sum_k a_k T_k(X), a_k = eps_k i^k J_k(Rt), eps_0 = 1,
    eps_k = 2 (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)): one
    matvec per term by T_(k+1) = 2X T_k - T_(k-1).  As |T_k| <= rho^k on
    E_rho, the tail beyond K has norm at most (1 + sqrt 2) sum_(k >= K)
    |a_k| rho^k times that of the start (Crouzeix & Palencia, SIAM J. Matrix
    Anal. Appl. 38, 649 (2017)); a sample keeps the terms that bring this
    below rtol * 1e-2.

    Samples go in windows (`_windows`), each evaluated from one recurrence
    from the previous window's last sample, with its own coefficients per
    sample.  Raises ConvergenceError if the tail bound is not met within
    the term cap, which only a non-finite coefficient can cause, or if the
    result is not finite.
    """
    from scipy import sparse

    windows = _windows(times, _half_height(box))
    span = max(times[stop - 1] - origin for _, stop, origin in windows)
    centre, focal, rho = _ellipse(box, span)
    if focal == 0:  # the box is the point c, so gen = c
        return np.exp(centre * times)[:, None, None] * y0
    shifted = (gen - centre * sparse.identity(gen.shape[0], format="csr")) * (2.0 / (1j * focal))
    tol = rtol * 1e-2 / (1.0 + np.sqrt(2.0))
    out = np.empty((times.size, *y0.shape), dtype=complex)
    i_to_the = np.array([1, 1j, -1, -1j])
    y = y0
    for first, stop, origin in windows:
        step = times[first:stop] - origin
        # |J_k(w)| <= (w/2)^k / k!, so |a_k| rho^k <= 2 e^(Re c t) from k0 = e rho w / 2
        # on and falls by e per term: past the cap the rest is below tol / 300
        cap = 2 + int(np.e / 2 * rho * focal * step[-1] + np.log(1e3 / tol)
                      + max(centre.real * step[-1], 0.0))
        bessel = _bessel_j(focal * step, cap)  # (cap + 1, samples)
        k = np.arange(cap + 1)[:, None]
        with np.errstate(divide="ignore"):
            size = np.exp(np.log(np.abs(bessel)) + k * np.log(rho) + centre.real * step)
        size[1:] *= 2.0
        below = np.cumsum(size[::-1], axis=0)[::-1] <= tol
        if not below.any(axis=0).all():
            raise ConvergenceError("Chebyshev series of a Lindblad block did not converge")
        terms = max(int(np.argmax(below, axis=0).max()), 1)
        coef = bessel[:terms] * i_to_the[k[:terms] % 4] * np.exp(centre * step)
        coef[1:] *= 2.0
        acc = np.multiply.outer(coef[0], y)
        if terms > 1:
            prev, cur = y, 0.5 * (shifted @ y)
            acc += np.multiply.outer(coef[1], cur)
            for a in coef[2:]:
                nxt = shifted @ cur
                nxt -= prev
                prev, cur = cur, nxt
                acc += np.multiply.outer(a, cur)
        out[first:stop] = acc
        y = acc[-1]
    if not np.isfinite(out).all():
        raise ConvergenceError("Lindblad propagation produced non-finite values")
    return out


def propagate_lindblad_matrix(
    H: OperatorMatrix,
    collapse_ops: Sequence[OperatorMatrix],
    rho0s: Sequence[np.ndarray],
    times: Sequence[float],
    rtol: float = 1e-8,
) -> list[np.ndarray]:
    """Linear Lindblad propagation of arbitrary (not necessarily Hermitian)
    matrices, used both for states and for channel inputs; returns one
    (len(times), d, d) array per initial matrix in `rho0s`.

    Only the components of the generator that an initial matrix occupies
    are assembled, one of each mirror pair (`_lindblad_blocks`); every other
    entry stays zero.  With collapse operators a, a^dag and n a component is
    a set of coherence sectors (Q, Q') of the charge Q; with cavity T1 each
    channel input occupies one.  A start x puts two columns on a component
    C: x on C, and x^dag on C, whose image is the conjugate transpose of
    that of x on the mirror image of C; on a component that is its own
    mirror image the first is enough.  A zero column is dropped, and a
    column equal to the one before it shares it, as x^dag does with x for a
    Hermitian x.  The columns of a component are propagated at once, by a
    Chebyshev series of its generator (`_chebyshev`) whose tail bound is
    below rtol * 1e-2 times the norm of the start, and scattered back.
    """
    if not H.is_hermitian(tol=1e-10):
        raise InvalidOperatorError("Hamiltonian must be Hermitian")
    if not 0 < rtol < np.inf:
        raise InvalidParameterError("integrator tolerance must be positive and finite")
    d = H.dims.total
    rho0s = [np.asarray(rho0, dtype=complex) for rho0 in rho0s]
    times = _check_times(times)
    if not times.any():  # no sample after t = 0
        return [np.repeat(rho0[None], times.size, axis=0) for rho0 in rho0s]
    out = [np.zeros((times.size, d * d), dtype=complex) for _ in rho0s]
    # a zero matrix occupies no component and stays zero
    for keep, block, box, owners in _lindblad_blocks(H, collapse_ops, rho0s):
        flip = (keep % d) * d + keep // d  # the entry (j, i) of each (i, j)
        own = (keep == flip[0]).any()  # the component is its own mirror image
        columns, writes = [], []  # (start, column, whether it fills the mirror)
        for k in owners:
            x = rho0s[k].ravel()
            for dag, col in enumerate([x[keep]] if own else [x[keep], x[flip].conj()]):
                if not col.any():
                    continue  # a zero column stays zero
                if not (columns and np.array_equal(col, columns[-1])):
                    columns.append(col)
                writes.append((k, len(columns) - 1, dag))
        moved = _chebyshev(block, np.stack(columns, axis=1), times, rtol, box)
        for k, col, dag in writes:
            image = moved[:, :, col]
            out[k][:, flip if dag else keep] = image.conj() if dag else image
    return [full.reshape(-1, d, d) for full in out]


def apply_jump(state, mode: int):
    """Apply single-photon loss a_mode and renormalize.

    Returns (state_after, weight) where weight is the pre-normalization
    norm (pure state) or trace (density matrix).  `state` is one state: a
    trajectory is refused.
    """
    _check_single(state)
    _check_modes(state.dims, [mode])
    a = ladder_op(state.dims, {mode: "a"})
    if isinstance(state, StateVector):
        out = a @ state.amplitudes
        weight = float(np.linalg.norm(out))
    else:
        out = (a @ (a @ state.elements).conj().T).conj().T  # a rho a^dag
        weight = float(np.trace(out).real)
    if weight <= 1e-12:
        raise ImpossibleOutcomeError("annihilation of a vacuum-supported state")
    return type(state)(out / weight, state.dims), weight
