"""Finite-volume Hamiltonians, Green-function blocks, and eigenvalue counts.

A sample's Hamiltonian is the kinetic term ``base_matrix``, the negated adjacency
matrix of the box (zero diagonal, free spectrum [-2d, 2d]), plus one diagonal row,
``hamiltonian_diagonals``: ``lam V``, and ``2d`` under the shifted convention.  Kernels
hand this module a box and those rows; the dense matrix is its own format.  Boundary
condition is plain restriction: hopping to sites outside the box is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .disorder import SingleSitePotential
from .lattice import Box, ConfigError, Site
from .transform import periodic_convolution

DENSE_SOLVE_LIMIT = 4096
MIN_IMAG_PART = 1e-14
CONDITION_LIMIT = 1e12
COUNT_SHIFT = 2.0**-20  # a count's endpoint x is factored at x -+ COUNT_SHIFT (1 + |H|_inf + |x|)
EIGVALSH_ERROR = 16.0  # eigvalsh is taken within EIGVALSH_ERROR n^2 eps (1 + |H|_inf) of exact
STACK_ENTRIES = 1_000_000  # matrix entries per dense stack: a chunk's Hamiltonians, or a recount's


class ResolventError(RuntimeError):
    """Raised when a resolvent solve cannot be certified."""


class ResourceLimit(ConfigError):
    """A box is too large for the dense linear-algebra path."""


def require_dense(n: int) -> None:
    """Refuse an ``n x n`` dense matrix beyond ``DENSE_SOLVE_LIMIT`` rows."""
    if n > DENSE_SOLVE_LIMIT:
        raise ResourceLimit(f"matrix dimension {n} exceeds {DENSE_SOLVE_LIMIT}")


def base_matrix(box: Box) -> np.ndarray:
    """The kinetic term on the box: its negated adjacency matrix, zero on the diagonal.

    Every dense Hamiltonian starts here, so it refuses a box past the dense
    cap (``ResourceLimit``).
    """
    require_dense(box.size)
    n = box.size
    h = np.zeros((n, n))
    offsets = box.site_array() - np.asarray(box.center) + box.radius
    strides = box.strides()
    idx = np.arange(n)
    for axis in range(box.dimension):
        inner = idx[offsets[:, axis] < box.side - 1]
        h[inner, inner + strides[axis]] = -1.0
        h[inner + strides[axis], inner] = -1.0
    return h


@np.errstate(all="ignore")  # a non-finite entry is flagged where the row is used, not warned about
def hamiltonian_diagonals(box: Box, shifted: bool, lam: float, profiles: np.ndarray) -> np.ndarray:
    """The diagonal each profile row puts on ``base_matrix``: ``lam * profile``, ``+ 2d`` if ``shifted``.

    The one place the disorder strength and the convention enter.  An unshifted
    row gets no ``+ 0.0``, which would turn a ``-0.0`` into ``+0.0``.
    """
    return lam * profiles + 2.0 * box.dimension if shifted else lam * profiles


def hamiltonian_stack(base: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """One matrix per row of ``diagonals``: ``base`` with that row added to its diagonal.

    This is the single assembly path, so every caller gets the same bits.
    """
    stack = np.repeat(base[None, :, :], diagonals.shape[0], axis=0)
    idx = np.arange(base.shape[0])
    stack[:, idx, idx] += diagonals
    return stack


def potential_profiles(
    box: Box, potential: SingleSitePotential, field: Box, couplings: np.ndarray
) -> np.ndarray:
    """Alloy potential rows ``V(k) = sum_j omega_j u(k - j)`` over ``box``.

    ``couplings`` holds one row per draw over ``field``.  The convolution runs
    on the torus of ``field`` and is read on the window of ``box``, exact
    because the envelope of ``box`` must lie inside ``field`` (nothing wraps).
    """
    if not potential.dimension == box.dimension == field.dimension:
        raise ConfigError("potential dimension does not match the box")
    reach = potential.support_radius
    start = [b - box.radius - f + field.radius for b, f in zip(box.center, field.center)]
    if any(s < reach or s + box.side + reach > field.side for s in start):
        raise ConfigError("the envelope of the box leaves the coupling field")
    lead = couplings.shape[:-1]
    grid = couplings.reshape(lead + (field.side,) * field.dimension)
    grid = periodic_convolution(potential.torus_table(field.side), grid)
    window = tuple(slice(s, s + box.side) for s in start)
    return grid[(...,) + window].reshape(lead + (box.size,))


# ---------------------------------------------------------------------------
# Green function blocks and the Krein decomposition
# ---------------------------------------------------------------------------

def resolvent_columns(
    matrices: np.ndarray, z: complex, columns: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``columns`` of ``(H - z)^{-1}`` for every real symmetric ``H`` of a stack.

    The one resolvent solve of the package.  Returns the solutions, shape
    ``(m, n, len(columns))``, and per-member flags: certified means the solve
    succeeded and ``max|(H - z) X - E| <= 1e-10 (1 + max|H|)``.  A singular
    member makes the stack fall back to per-member solves.
    """
    z = complex(z)
    if z.imag < MIN_IMAG_PART:
        raise ResolventError(
            f"spectral parameter too close to the real axis (Im z = {z.imag!r})"
        )
    m, n, _ = matrices.shape
    require_dense(n)
    shifted = matrices.astype(complex)
    idx = np.arange(n)
    shifted[:, idx, idx] -= z
    rhs = np.zeros((m, n, len(columns)), dtype=complex)
    rhs[:, columns, np.arange(len(columns))] = 1.0
    certified = np.ones(m, dtype=bool)
    try:
        solutions = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:
        solutions = np.full_like(rhs, np.nan)
        for i in range(m):
            try:
                solutions[i] = np.linalg.solve(shifted[i], rhs[i])
            except np.linalg.LinAlgError:
                certified[i] = False
    # a non-finite member is flagged below; its overflow needs no warning
    with np.errstate(invalid="ignore", over="ignore"):
        residual = np.max(np.abs(shifted @ solutions - rhs), axis=(1, 2))
    scale = 1.0 + np.max(np.abs(matrices), axis=(1, 2))
    certified &= residual <= 1e-10 * scale
    return solutions, certified


def green_columns(box: Box, diagonals: np.ndarray, z: complex, columns: Sequence[int]) -> np.ndarray:
    """``resolvent_columns`` of ``base_matrix(box)`` plus each row, NaN in every uncertified member."""
    if diagonals.shape[-1] != box.size:
        raise ConfigError(f"a row of length {diagonals.shape[-1]} does not act on the {box.size} box sites")
    solutions, certified = resolvent_columns(hamiltonian_stack(base_matrix(box), diagonals), z, columns)
    solutions[~certified] = complex(np.nan, np.nan)  # a real NaN would leave the imaginary parts 0
    return solutions


def green_blocks(box: Box, diagonals: np.ndarray, z: complex, x: Site, y: Site) -> np.ndarray:
    """Each row's ``[[G(z;x,x), G(z;x,y)], [G(z;y,x), G(z;y,y)]]``, shape ``(m, 2, 2)``.

    Read from ``green_columns``, so an uncertified member is NaN.  For ``Im z > 0``
    a block's imaginary part is positive definite: ``det_imaginary`` lies in
    ``(0, (Im z)**-2]``.
    """
    if x == y:
        raise ConfigError("a Green block needs two distinct sites")
    pair = [box.index_of(x), box.index_of(y)]
    return green_columns(box, diagonals, z, pair)[:, pair, :]


def det_imaginary(blocks: np.ndarray) -> np.ndarray:
    """``det Im`` of each 2x2 block of ``blocks``: the one place it is formed."""
    g = blocks.imag
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


@dataclass
class KreinDecomposition:
    """Green block factored through the operator with the potential removed at x, y.

    ``m_matrix`` has positive-definite imaginary part for ``Im z > 0`` and
    does not depend on the potential values at ``x`` and ``y``; the block
    ``(1/lam) * inv(diag(V(x), V(y)) - M)`` reproduces the Green block.
    """

    m_matrix: np.ndarray
    lam: float
    potential_values: tuple[float, float]

    def reconstructed_block(self) -> np.ndarray:
        diag = np.diag(np.asarray(self.potential_values, dtype=complex))
        return np.linalg.inv(diag - self.m_matrix) / self.lam


def krein_decomposition(
    box: Box, diagonal: np.ndarray, lam: float, profile: np.ndarray, z: complex, x: Site, y: Site
) -> KreinDecomposition:
    """Compute the 2x2 coupling matrix of the resolvent identity at (x, y).

    ``diagonal`` is the sample's row on ``box`` (``lam * V``, shifted or not) and
    ``profile`` is ``V``.  The full entries ``lam * V`` at the two sites are removed
    from the row before inverting; the reconstruction identity is the arbiter of
    this convention.
    """
    if lam <= 0:
        raise ConfigError(f"disorder strength must be positive, got {lam}")
    pair = [box.index_of(x), box.index_of(y)]
    reduced = np.array(diagonal, dtype=float)
    reduced[pair] -= lam * profile[pair]
    block = green_blocks(box, reduced[None], z, x, y)[0]
    if np.isnan(block).any():
        raise ResolventError("resolvent solve could not be certified")
    if np.linalg.cond(block) > CONDITION_LIMIT:
        raise ResolventError("reduced Green block is numerically singular")
    m = -np.linalg.inv(block) / lam
    im_m = (m - m.conj().T) / 2j
    if np.min(np.linalg.eigvalsh(im_m)) <= 0.0:
        raise ResolventError("imaginary part of the coupling matrix is not positive definite")
    return KreinDecomposition(m_matrix=m, lam=lam, potential_values=tuple(float(v) for v in profile[pair]))


def chain_eigenvalues(diagonal: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 1d chain with the given diagonal (O(n^2) tridiagonal path).

    ``scipy.linalg`` is imported here, at its one use, so a process that solves
    no chain never loads it (``require_eigenvalues`` loads it before a run forks).
    """
    import scipy.linalg

    diagonal = np.asarray(diagonal, dtype=float)
    off = -np.ones(diagonal.size - 1)
    return scipy.linalg.eigh_tridiagonal(diagonal, off, eigvals_only=True)


def require_eigenvalues(box: Box) -> None:
    """Refuse a box whose ``eigenvalues`` are dense (every box past d=1) past the cap.

    A d=1 box loads ``scipy.linalg`` here, in the caller: a forked run's workers
    inherit it, and its OpenBLAS copy pinned by ``run_parallel``, instead of
    each importing it with an unpinned OpenBLAS.
    """
    if box.dimension == 1:
        import scipy.linalg  # noqa: F401
    require_dense(box.size if box.dimension > 1 else 0)


def eigenvalues(box: Box, diagonals: np.ndarray) -> np.ndarray:
    """Each row's ascending eigenvalues: ``chain_eigenvalues`` per row in d=1, else ``eigvalsh``."""
    if box.dimension == 1:
        return np.stack([chain_eigenvalues(d) for d in diagonals])
    return np.linalg.eigvalsh(hamiltonian_stack(base_matrix(box), diagonals))


@np.errstate(all="ignore")  # a non-finite row or pivot is flagged, not warned about
def interval_counts(box: Box, diagonals: np.ndarray, intervals) -> tuple:
    """Counts of each ``hamiltonian_stack`` member's eigvalsh eigenvalues in closed intervals.

    Returns counts and flags, one row per row of ``diagonals``, one column per interval;
    a flag marks a count taken from ``eigvalsh``.  The Hamiltonians are ``base_matrix(box)``
    plus each row of ``diagonals``, built dense only for a recount.
    ``#{mu <= x}`` is the negative pivots of the red-black LDL^T of ``H - x -+ delta``,
    ``delta = COUNT_SHIFT (1 + |H|_inf + |x|)``: certified if both agree and the growth
    keeps the backward error, plus eigvalsh's, under ``delta / 2`` (Weyl); else the row
    falls back to ``eigvalsh`` (NaN if non-finite).  When ``eigvalsh`` is the cheaper
    count (many endpoints, mostly at d=3), every finite row is counted by it.
    """
    lo, hi = np.asarray(intervals, dtype=float).reshape(-1, 2).T
    ends, where = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    ia, ib = where.reshape(2, -1)
    plan, n = _elimination_plan(box.dimension, box.side), box.size
    if _counts_by_kernel(plan, n, ends.size):
        scale = 1.0 + np.max(np.abs(diagonals) + plan.degree, axis=1)
        delta = COUNT_SHIFT * (scale[:, None] + np.abs(ends))
        shifts = ends[:, None] + np.array([-1.0, 1.0]) * delta[:, :, None]
        negative, growth = _red_black_inertia(plan, diagonals.T, shifts.reshape(len(diagonals), -1))
        # the factors are exact for H - y + E, |E|_2 <= plan.bound eps growth
        eps = np.finfo(float).eps
        cap = (delta / 2 - EIGVALSH_ERROR * n * n * eps * scale[:, None])[..., None] / (plan.bound * eps)
        negative, growth = negative.reshape(shifts.shape), growth.reshape(shifts.shape)
        certain = (negative[..., 0] == negative[..., 1]) & np.all(growth <= cap, axis=2)
        counts = np.maximum(negative[:, ib, 0] - negative[:, ia, 0], 0.0)
        fallback = ~(certain[:, ia] & certain[:, ib])
    else:
        counts, fallback = np.zeros((len(diagonals), lo.size)), np.ones((len(diagonals), lo.size), dtype=bool)
    redo = np.nonzero(np.any(fallback, axis=1))[0]
    counts[redo] = np.nan
    if (redo := redo[np.all(np.isfinite(diagonals[redo]), axis=1)]).size:
        base = base_matrix(box)
        # in stacks of at most STACK_ENTRIES, so a chunk that falls back whole stays small
        for rows in np.array_split(redo, -(-redo.size * n * n // STACK_ENTRIES)):
            spectra = np.linalg.eigvalsh(hamiltonian_stack(base, diagonals[rows]))[:, :, None]
            counts[rows] = np.sum((spectra >= lo) & (spectra <= hi), axis=1)
    return counts, fallback


def count_footprint(box: Box, intervals) -> int:
    """Floats ``interval_counts`` holds per sample of ``box`` for these intervals.

    On the kernel's side: its lanes times the Schur complement's entries and the
    two windows of the widest front; on eigvalsh's: the ``n x n`` matrix.
    """
    n_ends = np.unique(np.asarray(intervals, dtype=float)).size
    plan = _elimination_plan(box.dimension, box.side)
    if _counts_by_kernel(plan, box.size, n_ends):
        return 2 * n_ends * (plan.sums.shape[1] + 1 + 2 * max(plan.fronts, default=0) ** 2)
    return box.size**2


def _counts_by_kernel(plan: "_EliminationPlan", n: int, n_ends: int) -> bool:
    """Per sample, the kernel's lanes times window entries against eigvalsh's cost."""
    return 2 * n_ends * plan.work <= _EIGVALSH_COST * n**2.5


# eigvalsh's time per matrix over n**2.5, in units of the inertia kernel's time per lane
# and window entry: 1.1-2.6 for 3 <= n <= 2197 on one core (eigvalsh nears its n**3
# asymptote only at the dense cap), so the count takes the side this model finds cheaper
_EIGVALSH_COST = 2.0


@dataclass(frozen=True)
class _EliminationPlan:
    """The elimination order of one box's Hamiltonian, a pure function of the box.

    Red sites (even coordinate sum) are mutually uncoupled and go first, in one
    step.  The black Schur complement ``S = D_b - C D_r^-1 C^T`` couples black sites
    that share a red neighbour; black sites are ordered by coordinate sum, then
    lexicographically, and factored in an envelope whose window at step ``k`` is
    black positions ``k .. k + fronts[k] - 1``; only a window's lower triangle is
    kept, updated in the row blocks ``rows[k]``.  ``S`` is held as an array of
    entries: the ``B`` diagonal ones, then the off-diagonal ones, then a zero.  Entry
    ``e`` subtracts ``1 / d_r`` at the red slots ``sums[:, e]`` (the slot ``R`` reads
    0); diagonal entries also at ``extra``.  ``fills[k]`` names the entries entering
    the window at step ``k``: one row per new position, one column per window position.

    ``bound`` is the backward-error constant: the computed factors are exact for
    ``H - y + E`` with ``|E|_2 <= bound eps growth``.  An entry of the permuted
    matrix takes at most ``2d`` red and ``F - 1`` black updates (``F`` the widest
    front), so ``|E_ij| <= gamma_(2d+F+2) (2d + F) growth``: unpivoted LU (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 9-10), one rounding more
    for ``l = c / d`` and one for the shifted diagonal.  A row of ``E`` has at most
    ``2d + 2F - 1`` entries, and ``gamma_m < 0.51 m eps`` for the ``m`` here, so
    ``(2d + F) gamma_(2d+F+2) < (2d + F + 1)**2 eps``, with room for ``|fl(c/d)| d``.
    """

    red: np.ndarray
    black: np.ndarray
    degree: np.ndarray
    sums: np.ndarray
    extra: np.ndarray
    fronts: tuple
    fills: tuple
    rows: tuple
    bound: int
    work: int  # window entries a lane updates: sum of fronts**2


@lru_cache(maxsize=16)
def _elimination_plan(dimension: int, side: int) -> _EliminationPlan:
    """The box's plan, built at its first count; the last 16 boxes' plans are kept."""
    n = side**dimension
    offsets = np.indices((side,) * dimension).reshape(dimension, n).T
    strides = side ** np.arange(dimension - 1, -1, -1)
    neighbours = np.full((n, 2 * dimension), -1)
    for axis in range(dimension):
        for column, step in enumerate((-1, 1), start=2 * axis):
            inside = (offsets[:, axis] + step >= 0) & (offsets[:, axis] + step < side)
            neighbours[inside, column] = np.arange(n)[inside] + step * strides[axis]
    level = offsets.sum(axis=1)
    red = np.flatnonzero(level % 2 == 0)
    black = np.flatnonzero(level % 2 == 1)
    black = black[np.argsort(level[black], kind="stable")]
    R, B = red.size, black.size
    slot = np.full(n + 1, R)  # a red site's row of 1 / d_r; index -1 (no neighbour) reads the zero
    slot[red] = np.arange(R)
    position = np.zeros(n, dtype=np.int64)
    position[black] = np.arange(B)
    # off-diagonal entries of S: black pairs with a common red neighbour, at most 2 of them
    pairs = []
    around = neighbours[red]
    for a in range(2 * dimension):
        for c in range(a + 1, 2 * dimension):
            both = np.flatnonzero((around[:, a] >= 0) & (around[:, c] >= 0))
            p, q = position[around[both, a]], position[around[both, c]]
            pairs.append(np.stack([np.minimum(p, q) * B + np.maximum(p, q), both]))
    key, via = np.concatenate(pairs, axis=1)
    order = np.argsort(key, kind="stable")
    key, via = key[order], via[order]
    keys, start, count = np.unique(key, return_index=True, return_counts=True)
    second = np.where(count > 1, via[np.minimum(start + 1, key.size - 1)], R)
    diagonal = slot[neighbours[black]].T
    sums = np.concatenate([diagonal[:2], np.stack([via[start], second])], axis=1)
    # the envelope: the first position coupled to each black position, and each step's window
    rows, cols = np.divmod(keys, max(B, 1))
    first = np.arange(B)
    np.minimum.at(first, cols, rows)
    last = np.full(B, -1)
    np.maximum.at(last, first, np.arange(B))
    last = np.maximum.accumulate(last)
    fronts = last - np.arange(B) + 1
    entry = np.concatenate([np.arange(B) * (B + 1), keys])
    order = np.argsort(entry)
    fills, previous = [], -1
    for k in range(B):
        new = np.arange(previous + 1, last[k] + 1)
        if new.size:
            window = np.arange(k, last[k] + 1)
            wanted = (np.minimum.outer(new, window) * B + np.maximum.outer(new, window)).ravel()
            at = np.minimum(np.searchsorted(entry, wanted, sorter=order), entry.size - 1)
            found = entry[order[at]] == wanted
            fills.append(np.where(found, order[at], entry.size).reshape(new.size, window.size))
        else:
            fills.append(None)
        previous = last[k]
    widest = int(fronts.max(initial=1))
    # an update covers rows a..b-1 of the lower triangle and columns up to b - 1, in
    # blocks of about equal area, f // 2 of them (2-5% faster than f // 5 at d = 2, 3)
    rows = []
    for f in fronts - 1:
        blocks = max(1, f // 2)
        cuts = [round(f * (i / blocks) ** 0.5) for i in range(blocks + 1)]
        rows.append(tuple((a, b) for a, b in zip(cuts, cuts[1:]) if b > a))
    # the kernel gathers with mode="clip", which reads a stray index as the last (zero or
    # real) row without an error; so a plan whose indices leave their arrays is refused here
    gathers = [(sums, R), (diagonal, R)] + [(fill, entry.size) for fill in fills if fill is not None]
    if any(index.size and (index.min() < 0 or index.max() > top) for index, top in gathers):
        raise AssertionError("elimination plan indexes past its arrays; the plan bookkeeping is wrong")
    return _EliminationPlan(
        red=red,
        black=black,
        degree=np.count_nonzero(neighbours >= 0, axis=1),
        sums=sums,
        extra=diagonal[2:],
        fronts=tuple(int(f) for f in fronts),
        fills=tuple(fills),
        rows=tuple(rows),
        bound=(2 * dimension + 2 * widest - 1) * (2 * dimension + widest + 1) ** 2,
        work=int(np.sum(fronts**2)),
    )


@np.errstate(all="ignore")
def _red_black_inertia(plan: _EliminationPlan, diagonals: np.ndarray, shifts: np.ndarray) -> tuple:
    """Negative pivots and growth ``max c^2 / |d|`` (non-finite past a zero pivot) of LDL^T.

    With ``s`` shifts per column of ``diagonals`` (``shifts`` has one row per
    column), lane ``l = i s + j`` factors the box's Hamiltonian with diagonal
    ``diagonals[:, i] - shifts[i, j]``, formed one colour at a time; unpivoted,
    red sites first (their couplings are the hopping -1, so each red pivot's
    growth is ``max(|d|, 1/|d|)``), then the black Schur complement frontally.
    """
    lanes = diagonals.shape[1] * shifts.shape[1]
    blacks = plan.black.size
    # the red pivots in place, then their reciprocals; the last slot stays 0
    inverse = np.zeros((plan.red.size + 1, lanes))
    pivots = inverse[:-1]
    np.subtract(diagonals[plan.red][:, :, None], shifts, out=pivots.reshape(-1, *shifts.shape))
    negative = np.count_nonzero(pivots < 0, axis=0)
    extremes = [np.max(pivots, axis=0), -np.min(pivots, axis=0)]
    np.divide(1.0, pivots, out=pivots)
    growth = np.max(extremes + [np.max(pivots, axis=0), -np.min(pivots, axis=0)], axis=0)
    if not blacks:
        return negative, growth
    schur = np.zeros((plan.sums.shape[1] + 1, lanes))
    np.subtract(diagonals[plan.black][:, :, None], shifts, out=schur[:blacks].reshape(-1, *shifts.shape))
    entries = schur.shape[0] - 1
    gathered = np.empty((min(64, entries), lanes))
    for start in range(0, entries, 64):  # in slabs of 64 entries, so the gathers stay small
        for columns, stop in ((plan.sums, entries), (plan.extra, blacks)):
            slab = slice(start, min(start + 64, stop))
            part = gathered[: max(0, slab.stop - start)]
            for column in columns:
                np.take(inverse, column[slab], axis=0, out=part, mode="clip")
                np.subtract(schur[slab], part, out=schur[slab])
    del pivots, inverse, gathered  # spent: freed before the windows are allocated
    widest = max(plan.fronts)
    window, spare = np.empty((2, widest, widest, lanes))
    # pivot k overwrites S's diagonal entry k, which no fill reads after k entered the window
    pivots = schur[:blacks]
    ratio, terms, peak = np.empty((widest, lanes)), np.empty((widest, lanes)), np.zeros((widest, lanes))
    kept = 0
    for k, (f, fill, rows) in enumerate(zip(plan.fronts, plan.fills, plan.rows)):
        if fill is not None:
            np.take(schur, fill, axis=0, out=window[kept:f, :f], mode="clip")
        pivots[k] = window[0, 0]
        column = window[1:f, 0]
        np.divide(column, window[0, 0], out=ratio[: f - 1])
        # the growth terms c_i^2 / d, and c_i l_j off the lower triangle (row blocks)
        np.abs(np.multiply(ratio[: f - 1], column, out=terms[: f - 1]), out=terms[: f - 1])
        np.maximum(peak[: f - 1], terms[: f - 1], out=peak[: f - 1])
        for a, b in rows:
            update = np.multiply(ratio[a:b, None], column[:b], out=spare[a:b, :b])
            np.subtract(window[1 + a : 1 + b, 1 : 1 + b], update, out=update)
        window, spare = spare, window
        kept = f - 1
    negative += np.count_nonzero(pivots < 0, axis=0)
    growth = np.maximum(growth, np.max(np.abs(pivots), axis=0))
    return negative, np.maximum(growth, np.max(peak, axis=0))
