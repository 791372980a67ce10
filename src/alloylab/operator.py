"""Finite-volume Hamiltonians, Green-function blocks, and eigenvalues.

The kinetic term is the negated adjacency matrix of the box (zero diagonal,
free spectrum [-2d, 2d]); an optional flag restores the 2d-shifted
convention.  Boundary condition is plain restriction: hopping to sites
outside the box is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .disorder import CouplingConfiguration, SingleSitePotential
from .lattice import Box, Site, envelope_box
from .transform import periodic_convolution

DENSE_SOLVE_LIMIT = 4096
MIN_IMAG_PART = 1e-14
CONDITION_LIMIT = 1e12
COUNT_SHIFT = 2.0**-20  # a count's endpoint x is factored at x -+ COUNT_SHIFT (1 + |H|_inf + |x|)
EIGVALSH_ERROR = 16.0  # eigvalsh is taken within EIGVALSH_ERROR n^2 eps (1 + |H|_inf) of exact


class ResolventError(RuntimeError):
    """Raised when a resolvent solve cannot be certified."""


class ResourceLimit(ValueError):
    """A box is too large for the dense linear-algebra path."""


def require_dense(n: int) -> None:
    """Refuse an ``n x n`` dense matrix beyond ``DENSE_SOLVE_LIMIT`` rows."""
    if n > DENSE_SOLVE_LIMIT:
        raise ResourceLimit(f"matrix dimension {n} exceeds {DENSE_SOLVE_LIMIT}")


def laplacian_matrix(box: Box) -> np.ndarray:
    """Negated adjacency matrix of the box graph (the kinetic term)."""
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


def base_matrix(box: Box, shifted: bool) -> np.ndarray:
    """The potential-free part of the Hamiltonian on the box.

    The Laplacian, plus ``2d`` on the diagonal when ``shifted``.  Every
    dense Hamiltonian starts here, so this is where the dense cap refuses a
    box (``ResourceLimit``), before anything is sampled.
    """
    require_dense(box.size)
    h = laplacian_matrix(box)
    if shifted:
        idx = np.arange(box.size)
        h[idx, idx] += 2.0 * box.dimension
    return h


def hamiltonian_stack(base: np.ndarray, lam: float, profiles: np.ndarray) -> np.ndarray:
    """One matrix per profile row: ``base`` with ``lam * profile`` added to the diagonal.

    This is the single assembly path; the base comes first so every caller
    adds in the same order and gets the same bits.
    """
    stack = np.repeat(base[None, :, :], profiles.shape[0], axis=0)
    idx = np.arange(base.shape[0])
    stack[:, idx, idx] += lam * profiles
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
        raise ValueError("potential dimension does not match the box")
    reach = potential.support_radius
    start = [b - box.radius - f + field.radius for b, f in zip(box.center, field.center)]
    if any(s < reach or s + box.side + reach > field.side for s in start):
        raise ValueError("the envelope of the box leaves the coupling field")
    lead = couplings.shape[:-1]
    grid = couplings.reshape(lead + (field.side,) * field.dimension)
    grid = periodic_convolution(potential.torus_table(field.side), grid)
    window = tuple(slice(s, s + box.side) for s in start)
    return grid[(...,) + window].reshape(lead + (box.size,))


def potential_profile(
    box: Box,
    potential: SingleSitePotential,
    couplings: CouplingConfiguration,
) -> np.ndarray:
    """Alloy potential ``V(k) = sum_j omega_j u(k - j)`` on the box."""
    return potential_profiles(box, potential, couplings.box, couplings.values[None, :])[0]


@dataclass
class HamiltonianSample:
    """One disorder realization restricted to a box.

    ``matrix`` is assembled symmetrically: exact -1 hopping between nearest
    neighbors inside the box and ``lam * V`` on the diagonal.
    """

    box: Box
    matrix: np.ndarray
    lam: float
    couplings: CouplingConfiguration
    potential_diagonal: np.ndarray
    shifted_laplacian: bool = False
    _eigenvalues: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.box.size


def build_hamiltonian(
    box: Box,
    potential: SingleSitePotential,
    couplings: CouplingConfiguration,
    lam: float,
    shifted_laplacian: bool = False,
) -> HamiltonianSample:
    """Assemble ``-Delta + lam * V`` on the box from a coupling draw.

    The couplings must live on the envelope box of ``box`` for the given
    potential; anything else is a domain mismatch.
    """
    if lam <= 0:
        raise ValueError(f"disorder strength must be positive, got {lam}")
    expected = envelope_box(box, potential.support_radius)
    if couplings.box != expected:
        raise ValueError(
            f"coupling domain mismatch: expected envelope box radius {expected.radius}, "
            f"got center={couplings.box.center} radius={couplings.box.radius}"
        )
    diagonal = potential_profile(box, potential, couplings)
    (h,) = hamiltonian_stack(base_matrix(box, shifted_laplacian), lam, diagonal[None, :])
    return HamiltonianSample(
        box=box,
        matrix=h,
        lam=lam,
        couplings=couplings,
        potential_diagonal=diagonal,
        shifted_laplacian=shifted_laplacian,
    )


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


def _pair_block(matrix: np.ndarray, z: complex, ix: int, iy: int) -> np.ndarray:
    """The certified 2x2 resolvent block of one matrix at indices ``ix``, ``iy``."""
    solutions, certified = resolvent_columns(matrix[None], z, [ix, iy])
    if not certified[0]:
        raise ResolventError("resolvent solve could not be certified")
    return solutions[0][[ix, iy], :]


@dataclass
class GreenBlock:
    """2x2 block of Green-function entries at a site pair.

    ``entries`` is ``[[G(z;x,x), G(z;x,y)], [G(z;y,x), G(z;y,y)]]``.  For
    ``Im z > 0`` the imaginary part is positive definite, so its determinant
    is positive and bounded by ``(Im z)**-2``.
    """

    entries: np.ndarray
    z: complex
    x: Site
    y: Site

    @property
    def det_imaginary(self) -> float:
        g = self.entries.imag
        return float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])


def green_block(sample: HamiltonianSample, z: complex, x: Site, y: Site) -> GreenBlock:
    """Green-function block via two certified resolvent columns."""
    z = complex(z)
    if x == y:
        raise ValueError("green_block needs two distinct sites")
    entries = _pair_block(sample.matrix, z, sample.box.index_of(x), sample.box.index_of(y))
    return GreenBlock(entries=entries, z=z, x=x, y=y)


@dataclass
class KreinDecomposition:
    """Green block factored through the operator with the potential removed at x, y.

    ``m_matrix`` has positive-definite imaginary part for ``Im z > 0`` and
    does not depend on the potential values at ``x`` and ``y``; the block
    ``(1/lam) * inv(diag(V(x), V(y)) - M)`` reproduces the Green block.
    """

    m_matrix: np.ndarray
    reduced_block: np.ndarray
    z: complex
    x: Site
    y: Site
    lam: float
    potential_values: tuple[float, float]

    def reconstructed_block(self) -> np.ndarray:
        diag = np.diag(np.asarray(self.potential_values, dtype=complex))
        return np.linalg.inv(diag - self.m_matrix) / self.lam


def krein_decomposition(sample: HamiltonianSample, z: complex, x: Site, y: Site) -> KreinDecomposition:
    """Compute the 2x2 coupling matrix of the resolvent identity at (x, y).

    The full diagonal entries ``lam * V`` at the two sites are removed before
    inverting; the reconstruction identity is the arbiter of this convention.
    """
    z = complex(z)
    if x == y:
        raise ValueError("krein_decomposition needs two distinct sites")
    ix, iy = sample.box.index_of(x), sample.box.index_of(y)
    reduced = sample.matrix.copy()
    reduced[ix, ix] -= sample.lam * sample.potential_diagonal[ix]
    reduced[iy, iy] -= sample.lam * sample.potential_diagonal[iy]
    block = _pair_block(reduced, z, ix, iy)
    if np.linalg.cond(block) > CONDITION_LIMIT:
        raise ResolventError("reduced Green block is numerically singular")
    m = -np.linalg.inv(block) / sample.lam
    im_m = (m - m.conj().T) / 2j
    if np.min(np.linalg.eigvalsh(im_m)) <= 0.0:
        raise ResolventError("imaginary part of the coupling matrix is not positive definite")
    return KreinDecomposition(
        m_matrix=m,
        reduced_block=block,
        z=z,
        x=x,
        y=y,
        lam=sample.lam,
        potential_values=(
            float(sample.potential_diagonal[ix]),
            float(sample.potential_diagonal[iy]),
        ),
    )


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def eigenvalues(sample: HamiltonianSample) -> np.ndarray:
    """All eigenvalues in ascending order, with multiplicity.

    Results are cached on the sample; the trace identity is verified as a
    backward-stability guard.
    """
    if sample._eigenvalues is None:
        vals = np.linalg.eigvalsh(sample.matrix)
        scale = 1.0 + np.max(np.abs(sample.matrix))
        if abs(vals.sum() - np.trace(sample.matrix)) > 1e-9 * scale * sample.size:
            raise RuntimeError("eigenvalue sum deviates from the trace")
        sample._eigenvalues = vals
    return sample._eigenvalues


def chain_eigenvalues(diagonal: np.ndarray, shifted: bool = False) -> np.ndarray:
    """Eigenvalues of a 1d chain with the given diagonal (O(n^2) tridiagonal path)."""
    diagonal = np.asarray(diagonal, dtype=float)
    if shifted:
        diagonal = diagonal + 2.0
    if diagonal.size == 1:
        return diagonal.copy()
    off = -np.ones(diagonal.size - 1)
    return scipy.linalg.eigh_tridiagonal(diagonal, off, eigvals_only=True)


@np.errstate(all="ignore")  # a non-finite row or pivot is flagged, not warned about
def interval_counts(base: np.ndarray, lam: float, profiles: np.ndarray, intervals) -> tuple:
    """Counts of each ``hamiltonian_stack`` member's eigvalsh eigenvalues in closed intervals.

    Returns counts and fallback flags, one row per profile, one column per interval.
    ``#{mu <= x}`` is the negative pivots of LDL^T of ``H - x -+ delta``, ``delta =
    COUNT_SHIFT (1 + |H|_inf + |x|)``: certified if both agree and the growth keeps the
    backward error, plus eigvalsh's, under ``delta / 2`` (Weyl); else the row falls back
    to ``eigvalsh`` (NaN if non-finite).
    """
    lo, hi = np.asarray(intervals, dtype=float).reshape(-1, 2).T
    ends, where = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    ia, ib = where.reshape(2, -1)
    band, n = int(np.max(np.ptp(np.nonzero(base), axis=0), initial=0)), base.shape[0]
    h = np.diagonal(base) + lam * profiles
    scale = 1.0 + np.max(np.abs(h) + np.abs(base).sum(1) - np.abs(np.diagonal(base)), axis=1)
    delta = COUNT_SHIFT * (scale[:, None] + np.abs(ends))
    shifts = ends[:, None] + np.array([-1.0, 1.0]) * delta[:, :, None]
    negative, growth = _band_inertia(base, band, (h.T[:, :, None, None] - shifts).reshape(n, -1))
    # LDL^T is exact for H - y + E, |E|_2 <= 2 (2b + 1) (b + 1)^2 eps growth
    eps, bound = np.finfo(float).eps, 2 * (2 * band + 1) * (band + 1) ** 2
    cap = (delta / 2 - EIGVALSH_ERROR * n * n * eps * scale[:, None])[..., None] / (bound * eps)
    negative, growth = negative.reshape(shifts.shape), growth.reshape(shifts.shape)
    certain = (negative[..., 0] == negative[..., 1]) & np.all(growth <= cap, axis=2)
    counts = np.maximum(negative[:, ib, 0] - negative[:, ia, 0], 0.0)
    fallback = ~(certain[:, ia] & certain[:, ib])
    redo = np.nonzero(np.any(fallback, axis=1))[0]
    counts[redo] = np.nan
    if (redo := redo[np.all(np.isfinite(h[redo]), axis=1)]).size:
        spectra = np.linalg.eigvalsh(hamiltonian_stack(base, lam, profiles[redo]))[:, :, None]
        counts[redo] = np.sum((spectra >= lo) & (spectra <= hi), axis=1)
    return counts, fallback


@np.errstate(all="ignore")
def _band_inertia(base: np.ndarray, band: int, diagonals: np.ndarray) -> tuple:
    """Negative pivots and growth ``max c^2 / |d|`` (NaN past a zero pivot) of banded LDL^T.

    Lane ``l`` factors ``base`` with diagonal ``diagonals[:, l]``, unpivoted: index
    ``k`` of the Schur complement lives in slot ``k % (band + 1)`` of a window.
    """
    (n, lanes), w = diagonals.shape, band + 1
    window, outer = np.zeros((2, w, w, lanes))
    window[:] = base[:w, :w, None]
    window[np.arange(w), np.arange(w)] = diagonals[:w]
    negative, growth = np.zeros(lanes, dtype=np.int64), np.zeros(lanes)
    for k in range(n):
        p, j = k % w, k + w
        negative += window[p, p] < 0
        np.multiply(window[p][:, None], window[p] / window[p, p], out=outer)
        np.maximum(growth, np.max(np.abs(np.diagonal(outer)), axis=1), out=growth)
        window -= outer
        window[p, :] = window[:, p] = base[j, k + (np.arange(w) - p) % w, None] if j < n else 0.0
        window[p, p] = diagonals[j] if j < n else 1.0
    return negative, growth


def count_in_window(values: np.ndarray, interval: tuple[float, float]) -> int:
    """Number of sorted values in the closed interval."""
    a, b = interval
    if a > b:
        raise ValueError(f"empty interval [{a}, {b}]")
    lo = np.searchsorted(values, a, side="left")
    hi = np.searchsorted(values, b, side="right")
    return int(hi - lo)


def count_in_interval(sample: HamiltonianSample, interval: tuple[float, float]) -> int:
    """Eigenvalue count of the sample in a closed interval."""
    return count_in_window(eigenvalues(sample), interval)
