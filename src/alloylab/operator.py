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

DENSE_SOLVE_LIMIT = 4096
MIN_IMAG_PART = 1e-14
CONDITION_LIMIT = 1e12


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

    The Laplacian, plus ``2d`` on the diagonal when ``shifted``.
    """
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


def convolution_matrix(box: Box, potential: SingleSitePotential, envelope: Box) -> np.ndarray:
    """Matrix W with ``W[k, j] = u(site_k - site_j)`` for k in box, j in envelope.

    Multiplying a coupling vector over the envelope by W yields the potential
    values on the box.
    """
    if potential.dimension != box.dimension:
        raise ValueError("potential dimension does not match the box")
    w = np.zeros((box.size, envelope.size))
    sites = box.site_array()
    for offset, value in potential.items():
        shifted = sites - np.asarray(offset, dtype=np.int64)
        w[np.arange(box.size), envelope.index_array(shifted)] += value
    return w


def potential_profile(
    box: Box,
    potential: SingleSitePotential,
    couplings: CouplingConfiguration,
) -> np.ndarray:
    """Alloy potential ``V(k) = sum_j omega_j u(k - j)`` on the box."""
    w = convolution_matrix(box, potential, couplings.box)
    return w @ couplings.values


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
