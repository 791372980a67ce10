"""Periodized convolution transform of the coupling space and bound constants.

The transform maps coupling vectors on the envelope box to potential values:
its matrix has entries ``u(fold(i - j))`` and is a multi-dimensional
circulant, so its inverse is the circulant of the reciprocal-symbol
coefficients ``ifftn(1 / fftn(u))``.  The l1 norm of the inverse feeds the
determinant-bound constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderDensity, SingleSitePotential
from .lattice import Box, ConfigError, Site, envelope_box

LIMIT_GRID_POINTS = 2**22  # the largest Fourier grid ``limit_inverse_one_norm`` tries


class TransformError(RuntimeError):
    """Raised when the periodized transform is singular at this volume."""


@dataclass
class CirculantTransform:
    """Invertible change of coordinates between couplings and potential values.

    ``table`` holds ``u`` and ``kernel`` the coefficients of the inverse on the
    envelope torus, offset ``o`` at index ``o mod side``.  ``inverse_one_norm``
    is the induced l1 -> l1 norm of the inverse, the absolute sum of the
    kernel (for a circulant the row and column conventions coincide).
    """

    box: Box
    envelope: Box
    table: np.ndarray
    kernel: np.ndarray
    inverse_one_norm: float
    condition_number: float

    @property
    def size(self) -> int:
        return self.envelope.size

    def inverse_column(self, site: Site) -> np.ndarray:
        """Column ``site`` of the inverse, enumeration order: the kernel rolled onto ``site``."""
        shift = [c + self.envelope.radius for c in site]
        return np.roll(self.kernel, shift, axis=tuple(range(self.kernel.ndim))).ravel()


def periodic_convolution(
    table: np.ndarray, grid: np.ndarray, minus_delta: bool = False
) -> np.ndarray:
    """Periodic convolution ``sum_o u(o) grid(. - o)`` in O(|supp u| N), less δ if asked.

    The one convolution by ``u`` of the package.  It acts on the last
    ``table.ndim`` axes of ``grid``; leading axes are a batch whose rows are
    computed independently, so a row has the same bits in any batch.
    """
    axes = tuple(range(grid.ndim - table.ndim, grid.ndim))
    out = np.zeros_like(grid)
    out[(...,) + (0,) * table.ndim] = -1.0 if minus_delta else 0.0
    for index in zip(*np.nonzero(table)):
        out += table[index] * np.roll(grid, index, axis=axes)
    return out


def _reciprocal_kernel(
    potential: SingleSitePotential, side: int, floor: float
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """``(table, kernel, |symbol|)``: ``u`` and its inverse convolution on the d-torus.

    Offset ``o`` sits at index ``o mod side``.  ``kernel`` is None when the
    symbol is singular (``min |symbol| <= floor * max(1, |u|_1)``).  One step
    of iterative refinement, then zeroing roundoff-level coefficients, makes
    finitely supported inverses (a pure delta) come out exact.
    """
    table = potential.torus_table(side)
    symbol = np.fft.fftn(table)
    modulus = np.abs(symbol)
    if np.min(modulus) <= floor * max(1.0, potential.l1_norm):
        return table, None, modulus
    kernel = np.fft.ifftn(1.0 / symbol).real
    kernel -= np.fft.ifftn(np.fft.fftn(periodic_convolution(table, kernel, True)) / symbol).real
    kernel[np.abs(kernel) <= np.finfo(float).eps * np.max(np.abs(kernel))] = 0.0
    return table, kernel, modulus


def build_circulant(potential: SingleSitePotential, lambda_box: Box) -> CirculantTransform:
    """Invert the periodized convolution over the envelope by FFT.

    Fails with the offending discrete frequency when the Fourier transform of
    the profile vanishes on the torus frequencies of this volume (the matrix
    is singular exactly then).  The inverse is certified by convolving it
    with ``u`` and comparing with the identity.
    """
    if any(c != 0 for c in lambda_box.center):
        raise ConfigError("transform construction assumes an origin-centered box")
    if potential.dimension != lambda_box.dimension:
        raise ConfigError("potential dimension does not match the box")
    env = envelope_box(lambda_box, potential.support_radius)
    table, kernel, modulus = _reciprocal_kernel(potential, env.side, 1e-12)
    if kernel is None:
        freq = np.unravel_index(int(np.argmin(modulus)), modulus.shape)
        raise TransformError(
            "assumption violated at this volume: transform singular at discrete "
            f"frequency 2*pi*{tuple(int(f) for f in freq)}/{env.side}"
        )
    identity_defect = float(np.max(np.abs(periodic_convolution(table, kernel, minus_delta=True))))
    if identity_defect > 1e-10:
        raise TransformError(f"inverse verification failed (defect {identity_defect:.3e})")

    one_norm = float(np.sum(np.abs(kernel)))
    return CirculantTransform(
        box=lambda_box,
        envelope=env,
        table=table,
        kernel=kernel,
        inverse_one_norm=one_norm,
        condition_number=potential.l1_norm * one_norm,
    )


# ---------------------------------------------------------------------------
# l1 norm of the infinite inverse
# ---------------------------------------------------------------------------

def limit_inverse_one_norm(
    potential: SingleSitePotential,
    tolerance: float = 1e-8,
) -> float:
    """Certified upper bound on the l1 norm of the infinite inverse convolution.

    The Fourier coefficients of the reciprocal symbol are recovered on
    doubling grids; their absolute sum converges from below and the
    geometric tail (fitted on max-norm shells) is added twice to cover both
    the missing coefficients and the aliasing they induce.  If no grid of
    at most ``LIMIT_GRID_POINTS`` points converges, it raises ``TransformError``.
    """
    if not 0 < tolerance < math.inf:
        raise ConfigError(f"tolerance must be positive and finite, got {tolerance}")
    d = potential.dimension
    resolution = 32
    while resolution < 4 * (2 * potential.support_radius + 1):
        resolution *= 2
    min_seen = math.inf
    while resolution**d <= LIMIT_GRID_POINTS:
        _, kernel, modulus = _reciprocal_kernel(potential, resolution, 1e-13)
        min_seen = min(min_seen, float(np.min(modulus)))
        if kernel is None:
            break
        coeffs = np.abs(kernel)
        total = float(np.sum(coeffs))

        # max-norm shell sums around offset zero
        axis = np.minimum(np.arange(resolution), resolution - np.arange(resolution))
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        radius = np.maximum.reduce(mesh) if d > 1 else mesh[0]
        half = resolution // 2
        shell_sums = np.bincount(radius.ravel(), weights=coeffs.ravel(), minlength=half + 1)

        tail = _geometric_tail(shell_sums, total)
        if tail is not None and tail < tolerance:
            return total + 2.0 * tail
        resolution *= 2
    raise TransformError(
        "reciprocal-symbol coefficients did not converge; smallest |Fourier transform| "
        f"observed was {min_seen:.3e}"
    )


def _geometric_tail(shell_sums: np.ndarray, total: float) -> float | None:
    """Extrapolated l1 mass beyond the last shell, or None if no decay fit."""
    half = len(shell_sums) - 1
    floor = 1e-17 * max(total, 1.0)
    if np.all(shell_sums[1:] <= floor):
        return 0.0  # finitely supported reciprocal (e.g. a pure delta)
    lo, hi = max(1, half // 4), half
    radii = np.arange(lo, hi + 1)
    values = shell_sums[lo : hi + 1]
    good = values > floor
    if np.count_nonzero(good) < 4:
        return None
    slope, intercept = np.polyfit(radii[good], np.log(values[good]), 1)
    ratio = math.exp(slope)
    if ratio >= 0.999:
        return None
    predicted_last = math.exp(intercept + slope * half)
    anchor = max(predicted_last, float(shell_sums[hi]))
    return anchor * ratio / (1.0 - ratio)


# ---------------------------------------------------------------------------
# determinant-bound constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinamiConstants:
    """Constants entering the two-eigenvalue determinant bound.

    ``base_constant`` is ``(inverse_norm**2 / 4) * max(d1**2, d2)`` with the
    certified finite-volume inverse norm; ``determinant_bound`` multiplies it
    by ``(pi / lam)**2``.  ``site_resolved_bound`` is the sharper
    column-resolved sum for the requested site pair and never exceeds the
    determinant bound.
    """

    inverse_norm: float
    rho_d1_norm: float
    rho_d2_norm: float
    lam: float
    site_resolved_bound: float
    x: Site
    y: Site

    @property
    def base_constant(self) -> float:
        return (self.inverse_norm**2 / 4.0) * max(self.rho_d1_norm**2, self.rho_d2_norm)

    @property
    def determinant_bound(self) -> float:
        return (math.pi / self.lam) ** 2 * self.base_constant


def minami_constants(
    transform: CirculantTransform,
    density: DisorderDensity,
    lam: float,
    x: Site,
    y: Site,
) -> MinamiConstants:
    """Evaluate both forms of the determinant bound for a site pair."""
    if not 0 < lam < math.inf:
        raise ConfigError(f"disorder strength must be positive and finite, got {lam!r}")
    if x == y:
        raise ConfigError("the bound concerns two distinct sites")
    if not (transform.box.contains(x) and transform.box.contains(y)):
        raise ConfigError("both sites must lie in the inner box")
    col_x = np.abs(transform.inverse_column(x))
    col_y = np.abs(transform.inverse_column(y))
    d1, d2 = density.d1_norm, density.d2_norm
    cross = col_x.sum() - col_x  # sum over l != j of |B_{l x}|
    core = float(np.sum(col_y * (d2 * col_x + d1**2 * cross)))
    try:
        site_resolved = (math.pi**2 / (4.0 * lam**2)) * core
        constants = MinamiConstants(
            inverse_norm=transform.inverse_one_norm,
            rho_d1_norm=d1,
            rho_d2_norm=d2,
            lam=lam,
            site_resolved_bound=site_resolved,
            x=tuple(x),
            y=tuple(y),
        )
        norm_bound = constants.determinant_bound
    except (OverflowError, ZeroDivisionError):  # lam**2 or (pi / lam)**2 leaves the floats
        raise ConfigError(f"disorder strength {lam!r} is out of range for the bound") from None
    if site_resolved > norm_bound * (1.0 + 1e-12):
        raise AssertionError(
            "site-resolved bound exceeds the norm bound; inverse norm bookkeeping is wrong"
        )
    return constants
