"""Slow dense and banded references the library's fast paths are checked against.

Dense ``N x N`` views of a circulant transform, rebuilt from its torus tables:
the library never forms these matrices; tests use them as the slow reference
on small envelopes.  Entry ``(i, j)`` is the table at ``(site_i - site_j) mod
side``, sites in the envelope's enumeration order.

``band_inertia`` is the lexicographic banded LDL^T that counted eigenvalues
before the red-black elimination, kept as the oracle of ``_red_black_inertia``.

``fourier`` and ``mean_value`` are the symbol of a single-site potential written
out as the exponential sum, the explicit reference for the library's one symbol,
``fftn`` of ``SingleSitePotential.torus_table``.
"""

import numpy as np


def _dense(envelope, grid: np.ndarray) -> np.ndarray:
    sites = envelope.site_array()
    offsets = (sites[:, None, :] - sites[None, :, :]) % envelope.side
    return grid[tuple(np.moveaxis(offsets, -1, 0))]


def transform_matrix(transform) -> np.ndarray:
    """The transform ``u(fold(i - j))`` as a dense matrix."""
    return _dense(transform.envelope, transform.table)


def transform_inverse(transform) -> np.ndarray:
    """The inverse transform (the reciprocal-symbol kernel) as a dense matrix."""
    return _dense(transform.envelope, transform.kernel)


@np.errstate(all="ignore")
def band_inertia(base: np.ndarray, band: int, diagonals: np.ndarray) -> tuple:
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


def fourier(potential, theta):
    """Fourier transform ``sum_k u(k) exp(i k . theta)`` of a ``SingleSitePotential``.

    ``theta`` is a point in ``[0, 2 pi)^d`` or an array of such points
    with the coordinate axis last (a bare scalar is accepted for d=1).
    """
    theta = np.asarray(theta, dtype=float)
    scalar_1d = potential.dimension == 1 and theta.ndim == 0
    if scalar_1d:
        theta = theta.reshape(1)
    if theta.shape[-1] != potential.dimension:
        raise ValueError(f"theta must have {potential.dimension} coordinates on the last axis")
    out = np.zeros(theta.shape[:-1], dtype=complex)
    for site, v in potential.items():
        out = out + v * np.exp(1j * (theta @ np.asarray(site, dtype=float)))
    return complex(out) if (scalar_1d or out.ndim == 0) else out


def mean_value(potential) -> float:
    """``sum_k u(k)``, the symbol at ``theta = 0``."""
    return sum(v for _, v in potential.items())
