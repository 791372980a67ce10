"""Dense ``N x N`` views of a circulant transform, rebuilt from its torus tables.

The library never forms these matrices; tests use them as the slow reference
on small envelopes.  Entry ``(i, j)`` is the table at ``(site_i - site_j) mod
side``, sites in the envelope's enumeration order.
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
