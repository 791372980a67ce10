"""One disorder realization from a caller's generator, written out for tests.

The library draws every coupling through ``estimators.uniforms``; tests that
pin instances to a numpy ``Generator`` draw here instead, by the same rule
as before (uniforms in enumeration order, inverted by the density's
quantile), and assemble through the batched path with a one-row stack.
``reference_quantile`` is the plain bisection that the density's tabulated
quantile must reproduce bit for bit.
"""

import math

import numpy as np

from alloylab.disorder import QUANTILE_TOL
from alloylab.lattice import envelope_box
from alloylab.operator import base_matrix, hamiltonian_diagonals, hamiltonian_stack, potential_profiles


def draw_couplings(density, env, rng):
    """One coupling per site of ``env``, consuming ``env.size`` uniforms of ``rng``."""
    return density.quantile(rng.random(env.size))


def assemble(inner, u, omega, lam, shifted=False):
    """``(H, V)`` on ``inner`` from couplings ``omega`` over its envelope."""
    profile = potential_profiles(inner, u, envelope_box(inner, u.support_radius), omega[None])[0]
    diagonals = hamiltonian_diagonals(inner, shifted, lam, profile[None])
    return hamiltonian_stack(base_matrix(inner), diagonals)[0], profile


def reference_quantile(density, q):
    """The quantile bisection written out: every level calls ``density.cdf``."""
    q = np.asarray(q, dtype=float)
    a, b = density.support
    lo = np.full(q.shape, a)
    hi = np.full(q.shape, b)
    n_iter = max(1, math.ceil(math.log2((b - a) / QUANTILE_TOL)))
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        below = density.cdf(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    mid = 0.5 * (lo + hi)
    return mid if mid.ndim else float(mid)
