"""One disorder realization from a caller's generator, written out for tests.

The library draws every coupling through ``estimators.uniforms``; tests that
pin instances to a numpy ``Generator`` draw here instead, by the same rule
as before (uniforms in enumeration order, inverted by the density's
quantile), and assemble through the batched path with a one-row stack.
"""

from alloylab.lattice import envelope_box
from alloylab.operator import base_matrix, hamiltonian_stack, potential_profiles


def draw_couplings(density, env, rng):
    """One coupling per site of ``env``, consuming ``env.size`` uniforms of ``rng``."""
    return density.quantile(rng.random(env.size))


def assemble(inner, u, omega, lam, shifted=False):
    """``(H, V)`` on ``inner`` from couplings ``omega`` over its envelope."""
    profile = potential_profiles(inner, u, envelope_box(inner, u.support_radius), omega[None])[0]
    return hamiltonian_stack(base_matrix(inner, shifted), lam, profile[None])[0], profile
