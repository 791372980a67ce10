"""Numerical laboratory for discrete alloy-type random Schrodinger operators.

Builds finite-volume Hamiltonians with finitely supported (possibly
sign-changing) single-site profiles and smooth coupling densities, computes
the circulant-transform bound constants exactly, and verifies the
determinant, counting, and level-spacing bounds by seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .disorder import (
    DisorderDensity,
    SingleSitePotential,
    bump_density,
    check_assumption,
    raised_cosine_density,
    sobolev_ratio,
)
from .estimators import (
    ExperimentConfig,
    MCEstimate,
    estimate_minami,
    estimate_two_eigenvalue_probability,
    estimate_wegner,
    probe_fractional_moment,
    probe_fvc,
)
from .lattice import Box, box, envelope_box
from .operator import green_blocks, krein_decomposition
from .spectra import empirical_ids, poisson_tests, probe_pos, rescale, rescaled_ensemble
from .transform import build_circulant, limit_inverse_one_norm, minami_constants

__all__ = [
    "Box",
    "DisorderDensity",
    "ExperimentConfig",
    "MCEstimate",
    "SingleSitePotential",
    "box",
    "bump_density",
    "build_circulant",
    "check_assumption",
    "empirical_ids",
    "envelope_box",
    "estimate_minami",
    "estimate_two_eigenvalue_probability",
    "estimate_wegner",
    "green_blocks",
    "krein_decomposition",
    "limit_inverse_one_norm",
    "minami_constants",
    "poisson_tests",
    "probe_fractional_moment",
    "probe_fvc",
    "probe_pos",
    "raised_cosine_density",
    "rescale",
    "rescaled_ensemble",
    "sobolev_ratio",
]
