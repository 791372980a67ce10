"""Equivalence oracle for the shared draw-and-assembly path.

The batched kernels (counts through ``run_parallel``, the eigenvalue kernel
of the IDS and spacing ensembles) must agree, sample by sample, with a
reference built one sample at a time from the public single-sample API:
``sample_stream`` -> ``sample_couplings`` -> ``build_hamiltonian`` ->
``eigenvalues``.
"""

import numpy as np
import pytest

from alloylab.config import nn_signed_potential
from alloylab.disorder import bump_density, sample_couplings
from alloylab.estimators import ExperimentConfig, _batched_counts, run_parallel, sample_stream
from alloylab.lattice import box, envelope_box
from alloylab.operator import (
    base_matrix,
    build_hamiltonian,
    count_in_interval,
    eigenvalues,
    hamiltonian_stack,
    laplacian_matrix,
)
from alloylab.spectra import _eigenvalue_kernel

N_SAMPLES = 10
CASES = [(1, 4), (2, 2)]  # (dimension, box radius)


def shared_config(dimension, radius, shifted):
    shift = 2.0 * dimension if shifted else 0.0
    return ExperimentConfig(
        dimension=dimension,
        box_radius=radius,
        potential=nn_signed_potential(dimension),
        density=bump_density(),
        disorder_strength=2.0,
        interval=(0.5 + shift, 2.0 + shift),
        n_samples=N_SAMPLES,
        seed=17,
        shifted_laplacian=shifted,
    )


def reference_samples(cfg, radius):
    inner = box(radius, cfg.dimension)
    env = envelope_box(inner, cfg.potential.support_radius)
    for index in range(N_SAMPLES):
        couplings = sample_couplings(cfg.density, env, sample_stream(cfg.seed, index))
        yield build_hamiltonian(
            inner, cfg.potential, couplings, cfg.disorder_strength, cfg.shifted_laplacian
        )


@pytest.mark.parametrize("chunk_size", [1, 4])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("dimension, radius", CASES)
def test_counting_kernel_matches_per_sample_reference(dimension, radius, shifted, chunk_size):
    cfg = shared_config(dimension, radius, shifted)
    rows = run_parallel(_batched_counts(cfg), N_SAMPLES, 1, cfg.seed, 1, chunk_size)
    expected = [count_in_interval(s, cfg.interval) for s in reference_samples(cfg, radius)]
    assert rows[:, 0].tolist() == expected
    assert sum(expected) > 0


@pytest.mark.parametrize("chunk_size", [1, 4])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("dimension, radius", CASES)
def test_eigenvalue_kernel_matches_per_sample_reference(dimension, radius, shifted, chunk_size):
    cfg = shared_config(dimension, radius, shifted)
    inner, kernel = _eigenvalue_kernel(cfg, radius)
    rows = run_parallel(kernel, N_SAMPLES, inner.size, cfg.seed, 1, chunk_size)
    expected = np.stack([eigenvalues(s) for s in reference_samples(cfg, radius)])
    np.testing.assert_allclose(rows, expected, rtol=0.0, atol=1e-12)


def test_base_matrix_and_stack_layout():
    b = box(1, 2)
    z = complex(0.5, 0.1)
    idx = np.arange(b.size)
    base = base_matrix(b, True, z)
    expected = laplacian_matrix(b).astype(complex)
    expected[idx, idx] = 4.0 - z
    assert base.dtype == complex
    assert np.array_equal(base, expected)
    profiles = np.arange(2 * b.size, dtype=float).reshape(2, b.size)
    expected = np.stack([base + np.diag(3.0 * profile) for profile in profiles])
    assert np.array_equal(hamiltonian_stack(base, 3.0, profiles), expected)
