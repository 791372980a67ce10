"""Equivalence oracle for the shared draw-and-assembly path.

The batched kernels (certified counts through ``run_parallel``, the eigenvalue kernel
of the IDS and spacing ensembles) must agree, sample by sample, with a
reference built one sample at a time from the public single-sample API:
the sample's generator, written out here -> ``sample_couplings`` ->
``build_hamiltonian`` -> ``eigenvalues``.  The one resolvent solve,
``resolvent_columns``, must agree bit for bit with the columns of the dense
inverse it replaced.
"""

import numpy as np
import pytest

from alloylab.config import nn_signed_potential
from alloylab.disorder import bump_density, sample_couplings
from alloylab.estimators import ExperimentConfig, _batched_counts, run_parallel
from alloylab.lattice import box, envelope_box
from alloylab.operator import (
    base_matrix,
    build_hamiltonian,
    count_in_interval,
    eigenvalues,
    hamiltonian_stack,
    laplacian_matrix,
    resolvent_columns,
)
from alloylab.spectra import _eigenvalue_kernel

N_SAMPLES = 10
CASES = [(1, 4), (2, 2), (3, 1)]  # (dimension, box radius): bandwidths 1, 5 and 9


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
        stream = np.random.SeedSequence(cfg.seed, spawn_key=(index,))
        couplings = sample_couplings(cfg.density, env, np.random.Generator(np.random.PCG64(stream)))
        yield build_hamiltonian(
            inner, cfg.potential, couplings, cfg.disorder_strength, cfg.shifted_laplacian
        )


@pytest.mark.parametrize("chunk_size", [1, 4])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("dimension, radius", CASES)
def test_counting_kernel_matches_per_sample_reference(dimension, radius, shifted, chunk_size):
    cfg = shared_config(dimension, radius, shifted)
    samples = list(reference_samples(cfg, radius))
    # closed intervals: endpoints set exactly to a reference eigenvalue count it
    lo, hi = cfg.interval
    level = next(v for v in eigenvalues(samples[0]) if lo < v < hi)
    intervals = [cfg.interval, (lo, level), (level, level), (level, hi), (hi, hi + 1.0)]
    k = len(intervals)
    rows = run_parallel(_batched_counts(cfg, intervals), N_SAMPLES, 2 * k, 1, chunk_size)
    rows, fallbacks = rows[:, :k], rows[:, k:]
    expected = [[count_in_interval(s, interval) for interval in intervals] for s in samples]
    assert rows.tolist() == expected
    assert rows[0, 2] >= 1
    assert rows[:, 1].sum() + rows[:, 3].sum() - rows[:, 2].sum() == rows[:, 0].sum()
    # an endpoint on an eigenvalue cannot be certified, so sample 0 recounts densely
    assert fallbacks[0, 1:4].tolist() == [1.0, 1.0, 1.0]
    assert set(fallbacks.ravel()) <= {0.0, 1.0}


@pytest.mark.parametrize("chunk_size", [1, 4])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("dimension, radius", CASES)
def test_eigenvalue_kernel_matches_per_sample_reference(dimension, radius, shifted, chunk_size):
    cfg = shared_config(dimension, radius, shifted)
    inner, kernel = _eigenvalue_kernel(cfg, radius)
    rows = run_parallel(kernel, N_SAMPLES, inner.size, 1, chunk_size)
    expected = np.stack([eigenvalues(s) for s in reference_samples(cfg, radius)])
    np.testing.assert_allclose(rows, expected, rtol=0.0, atol=1e-12)


def test_base_matrix_and_stack_layout():
    b = box(1, 2)
    idx = np.arange(b.size)
    base = base_matrix(b, True)
    expected = laplacian_matrix(b)
    expected[idx, idx] = 4.0
    assert base.dtype == float
    assert np.array_equal(base, expected)
    profiles = np.arange(2 * b.size, dtype=float).reshape(2, b.size)
    expected = np.stack([base + np.diag(3.0 * profile) for profile in profiles])
    assert np.array_equal(hamiltonian_stack(base, 3.0, profiles), expected)


def dense_inverse_columns(matrices, z, columns):
    """Reference: the bare inverse of ``H - z`` per member, restricted to ``columns``."""
    shifted = matrices.astype(complex)
    idx = np.arange(matrices.shape[1])
    shifted[:, idx, idx] -= z
    return np.linalg.inv(shifted)[:, :, columns]


# Boxes stay below 100 rows: from there on OpenBLAS solves a lone right-hand
# side by a different kernel, so one column may differ from the inverse's in
# the last bits.
@pytest.mark.parametrize("dimension, radius", [(1, 4), (1, 20), (2, 2), (2, 4)])
def test_resolvent_columns_match_dense_inverse(dimension, radius):
    rng = np.random.default_rng(10 * dimension + radius)
    b = box(radius, dimension)
    matrices = hamiltonian_stack(
        base_matrix(b, False), 3.0, rng.uniform(-1.0, 1.0, size=(16, b.size))
    )
    z = complex(rng.uniform(-2.0, 2.0), 0.05)
    for columns in ([0], [b.size - 1, 0], list(range(0, b.size, 3)), list(range(b.size))):
        solutions, certified = resolvent_columns(matrices, z, columns)
        assert certified.all()
        assert np.array_equal(solutions, dense_inverse_columns(matrices, z, columns))


def test_resolvent_columns_subtract_z_after_the_shift():
    b = box(1, 2)
    z = complex(0.5, 0.1)
    idx = np.arange(b.size)
    expected = laplacian_matrix(b).astype(complex)
    expected[idx, idx] = 4.0 - z
    stack = hamiltonian_stack(base_matrix(b, True), 3.0, np.zeros((2, b.size)))
    solutions, certified = resolvent_columns(stack, z, range(b.size))
    assert certified.all()
    assert np.array_equal(solutions, np.linalg.inv(np.stack([expected, expected])))


def test_resolvent_columns_flag_bad_members_only():
    rng = np.random.default_rng(5)
    b = box(3, 1)
    matrices = hamiltonian_stack(base_matrix(b, False), 2.0, rng.uniform(size=(6, b.size)))
    matrices[2, 0, 0] = np.nan
    matrices[4, 1, 1] = np.inf
    z = 0.3 + 0.1j
    solutions, certified = resolvent_columns(matrices, z, [1, 5])
    assert certified.tolist() == [True, True, False, True, False, True]
    for i in (0, 1, 3, 5):
        alone, ok = resolvent_columns(matrices[i : i + 1], z, [1, 5])
        assert ok[0]
        assert np.array_equal(solutions[i], alone[0])


def test_resolvent_columns_fall_back_on_a_singular_member():
    # a rotation generator is not symmetric: H - i is exactly singular,
    # which makes the batched solve raise and the per-member path take over
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    symmetric = np.array([[1.0, -1.0], [-1.0, 0.5]])
    matrices = np.stack([symmetric, rotation, 2.0 * symmetric])
    solutions, certified = resolvent_columns(matrices, 1j, [0, 1])
    assert certified.tolist() == [True, False, True]
    assert np.isnan(solutions[1]).all()
    assert np.array_equal(solutions[[0, 2]], dense_inverse_columns(matrices[[0, 2]], 1j, [0, 1]))
