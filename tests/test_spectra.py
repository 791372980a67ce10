import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from alloylab import spectra
from alloylab.disorder import SingleSitePotential, bump_density
from alloylab.estimators import ExperimentConfig, NumericalFault
from alloylab.spectra import (
    EmpiricalIDS,
    empirical_ids,
    exponential_ks_statistic,
    free_chain_ids,
    picket_fence_sample,
    poisson_count_chisquare,
    poisson_pmf,
    poisson_process_sample,
    poisson_tests,
    probe_pos,
    rescale,
    rescaled_ensemble,
    spectral_range,
    window_gaps,
)

RHO = bump_density()
DELTA = SingleSitePotential.delta(1)


def refuse_sampling(*args, **kwargs):
    raise AssertionError("sampling started before the grid was checked")


def chain_config(**kwargs):
    defaults = dict(
        dimension=1,
        box_radius=0,
        potential=DELTA,
        density=RHO,
        disorder_strength=1.0,
        seed=0,
        workers=1,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# empirical IDS
# ---------------------------------------------------------------------------

def test_empirical_ids_refuses_a_grid_past_the_points_budget(monkeypatch):
    class Allocated(Exception):
        pass

    def allocate(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(np, "linspace", allocate)
    monkeypatch.setattr(spectra, "run_parallel", allocate)
    with pytest.raises(Allocated):
        empirical_ids(chain_config(), 2, 1, grid_points=10**7)
    with pytest.raises(ValueError, match="past the budget of 10000000 points"):
        empirical_ids(chain_config(), 2, 1, grid_points=10**7 + 1)


def test_spectral_range_contains_all_eigenvalues():
    cfg = chain_config(disorder_strength=3.0)
    lo, hi = spectral_range(cfg)
    assert lo == pytest.approx(-2.0)
    assert hi == pytest.approx(2.0 + 3.0)


def test_free_chain_ids_matches_closed_form():
    cfg = chain_config(disorder_strength=1e-12)
    ids = empirical_ids(cfg, ids_radius=1000, n_realizations=1, grid_points=4001)
    inside = (ids.grid > -1.95) & (ids.grid < 1.95)
    gap = np.max(np.abs(ids.values[inside] - free_chain_ids(ids.grid[inside])))
    assert gap < 0.01


def test_ids_monotone_and_normalized():
    cfg = chain_config(disorder_strength=2.0, seed=5)
    ids = empirical_ids(cfg, ids_radius=50, n_realizations=20, grid_points=2001)
    assert ids.values[0] == 0.0
    assert ids.values[-1] == 1.0
    assert np.all(np.diff(ids.values) >= 0)
    assert np.all((ids.values >= 0) & (ids.values <= 1))


def test_ids_realization_average_consistency():
    cfg = chain_config(disorder_strength=2.0, seed=9)
    few = empirical_ids(cfg, ids_radius=40, n_realizations=10, grid_points=1001)
    many = empirical_ids(cfg, ids_radius=40, n_realizations=40, grid_points=1001)
    # binomial envelope: pointwise deviation within a few stderr of the
    # smaller ensemble
    envelope = np.sqrt(np.clip(few.values * (1 - few.values), 1e-6, None) / (81 * 10))
    assert np.all(np.abs(few.values - many.values) < 6.0 * envelope + 5e-3)


def test_ids_grid_escape_reports_eigenvalues(monkeypatch):
    # a spectral range of [0, 0] pads to the grid [-1, 1], which the eigenvalues at strength 2
    # leave; the true range is an almost-sure bound, so only a bug can do this
    monkeypatch.setattr(spectra, "spectral_range", lambda cfg: (0.0, 0.0))
    cfg = chain_config(disorder_strength=2.0)
    with pytest.raises(NumericalFault, match="escaped"):
        empirical_ids(cfg, ids_radius=20, n_realizations=2, grid_points=101)


# (spectral range or None for the config's own, grid_points): too few points, or a
# padded range so narrow against its magnitude that the grid's energies repeat
@pytest.mark.parametrize(
    "grid", [(None, 1), (None, 0), ((1e17, 1e17), 101), ((1e17, 1e17 + 32.0), 101), (None, -1)]
)
def test_ids_grid_refused_before_sampling(monkeypatch, grid):
    span, grid_points = grid
    if span is not None:
        monkeypatch.setattr(spectra, "spectral_range", lambda cfg: span)
    monkeypatch.setattr(spectra, "run_parallel", refuse_sampling)
    with pytest.raises(ValueError, match="IDS grid needs 2 or more finite, increasing"):
        empirical_ids(chain_config(), ids_radius=20, n_realizations=2, grid_points=grid_points)


def test_ids_median_inversion():
    cfg = chain_config(disorder_strength=2.0, seed=1)
    ids = empirical_ids(cfg, ids_radius=100, n_realizations=10, grid_points=4001)
    e0 = ids.energy_at_level(0.5)
    assert ids.evaluate(e0) == pytest.approx(0.5, abs=1e-3)


def test_parallel_ids_matches_serial():
    cfg1 = chain_config(disorder_strength=2.0, seed=3, workers=1)
    cfg4 = chain_config(disorder_strength=2.0, seed=3, workers=4)
    a = empirical_ids(cfg1, ids_radius=30, n_realizations=16, grid_points=501)
    b = empirical_ids(cfg4, ids_radius=30, n_realizations=16, grid_points=501)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------

def linear_ids(slope=0.1, lo=-5.0, hi=5.0):
    grid = np.linspace(lo, hi, 201)
    values = np.clip(slope * (grid - lo), 0.0, 1.0)
    return EmpiricalIDS(grid=grid, values=values, metadata={"ids_radius": 1000})


def test_rescale_affine_case():
    ids = linear_ids()
    eigs = np.array([-1.0, 0.0, 0.5, 2.0])
    xi = rescale(eigs, ids, reference_energy=0.0, stats_size=100)
    # slope 0.1 and size 100: xi = 10 * E
    assert np.allclose(xi, [-10.0, 0.0, 5.0, 20.0], atol=1e-10)
    gaps = np.diff(xi)
    assert np.allclose(gaps, 100 * 0.1 * np.diff(eigs))


def test_rescale_reference_maps_to_zero():
    ids = linear_ids()
    xi = rescale(np.array([0.7]), ids, reference_energy=0.7, stats_size=33)
    assert xi[0] == pytest.approx(0.0, abs=1e-12)


def test_rescale_is_monotone_and_validates_grid():
    ids = linear_ids()
    rng = np.random.default_rng(0)
    eigs = np.sort(rng.uniform(-4.9, 4.9, size=50))
    xi = rescale(eigs, ids, 0.0, 10)
    assert np.all(np.diff(xi) >= 0)
    with pytest.raises(ValueError, match="outside"):
        rescale(np.array([7.0]), ids, 0.0, 10)
    with pytest.raises(ValueError, match="inside"):
        rescale(np.array([0.0]), ids, 9.0, 10)


def test_rescale_idempotent_under_interpolation():
    # refining the grid by its own interpolant changes nothing
    ids = linear_ids()
    fine_grid = np.linspace(ids.grid[0], ids.grid[-1], 1001)
    refined = EmpiricalIDS(
        grid=fine_grid,
        values=np.interp(fine_grid, ids.grid, ids.values),
        metadata=ids.metadata,
    )
    eigs = np.array([-2.0, -0.3, 1.7])
    a = rescale(eigs, ids, 0.1, 57)
    b = rescale(eigs, refined, 0.1, 57)
    assert np.allclose(a, b, atol=1e-12)


def test_rescale_unfolds_each_row_of_an_ensemble():
    ids = linear_ids()
    rng = np.random.default_rng(3)
    ensemble = rng.uniform(-4.9, 4.9, size=(4, 30))
    rows = rescale(ensemble, ids, 0.2, 30)
    assert rows.shape == ensemble.shape
    for row, eigs in zip(rows, ensemble):
        assert np.array_equal(row, rescale(eigs, ids, 0.2, 30))
        assert np.all(np.diff(row) >= 0)


def test_rescaled_ensemble_requires_decoupled_ids():
    cfg = chain_config(disorder_strength=2.0)
    ids = empirical_ids(cfg, ids_radius=30, n_realizations=4, grid_points=501)
    with pytest.raises(ValueError, match="twice"):
        rescaled_ensemble(cfg, stats_radius=20, n_realizations=2, ids=ids, reference_energy=0.5)


# ---------------------------------------------------------------------------
# point-process statistics
# ---------------------------------------------------------------------------

def test_window_gaps_left_endpoint_convention():
    gaps = window_gaps(np.array([-2.0, -0.5, 0.3, 0.9, 1.4, 3.2]), 0.0, 1.0)
    # left endpoints 0.3 and 0.9 are in the window; their right neighbors may
    # fall outside
    assert np.allclose(gaps, [0.6, 0.5])


def test_poisson_tests_read_array_rows_as_samples():
    rng = np.random.default_rng(8)
    ensemble = np.sort(rng.uniform(-8.0, 8.0, size=(40, 16)), axis=1)
    rows, listed = poisson_tests(ensemble, (-3.0, 3.0)), poisson_tests(list(ensemble), (-3.0, 3.0))
    assert rows.to_record() == listed.to_record()
    assert np.array_equal(rows.counts, listed.counts)
    expected = [np.sum((xi >= -3.0) & (xi < 3.0)) for xi in ensemble]
    assert rows.counts.tolist() == expected


def test_poisson_tests_refuse_an_unsorted_sample():
    with pytest.raises(ValueError, match="sorted"):
        poisson_tests([np.array([0.1, 0.5]), np.array([0.4, 0.2])], (0.0, 1.0))


def test_ks_statistic_exact_exponential_grid():
    # deterministic quantile grid of Exp(1): KS distance ~ 1/(2n)
    n = 1000
    q = (np.arange(n) + 0.5) / n
    gaps = -np.log(1.0 - q)
    assert exponential_ks_statistic(gaps) < 1.0 / n


def test_ks_self_consistency_on_true_exponential_draws():
    passes = 0
    for rep in range(20):
        rng = np.random.default_rng(1000 + rep)
        gaps = rng.exponential(size=10**4)
        stat = exponential_ks_statistic(gaps)
        passes += stat < 1.358 / math.sqrt(gaps.size)
    assert passes >= 18


def test_chisquare_calibration_on_poisson_counts():
    rng = np.random.default_rng(7)
    passes = 0
    for _ in range(20):
        counts = rng.poisson(10.0, size=300)
        _, dof, p = poisson_count_chisquare(counts, 10.0)
        assert dof >= 2
        passes += p >= 0.05
    assert passes >= 17


def test_chisquare_rejects_constant_counts():
    counts = np.full(300, 10)
    _, _, p = poisson_count_chisquare(counts, 10.0)
    assert p < 1e-6


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, 400),
    mean=st.floats(0.0, 300.0, allow_subnormal=False),
    statistic=st.floats(0.0, 1e4, allow_subnormal=False),
    dof=st.integers(1, 200),
)
def test_poisson_and_chi2_tails_match_scipy_stats_bit_for_bit(k, mean, statistic, dof):
    ks = np.arange(k + 1)
    assert np.array_equal(poisson_pmf(ks, mean), stats.poisson.pmf(ks, mean))
    assert special.pdtrc(k, mean) == stats.poisson.sf(k, mean)
    assert special.chdtrc(dof, statistic) == stats.chi2.sf(statistic, dof)


def test_poisson_tests_pass_on_true_poisson_input():
    outcomes = []
    for rep in range(20):
        rng = np.random.default_rng(5000 + rep)
        samples = [poisson_process_sample(rng, -20.0, 20.0) for _ in range(300)]
        stats = poisson_tests(samples, window=(-5.0, 5.0))
        outcomes.append(stats.verdict() == "pass")
        assert abs(stats.unit_mean - 1.0) < 0.2
    assert sum(outcomes) >= 18


def test_poisson_tests_fail_on_picket_fence():
    samples = [picket_fence_sample(-20.0, 20.0) for _ in range(300)]
    stats = poisson_tests(samples, window=(-5.0, 5.0))
    assert stats.ks_statistic > 0.5
    assert stats.ks_pass is False
    assert stats.verdict() == "fail"


def test_poisson_tests_inconclusive_on_tiny_input():
    rng = np.random.default_rng(1)
    samples = [poisson_process_sample(rng, -2.0, 2.0) for _ in range(5)]
    stats = poisson_tests(samples, window=(-1.0, 1.0))
    assert stats.n_gaps < 50
    assert stats.ks_pass is None
    assert stats.verdict() in ("inconclusive", "fail")


@pytest.fixture(scope="module")
def strong_disorder_ids():
    ids_cfg = chain_config(disorder_strength=10.0, seed=101, workers=2)
    return empirical_ids(ids_cfg, ids_radius=200, n_realizations=150, grid_points=8001)


def test_desk_scale_pipeline_is_poissonian(strong_disorder_ids):
    # small end-to-end surrogate: strong disorder, modest boxes; the frozen
    # unfolding error scales like 1/sqrt(IDS realizations), so tolerances
    # here are looser than at production scale
    ids = strong_disorder_ids
    e0 = ids.energy_at_level(0.5)
    stats_cfg = chain_config(disorder_strength=10.0, seed=707, workers=2)
    samples = rescaled_ensemble(
        stats_cfg, stats_radius=100, n_realizations=300, ids=ids, reference_energy=e0
    )
    stats = poisson_tests(samples, window=(-4.0, 4.0))
    assert abs(stats.unit_mean - 1.0) < 0.2
    assert stats.ks_statistic < 2.0 * stats.ks_threshold  # coarse at this scale
    assert stats.chi2_pvalue > 1e-4


def test_probe_pos_bulk_exponent_near_one(strong_disorder_ids):
    # Lipschitz IDS with positive local density: growth exponent ~ 1
    ids = strong_disorder_ids
    e0 = ids.energy_at_level(0.5)
    probe = probe_pos(
        ids, e0, kappa=0.0, a=-1.0, b=1.0, epsilons=np.geomspace(0.01, 0.1, 7)
    )
    assert probe.reliable
    assert 0.8 <= probe.fitted_exponent <= 1.2


# ---------------------------------------------------------------------------
# growth probe
# ---------------------------------------------------------------------------

def test_probe_pos_linear_ids():
    ids = linear_ids(slope=0.1)
    probe = probe_pos(ids, 0.0, kappa=0.0, a=-1.0, b=1.0, epsilons=[0.5, 0.2, 0.1])
    for row in probe.rows:
        assert row.increment == pytest.approx(0.1 * 2.0 * row.epsilon, rel=1e-9)
    assert probe.fitted_exponent == pytest.approx(1.0, abs=1e-6)
    assert probe.reliable


def test_probe_pos_outside_spectrum_flagged():
    grid = np.linspace(-10.0, 10.0, 401)
    values = np.clip(0.5 * (grid + 1.0), 0.0, 1.0)  # flat below -1
    ids = EmpiricalIDS(grid=grid, values=values, metadata={"box_size": 100, "n_realizations": 10})
    probe = probe_pos(ids, -5.0, kappa=0.0, a=-0.5, b=0.5, epsilons=[0.4, 0.2, 0.1])
    assert not probe.reliable


def test_probe_pos_validates_input():
    ids = linear_ids()
    with pytest.raises(ValueError, match="a < b"):
        probe_pos(ids, 0.0, 0.0, 1.0, -1.0, [0.1])
    with pytest.raises(ValueError, match="positive"):
        probe_pos(ids, 0.0, 0.0, -1.0, 1.0, [0.0])
