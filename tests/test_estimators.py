import math

import numpy as np
import pytest

from alloylab.disorder import SingleSitePotential, bump_density
from alloylab.estimators import (
    ExperimentConfig,
    RunFailure,
    VERDICT_INCONCLUSIVE,
    VERDICT_WITHIN,
    canonical_digest,
    column_summary,
    estimate_minami,
    estimate_two_eigenvalue_probability,
    estimate_wegner,
    independence_probe,
    probe_fractional_moment,
    probe_fvc,
    run_parallel,
    sample_stream,
    wegner_ratio_sweep,
)

RHO = bump_density()
DELTA = SingleSitePotential.delta(1)
NN = SingleSitePotential({(0,): 1.0, (1,): 0.2, (-1,): 0.2})


def make_config(potential=DELTA, **kwargs):
    defaults = dict(
        dimension=1,
        box_radius=2,
        potential=potential,
        density=RHO,
        disorder_strength=2.0,
        n_samples=400,
        seed=11,
        workers=1,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

def test_run_parallel_rejects_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        run_parallel(lambda idx, rngs: np.zeros((len(idx), 1)), 0, 1, 0)


def test_run_parallel_worker_count_invariance():
    def kernel(indices, rngs):
        return np.stack([rng.normal(size=1) for rng in rngs])

    one = run_parallel(kernel, 300, 1, seed=5, workers=1, chunk_size=64)
    eight = run_parallel(kernel, 300, 1, seed=5, workers=8, chunk_size=64)
    assert np.array_equal(one, eight)


def test_sample_stream_is_index_keyed():
    a = sample_stream(3, 17).random(4)
    b = sample_stream(3, 17).random(4)
    c = sample_stream(3, 18).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_column_summary_failure_cap():
    values = np.ones((1000, 1))
    values[:2, 0] = np.nan
    with pytest.raises(RunFailure):
        column_summary(values, 0)
    values = np.ones((1000, 1))
    values[0, 0] = np.nan
    mean, stderr, n_valid, n_failed = column_summary(values, 0)
    assert (mean, stderr, n_valid, n_failed) == (1.0, 0.0, 999, 1)


def test_stderr_shrinks_with_sample_size():
    def kernel(indices, rngs):
        return np.stack([rng.normal(size=1) for rng in rngs])

    small = run_parallel(kernel, 2000, 1, seed=1)
    large = run_parallel(kernel, 4000, 1, seed=1)
    _, err_small, _, _ = column_summary(small, 0)
    _, err_large, _, _ = column_summary(large, 0)
    ratio = err_large / err_small
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)


def test_canonical_digest_key_order_invariant():
    assert canonical_digest({"a": 1, "b": [2, 3]}) == canonical_digest({"b": [2, 3], "a": 1})
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})


# ---------------------------------------------------------------------------
# determinant estimator
# ---------------------------------------------------------------------------

def minami_config(**kwargs):
    defaults = dict(
        energy=0.5 + 0.1j,
        site_x=(-1,),
        site_y=(1,),
        n_samples=2000,
        seed=7,
    )
    defaults.update(kwargs)
    return make_config(**defaults)


def test_minami_within_bound_rank_one():
    result = estimate_minami(minami_config())
    assert result.verdict == VERDICT_WITHIN
    assert result.mean <= result.theoretical_bound + 3.0 * result.stderr
    assert result.extras["within_classical"]
    assert result.extras["envelope_violations"] == 0
    assert result.n_failed == 0


def test_minami_worker_invariance_bitwise():
    base = estimate_minami(minami_config(workers=1))
    threaded = estimate_minami(minami_config(workers=4))
    assert base.mean == threaded.mean
    assert base.stderr == threaded.stderr
    assert base.config_digest == threaded.config_digest


def test_minami_bound_scaling_with_disorder():
    weak = estimate_minami(minami_config(disorder_strength=2.0))
    strong = estimate_minami(minami_config(disorder_strength=20.0))
    assert strong.theoretical_bound == pytest.approx(weak.theoretical_bound / 100.0)
    assert strong.verdict == VERDICT_WITHIN


def test_minami_beyond_rank_one():
    result = estimate_minami(minami_config(potential=NN, n_samples=3000))
    assert result.verdict == VERDICT_WITHIN
    assert "classical_bound" not in result.extras
    assert result.extras["site_resolved_bound"] <= result.theoretical_bound * (1 + 1e-12)


def test_minami_validates_config():
    with pytest.raises(ValueError, match="Im z"):
        estimate_minami(minami_config(energy=0.5))
    with pytest.raises(ValueError, match="distinct"):
        estimate_minami(minami_config(site_y=(-1,)))
    with pytest.raises(ValueError, match="in the box"):
        estimate_minami(minami_config(site_y=(9,)))


# ---------------------------------------------------------------------------
# counting estimators
# ---------------------------------------------------------------------------

def test_wegner_full_range_counts_everything():
    cfg = make_config(interval=(-50.0, 50.0), n_samples=200)
    result = estimate_wegner(cfg)
    assert result.mean == 5.0
    assert result.stderr == 0.0
    assert result.extras["count_ratio"] == pytest.approx(5.0 / (100.0 * 5.0))
    assert result.verdict == VERDICT_INCONCLUSIVE


def test_wegner_zero_disorder_is_deterministic():
    cfg = make_config(disorder_strength=0.0, interval=(-0.5, 0.5), n_samples=50)
    result = estimate_wegner(cfg)
    assert result.stderr == 0.0
    assert result.mean == float(int(result.mean))


def test_wegner_ratio_sweep_linearity():
    cfg = make_config(box_radius=5, n_samples=2000, seed=3)
    sweep = wegner_ratio_sweep(cfg, widths=[0.1, 0.2], center=1.0)
    ratios = [r.extras["count_ratio"] for r in sweep]
    assert max(ratios) / min(ratios) < 1.2


def test_two_eigenvalue_tiny_interval_identity():
    cfg = make_config(interval=(1.0, 1.0 + 1e-6), n_samples=500)
    result = estimate_two_eigenvalue_probability(cfg)
    assert result.exact_inequality_holds
    assert result.probability.mean == 0.0
    assert result.half_moment.mean == 0.0
    assert result.probability.verdict == VERDICT_WITHIN


def test_two_eigenvalue_degenerate_free_level():
    # the 3x3 free grid has a doubly degenerate level at -sqrt(2)
    level = -math.sqrt(2.0)
    cfg = ExperimentConfig(
        dimension=2,
        box_radius=1,
        potential=SingleSitePotential.delta(2),
        density=RHO,
        disorder_strength=0.0,
        interval=(level - 1e-9, level + 1e-9),
        n_samples=50,
        seed=0,
    )
    result = estimate_two_eigenvalue_probability(cfg)
    assert result.probability.mean == 1.0
    assert result.half_moment.mean == 1.0
    assert result.exact_inequality_holds
    assert result.probability.theoretical_bound is None


def test_two_eigenvalue_bound_holds_at_moderate_width():
    cfg = make_config(box_radius=3, interval=(0.95, 1.05), n_samples=4000, seed=2)
    result = estimate_two_eigenvalue_probability(cfg)
    assert result.exact_inequality_holds
    assert result.probability.mean <= result.half_moment.mean + 1e-12
    assert result.half_moment.verdict == VERDICT_WITHIN


# ---------------------------------------------------------------------------
# localization probes
# ---------------------------------------------------------------------------

def test_fvc_rejects_small_exponent():
    cfg = make_config(energy=0.0 + 0j, n_samples=10)
    with pytest.raises(ValueError, match="3d - 1"):
        probe_fvc(cfg, decay_exponent=2.0, radii=[4])


def test_fvc_strong_disorder_localizes():
    cfg = make_config(
        disorder_strength=50.0, energy=0.0 + 0j, n_samples=1000, seed=4
    )
    (point,) = probe_fvc(cfg, decay_exponent=3.0, radii=[8])
    assert point.probability >= 0.99
    assert not point.excessive_resampling


def test_fvc_monotone_in_exponent():
    cfg = make_config(disorder_strength=5.0, energy=0.0 + 0j, n_samples=200, seed=9)
    weak = probe_fvc(cfg, decay_exponent=2.5, radii=[6])[0]
    strong = probe_fvc(cfg, decay_exponent=4.0, radii=[6])[0]
    assert strong.probability <= weak.probability


def test_fvc_zero_disorder_deterministic():
    cfg = make_config(disorder_strength=0.0, energy=0.5 + 0j, n_samples=20, seed=1)
    (point,) = probe_fvc(cfg, decay_exponent=3.0, radii=[5])
    assert point.probability in (0.0, 1.0)
    assert point.stderr == 0.0


def test_fmb_decay_rate_grows_with_disorder():
    def run(lam):
        cfg = make_config(
            box_radius=10,
            disorder_strength=lam,
            energy=0.0 + 0.01j,
            n_samples=400,
            seed=6,
        )
        return probe_fractional_moment(cfg, moment=0.5)

    weak, strong = run(5.0), run(50.0)
    assert strong.decay_rate > weak.decay_rate > 0.0
    assert strong.r_squared > 0.9


def test_fmb_validates_input():
    cfg = make_config(energy=0.0 + 0.01j, n_samples=10)
    with pytest.raises(ValueError, match="moment"):
        probe_fractional_moment(cfg, moment=1.5)
    with pytest.raises(ValueError, match="positive"):
        probe_fractional_moment(cfg, moment=0.5, pairs=[((0,), (0,))])


def test_independence_probe_distant_boxes():
    cfg = make_config(
        potential=NN, box_radius=2, interval=(0.0, 2.0), n_samples=600, seed=12
    )
    report = independence_probe(cfg, separation=12)
    assert report.consistent_with_independence
    with pytest.raises(ValueError, match="overlap"):
        independence_probe(cfg, separation=5)


def test_independence_probe_honours_shifted_laplacian():
    # the 2d shift moves every eigenvalue by 2d, so shifting the interval
    # with it must leave every count, hence the correlation, unchanged
    plain = make_config(potential=NN, interval=(0.5, 1.5), n_samples=300, seed=13)
    shifted = make_config(
        potential=NN, interval=(2.5, 3.5), n_samples=300, seed=13, shifted_laplacian=True
    )
    expected = independence_probe(plain, separation=10).correlation
    assert independence_probe(shifted, separation=10).correlation == pytest.approx(
        expected, abs=1e-12
    )


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_record_round_trip():
    result = estimate_minami(minami_config(n_samples=200))
    record = result.to_record()
    assert record["estimator"] == "minami"
    assert record["config_digest"] == result.config_digest
    assert 0.0 < record["mean"] <= record["bound"] + 3.0 * record["stderr"]
    assert isinstance(record["wall_time"], float)
