import math
import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloylab import estimators
from alloylab.disorder import SingleSitePotential, bump_density, sample_couplings
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
    sample_correlation,
    uniforms,
    wegner_ratio_sweep,
)
from alloylab.lattice import box, envelope_box
from alloylab.operator import (
    base_matrix,
    build_hamiltonian,
    eigenvalues,
    hamiltonian_stack,
    resolvent_columns,
)

RHO = bump_density()
DELTA = SingleSitePotential.delta(1)
NN = SingleSitePotential({(0,): 1.0, (1,): 0.2, (-1,): 0.2})


def reference_stream(seed, index):
    """Sample ``index``'s generator, written out so that it does not go through ``uniforms``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


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
        run_parallel(lambda idx: np.zeros((len(idx), 1)), 0, 1)


def test_run_parallel_worker_count_invariance():
    def kernel(indices):
        return uniforms(5, indices, 1)

    one = run_parallel(kernel, 300, 1, workers=1, chunk_size=64)
    eight = run_parallel(kernel, 300, 1, workers=8, chunk_size=64)
    assert np.array_equal(one, eight)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_parallel_deals_chunks_round_robin():
    # worker w runs chunks w, w + W, ...; the caller is worker 0
    def kernel(indices):
        return np.full((len(indices), 1), float(os.getpid()))

    pids = run_parallel(kernel, 40, 1, workers=3, chunk_size=8)[::8, 0]
    assert pids[0] == pids[3] == os.getpid()
    assert len({pids[0], pids[1], pids[2]}) == 3
    assert pids[4] == pids[1]
    # a single chunk stays in the caller whatever the worker count
    assert np.all(run_parallel(kernel, 10, 1, workers=8, chunk_size=64) == os.getpid())
    assert_no_child_left()


def chunk_of(indices):
    return int(indices[0]) // 8


@pytest.mark.parametrize("failing", [(3, 5), (1, 2), (2, 4), (6,)])
@pytest.mark.parametrize("fault", ["raise", "shape"])
def test_run_parallel_raises_the_lowest_failing_chunk_at_any_worker_count(failing, fault):
    def kernel(indices):
        chunk = chunk_of(indices)
        if chunk in failing and fault == "raise":
            raise ZeroDivisionError(f"chunk {chunk} failed")
        return np.zeros((len(indices), 1 + (chunk in failing) * chunk))

    error, message = {
        "raise": (ZeroDivisionError, f"chunk {failing[0]} failed"),
        "shape": (RuntimeError, f"kernel returned shape (8, {1 + failing[0]})"),
    }[fault]
    for workers in (1, 2, 3):
        with pytest.raises(Exception) as raised:
            run_parallel(kernel, 64, 1, workers=workers, chunk_size=8)
        assert type(raised.value) is error
        assert str(raised.value) == message
        assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_run_parallel_child_exit_without_report_is_a_run_failure(workers):
    parent = os.getpid()

    def kernel(indices):
        if os.getpid() != parent:
            os._exit(3)
        return np.zeros((len(indices), 1))

    with pytest.raises(RunFailure, match="worker 1 exited with status 3"):
        run_parallel(kernel, 64, 1, workers=workers, chunk_size=8)
    assert_no_child_left()


class HoldsLambda(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.callback = lambda: None


class NeedsTwoArguments(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


@pytest.mark.parametrize(
    "error, name",
    [(HoldsLambda, "HoldsLambda('holds a lambda')"),
     (lambda: NeedsTwoArguments(1, 2), "NeedsTwoArguments('1 and 2')")],
)
def test_run_parallel_unpicklable_exception_is_a_run_failure(error, name):
    parent = os.getpid()

    def kernel(indices):
        if os.getpid() != parent:
            raise error()
        return np.zeros((len(indices), 1))

    with pytest.raises(RunFailure) as raised:
        run_parallel(kernel, 64, 1, workers=2, chunk_size=8)
    assert str(raised.value) == f"chunk 1 raised an exception that cannot be pickled: {name}"
    assert_no_child_left()


class CannotBeReported(HoldsLambda):
    def __repr__(self):
        raise ValueError("no repr either")


def test_run_parallel_child_that_cannot_report_is_a_run_failure():
    # pickling fails and so does the fallback's repr: the child must still
    # exit non-zero, not leave its rows NaN behind a clean exit
    parent = os.getpid()

    def kernel(indices):
        if os.getpid() != parent:
            raise CannotBeReported()
        return np.zeros((len(indices), 1))

    with pytest.raises(RunFailure, match="worker 1 exited with status 1"):
        run_parallel(kernel, 64, 1, workers=2, chunk_size=8)
    assert_no_child_left()


def test_run_parallel_interrupt_kills_every_child():
    parent = os.getpid()

    def kernel(indices):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_parallel(kernel, 64, 1, workers=3, chunk_size=8)
    assert time.monotonic() - started < 30
    assert_no_child_left()


def openblas_libraries():
    libraries, missing = estimators._openblas_libraries()
    if missing is not None:
        pytest.skip(f"no bundled OpenBLAS thread control: {missing} not found")
    return libraries


@pytest.mark.parametrize("workers", [1, 2])
def test_run_parallel_pins_blas_to_one_thread(workers):
    libraries = openblas_libraries()
    assert [lib.package for lib in libraries] == ["numpy", "scipy"]

    def kernel(indices):
        return np.array([[lib.get_threads() for lib in libraries]] * len(indices), dtype=float)

    values = run_parallel(kernel, 64, 2, workers=workers, chunk_size=16)
    assert np.all(values == 1.0)


def test_blas_threads_restores_the_callers_counts():
    libraries = openblas_libraries()
    before = [lib.get_threads() for lib in libraries]

    def failing(indices):
        raise ZeroDivisionError("kernel failure")

    try:
        for lib in libraries:
            lib.set_threads(2)
        run_parallel(lambda idx: np.zeros((len(idx), 1)), 32, 1, workers=2)
        assert [lib.get_threads() for lib in libraries] == [2, 2]
        with pytest.raises(ZeroDivisionError):
            run_parallel(failing, 32, 1, workers=2, chunk_size=8)
        assert [lib.get_threads() for lib in libraries] == [2, 2]
    finally:
        for lib, count in zip(libraries, before):
            lib.set_threads(count)


def test_run_parallel_without_blas_control(monkeypatch):
    # a resolvent kernel, so every chunk reaches LAPACK
    cfg = make_config(box_radius=3, n_samples=96, seed=4)
    inner = cfg.inner_box
    base = base_matrix(inner, False)

    def kernel(indices):
        matrices = hamiltonian_stack(base, 2.0, estimators._draw_potentials(cfg, inner, indices))
        green, certified = resolvent_columns(matrices, 0.5 + 0.1j, [0, 3])
        return np.hstack([green.imag.reshape(len(indices), -1), certified[:, None]])

    pinned = run_parallel(kernel, 96, 2 * inner.size + 1, chunk_size=32)
    assert np.all(pinned[:, -1] == 1.0)
    monkeypatch.setattr(
        estimators, "_openblas_libraries", lambda: ((), "scipy_openblas_set_num_threads64_")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Python 3.12+ warns on forking a process whose OpenBLAS threads are alive
        warnings.filterwarnings(
            "ignore", message=r".*multi-threaded, use of fork\(\)", category=DeprecationWarning
        )
        unpinned = run_parallel(kernel, 96, 2 * inner.size + 1, workers=2, chunk_size=32)
    assert np.array_equal(pinned, unpinned)


def test_batched_counts_identical_across_worker_counts():
    cfg = make_config(
        dimension=2,
        box_radius=4,
        potential=SingleSitePotential({(0, 0): 1.0, (1, 0): 0.3, (0, -1): -0.2}),
        interval=(-1.0, 1.0),
        n_samples=48,
        seed=7,
    )
    kernel = estimators._batched_counts(cfg, [cfg.interval])
    runs = [run_parallel(kernel, 48, 2, workers=w, chunk_size=8) for w in (1, 2, 3)]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_uniforms_are_index_keyed():
    a = uniforms(3, [17], 4)
    b = uniforms(3, [17], 4)
    c = uniforms(3, [18], 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_pinned_values():
    # the literal stream contract: a change of generator must change these on purpose
    assert uniforms(1, [0, 7], 3).tolist() == [
        [0.6990345474368357, 0.17433552137309583, 0.6451185321972944],
        [0.2936595717238003, 0.6269968175181299, 0.5281925308244695],
    ]
    assert uniforms(1, [7], 3, attempt=2).tolist() == [
        [0.8606974432247348, 0.4011553808587639, 0.30822504076335666]
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
    width=st.integers(1, 17),
    attempt=st.integers(0, 4),
)
def test_uniforms_block_is_the_next_draw_of_the_stream(seed, indices, width, attempt):
    rows = uniforms(seed, indices, width, attempt)
    assert rows.shape == (len(indices), width)
    for row, index in zip(rows, indices):
        rng = reference_stream(seed, index)
        for _ in range(attempt):
            rng.random(width)
        assert np.array_equal(row, rng.random(width))
        assert np.array_equal(row, uniforms(seed, [index], width, attempt)[0])


def test_column_summary_failure_cap():
    values = np.ones((1000, 1))
    values[:2, 0] = np.nan
    with pytest.raises(RunFailure):
        column_summary(values, 0)
    values = np.ones((1000, 1))
    values[0, 0] = np.nan
    mean, stderr, n_valid, n_failed = column_summary(values, 0)
    assert (mean, stderr, n_valid, n_failed) == (1.0, 0.0, 999, 1)


def test_sample_correlation():
    rng = np.random.default_rng(3)
    first = rng.normal(size=200)
    second = 0.5 * first + rng.normal(size=200)
    assert sample_correlation(first, second) == pytest.approx(
        np.corrcoef(first, second)[0, 1], abs=1e-12
    )
    assert sample_correlation(first, np.full(200, 2.0)) == 0.0
    assert sample_correlation(np.zeros(200), second) == 0.0


def test_stderr_shrinks_with_sample_size():
    def kernel(indices):
        return uniforms(1, indices, 1)

    small = run_parallel(kernel, 2000, 1)
    large = run_parallel(kernel, 4000, 1)
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


def test_wegner_sweep_solves_each_sample_once(monkeypatch):
    calls, fallbacks, solves = [], [], []
    count, solve = estimators.interval_counts, np.linalg.eigvalsh

    def spy(base, lam, profiles, intervals):
        calls.append(len(profiles))
        counts, fallback = count(base, lam, profiles, intervals)
        fallbacks.append(int(fallback.sum()))
        return counts, fallback

    def solve_spy(matrices):
        solves.append(len(matrices))
        return solve(matrices)

    monkeypatch.setattr(estimators, "interval_counts", spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve_spy)
    # 5x5 matrices run in chunks of 512: three chunks, all in this process,
    # since a forked worker's calls would not reach the spy's list
    cfg = make_config(n_samples=1100, workers=1)
    sweep = wegner_ratio_sweep(cfg, widths=[0.05, 0.1, 0.2], center=1.0)
    assert len(sweep) == 3
    assert calls == [512, 512, 76]
    # every count certified: the dense eigensolve never runs
    assert fallbacks == [0, 0, 0]
    assert solves == []
    assert [estimate.count_fallbacks for estimate in sweep] == [0, 0, 0]


def test_wegner_sweep_matches_single_interval_runs():
    cfg = make_config(box_radius=3, n_samples=700, seed=8, workers=2)
    widths = [0.0, 0.1, 0.4]
    sweep = wegner_ratio_sweep(cfg, widths, center=0.5)
    for width, estimate in zip(widths, sweep):
        single = estimate_wegner(
            replace(cfg, interval=(0.5 - width / 2.0, 0.5 + width / 2.0))
        )
        swept, alone = estimate.to_record(), single.to_record()
        del swept["wall_time"], alone["wall_time"]
        assert swept == alone
    assert sweep[0].extras["count_ratio"] is None
    assert len({estimate.config_digest for estimate in sweep}) == 3


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


def test_two_eigenvalue_rejects_single_site_box_before_sampling(monkeypatch):
    def refuse_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the box was checked")

    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = make_config(box_radius=0, interval=(0.0, 1.0), n_samples=10)
    with pytest.raises(ValueError, match="at least two sites"):
        estimate_two_eigenvalue_probability(cfg)


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


def test_fvc_redraws_non_finite_rows(monkeypatch):
    # a non-finite profile has no certified count: it is resonant, so redrawn
    draw = estimators._draw_potentials

    def spoiled(cfg, inner, indices, attempt=0):
        profiles = draw(cfg, inner, indices, attempt)
        if attempt == 0:
            profiles[indices % 4 == 0, 0] = np.nan
        return profiles

    cfg = make_config(disorder_strength=5.0, energy=0.5 + 0j, n_samples=64, seed=2)
    clean = probe_fvc(cfg, decay_exponent=3.0, radii=[3])[0]
    monkeypatch.setattr(estimators, "_draw_potentials", spoiled)
    (point,) = probe_fvc(cfg, decay_exponent=3.0, radii=[3])
    assert point.n_failed == 0
    assert point.resample_fraction > clean.resample_fraction
    assert point.count_fallbacks >= 16


def fvc_reference(cfg, radius, decay_exponent, gap):
    """Per-row resampling loop: outcomes and resample counts, one per sample.

    Each sample redraws from its own stream until no eigenvalue lies within
    ``gap`` of the energy, as often as needed.
    """
    inner = box(radius, 1)
    env = envelope_box(inner, cfg.potential.support_radius)
    energy = cfg.energy.real
    sites = inner.site_array()[:, 0]
    far = np.abs(sites[:, None] - sites[None, :]) >= radius / 2.0
    outcomes, resamples = [], []
    for index in range(cfg.n_samples):
        rng = reference_stream(cfg.seed, index)
        redraws = 0
        while True:
            couplings = sample_couplings(cfg.density, env, rng)
            sample = build_hamiltonian(inner, cfg.potential, couplings, cfg.disorder_strength)
            if np.min(np.abs(eigenvalues(sample) - energy)) > gap:
                break
            redraws += 1
        green = np.linalg.inv(sample.matrix - (energy + 1e-8j) * np.eye(inner.size))
        outcomes.append(bool(np.all(np.abs(green[far]) <= float(radius) ** -decay_exponent)))
        resamples.append(redraws)
    return outcomes, resamples


def test_fvc_resampling_matches_per_row_reference():
    cfg = make_config(disorder_strength=10.0, energy=1.0 + 0j, n_samples=600, seed=4)
    outcomes, resamples = fvc_reference(cfg, 3, 3.0, 0.05)
    assert 0 < max(resamples) < 64
    # with a single attempt every resonant first draw is a failed sample
    failed = sum(r > 0 for r in resamples)
    for workers in (1, 2):
        run = replace(cfg, workers=workers)
        (point,) = probe_fvc(run, decay_exponent=3.0, radii=[3], resonance_gap=0.05)
        assert point.probability == sum(outcomes) / 600
        assert point.resample_fraction == sum(resamples) / (600 + sum(resamples))
        assert point.n_failed == 0
        with pytest.raises(RunFailure, match=f"{failed} of 600"):
            probe_fvc(run, decay_exponent=3.0, radii=[3], resonance_gap=0.05, max_attempts=1)


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


@pytest.mark.parametrize("probe", ["fvc", "fmb"])
def test_probes_count_uncertified_solves(monkeypatch, probe):
    solve = estimators.resolvent_columns

    def first_member_uncertified(matrices, z, columns):
        solutions, certified = solve(matrices, z, columns)
        certified[0] = False
        return solutions, certified

    monkeypatch.setattr(estimators, "resolvent_columns", first_member_uncertified)
    cfg = make_config(disorder_strength=30.0, energy=0.0 + 0.01j, n_samples=40, seed=3)
    # one uncertified sample of 40 is beyond the 0.1% cap
    with pytest.raises(RunFailure, match="1 of 40"):
        if probe == "fvc":
            probe_fvc(cfg, decay_exponent=3.0, radii=[4])
        else:
            probe_fractional_moment(cfg, moment=0.5)


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
