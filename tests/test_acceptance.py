"""Acceptance suite: every headline contract at its stated tolerance.

Run ``pytest -s tests/test_acceptance.py`` to get one pass/fail line per
criterion.  The heavy Monte Carlo runs are shared through session fixtures;
the level-spacing criterion dominates the runtime (a few minutes of
tridiagonal eigensolves for the density-of-states box, twice: once per
worker count for the determinism criterion).
"""

import time

import numpy as np
import pytest

from alloylab.disorder import (
    SingleSitePotential,
    TensorProductFunction,
    bump_density,
    hat_profile,
    sobolev_ratio,
)
from alloylab.estimators import (
    ExperimentConfig,
    estimate_minami,
    estimate_two_eigenvalue_probability,
    wegner_ratio_sweep,
)
from alloylab.lattice import box, envelope_box
from alloylab.operator import green_block, krein_decomposition, potential_profiles
from alloylab.spectra import (
    empirical_ids,
    picket_fence_sample,
    poisson_tests,
    rescaled_ensemble,
)
from alloylab.transform import build_circulant, limit_inverse_one_norm, periodic_convolution
from tests.dense_reference import transform_matrix
from tests.sample_reference import assemble, draw_couplings
from tests.test_disorder import random_polyline

RHO = bump_density()
DELTA = SingleSitePotential.delta(1)
NN_POSITIVE = SingleSitePotential({(0,): 1.0, (1,): 0.2, (-1,): 0.2})
Z_SWEEP = [complex(e, 0.05) for e in (0.0, 0.5, 1.0, 1.5, 2.0)]

MINAMI_SEED = 1
POISSON_IDS_SEED = 2001
POISSON_STATS_SEED = 555


def report(number: int, passed: bool, detail: str) -> None:
    line = f"CRITERION {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


def minami_config(potential, z, workers, n_samples=100_000):
    return ExperimentConfig(
        dimension=1,
        box_radius=3,
        potential=potential,
        density=RHO,
        disorder_strength=2.0,
        energy=z,
        site_x=(-1,),
        site_y=(1,),
        n_samples=n_samples,
        seed=MINAMI_SEED,
        workers=workers,
    )


def run_minami_sweep(potential, workers):
    return [estimate_minami(minami_config(potential, z, workers)) for z in Z_SWEEP]


@pytest.fixture(scope="session")
def rank_one_sweep():
    start = time.perf_counter()
    results = run_minami_sweep(DELTA, workers=1)
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def beyond_rank_one_sweep():
    start = time.perf_counter()
    results = run_minami_sweep(NN_POSITIVE, workers=1)
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def poisson_pipeline():
    def build(workers):
        ids_cfg = ExperimentConfig(
            dimension=1, box_radius=0, potential=DELTA, density=RHO,
            disorder_strength=10.0, seed=POISSON_IDS_SEED, workers=workers,
        )
        ids = empirical_ids(ids_cfg, ids_radius=2000, n_realizations=256, grid_points=32001)
        e0 = ids.energy_at_level(0.5)
        stats_cfg = ExperimentConfig(
            dimension=1, box_radius=0, potential=DELTA, density=RHO,
            disorder_strength=10.0, seed=POISSON_STATS_SEED, workers=workers,
        )
        samples = rescaled_ensemble(
            stats_cfg, stats_radius=500, n_realizations=300, ids=ids, reference_energy=e0
        )
        return ids, poisson_tests(samples, window=(-5.0, 5.0))

    start = time.perf_counter()
    ids, stats = build(workers=1)
    elapsed = time.perf_counter() - start
    return {"ids": ids, "stats": stats, "elapsed": elapsed, "build": build}


# ---------------------------------------------------------------------------
# criterion 1: Krein reconstruction identity
# ---------------------------------------------------------------------------

def test_criterion_01_krein_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    potentials = {
        1: [SingleSitePotential.delta(1), SingleSitePotential({(0,): 1.0, (1,): -0.2, (-1,): 0.2})],
        2: [SingleSitePotential.delta(2), SingleSitePotential({(0, 0): 1.0, (1, 0): -0.2, (0, 1): 0.2})],
    }
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 3))
        radius = int(rng.integers(1, 5))
        u = potentials[d][int(rng.integers(2))]
        lam = float(rng.choice([0.5, 2.0]))
        z = complex(float(rng.uniform(-2.0, 3.0)), float(rng.choice([1e-2, 1.0])))
        inner = box(radius, d)
        env = envelope_box(inner, u.support_radius)
        omega = draw_couplings(RHO, env, np.random.default_rng(int(rng.integers(1 << 30))))
        h, v = assemble(inner, u, omega, lam)
        sites = inner.sites()
        i, j = rng.choice(len(sites), size=2, replace=False)
        block = green_block(h, inner, z, sites[i], sites[j])
        decomposition = krein_decomposition(h, inner, lam, v, z, sites[i], sites[j])
        err = float(np.max(np.abs(decomposition.reconstructed_block() - block.entries)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-9 and elapsed < 60.0,
        f"200 instances, worst reconstruction error {worst:.2e} (tol 1e-9), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: circulant identities and the worked 5x5 layout
# ---------------------------------------------------------------------------

def test_criterion_02_circulant_identities():
    start = time.perf_counter()
    checks = []

    # worked example layout: inner radius 1, support {-1, 0, 1}
    u0, up, um = 1.0, 0.25, -0.125
    u_example = SingleSitePotential({(0,): u0, (1,): up, (-1,): um})
    t = build_circulant(u_example, box(1, 1))
    expected = np.array(
        [
            [u0, um, 0.0, 0.0, up],
            [up, u0, um, 0.0, 0.0],
            [0.0, up, u0, um, 0.0],
            [0.0, 0.0, up, u0, um],
            [um, 0.0, 0.0, up, u0],
        ]
    )
    checks.append(np.array_equal(transform_matrix(t), expected))

    # exact convolution rows, potential identity, and the norm inequality
    rng = np.random.default_rng(7)
    worst_zeta = 0.0
    for _ in range(10):
        u = SingleSitePotential(
            {(0,): 1.0, (1,): float(rng.uniform(-0.3, 0.3)), (-1,): float(rng.uniform(-0.3, 0.3))}
        )
        inner = box(int(rng.integers(1, 4)), 1)
        transform = build_circulant(u, inner)
        matrix = transform_matrix(transform)
        env_sites = transform.envelope.sites()
        exact_rows = all(
            matrix[transform.envelope.index_of(si), jcol] == u.value(tuple(a - b for a, b in zip(si, sj)))
            for si in inner.sites()
            for jcol, sj in enumerate(env_sites)
        )
        omega = draw_couplings(RHO, transform.envelope, rng)
        zeta = periodic_convolution(transform.table, omega.reshape(transform.table.shape)).ravel()
        v = potential_profiles(inner, u, transform.envelope, omega[None])[0]
        worst_zeta = max(
            worst_zeta,
            max(
                abs(zeta[transform.envelope.index_of(s)] - v[inner.index_of(s)])
                for s in inner.sites()
            ),
        )
        limit = limit_inverse_one_norm(u, tolerance=1e-9)
        checks.append(exact_rows)
        checks.append(transform.inverse_one_norm <= limit * (1.0 + 1e-6))
    checks.append(worst_zeta <= 1e-12)
    elapsed = time.perf_counter() - start
    report(
        2,
        all(checks) and elapsed < 60.0,
        f"5x5 layout exact, interior rows exact, zeta defect {worst_zeta:.1e} (tol 1e-12), "
        f"inverse norm within limit bound, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criteria 3/4: determinant bound, rank one and beyond
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_03_rank_one_determinant_bound(rank_one_sweep):
    results, elapsed = rank_one_sweep
    ok = all(r.verdict == "within_bound" for r in results)
    ok = ok and all(r.extras["within_classical"] for r in results)
    ok = ok and elapsed < 600.0
    margins = ", ".join(
        f"z={z.real:g}: {r.mean:.3f}<={r.theoretical_bound:.2f}" for z, r in zip(Z_SWEEP, results)
    )
    report(3, ok, f"bound and classical comparison at 5 energies ({margins}), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_04_beyond_rank_one_determinant_bound(beyond_rank_one_sweep):
    results, elapsed = beyond_rank_one_sweep
    ok = all(r.verdict == "within_bound" for r in results) and elapsed < 600.0
    norm = results[0].extras["inverse_one_norm"]
    report(
        4,
        ok,
        f"sign-fixed neighbor profile, certified inverse norm {norm:.4f}, "
        f"within bound at 5 energies, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: two-eigenvalue probability chain
# ---------------------------------------------------------------------------

def test_criterion_05_two_eigenvalue_chain():
    start = time.perf_counter()
    ok = True
    details = []
    for width in (1e-3, 1e-2):
        cfg = ExperimentConfig(
            dimension=1, box_radius=3, potential=DELTA, density=RHO,
            disorder_strength=2.0, interval=(1.0 - width / 2, 1.0 + width / 2),
            n_samples=100_000, seed=5, workers=1,
        )
        result = estimate_two_eigenvalue_probability(cfg)
        ok = ok and result.exact_inequality_holds
        ok = ok and result.probability.mean <= result.half_moment.mean + 1e-15
        ok = ok and result.half_moment.verdict == "within_bound"
        details.append(
            f"|I|={width:g}: P={result.probability.mean:.2e} "
            f"halfE={result.half_moment.mean:.2e} bound={result.half_moment.theoretical_bound:.2e}"
        )
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 600.0, "; ".join(details) + f", {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: counting linearity
# ---------------------------------------------------------------------------

def test_criterion_06_wegner_linearity():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        dimension=1, box_radius=5, potential=DELTA, density=RHO,
        disorder_strength=2.0, n_samples=10_000, seed=6, workers=1,
    )
    sweep = wegner_ratio_sweep(cfg, widths=[0.05, 0.1, 0.2], center=1.0)
    ratios = [r.extras["count_ratio"] for r in sweep]
    spread = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - start
    report(
        6,
        spread <= 1.2 and elapsed < 300.0,
        f"count ratios {', '.join(f'{r:.4f}' for r in ratios)} (max/min = {spread:.3f} <= 1.2), "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: desk-scale Poisson statistics
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_poisson_statistics(poisson_pipeline):
    stats = poisson_pipeline["stats"]
    elapsed = poisson_pipeline["elapsed"]
    fence = poisson_tests([picket_fence_sample(-15.0, 15.0) for _ in range(300)], (-5.0, 5.0))
    ok = (
        stats.ks_pass is True
        and stats.chi2_pass
        and stats.correlation_pass is True
        and abs(stats.unit_mean - 1.0) <= 0.1
        and fence.ks_statistic > 0.5
        and elapsed < 1800.0
    )
    report(
        7,
        ok,
        f"KS {stats.ks_statistic:.4f} < {stats.ks_threshold:.4f}, "
        f"chi2 p={stats.chi2_pvalue:.3f}, |corr| {abs(stats.correlation):.3f} < "
        f"{stats.correlation_threshold:.3f}, unit mean {stats.unit_mean:.3f}, "
        f"picket-fence KS {fence.ks_statistic:.3f} > 0.5, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: explicit Sobolev constant
# ---------------------------------------------------------------------------

def test_criterion_08_sobolev_quarter():
    start = time.perf_counter()
    hat = sobolev_ratio(TensorProductFunction(hat_profile(), hat_profile()))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        f = TensorProductFunction(random_polyline(rng), random_polyline(rng))
        worst = max(worst, sobolev_ratio(f).ratio)
    elapsed = time.perf_counter() - start
    report(
        8,
        hat.ratio == 0.25 and worst <= 0.25 + 1e-12 and elapsed < 10.0,
        f"tent pair exactly 0.25, worst of 100 randomized {worst:.12f} <= 0.25 + 1e-12, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: determinant envelope
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_09_determinant_envelope(rank_one_sweep, beyond_rank_one_sweep):
    # the sampling kernels abort on any det outside (0, (Im z)^-2]; reaching
    # this point with zero recorded violations is the zero-tolerance check
    runs = rank_one_sweep[0] + beyond_rank_one_sweep[0]
    violations = sum(r.extras["envelope_violations"] for r in runs)
    failed = sum(r.n_failed for r in runs)
    report(
        9,
        violations == 0 and failed == 0,
        f"{len(runs)} determinant runs x 100000 samples: {violations} envelope violations, "
        f"{failed} failed solves",
    )


# ---------------------------------------------------------------------------
# criterion 10: bit-for-bit determinism across worker counts
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_worker_determinism(rank_one_sweep, beyond_rank_one_sweep, poisson_pipeline):
    rank_one_again = run_minami_sweep(DELTA, workers=3)
    beyond_again = run_minami_sweep(NN_POSITIVE, workers=3)
    same_means = all(
        a.mean == b.mean and a.stderr == b.stderr
        for a, b in zip(rank_one_sweep[0] + beyond_rank_one_sweep[0], rank_one_again + beyond_again)
    )
    ids2, stats2 = poisson_pipeline["build"](workers=3)
    stats1 = poisson_pipeline["stats"]
    same_ids = np.array_equal(poisson_pipeline["ids"].values, ids2.values)
    same_stats = (
        stats1.ks_statistic == stats2.ks_statistic
        and stats1.unit_mean == stats2.unit_mean
        and np.array_equal(stats1.counts, stats2.counts)
    )
    report(
        10,
        same_means and same_ids and same_stats,
        "minami sweeps, IDS, and spacing statistics identical for 1 vs 3 workers",
    )
