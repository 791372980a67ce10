"""Empirical integrated density of states and rescaled eigenvalue statistics.

The IDS is estimated on a larger box with its own seed, frozen, and only
then used to unfold eigenvalues of the statistics box; this keeps the
randomness of the unfolding independent of the samples it rescales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .estimators import ExperimentConfig, _draw_potentials, run_parallel, sample_correlation
from .lattice import box
from .operator import base_matrix, chain_eigenvalues, hamiltonian_stack

KS_CRITICAL_SCALE = 1.358  # asymptotic 5% Kolmogorov-Smirnov constant
MIN_GAPS_FOR_KS = 50
MIN_EXPECTED_COUNT = 5.0  # chi-square bins are pooled up to this expected count
UNIT_INTERVAL = (0.0, 1.0)  # the unfolded interval whose count should have mean one


def spectral_range(cfg: ExperimentConfig) -> tuple[float, float]:
    """Almost-sure bounds on the spectrum from the coupling support."""
    a, b = cfg.density.support
    lo_v = sum(min(v * a, v * b) for _, v in cfg.potential.items())
    hi_v = sum(max(v * a, v * b) for _, v in cfg.potential.items())
    shift = 2.0 * cfg.dimension if cfg.shifted_laplacian else 0.0
    return (
        -2.0 * cfg.dimension + cfg.disorder_strength * lo_v + shift,
        2.0 * cfg.dimension + cfg.disorder_strength * hi_v + shift,
    )


def free_chain_ids(energies) -> np.ndarray:
    """Closed-form IDS of the free 1d chain: arccos(-E/2)/pi on [-2, 2]."""
    e = np.asarray(energies, dtype=float)
    return np.arccos(-np.clip(e, -2.0, 2.0) / 2.0) / np.pi


def _eigenvalue_kernel(cfg: ExperimentConfig, radius: int):
    """Box of the given radius and a ``run_parallel`` kernel of sorted eigenvalues.

    The kernel returns one row per realization: the tridiagonal solver per
    row in d=1, a batched ``eigvalsh`` of the assembled stack otherwise.
    Callers run it with ``chunk_size=1``, which spreads a few large
    realizations over the workers; a realization's profile has the same bits
    in a chunk of any size.
    """
    inner = box(radius, cfg.dimension)
    lam = cfg.disorder_strength
    if cfg.dimension > 1:
        base = base_matrix(inner, cfg.shifted_laplacian)

    def kernel(indices):
        profiles = _draw_potentials(cfg, inner, indices)
        if cfg.dimension == 1:
            return np.stack([chain_eigenvalues(lam * p, cfg.shifted_laplacian) for p in profiles])
        return np.linalg.eigvalsh(hamiltonian_stack(base, lam, profiles))

    return inner, kernel


@dataclass
class EmpiricalIDS:
    """Averaged normalized eigenvalue counting function on an energy grid."""

    grid: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("IDS grid must be strictly increasing")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("IDS values must be monotone")

    def evaluate(self, energies) -> np.ndarray:
        e = np.asarray(energies, dtype=float)
        if np.any(e < self.grid[0]) or np.any(e > self.grid[-1]):
            escaped = e[(e < self.grid[0]) | (e > self.grid[-1])]
            raise ValueError(f"energies outside the IDS grid: {escaped[:5]!r}")
        return np.interp(e, self.grid, self.values)

    def energy_at_level(self, level: float) -> float:
        """Inverse of the interpolated IDS (bulk median is level=0.5)."""
        if not 0.0 <= level <= 1.0:
            raise ValueError("IDS level must lie in [0, 1]")
        return float(np.interp(level, self.values, self.grid))

    @property
    def resolution(self) -> float:
        if "box_size" not in self.metadata or "n_realizations" not in self.metadata:
            return 0.0
        return 1.0 / (self.metadata["box_size"] * self.metadata["n_realizations"])


def empirical_ids(
    cfg: ExperimentConfig,
    ids_radius: int,
    n_realizations: int,
    grid: np.ndarray | None = None,
    grid_points: int = 20001,
) -> EmpiricalIDS:
    """Average the normalized counting function over independent realizations.

    The default grid covers the almost-sure spectral range padded by one
    unit.  Eigenvalues escaping the grid are a configuration error and are
    reported, not clipped.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    if grid is None:
        lo, hi = spectral_range(cfg)
        grid = np.linspace(lo - 1.0, hi + 1.0, grid_points)
    else:
        grid = np.asarray(grid, dtype=float)

    inner, kernel = _eigenvalue_kernel(cfg, ids_radius)
    spectra = run_parallel(kernel, n_realizations, inner.size, cfg.workers, chunk_size=1)
    counts = np.zeros(grid.size, dtype=np.int64)
    for vals in spectra:
        if vals[0] < grid[0] or vals[-1] > grid[-1]:
            escaped = vals[(vals < grid[0]) | (vals > grid[-1])]
            raise ValueError(f"eigenvalues escaped the IDS grid: {escaped[:5]!r}")
        counts += np.searchsorted(vals, grid, side="right")

    values = counts / (n_realizations * inner.size)
    return EmpiricalIDS(
        grid=grid,
        values=values,
        metadata={
            "dimension": cfg.dimension,
            "ids_radius": ids_radius,
            "box_size": inner.size,
            "n_realizations": n_realizations,
            "disorder_strength": cfg.disorder_strength,
            "seed": cfg.seed,
            "config_digest": cfg.digest(),
        },
    )


@dataclass
class RescaledSample:
    """Unfolded spectrum of one realization relative to a reference energy."""

    xi: np.ndarray
    reference_energy: float
    stats_radius: int

    def __post_init__(self) -> None:
        self.xi = np.asarray(self.xi, dtype=float)
        if np.any(np.diff(self.xi) < 0):
            raise ValueError("rescaled values must be sorted")

    def count_in(self, lo: float, hi: float) -> int:
        return int(
            np.searchsorted(self.xi, hi, side="left")
            - np.searchsorted(self.xi, lo, side="left")
        )


def rescale(
    eigenvalues: np.ndarray,
    ids: EmpiricalIDS,
    reference_energy: float,
    stats_size: int,
    stats_radius: int = 0,
) -> RescaledSample:
    """Unfold eigenvalues through the interpolated IDS.

    ``xi = stats_size * (N(E_j) - N(E_0))`` with piecewise-linear
    interpolation; monotone because the IDS is.
    """
    if not ids.grid[0] < reference_energy < ids.grid[-1]:
        raise ValueError("reference energy must lie inside the IDS grid")
    level = ids.evaluate(reference_energy)
    xi = stats_size * (ids.evaluate(np.sort(np.asarray(eigenvalues, dtype=float))) - level)
    return RescaledSample(xi=xi, reference_energy=reference_energy, stats_radius=stats_radius)


def rescaled_ensemble(
    cfg: ExperimentConfig,
    stats_radius: int,
    n_realizations: int,
    ids: EmpiricalIDS,
    reference_energy: float,
) -> list[RescaledSample]:
    """Generate and unfold independent realizations of the statistics box."""
    ids_radius = ids.metadata.get("ids_radius")
    if ids_radius is not None and ids_radius < 2 * stats_radius:
        raise ValueError(
            f"IDS box radius {ids_radius} must be at least twice the statistics "
            f"radius {stats_radius} to decouple the unfolding"
        )
    inner, kernel = _eigenvalue_kernel(cfg, stats_radius)
    spectra = run_parallel(kernel, n_realizations, inner.size, cfg.workers, chunk_size=1)
    return [rescale(vals, ids, reference_energy, inner.size, stats_radius) for vals in spectra]


# ---------------------------------------------------------------------------
# point-process statistics
# ---------------------------------------------------------------------------

def exponential_ks_statistic(gaps: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the gaps to the unit exponential law."""
    g = np.sort(np.asarray(gaps, dtype=float))
    n = g.size
    cdf = 1.0 - np.exp(-g)
    ranks = np.arange(1, n + 1) / n
    return float(max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n))))


def poisson_pmf(k, mean):
    """Poisson probabilities ``mean**k exp(-mean) / k!``, computed as ``scipy.stats`` does."""
    return np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean)


def poisson_count_chisquare(counts: np.ndarray, mean: float) -> tuple[float, int, float]:
    """Chi-square of an integer count histogram against a Poisson law.

    Bins are pooled from both tails until every expected count reaches
    ``MIN_EXPECTED_COUNT``.  Returns (statistic, dof, p-value); dof < 1 signals
    that pooling collapsed everything.
    """
    counts = np.asarray(counts, dtype=int)
    n = counts.size
    kmax = int(max(counts.max(), math.ceil(mean))) + 1
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = n * poisson_pmf(np.arange(kmax + 1), mean)
    expected[-1] = n * special.pdtrc(kmax - 1, mean)  # open tail bin: P(K >= kmax)

    pooled_obs: list[float] = []
    pooled_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED_COUNT:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_obs:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    dof = len(pooled_obs) - 1
    if dof < 1:
        return 0.0, 0, 1.0
    obs = np.asarray(pooled_obs)
    exp = np.asarray(pooled_exp)
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    return statistic, dof, float(special.chdtrc(dof, statistic))


@dataclass
class PointProcessStats:
    """Joint outcome of the Poisson-statistics tests on a window."""

    window: tuple[float, float]
    n_realizations: int
    counts: np.ndarray
    n_gaps: int
    ks_statistic: float | None  # None without gaps
    ks_threshold: float | None
    chi2_statistic: float
    chi2_dof: int
    chi2_pvalue: float
    correlation: float | None
    correlation_threshold: float
    unit_mean: float
    unit_stderr: float

    @property
    def ks_pass(self) -> bool | None:
        if self.n_gaps < MIN_GAPS_FOR_KS:
            return None
        return self.ks_statistic < self.ks_threshold

    @property
    def chi2_pass(self) -> bool:
        return self.chi2_pvalue >= 0.05

    @property
    def correlation_pass(self) -> bool | None:
        if self.correlation is None:
            return None
        return abs(self.correlation) < self.correlation_threshold

    def verdict(self) -> str:
        checks = [self.ks_pass, self.chi2_pass, self.correlation_pass]
        if any(c is False for c in checks):
            return "fail"
        if any(c is None for c in checks):
            return "inconclusive"
        return "pass"

    def to_record(self) -> dict:
        return {
            "window": list(self.window),
            "n_realizations": self.n_realizations,
            "n_gaps": self.n_gaps,
            "ks_statistic": self.ks_statistic,
            "ks_threshold": self.ks_threshold,
            "ks_pass": self.ks_pass,
            "chi2_statistic": self.chi2_statistic,
            "chi2_dof": self.chi2_dof,
            "chi2_pvalue": self.chi2_pvalue,
            "chi2_pass": self.chi2_pass,
            "correlation": self.correlation,
            "correlation_threshold": self.correlation_threshold,
            "correlation_pass": self.correlation_pass,
            "unit_mean": self.unit_mean,
            "unit_stderr": self.unit_stderr,
            "verdict": self.verdict(),
        }


def window_gaps(sample: RescaledSample, lo: float, hi: float) -> np.ndarray:
    """Nearest-neighbor gaps whose left point lies in [lo, hi).

    Keeping the right neighbor unrestricted (it exists in the full rescaled
    spectrum) avoids the length bias of demanding both endpoints inside the
    window; the partial gaps at the window boundary are censored either way.
    """
    xi = sample.xi
    if xi.size < 2:
        return np.empty(0)
    left = xi[:-1]
    mask = (left >= lo) & (left < hi)
    return np.diff(xi)[mask]


def poisson_tests(samples: list[RescaledSample], window: tuple[float, float]) -> PointProcessStats:
    """Test a family of unfolded spectra against the unit Poisson process.

    Pooled in-window gaps are compared to the unit exponential law by a KS
    test at the asymptotic 5% critical value; per-realization window counts
    to the matching Poisson law by chi-square with pooled bins; counts in
    the two outermost disjoint unit subintervals by their sample
    correlation at a 3-sigma threshold.
    """
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise ValueError("empty window")
    if len(samples) < 1:
        raise ValueError("need at least one realization")
    width = hi - lo
    n_real = len(samples)

    counts = np.array([s.count_in(lo, hi) for s in samples])
    gaps = np.concatenate([window_gaps(s, lo, hi) for s in samples])

    ks_stat = exponential_ks_statistic(gaps) if gaps.size else None
    ks_threshold = KS_CRITICAL_SCALE / math.sqrt(gaps.size) if gaps.size else None

    chi2_stat, chi2_dof, chi2_p = poisson_count_chisquare(counts, width)

    correlation: float | None = None
    if width >= 2.0:
        first = np.array([s.count_in(lo, lo + 1.0) for s in samples], dtype=float)
        second = np.array([s.count_in(hi - 1.0, hi) for s in samples], dtype=float)
        correlation = sample_correlation(first, second)

    unit_counts = np.array([s.count_in(*UNIT_INTERVAL) for s in samples], dtype=float)
    unit_mean = float(unit_counts.mean())
    unit_stderr = (
        float(unit_counts.std(ddof=1) / math.sqrt(n_real)) if n_real > 1 else 0.0
    )

    return PointProcessStats(
        window=(lo, hi),
        n_realizations=n_real,
        counts=counts,
        n_gaps=int(gaps.size),
        ks_statistic=ks_stat,
        ks_threshold=ks_threshold,
        chi2_statistic=chi2_stat,
        chi2_dof=chi2_dof,
        chi2_pvalue=chi2_p,
        correlation=correlation,
        correlation_threshold=3.0 / math.sqrt(n_real),
        unit_mean=unit_mean,
        unit_stderr=unit_stderr,
    )


# ---------------------------------------------------------------------------
# synthetic controls
# ---------------------------------------------------------------------------

def poisson_process_sample(rng: np.random.Generator, lo: float, hi: float) -> RescaledSample:
    """Points of a unit-intensity Poisson process on [lo, hi]."""
    n = int(rng.poisson(hi - lo))
    return RescaledSample(
        xi=np.sort(rng.uniform(lo, hi, size=n)), reference_energy=0.0, stats_radius=0
    )


def picket_fence_sample(lo: float, hi: float) -> RescaledSample:
    """Rigid unit-spaced spectrum; the canonical non-Poisson control."""
    return RescaledSample(
        xi=np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=float),
        reference_energy=0.0,
        stats_radius=0,
    )


# ---------------------------------------------------------------------------
# growth probe of the IDS at a reference energy
# ---------------------------------------------------------------------------

@dataclass
class PosProbeRow:
    epsilon: float
    increment: float
    reference: float


@dataclass
class PosProbe:
    """Diagnostic table of IDS increments against the target power law."""

    rows: list[PosProbeRow]
    kappa: float
    fitted_exponent: float | None
    reliable: bool

    def to_record(self) -> dict:
        return {
            "kappa": self.kappa,
            "fitted_exponent": self.fitted_exponent,
            "reliable": self.reliable,
            "rows": [
                {"epsilon": r.epsilon, "increment": r.increment, "reference": r.reference}
                for r in self.rows
            ],
        }


def probe_pos(
    ids: EmpiricalIDS,
    reference_energy: float,
    kappa: float,
    a: float,
    b: float,
    epsilons,
) -> PosProbe:
    """Tabulate ``|N(E0 + a eps) - N(E0 + b eps)|`` against ``eps**(1+kappa)``.

    Purely diagnostic: the growth constant is not specified, so the probe
    reports the log-log slope and flags fits below the IDS resolution.
    """
    if a >= b:
        raise ValueError("need a < b")
    rows = []
    for eps in epsilons:
        eps = float(eps)
        if eps <= 0:
            raise ValueError("epsilons must be positive")
        increment = abs(
            float(
                ids.evaluate(reference_energy + b * eps)
                - ids.evaluate(reference_energy + a * eps)
            )
        )
        rows.append(PosProbeRow(epsilon=eps, increment=increment, reference=eps ** (1.0 + kappa)))
    positive = [(r.epsilon, r.increment) for r in rows if r.increment > 0]
    floor = 10.0 * ids.resolution
    reliable = (
        len(positive) >= 2
        and float(np.median([inc for _, inc in positive])) >= floor
    )
    fitted = None
    if len(positive) >= 2:
        eps_arr = np.log([e for e, _ in positive])
        inc_arr = np.log([inc for _, inc in positive])
        fitted = float(np.polyfit(eps_arr, inc_arr, 1)[0])
    return PosProbe(rows=rows, kappa=kappa, fitted_exponent=fitted, reliable=reliable)
