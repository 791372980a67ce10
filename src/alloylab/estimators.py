"""Seeded parallel Monte Carlo verification of the spectral bounds.

Every sample owns a private random stream derived from ``(seed, sample
index)``, so estimates are bit-identical for any worker count; aggregation
uses numpy's pairwise summation over arrays laid out in sample order, which
is likewise deterministic.  Every Green entry comes from
``operator.resolvent_columns``; in every estimator and probe, samples whose
solve cannot be certified become NaN rows, are counted, and fail the run
beyond a 0.1% cap.  Determinant samples outside the resolvent envelope
abort the run as numerical faults.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .disorder import DisorderDensity, SingleSitePotential
from .lattice import Box, Site, box, envelope_box, origin, sup_distance
from .operator import (
    MIN_IMAG_PART,
    base_matrix,
    convolution_matrix,
    hamiltonian_stack,
    require_dense,
    resolvent_columns,
)
from .transform import build_circulant, minami_constants

FAILURE_CAP = 1e-3
RESAMPLE_CAP = 1e-2
_CHUNK_BUDGET = 1_000_000


class RunFailure(RuntimeError):
    """Too many samples failed to produce certified values."""


class NumericalFault(RuntimeError):
    """A sampled quantity violated a deterministic envelope; results are untrustworthy."""


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Private generator for one sample, independent of worker layout."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def run_parallel(
    kernel: Callable[[np.ndarray, list[np.random.Generator]], np.ndarray],
    n_samples: int,
    n_columns: int,
    seed: int,
    workers: int = 1,
    chunk_size: int = 512,
) -> np.ndarray:
    """Evaluate a per-sample kernel over fixed chunks, in parallel.

    The kernel receives sample indices plus their private generators and
    returns one row per sample (NaN rows mark failed samples).  Chunk
    boundaries depend only on ``chunk_size``, never on ``workers``.
    """
    if n_samples <= 0:
        raise ValueError("empty sample")
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    values = np.full((n_samples, n_columns), np.nan)
    spans = [(s, min(s + chunk_size, n_samples)) for s in range(0, n_samples, chunk_size)]

    def work(span):
        start, stop = span
        rngs = [sample_stream(seed, i) for i in range(start, stop)]
        out = kernel(np.arange(start, stop), rngs)
        if out.shape != (stop - start, n_columns):
            raise RuntimeError(f"kernel returned shape {out.shape}")
        values[start:stop, :] = out

    if workers == 1:
        for span in spans:
            work(span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(work, span) for span in spans]:
                future.result()
    return values


def column_summary(values: np.ndarray, column: int) -> tuple[float, float, int, int]:
    """Deterministic mean/stderr of one column, skipping (counted) NaN rows."""
    data = values[:, column]
    valid = ~np.isnan(data)
    n_valid = int(np.sum(valid))
    n_failed = data.size - n_valid
    if n_failed > FAILURE_CAP * data.size:
        raise RunFailure(
            f"{n_failed} of {data.size} samples failed, beyond the {FAILURE_CAP:.1%} cap"
        )
    if n_failed:
        data = data[valid]
    mean = float(np.sum(data) / n_valid)
    if n_valid > 1:
        stderr = math.sqrt(float(np.sum((data - mean) ** 2)) / (n_valid - 1) / n_valid)
    else:
        stderr = 0.0
    return mean, stderr, n_valid, n_failed


def sample_correlation(first: np.ndarray, second: np.ndarray) -> float:
    """Sample correlation (ddof=1) of two equal-length series; 0.0 if either is constant."""
    sd1, sd2 = first.std(ddof=1), second.std(ddof=1)
    if not (sd1 > 0 and sd2 > 0):
        return 0.0
    return float(
        np.sum((first - first.mean()) * (second - second.mean()))
        / ((first.size - 1) * sd1 * sd2)
    )


# ---------------------------------------------------------------------------
# experiment configuration and result records
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Physical and sampling parameters of one Monte Carlo experiment."""

    dimension: int
    box_radius: int
    potential: SingleSitePotential
    density: DisorderDensity
    disorder_strength: float
    energy: complex | None = None
    interval: tuple[float, float] | None = None
    site_x: Site | None = None
    site_y: Site | None = None
    n_samples: int = 1000
    seed: int = 0
    workers: int = 1
    shifted_laplacian: bool = False

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.potential.dimension != self.dimension:
            raise ValueError("potential dimension does not match the experiment")
        if self.box_radius < 0:
            raise ValueError("box radius must be non-negative")
        if self.disorder_strength < 0:
            raise ValueError("disorder strength must be non-negative")
        if self.interval is not None:
            a, b = self.interval
            if not (math.isfinite(a) and math.isfinite(b) and a <= b):
                raise ValueError(f"interval [{a}, {b}] must be bounded and ordered")
            self.interval = (float(a), float(b))
        if self.site_x is not None:
            self.site_x = tuple(int(c) for c in self.site_x)
        if self.site_y is not None:
            self.site_y = tuple(int(c) for c in self.site_y)

    @property
    def inner_box(self) -> Box:
        return box(self.box_radius, self.dimension)

    @property
    def envelope(self) -> Box:
        return envelope_box(self.inner_box, self.potential.support_radius)

    def digest_payload(self) -> dict:
        return {
            "dimension": self.dimension,
            "box_radius": self.box_radius,
            "potential": self.potential.as_pairs(),
            "density": self.density.config_key(),
            "disorder_strength": self.disorder_strength,
            "energy": None if self.energy is None else [self.energy.real, self.energy.imag],
            "interval": None if self.interval is None else list(self.interval),
            "site_x": None if self.site_x is None else list(self.site_x),
            "site_y": None if self.site_y is None else list(self.site_y),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "shifted_laplacian": self.shifted_laplacian,
        }

    def digest(self) -> str:
        return canonical_digest(self.digest_payload())


def canonical_digest(payload) -> str:
    """Stable hash of a JSON-serializable payload, key order irrelevant."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


VERDICT_WITHIN = "within_bound"
VERDICT_VIOLATED = "violated_beyond_3sigma"
VERDICT_INCONCLUSIVE = "inconclusive"


def bound_verdict(mean: float, stderr: float, bound: float | None) -> str:
    if bound is None:
        return VERDICT_INCONCLUSIVE
    return VERDICT_WITHIN if mean <= bound + 3.0 * stderr else VERDICT_VIOLATED


@dataclass
class MCEstimate:
    """One Monte Carlo estimate with its bound comparison."""

    estimator: str
    mean: float
    stderr: float
    n_samples: int
    theoretical_bound: float | None
    verdict: str
    seed: int
    config_digest: str
    n_failed: int = 0
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        record = {
            "estimator": self.estimator,
            "mean": self.mean,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "bound": self.theoretical_bound,
            "verdict": self.verdict,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "n_failed": self.n_failed,
            "wall_time": self.wall_time,
        }
        record.update(self.extras)
        return record


def _summarize(
    cfg: ExperimentConfig,
    estimator: str,
    values: np.ndarray,
    column: int,
    bound: float | None,
    started: float,
    extras: dict,
) -> MCEstimate:
    """Estimate from one column of a run against ``bound`` (None or inf: no bound)."""
    mean, stderr, _, n_failed = column_summary(values, column)
    return MCEstimate(
        estimator=estimator,
        mean=mean,
        stderr=stderr,
        n_samples=cfg.n_samples,
        theoretical_bound=bound if bound is not None and math.isfinite(bound) else None,
        verdict=bound_verdict(mean, stderr, bound),
        seed=cfg.seed,
        config_digest=cfg.digest(),
        n_failed=n_failed,
        wall_time=time.perf_counter() - started,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# shared batched machinery
# ---------------------------------------------------------------------------

def _chunk_for(matrix_dim: int) -> int:
    return max(8, min(512, _CHUNK_BUDGET // max(1, matrix_dim * matrix_dim)))


def _draw_couplings(cfg: ExperimentConfig, size: int, rngs) -> np.ndarray:
    """Couplings for a chunk: one row of ``size`` draws per sample generator."""
    return cfg.density.quantile(np.stack([rng.random(size) for rng in rngs]))


def _draw_potentials(cfg: ExperimentConfig, conv: np.ndarray, rngs) -> np.ndarray:
    """Potential profiles for a chunk: one row per sample over the box of ``conv``."""
    return _draw_couplings(cfg, conv.shape[1], rngs) @ conv.T


def _counts(base: np.ndarray, lam: float, profiles: np.ndarray, interval) -> np.ndarray:
    """Eigenvalue counts in the closed interval, one per profile row."""
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, lam, profiles))
    return np.sum((spectra >= interval[0]) & (spectra <= interval[1]), axis=1)


def _batched_counts(cfg: ExperimentConfig) -> Callable:
    """Kernel computing eigenvalue counts in ``cfg.interval`` per sample."""
    inner = cfg.inner_box
    conv = convolution_matrix(inner, cfg.potential, cfg.envelope)
    base = base_matrix(inner, cfg.shifted_laplacian)

    def kernel(indices, rngs):
        profiles = _draw_potentials(cfg, conv, rngs)
        return _counts(base, cfg.disorder_strength, profiles, cfg.interval).astype(float)[:, None]

    return kernel


# ---------------------------------------------------------------------------
# determinant estimator
# ---------------------------------------------------------------------------

def estimate_minami(cfg: ExperimentConfig) -> MCEstimate:
    """Mean of ``det Im`` of the Green block against the determinant bound.

    Every sample is checked against the hard envelope
    ``0 < det <= (Im z)**-2``; a violation is a numerical fault, not a
    statistics event.  For the pure delta profile the classical
    ``pi**2 |rho|_inf**2`` comparison is recorded as well.
    """
    if cfg.energy is None or cfg.energy.imag <= MIN_IMAG_PART:
        raise ValueError("determinant estimator needs a spectral parameter with Im z > 0")
    if cfg.site_x is None or cfg.site_y is None or cfg.site_x == cfg.site_y:
        raise ValueError("determinant estimator needs two distinct sites")
    inner = cfg.inner_box
    if not (inner.contains(cfg.site_x) and inner.contains(cfg.site_y)):
        raise ValueError("both sites must lie in the box")
    require_dense(inner.size)

    started = time.perf_counter()
    lam = cfg.disorder_strength
    z = complex(cfg.energy)
    transform = build_circulant(cfg.potential, inner)
    constants = (
        minami_constants(transform, cfg.density, lam, cfg.site_x, cfg.site_y)
        if lam > 0
        else None
    )
    bound = constants.determinant_bound if constants else math.inf

    conv = convolution_matrix(inner, cfg.potential, cfg.envelope)
    base = base_matrix(inner, cfg.shifted_laplacian)
    ix, iy = inner.index_of(cfg.site_x), inner.index_of(cfg.site_y)
    envelope_cap = z.imag**-2

    def kernel(indices, rngs):
        matrices = hamiltonian_stack(base, lam, _draw_potentials(cfg, conv, rngs))
        solutions, good = resolvent_columns(matrices, z, [ix, iy])
        g_im = solutions[:, [ix, iy], :].imag
        det = g_im[:, 0, 0] * g_im[:, 1, 1] - g_im[:, 0, 1] * g_im[:, 1, 0]
        bad = good & ((det <= 0.0) | (det > envelope_cap))
        if np.any(bad):
            worst = det[bad][0]
            raise NumericalFault(
                f"det Im g = {worst!r} outside (0, {envelope_cap!r}] at sample "
                f"{int(indices[np.nonzero(bad)[0][0]])}"
            )
        out = det[:, None].astype(float)
        out[~good] = np.nan
        return out

    values = run_parallel(
        kernel, cfg.n_samples, 1, cfg.seed, cfg.workers, _chunk_for(inner.size)
    )
    extras = {"envelope_violations": 0, "inverse_one_norm": transform.inverse_one_norm}
    estimate = _summarize(cfg, "minami", values, 0, bound, started, extras)
    mean, stderr = estimate.mean, estimate.stderr
    extras["n_valid"] = cfg.n_samples - estimate.n_failed
    if constants:
        extras["site_resolved_bound"] = constants.site_resolved_bound
        extras["within_site_resolved"] = bool(
            mean <= constants.site_resolved_bound + 3.0 * stderr
        )
    if cfg.potential == SingleSitePotential.delta(cfg.dimension):
        classical = math.pi**2 * cfg.density.sup_norm**2
        extras["classical_bound"] = classical
        extras["within_classical"] = bool(mean <= classical + 3.0 * stderr)
    return estimate


# ---------------------------------------------------------------------------
# counting estimators
# ---------------------------------------------------------------------------

def estimate_wegner(cfg: ExperimentConfig) -> MCEstimate:
    """Mean eigenvalue count in the interval; diagnostic, no a-priori constant.

    The record carries the linearity ratio ``mean / (|J| |box|)`` so sweeps
    over interval widths can certify boundedness.
    """
    if cfg.interval is None:
        raise ValueError("counting estimator needs an interval")
    if cfg.n_samples < 1:
        raise ValueError("empty sample")
    started = time.perf_counter()
    inner = cfg.inner_box
    require_dense(inner.size)
    values = run_parallel(
        _batched_counts(cfg), cfg.n_samples, 1, cfg.seed, cfg.workers, _chunk_for(inner.size)
    )
    width = cfg.interval[1] - cfg.interval[0]
    estimate = _summarize(cfg, "wegner", values, 0, None, started, {"interval_width": width})
    ratio = estimate.mean / (width * inner.size) if width > 0 else math.inf
    estimate.extras.update(count_ratio=ratio, n_valid=cfg.n_samples - estimate.n_failed)
    return estimate


def wegner_ratio_sweep(
    cfg: ExperimentConfig, widths: Sequence[float], center: float
) -> list[MCEstimate]:
    """Run the counting estimator at several interval widths around a center."""
    return [
        estimate_wegner(replace(cfg, interval=(center - width / 2.0, center + width / 2.0)))
        for width in widths
    ]


@dataclass
class TwoEigenvalueEstimate:
    """Probability of two eigenvalues in an interval and its moment bound."""

    probability: MCEstimate
    half_moment: MCEstimate
    exact_inequality_holds: bool


def estimate_two_eigenvalue_probability(cfg: ExperimentConfig) -> TwoEigenvalueEstimate:
    """Estimate ``P(count >= 2)`` and ``E(count^2 - count)/2`` in one run.

    The per-sample-set inequality ``indicator <= count(count-1)/2`` is exact
    (k >= 2 implies k(k-1)/2 >= 1) and asserted sample by sample; both
    estimates are compared against the quadratic-in-width bound.
    """
    if cfg.interval is None:
        raise ValueError("counting estimator needs an interval")
    started = time.perf_counter()
    inner = cfg.inner_box
    require_dense(inner.size)
    lam = cfg.disorder_strength
    if lam > 0 and inner.size < 2:
        raise ValueError("the two-eigenvalue bound needs a box with at least two sites")
    count_kernel = _batched_counts(cfg)

    def kernel(indices, rngs):
        counts = count_kernel(indices, rngs)[:, 0]
        indicator = (counts >= 2.0).astype(float)
        half_pairs = counts * (counts - 1.0) / 2.0
        return np.stack([indicator, half_pairs], axis=1)

    values = run_parallel(
        kernel, cfg.n_samples, 2, cfg.seed, cfg.workers, _chunk_for(inner.size)
    )
    exact = bool(np.all(values[:, 0] <= values[:, 1] + 1e-12))
    if not exact:
        raise NumericalFault("indicator exceeded the pair count; counting is broken")

    width = cfg.interval[1] - cfg.interval[0]
    if lam > 0:
        transform = build_circulant(cfg.potential, inner)
        # the first two sites in enumeration order
        x = tuple(c - inner.radius for c in inner.center)
        y = x[:-1] + (x[-1] + 1,)
        constants = minami_constants(transform, cfg.density, lam, x, y)
        bound = 0.5 * constants.determinant_bound * width**2 * inner.size**2
    else:
        bound = math.inf

    probability, half_moment = (
        _summarize(cfg, name, values, column, bound, started, {"interval_width": width})
        for column, name in enumerate(("two_eigenvalue_probability", "two_eigenvalue_half_moment"))
    )
    return TwoEigenvalueEstimate(
        probability=probability, half_moment=half_moment, exact_inequality_holds=exact
    )


# ---------------------------------------------------------------------------
# localization probes
# ---------------------------------------------------------------------------

@dataclass
class FvcPoint:
    box_radius: int
    probability: float
    stderr: float
    resample_fraction: float
    n_samples: int
    excessive_resampling: bool
    n_failed: int


def probe_fvc(
    cfg: ExperimentConfig,
    decay_exponent: float,
    radii: Sequence[int],
    regularization: float = 1e-8,
    resonance_gap: float = 1e-6,
    max_attempts: int = 64,
) -> list[FvcPoint]:
    """Probability that all well-separated Green entries decay like ``L**-Theta``.

    The energy is taken real (from ``cfg.energy``), regularized by a tiny
    imaginary part; draws with an eigenvalue within ``resonance_gap`` of the
    energy are redrawn from the same stream and counted.
    """
    if decay_exponent <= 3 * cfg.dimension - 1:
        raise ValueError(
            f"decay exponent must exceed 3d - 1 = {3 * cfg.dimension - 1}, got {decay_exponent}"
        )
    if cfg.energy is None:
        raise ValueError("localization probe needs a reference energy")
    if regularization <= MIN_IMAG_PART:
        raise ValueError(f"regularization must exceed {MIN_IMAG_PART}, got {regularization}")
    energy = float(cfg.energy.real)
    lam = cfg.disorder_strength
    results = []
    for radius in radii:
        inner = box(int(radius), cfg.dimension)
        require_dense(inner.size)
        env = envelope_box(inner, cfg.potential.support_radius)
        conv = convolution_matrix(inner, cfg.potential, env)
        base = base_matrix(inner, cfg.shifted_laplacian)
        sites = inner.site_array()
        seps = np.max(np.abs(sites[:, None, :] - sites[None, :, :]), axis=2)
        pair_mask = seps >= radius / 2.0
        threshold = float(radius) ** -decay_exponent
        shift = energy + 1j * regularization

        def kernel(indices, rngs, _conv=conv, _base=base, _mask=pair_mask, _thr=threshold):
            rows = np.full((len(indices), 2), np.nan)
            accepted, matrices = [], []
            for row, rng in enumerate(rngs):
                resamples = 0
                for _ in range(max_attempts):
                    (matrix,) = hamiltonian_stack(_base, lam, _draw_potentials(cfg, _conv, [rng]))
                    spectrum = np.linalg.eigvalsh(matrix)
                    if np.min(np.abs(spectrum - energy)) > resonance_gap:
                        accepted.append(row)
                        matrices.append(matrix)
                        break
                    resamples += 1
                rows[row, 1] = resamples
            if matrices:
                columns = np.arange(_base.shape[0])
                green, certified = resolvent_columns(np.stack(matrices), shift, columns)
                ok = np.all(np.abs(green[:, _mask]) <= _thr, axis=1)
                rows[accepted, 0] = np.where(certified, ok, np.nan)
            return rows

        values = run_parallel(
            kernel, cfg.n_samples, 2, cfg.seed, cfg.workers, _chunk_for(inner.size)
        )
        probability, stderr, _, n_failed = column_summary(values, 0)
        total_resamples = float(np.nansum(values[:, 1]))
        fraction = total_resamples / (cfg.n_samples + total_resamples)
        results.append(
            FvcPoint(
                box_radius=int(radius),
                probability=probability,
                stderr=stderr,
                resample_fraction=fraction,
                n_samples=cfg.n_samples,
                excessive_resampling=fraction > RESAMPLE_CAP,
                n_failed=n_failed,
            )
        )
    return results


@dataclass
class FmbPoint:
    distance: int
    mean: float
    stderr: float
    n_failed: int


@dataclass
class FmbReport:
    """Fractional-moment decay fit; a diagnostic, no pass/fail attached."""

    moment: float
    points: list[FmbPoint]
    amplitude: float
    decay_rate: float
    r_squared: float


def probe_fractional_moment(
    cfg: ExperimentConfig,
    moment: float,
    pairs: Sequence[tuple[Site, Site]] | None = None,
) -> FmbReport:
    """Fit exponential decay of ``E |G(z; x, y)|^s`` against pair distance."""
    if not 0.0 < moment < 1.0:
        raise ValueError("the fractional moment exponent must lie in (0, 1)")
    if cfg.energy is None or cfg.energy.imag <= MIN_IMAG_PART:
        raise ValueError(f"fractional moment probe needs Im z > {MIN_IMAG_PART}")
    inner = cfg.inner_box
    require_dense(inner.size)
    if pairs is None:
        anchor = origin(cfg.dimension)
        pairs = [
            (anchor, (k,) + (0,) * (cfg.dimension - 1))
            for k in range(1, cfg.box_radius + 1)
        ]
    pairs = [(tuple(x), tuple(y)) for x, y in pairs]
    for x, y in pairs:
        if x == y:
            raise ValueError("pair distances must be positive")
        if not (inner.contains(x) and inner.contains(y)):
            raise ValueError(f"pair {(x, y)} leaves the box")
    conv = convolution_matrix(inner, cfg.potential, cfg.envelope)
    base = base_matrix(inner, cfg.shifted_laplacian)
    pair_rows = np.array([inner.index_of(x) for x, _ in pairs])
    # G(z; x, y) is entry x of resolvent column y; solve each distinct column once
    columns, pair_cols = np.unique([inner.index_of(y) for _, y in pairs], return_inverse=True)
    lam = cfg.disorder_strength

    def kernel(indices, rngs):
        matrices = hamiltonian_stack(base, lam, _draw_potentials(cfg, conv, rngs))
        green, certified = resolvent_columns(matrices, cfg.energy, columns)
        values = np.abs(green[:, pair_rows, pair_cols]) ** moment
        values[~certified] = np.nan
        return values

    values = run_parallel(
        kernel, cfg.n_samples, len(pairs), cfg.seed, cfg.workers, _chunk_for(inner.size)
    )
    points = []
    for column, (x, y) in enumerate(pairs):
        mean, stderr, _, n_failed = column_summary(values, column)
        points.append(
            FmbPoint(distance=sup_distance(x, y), mean=mean, stderr=stderr, n_failed=n_failed)
        )
    points.sort(key=lambda p: p.distance)
    distances = np.array([p.distance for p in points], dtype=float)
    logs = np.log(np.array([max(p.mean, 1e-300) for p in points]))
    slope, intercept = np.polyfit(distances, logs, 1)
    predicted = intercept + slope * distances
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FmbReport(
        moment=moment,
        points=points,
        amplitude=math.exp(intercept),
        decay_rate=-slope,
        r_squared=r_squared,
    )


# ---------------------------------------------------------------------------
# independence diagnostic
# ---------------------------------------------------------------------------

@dataclass
class IndependenceReport:
    correlation: float
    threshold: float
    separation: int
    n_samples: int

    @property
    def consistent_with_independence(self) -> bool:
        return abs(self.correlation) < self.threshold


def independence_probe(cfg: ExperimentConfig, separation: int) -> IndependenceReport:
    """Correlation of eigenvalue counts in two far-apart boxes.

    Counts become independent once the boxes are farther apart than the
    potential support diameter; this checks the sample correlation is
    statistically zero.  A diagnostic, not a proof.
    """
    if cfg.interval is None:
        raise ValueError("independence probe needs an interval")
    reach = cfg.potential.support_radius
    if separation <= 2 * cfg.box_radius + 2 * reach:
        raise ValueError("boxes overlap or share couplings at this separation")
    center_two = (separation,) + (0,) * (cfg.dimension - 1)
    box_one = box(cfg.box_radius, cfg.dimension)
    box_two = Box(center_two, cfg.box_radius)
    field_box = Box(origin(cfg.dimension), separation + cfg.box_radius + reach)
    convs = [convolution_matrix(b, cfg.potential, field_box) for b in (box_one, box_two)]
    # both boxes have the same shape, hence the same potential-free part
    base = base_matrix(box_one, cfg.shifted_laplacian)
    lam = cfg.disorder_strength

    def kernel(indices, rngs):
        omegas = _draw_couplings(cfg, field_box.size, rngs)
        counts = [_counts(base, lam, omegas @ conv.T, cfg.interval) for conv in convs]
        return np.stack(counts, axis=1).astype(float)

    values = run_parallel(
        kernel, cfg.n_samples, 2, cfg.seed, cfg.workers, _chunk_for(box_one.size)
    )
    return IndependenceReport(
        correlation=sample_correlation(values[:, 0], values[:, 1]),
        threshold=3.0 / math.sqrt(cfg.n_samples),
        separation=separation,
        n_samples=cfg.n_samples,
    )
