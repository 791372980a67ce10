"""Seeded parallel Monte Carlo verification of the spectral bounds.

Every draw is a pure function of ``(seed, sample index, block)``
(``uniforms``), so estimates are bit-identical for any worker count; aggregation
uses numpy's pairwise summation over arrays laid out in sample order, which
is likewise deterministic.  Kernels hand ``operator`` a box and diagonal
rows; its ``green_columns``, behind every Green entry, makes a sample whose
solve cannot be certified a NaN row, and NaN rows are counted and fail the
run beyond a 0.1% cap.  ``minami`` reads its 2x2 blocks through
``green_blocks`` and their determinants through ``det_imaginary``, the
Krein identity's path too; samples outside the resolvent envelope abort the
run as numerical faults.  ``run_parallel`` is the one parallel
driver: at ``workers > 1`` it forks worker processes that write their rows
into shared memory, so work that holds the GIL scales too.  It pins BLAS to
one thread and keeps the pin, so LAPACK sums in the same order whatever the
number of workers.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import mmap
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .disorder import DisorderDensity, SingleSitePotential
from .lattice import Box, ConfigError, Site, box, envelope_box, origin, sup_distance
from .operator import (
    MIN_IMAG_PART,
    STACK_ENTRIES,
    count_footprint,
    det_imaginary,
    green_blocks,
    green_columns,
    hamiltonian_diagonals,
    interval_counts,
    potential_profiles,
    require_dense,
)
from .transform import build_circulant, minami_constants

FAILURE_CAP = 1e-3
RESAMPLE_CAP = 1e-2
RESONANCE_GAP = 1e-6  # fvc redraws a sample with an eigenvalue this close to its energy
MAX_ATTEMPTS = 64  # draws per fvc sample before it counts as failed
SHARED_BYTES = 2**30  # the most a run's shared rows may map: 1 GiB
_COUNT_CHUNK = 64  # two chunks of a 128-sample count run, so both workers stay busy
PINNED_BLAS_THREADS = 1
# OpenBLAS copies bundled with the numpy and scipy wheels: package, library, symbol suffix
_OPENBLAS_COPIES = (
    ("numpy", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "libscipy_openblas-*.so", ""),
)


class RunFailure(RuntimeError):
    """Too many samples failed to produce certified values."""


class NumericalFault(RuntimeError):
    """A sampled quantity violated a deterministic envelope; results are untrustworthy."""


def uniforms(seed: int, indices, width: int, attempt: int = 0) -> np.ndarray:
    """Block ``attempt`` of ``width`` uniforms in [0, 1), one row per sample index.

    Row ``i`` is the ``attempt``-th run of ``width`` doubles of the PCG64 stream
    keyed by ``SeedSequence(entropy=seed, spawn_key=(i,))``: a redraw or a second
    box reads the next block, and no row depends on the call's other indices.
    The streams are seeded in bulk (``_stream_states``) and run on one reused
    generator, with numpy's bits; indices are integers in ``[0, 2**64)``.
    """
    out = np.empty((len(indices), width))
    index = np.asarray(indices)
    if seed < 0 or index.size and (index.dtype.kind not in "iu" or index.min() < 0):
        raise ConfigError("the seed and every sample index must be non-negative integers")
    bits = np.random.PCG64(0)
    generator, state = np.random.Generator(bits), bits.state
    for row, stream in zip(out, _stream_states(seed, index.astype(np.uint64))):
        state["state"] = stream
        bits.state = state
        if attempt:
            bits.advance(attempt * width)
        generator.random(out=row)
    return out


# numpy's SeedSequence constants; NEP 19 keeps the streams they seed stable
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_WORD, _DOUBLE_WORD = 2**32 - 1, 2**128 - 1


def _hash_constants(start: int, multiplier: int):
    """The ``(before, after)`` pairs of a SeedSequence hash constant, one per hash."""
    while True:
        after = start * multiplier & _WORD
        yield start, after
        start = after


def _hashmix(value, constants):
    """SeedSequence's ``hashmix`` of a 32-bit word or an array of them."""
    before, after = next(constants)
    value = (value ^ before) * after & _WORD
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words or arrays of them."""
    value = (_MIX_L * x - _MIX_R * y) & _WORD
    return value ^ value >> 16


def _stream_states(seed: int, indices: np.ndarray) -> list[dict]:
    """PCG64's ``{"state", "inc"}`` from ``SeedSequence(entropy=seed, spawn_key=(i,))``, per index.

    numpy's algorithm written out (O'Neill, "PCG: A Family of Simple Fast
    Space-Efficient Statistically Good Algorithms for Random Number Generation",
    2014, for the seeding): the seed's 32-bit words, padded to the 4-word pool,
    are mixed once; each index's one or two spawn-key words, then
    ``generate_state(4, uint64)``, are mixed for all indices at once in uint32
    arrays; the 128-bit seeding runs on each index's Python ints.
    """
    words = [seed >> shift & _WORD for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in words[:4]]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = _mix(pool[target], _hashmix(pool[source], constants))
    for word in words[4:]:
        pool = [_mix(entry, _hashmix(word, constants)) for entry in pool]
    low, high = (indices & _WORD).astype(np.uint32), (indices >> 32).astype(np.uint32)
    pool = [_mix(np.full(low.shape, entry, np.uint32), _hashmix(low, constants)) for entry in pool]
    if (two := np.flatnonzero(high)).size:  # an index of 2**32 or more has a second word
        mixed = [_mix(entry[two], _hashmix(high[two], constants)) for entry in pool]
        for entry, value in zip(pool, mixed):
            entry[two] = value
    constants = _hash_constants(_INIT_B, _MULT_B)
    halves = np.stack([_hashmix(pool[k % 4], constants) for k in range(8)]).astype(np.uint64)
    states = []
    for a, b, c, d in (halves[0::2] | halves[1::2] << np.uint64(32)).T.tolist():
        inc = ((c << 64 | d) << 1 | 1) & _DOUBLE_WORD
        state = ((a << 64 | b) + inc) * _PCG64_MULT + inc  # srandom: two LCG steps from 0
        states.append({"state": state & _DOUBLE_WORD, "inc": inc})
    return states


@dataclass(frozen=True)
class BlasLibrary:
    """Thread-count control of one loaded OpenBLAS copy."""

    package: str
    config: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


_FOUND_BLAS: dict[str, BlasLibrary] = {}  # each copy found, by package: a loaded library stays


def _openblas_libraries() -> tuple[tuple[BlasLibrary, ...], str | None]:
    """The OpenBLAS copies loaded now, and the first library or symbol not found (None if all were).

    A copy is looked up until it is found, then kept for the process; a copy
    can load partway through a process: importing ``scipy.linalg`` or
    ``scipy.special`` loads scipy's.  A copy not loaded yet (its package not
    imported, or its library not mapped) is neither listed nor missing; an
    imported package without its bundled library, or a loaded library without
    a symbol, is missing.  Libraries are opened with ``RTLD_NOLOAD``, so one
    that is not loaded already is never loaded.
    """
    found, missing = [], []
    for package, pattern, suffix in _OPENBLAS_COPIES:
        if package in _FOUND_BLAS:
            found.append(_FOUND_BLAS[package])
            continue
        if (module := sys.modules.get(package)) is None:
            continue
        paths = sorted(Path(module.__file__).parents[1].glob(f"{package}.libs/{pattern}"))
        if not paths:
            missing.append(f"{package}.libs/{pattern}")
            continue
        try:
            lib = ctypes.CDLL(str(paths[0]), mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        verbs = ("get_num_threads", "set_num_threads", "get_config")
        names = [f"scipy_openblas_{verb}{suffix}" for verb in verbs]
        if absent := [name for name in names if not hasattr(lib, name)]:
            missing.append(absent[0])
            continue
        getter, setter, config = (getattr(lib, name) for name in names)
        setter.argtypes, setter.restype = [ctypes.c_int], None
        config.restype = ctypes.c_char_p
        _FOUND_BLAS[package] = BlasLibrary(package, config().decode(), getter, setter)
        found.append(_FOUND_BLAS[package])
    return tuple(found), missing[0] if missing else None


def pin_blas_threads() -> None:
    """Set every loaded OpenBLAS copy to ``PINNED_BLAS_THREADS``, for the rest of the process.

    A copy already at that count is left alone: once the process has forked,
    OpenBLAS re-creates its thread pool on any thread-count call, and the new
    threads spin before they sleep.  So a pin is never restored.  A copy that
    loads later is pinned by the next call; a missing library or symbol is
    skipped (``blas_environment`` names it).
    """
    for lib in _openblas_libraries()[0]:
        if lib.get_threads() != PINNED_BLAS_THREADS:
            lib.set_threads(PINNED_BLAS_THREADS)


def blas_environment() -> dict:
    """BLAS facts for a run manifest: each loaded copy's config and the count ``run_parallel`` pins."""
    libraries, missing = _openblas_libraries()
    return {
        "openblas": {lib.package: lib.config for lib in libraries},
        "blas_threads": PINNED_BLAS_THREADS if missing is None else None,
        "blas_missing": missing,
    }


def run_parallel(
    kernel: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    n_columns: int,
    workers: int = 1,
    chunk_size: int = 512,
) -> np.ndarray:
    """Evaluate a per-sample kernel over fixed chunks, in parallel.

    The kernel maps an array of sample indices to one row per sample (NaN
    rows mark failed samples).  Chunk boundaries depend only on
    ``chunk_size``, never on ``workers``.  BLAS is pinned to one thread at
    every worker count, and the pin is kept (``pin_blas_threads``).  With
    ``W = min(workers, chunks)`` the caller forks ``W - 1`` processes (POSIX
    only; none at ``W = 1``) and worker ``w`` runs chunks ``w, w + W, ...``
    into shared memory, so only the returned rows come back; rows past
    ``SHARED_BYTES`` are refused before anything is mapped.  The lowest
    failing chunk's exception is raised.
    """
    if n_samples <= 0:
        raise ConfigError("empty sample")
    if workers < 1:
        raise ConfigError("worker count must be at least 1")
    if 8 * n_samples * n_columns > SHARED_BYTES:
        raise ConfigError(f"{n_samples} rows of {n_columns} values pass the {SHARED_BYTES}-byte shared map")
    spans = [(s, min(s + chunk_size, n_samples)) for s in range(0, n_samples, chunk_size)]
    n_workers = min(workers, len(spans))
    shared = mmap.mmap(-1, 8 * max(n_samples * n_columns, 1))
    values = np.frombuffer(shared, count=n_samples * n_columns).reshape(n_samples, n_columns)
    values.fill(np.nan)

    def run_spans(worker, catch):
        """Run worker ``worker``'s chunks in order; its first failure as (chunk, exception)."""
        for index in range(worker, len(spans), n_workers):
            start, stop = spans[index]
            try:
                out = kernel(np.arange(start, stop))
                if out.shape != (stop - start, n_columns):
                    raise RuntimeError(f"kernel returned shape {out.shape}")
            except catch as exc:
                return index, exc
            values[start:stop, :] = out

    pin_blas_threads()
    _run_forked(run_spans, n_workers)
    return values


def _run_forked(run_spans, n_workers: int) -> None:
    """Run ``run_spans(w, ...)`` in worker ``w``: the caller is worker 0 and forks the rest.

    A child pickles its first failure down a pipe and leaves by ``os._exit``.
    Every child is reaped, and killed first if the caller raises.
    """
    children = {}
    try:
        for worker in range(1, n_workers):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                failure = True  # stays truthy, so the exit is 1, if reporting fails
                try:
                    if failure := run_spans(worker, BaseException):
                        with open(write_fd, "wb") as pipe:
                            pipe.write(_pickled_failure(*failure))
                finally:
                    os._exit(1 if failure else 0)
            os.close(write_fd)
            children[pid] = (worker, open(read_fd, "rb"))
        failures = [run_spans(0, Exception)]
        for pid, (worker, pipe) in list(children.items()):
            message = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            pipe.close()
            if message or status:
                failures.append(pickle.loads(message) if message else (worker, RunFailure(
                    f"worker {worker} exited with status {status} without a report"
                )))
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures := [failure for failure in failures if failure]:
        raise min(failures, key=lambda failure: failure[0])[1]


def _pickled_failure(index: int, exc: BaseException) -> bytes:
    """``(index, exc)`` pickled, or a ``RunFailure`` naming ``exc`` if that does not round-trip."""
    try:
        pickle.loads(message := pickle.dumps((index, exc)))
        return message
    except Exception:
        return pickle.dumps((index, RunFailure(
            f"chunk {index} raised an exception that cannot be pickled: {exc!r}"
        )))


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
            raise ConfigError("dimension must be at least 1")
        if self.potential.dimension != self.dimension:
            raise ConfigError(f"potential offsets have dimension {self.potential.dimension}, expected {self.dimension}")
        if self.box_radius < 0:
            raise ConfigError("box radius must be non-negative")
        if self.workers < 1:
            raise ConfigError("worker count must be at least 1")
        if self.seed < 0:  # uniforms would refuse it only inside the first chunk
            raise ConfigError(f"'seed' must be non-negative, got {self.seed}")
        if not 0 <= self.disorder_strength < math.inf:
            raise ConfigError(
                f"disorder strength must be finite and non-negative, got {self.disorder_strength}"
            )
        if self.energy is not None and not np.isfinite(self.energy):
            raise ConfigError(f"energy must be finite, got {self.energy}")
        if self.interval is not None:
            a, b = self.interval
            if not (math.isfinite(a) and math.isfinite(b) and a <= b):
                raise ConfigError(f"interval [{a}, {b}] must be bounded and ordered")
            if not math.isfinite(b - a):
                raise ConfigError(f"interval width of [{a}, {b}] is out of range")
            self.interval = (float(a), float(b))
        if self.site_x is not None:
            self.site_x = tuple(int(c) for c in self.site_x)
        if self.site_y is not None:
            self.site_y = tuple(int(c) for c in self.site_y)

    @property
    def inner_box(self) -> Box:
        return box(self.box_radius, self.dimension)

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
    count_fallbacks: int = 0
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
            "count_fallbacks": self.count_fallbacks,
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
    """Samples per chunk of a kernel whose samples ``operator`` holds as a dense stack."""
    return max(8, min(512, STACK_ENTRIES // max(1, matrix_dim * matrix_dim)))


def _count_chunk(inner: Box, intervals) -> int:
    """Samples per chunk of a counting kernel over ``inner``.

    The dense chunk, grown to at most ``_COUNT_CHUNK`` samples where what
    ``interval_counts`` holds per sample fits the budget: the kernel's cost per
    call is mostly fixed, so it wants many lanes.
    """
    fits = STACK_ENTRIES // count_footprint(inner, intervals)
    return max(_chunk_for(inner.size), min(_COUNT_CHUNK, fits))


def _draw_diagonals(cfg: ExperimentConfig, inner: Box, indices, attempt: int = 0) -> np.ndarray:
    """Each sample's ``hamiltonian_diagonals`` over ``inner``, from block ``attempt`` of its draws."""
    field = envelope_box(inner, cfg.potential.support_radius)
    couplings = cfg.density.quantile(uniforms(cfg.seed, indices, field.size, attempt))
    profiles = potential_profiles(inner, cfg.potential, field, couplings)
    return hamiltonian_diagonals(inner, cfg.shifted_laplacian, cfg.disorder_strength, profiles)


def _batched_counts(cfg: ExperimentConfig, intervals) -> Callable:
    """Kernel: each sample's counts in every interval, then a 0/1 eigvalsh fallback for each."""
    inner = cfg.inner_box
    require_dense(inner.size)  # a count's eigvalsh recount is dense

    def kernel(indices):
        return np.hstack(interval_counts(inner, _draw_diagonals(cfg, inner, indices), intervals))

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
        raise ConfigError("determinant estimator needs a spectral parameter with Im z > 0")
    if cfg.site_x is None or cfg.site_y is None or cfg.site_x == cfg.site_y:
        raise ConfigError("determinant estimator needs two distinct sites")
    inner = cfg.inner_box
    if not (inner.contains(cfg.site_x) and inner.contains(cfg.site_y)):
        raise ConfigError("both sites must lie in the box")
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

    envelope_cap = z.imag**-2

    def kernel(indices):
        rows = _draw_diagonals(cfg, inner, indices)
        det = det_imaginary(green_blocks(inner, rows, z, cfg.site_x, cfg.site_y))
        bad = (det <= 0.0) | (det > envelope_cap)  # an uncertified sample's NaN is neither
        if np.any(bad):
            worst = det[bad][0]
            raise NumericalFault(
                f"det Im g = {worst!r} outside (0, {envelope_cap!r}] at sample "
                f"{int(indices[np.nonzero(bad)[0][0]])}"
            )
        return det[:, None]

    values = run_parallel(kernel, cfg.n_samples, 1, cfg.workers, _chunk_for(inner.size))
    extras = {"envelope_violations": 0, "inverse_one_norm": transform.inverse_one_norm}
    estimate = _summarize(cfg, "minami", values, 0, bound, started, extras)
    mean, stderr = estimate.mean, estimate.stderr
    extras["n_valid"] = cfg.n_samples - estimate.n_failed
    if constants:
        extras["site_resolved_bound"] = site_resolved = constants.site_resolved_bound
        extras["within_site_resolved"] = bound_verdict(mean, stderr, site_resolved) == VERDICT_WITHIN
    if cfg.potential == SingleSitePotential.delta(cfg.dimension):
        extras["classical_bound"] = classical = math.pi**2 * cfg.density.sup_norm**2
        extras["within_classical"] = bound_verdict(mean, stderr, classical) == VERDICT_WITHIN
    return estimate


# ---------------------------------------------------------------------------
# counting estimators
# ---------------------------------------------------------------------------

def estimate_wegner(cfg: ExperimentConfig) -> MCEstimate:
    """Mean eigenvalue count in the interval; diagnostic, no a-priori constant.

    The record carries the linearity ratio ``mean / (|J| |box|)`` (None for
    a zero-width interval) so sweeps over interval widths can certify
    boundedness.
    """
    return _wegner_estimates(cfg, [cfg])[0]


def sweep_configs(
    cfg: ExperimentConfig, widths: Sequence[float], center: float
) -> list[ExperimentConfig]:
    """One config per width: ``cfg`` with the interval of that width around ``center``.

    The one expansion rule of a sweep; each config's digest is its record's.
    """
    return [replace(cfg, interval=(center - w / 2.0, center + w / 2.0)) for w in widths]


def wegner_ratio_sweep(
    cfg: ExperimentConfig, widths: Sequence[float], center: float
) -> list[MCEstimate]:
    """The counting estimator at several interval widths around a center.

    Every width is counted against the same draws and factorizations;
    every estimate carries its own interval's digest.
    """
    return _wegner_estimates(cfg, sweep_configs(cfg, widths, center))


def _wegner_estimates(cfg: ExperimentConfig, swept: list) -> list[MCEstimate]:
    """One counting run of ``cfg``'s samples, one estimate per config of ``swept``."""
    intervals = [c.interval for c in swept]
    if not intervals or None in intervals:
        raise ConfigError("counting estimator needs an interval")
    started = time.perf_counter()
    size = cfg.inner_box.size
    kernel = _batched_counts(cfg, intervals)
    chunk = _count_chunk(cfg.inner_box, intervals)
    values = run_parallel(kernel, cfg.n_samples, 2 * len(swept), cfg.workers, chunk)
    estimates = []
    for column, c in enumerate(swept):
        width = c.interval[1] - c.interval[0]
        estimate = _summarize(c, "wegner", values, column, None, started, {"interval_width": width})
        estimate.count_fallbacks = int(np.sum(values[:, len(swept) + column]))
        ratio = estimate.mean / (width * size) if width > 0 else None
        estimate.extras.update(count_ratio=ratio, n_valid=cfg.n_samples - estimate.n_failed)
        estimates.append(estimate)
    return estimates


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
        raise ConfigError("counting estimator needs an interval")
    started = time.perf_counter()
    inner = cfg.inner_box
    lam = cfg.disorder_strength
    if lam > 0 and inner.size < 2:
        raise ConfigError("the two-eigenvalue bound needs a box with at least two sites")
    kernel = _batched_counts(cfg, [cfg.interval])
    width = cfg.interval[1] - cfg.interval[0]
    if lam > 0:
        transform = build_circulant(cfg.potential, inner)
        # the first two sites in enumeration order
        x = tuple(c - inner.radius for c in inner.center)
        y = x[:-1] + (x[-1] + 1,)
        constants = minami_constants(transform, cfg.density, lam, x, y)
        try:
            bound = 0.5 * constants.determinant_bound * width**2 * inner.size**2
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):  # width**2 or the product leaves the floats
            raise ConfigError(f"interval width {width!r} is out of range for the bound")
    else:
        bound = math.inf

    values = run_parallel(kernel, cfg.n_samples, 2, cfg.workers, _count_chunk(inner, [cfg.interval]))
    counts, fallbacks = values.T
    failed = np.isnan(counts)  # an uncounted sample fails both estimates
    indicator = np.where(failed, np.nan, counts >= 2.0)
    values = np.stack([indicator, counts * (counts - 1.0) / 2.0], axis=1)
    exact = bool(np.all(values[~failed, 0] <= values[~failed, 1] + 1e-12))
    if not exact:
        raise NumericalFault("indicator exceeded the pair count; counting is broken")

    probability, half_moment = (
        _summarize(cfg, name, values, column, bound, started, {"interval_width": width})
        for column, name in enumerate(("two_eigenvalue_probability", "two_eigenvalue_half_moment"))
    )
    probability.count_fallbacks = half_moment.count_fallbacks = int(np.sum(fallbacks))
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
    count_fallbacks: int = 0


def probe_fvc(
    cfg: ExperimentConfig,
    decay_exponent: float,
    radii: Sequence[int],
    regularization: float = 1e-8,
) -> list[FvcPoint]:
    """Probability that all well-separated Green entries decay like ``L**-Theta``.

    The energy is taken real (from ``cfg.energy``), regularized by a tiny
    imaginary part; draws with an eigenvalue in ``[E - RESONANCE_GAP, E + RESONANCE_GAP]``
    (or non-finite) are redrawn from the sample's next block of uniforms and
    counted, up to ``MAX_ATTEMPTS`` draws.
    """
    if not decay_exponent > 3 * cfg.dimension - 1:  # NaN included
        raise ConfigError(
            f"decay exponent must exceed 3d - 1 = {3 * cfg.dimension - 1}, got {decay_exponent}"
        )
    if cfg.energy is None:
        raise ConfigError("localization probe needs a reference energy")
    if not MIN_IMAG_PART < regularization < math.inf:
        raise ConfigError(f"regularization must be finite, above {MIN_IMAG_PART}, got {regularization}")
    if not radii or any(int(radius) < 1 for radius in radii):
        raise ConfigError(f"box radii must be a non-empty list, each at least 1, got {list(radii)}")
    energy = float(cfg.energy.real)
    boxes = [box(int(radius), cfg.dimension) for radius in radii]
    require_dense(max(inner.size for inner in boxes))  # every radius, before the first is sampled
    results = []
    for radius, inner in zip(radii, boxes):
        sites = inner.site_array()
        seps = np.max(np.abs(sites[:, None, :] - sites[None, :, :]), axis=2)
        pair_mask = seps >= radius / 2.0
        threshold = float(radius) ** -decay_exponent
        shift = energy + 1j * regularization
        window = (energy - RESONANCE_GAP, energy + RESONANCE_GAP)

        def kernel(indices):
            rows = np.full((len(indices), 3), np.nan)
            rows[:, 1:] = 0.0
            diagonals = np.empty((len(indices), inner.size))
            # round k redraws the rows still resonant (NaN counts too) from block k
            pending = np.arange(len(indices))
            for attempt in range(MAX_ATTEMPTS):
                diagonals[pending] = _draw_diagonals(cfg, inner, indices[pending], attempt)
                counts, fallback = interval_counts(inner, diagonals[pending], [window])
                rows[pending, 2] += fallback[:, 0]
                pending = pending[~(counts[:, 0] == 0)]
                rows[pending, 1] += 1.0
                if not pending.size:
                    break
            accepted = np.setdiff1d(np.arange(len(indices)), pending)
            if accepted.size:
                green = green_columns(inner, diagonals[accepted], shift, np.arange(inner.size))
                worst = np.max(np.abs(green[:, pair_mask]), axis=1)  # NaN if uncertified
                rows[accepted, 0] = np.where(np.isnan(worst), np.nan, worst <= threshold)
            return rows

        values = run_parallel(kernel, cfg.n_samples, 3, cfg.workers, _chunk_for(inner.size))
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
                count_fallbacks=int(np.sum(values[:, 2])),
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
        raise ConfigError("the fractional moment exponent must lie in (0, 1)")
    if cfg.energy is None or cfg.energy.imag <= MIN_IMAG_PART:
        raise ConfigError(f"fractional moment probe needs Im z > {MIN_IMAG_PART}")
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
            raise ConfigError("pair distances must be positive")
        if not (inner.contains(x) and inner.contains(y)):
            raise ConfigError(f"pair {(x, y)} leaves the box")
    if len({sup_distance(x, y) for x, y in pairs}) < 2:
        raise ConfigError("the decay fit needs pairs at two or more distinct distances")
    pair_rows = np.array([inner.index_of(x) for x, _ in pairs])
    # G(z; x, y) is entry x of resolvent column y; solve each distinct column once
    columns, pair_cols = np.unique([inner.index_of(y) for _, y in pairs], return_inverse=True)

    def kernel(indices):
        green = green_columns(inner, _draw_diagonals(cfg, inner, indices), cfg.energy, columns)
        return np.abs(green[:, pair_rows, pair_cols]) ** moment

    values = run_parallel(kernel, cfg.n_samples, len(pairs), cfg.workers, _chunk_for(inner.size))
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
