"""Span tracing of alloylab from outside the package, and the per-layer metrics.

The tracer replaces public functions at the name their caller looks them up
(``spectra`` imports ``sample_stream`` and ``chain_eigenvalues`` by name,
``run_parallel`` resolves ``sample_stream`` from ``estimators``, the library
calls ``np.linalg.*`` and ``scipy.linalg.eigh_tridiagonal`` as module
attributes) and restores the originals afterwards.  Spans stay in memory as
``(id, name, start, end, parent, thread, n, m)`` tuples, where ``n`` and
``m`` are per-call work sizes (batch, dimension, ...), and are written out
once the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    n: float | None = None
    m: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder shared by all threads of one traced pass.

    A span opened on a thread with no open span of its own (a pool worker)
    is parented to the innermost open span of the thread that created the
    tracer, which is blocked inside the call that submitted the work.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, size: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call; ``size(args, kwargs, result)``
        gives the span's ``(n, m)`` work sizes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))
                raise
            end = time.perf_counter()
            stack.pop()
            n, m = size(args, kwargs, result) if size else (None, None)
            tracer.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), n, m))
            return result

        return traced


# ---------------------------------------------------------------------------
# instrumentation points
# ---------------------------------------------------------------------------

def _first_size(args, kwargs, result):
    return float(np.size(args[0])), None


def _method_arg_size(args, kwargs, result):
    return float(np.size(args[1])), None


def _stack_size(args, kwargs, result):
    a = np.shape(args[0])
    batch = float(np.prod(a[:-2])) if len(a) > 2 else 1.0
    return batch, float(a[-1])


def _fourier_grid_size(args, kwargs, result):
    return float(np.size(result)), None


def _circulant_size(args, kwargs, result):
    return float(result.size), float(result.box.dimension)


# (module, attribute path, span name, size function)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("alloylab.cli", "main", "cli.main", None),
    ("alloylab.cli", "load_config", "config.load_config", None),
    ("alloylab.cli", "check_assumption", "disorder.check_assumption", None),
    ("alloylab.disorder", "DisorderDensity.quantile", "disorder.quantile", _method_arg_size),
    ("alloylab.disorder", "PiecewisePolynomialDensity.cdf", "disorder.cdf", _method_arg_size),
    ("alloylab.disorder", "RaisedCosineDensity.cdf", "disorder.cdf", _method_arg_size),
    ("alloylab.disorder", "SingleSitePotential.fourier_grid", "disorder.fourier_grid",
     _fourier_grid_size),
    ("alloylab.estimators", "sample_stream", "estimators.sample_stream", None),
    ("alloylab.spectra", "sample_stream", "estimators.sample_stream", None),
    ("alloylab.estimators", "run_parallel", "estimators.run_parallel", None),
    ("alloylab.estimators", "laplacian_matrix", "operator.laplacian_matrix", None),
    ("alloylab.spectra", "laplacian_matrix", "operator.laplacian_matrix", None),
    ("alloylab.estimators", "convolution_matrix", "operator.convolution_matrix", None),
    ("alloylab.spectra", "convolution_matrix", "operator.convolution_matrix", None),
    ("alloylab.spectra", "chain_eigenvalues", "operator.chain_eigenvalues", _first_size),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", _stack_size),
    ("numpy.linalg", "solve", "linalg.solve", _stack_size),
    ("numpy.linalg", "inv", "linalg.inv", _stack_size),
    ("scipy.linalg", "eigh_tridiagonal", "linalg.eigh_tridiagonal", _first_size),
    ("alloylab.cli", "build_circulant", "transform.build_circulant", _circulant_size),
    ("alloylab.estimators", "build_circulant", "transform.build_circulant", _circulant_size),
    ("alloylab.cli", "limit_inverse_one_norm", "transform.limit_inverse_one_norm", None),
    ("alloylab.cli", "minami_constants", "transform.minami_constants", None),
    ("alloylab.estimators", "minami_constants", "transform.minami_constants", None),
    ("alloylab.cli", "empirical_ids", "spectra.empirical_ids", None),
    ("alloylab.cli", "rescaled_ensemble", "spectra.rescaled_ensemble", None),
    ("alloylab.cli", "poisson_tests", "spectra.poisson_tests", None),
    ("alloylab.spectra", "rescale", "spectra.rescale", None),
)


def resolve(module: str, path: str):
    """``(owner, attribute)`` for a dotted attribute path, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def _kernel_size(args, kwargs, result):
    rows = np.asarray(result)
    return float(rows.shape[0]), float(np.count_nonzero(np.isnan(rows).any(axis=1)))


def _traced(tracer: Tracer, original: Callable, name: str, size: Callable | None) -> Callable:
    if name == "estimators.run_parallel":
        run_parallel = original

        def original(kernel, *args, **kwargs):
            # the kernel argument is the per-chunk work, so it gets its own span
            return run_parallel(
                tracer.wrap(kernel, "estimators.kernel", _kernel_size), *args, **kwargs
            )

    return tracer.wrap(original, name, size)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers for the duration of the block, then restore.

    A target the library no longer has is skipped, so its metrics read zero.
    """
    patched = []
    try:
        for module, path, name, size in TARGETS:
            found = resolve(module, path)
            if found is None:
                continue
            owner, attr = found
            original = vars(owner)[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, original, name, size))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children running concurrently on several threads are merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better); worker-dependent ones also get a ``w2.`` twin
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.import_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "cli.command_s": ("s", "lower"),
    "disorder.quantile_s": ("s", "lower"),
    "disorder.quantile_calls": ("count", "lower"),
    "disorder.quantile_draws": ("count", "lower"),
    "disorder.quantile_ns_per_draw": ("ns", "lower"),
    "disorder.cdf_calls": ("count", "lower"),
    "disorder.check_assumption_s": ("s", "lower"),
    "estimators.sample_stream_calls": ("count", "lower"),
    "estimators.sample_stream_s": ("s", "lower"),
    "estimators.run_parallel_s": ("s", "lower"),
    "estimators.kernel_busy_s": ("s", "lower"),
    "estimators.kernel_self_s": ("s", "lower"),
    "estimators.chunks": ("count", "lower"),
    "estimators.chunk_p50_ms": ("ms", "lower"),
    "estimators.chunk_tail_ms": ("ms", "lower"),
    "estimators.parallel_efficiency": ("ratio", "higher"),
    "estimators.failed_samples": ("count", "lower"),
    "estimators.solve_fallback_chunks": ("count", "lower"),
    "operator.laplacian_matrix_s": ("s", "lower"),
    "operator.convolution_matrix_s": ("s", "lower"),
    "operator.chain_eigenvalues_calls": ("count", "lower"),
    "operator.chain_eigenvalues_s": ("s", "lower"),
    "linalg.eigvalsh_s": ("s", "lower"),
    "linalg.eigvalsh_matrices": ("count", "lower"),
    "linalg.eigvalsh_gflop_computed": ("Gflop", "lower"),
    "linalg.eigvalsh_gflops": ("Gflop/s", "higher"),
    "linalg.eigh_tridiagonal_s": ("s", "lower"),
    "linalg.solve_s": ("s", "lower"),
    "linalg.solve_calls": ("count", "lower"),
    "linalg.inv_s": ("s", "lower"),
    "transform.build_circulant_s": ("s", "lower"),
    "transform.build_circulant_calls": ("count", "lower"),
    "transform.envelope_size_max": ("count", "lower"),
    "transform.dense_mb_computed": ("MB", "lower"),
    "transform.limit_inverse_one_norm_s": ("s", "lower"),
    "transform.limit_grid_points": ("count", "lower"),
    "transform.minami_constants_s": ("s", "lower"),
    "spectra.empirical_ids_s": ("s", "lower"),
    "spectra.rescaled_ensemble_s": ("s", "lower"),
    "spectra.rescale_s": ("s", "lower"),
    "spectra.poisson_tests_s": ("s", "lower"),
    "spectra.realizations": ("count", "lower"),
    "spectra.parallel_efficiency": ("ratio", "higher"),
    "process.cpu_per_wall": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.throughput_delta": ("1/s", "higher"),
}

# measured once per run from fresh interpreters, so no per-worker twin
_SETUP_ONLY = {"cli.import_s"}
_WORKER_DEPENDENT_UNITS = {"s", "ms", "ns", "ratio", "Gflop/s", "1/s"}


def declared_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit and direction."""
    out = dict(LAYER_METRICS)
    for name, (unit, better) in LAYER_METRICS.items():
        if unit in _WORKER_DEPENDENT_UNITS and name not in _SETUP_ONLY:
            out["w2." + name] = (unit, better)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans alone."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def calls(name: str) -> float:
        return float(len(by_name[name]))

    def work(name: str) -> float:
        return sum(s.n or 0.0 for s in by_name[name])

    selfs = self_times(spans)
    kernels = by_name["estimators.kernel"]
    run_parallel_ids = {s.id for s in by_name["estimators.run_parallel"]}
    stream_in_pool = sum(
        s.duration for s in by_name["estimators.sample_stream"] if s.parent in run_parallel_ids
    )
    kernel_ids = {s.id for s in kernels}
    solves_per_kernel = Counter(s.parent for s in by_name["linalg.solve"] if s.parent in kernel_ids)

    limit_ids = {s.id for s in by_name["transform.limit_inverse_one_norm"]}
    grid_points = sum(
        s.n or 0.0 for s in by_name["disorder.fourier_grid"] if s.parent in limit_ids
    )

    spectra_names = ("spectra.empirical_ids", "spectra.rescaled_ensemble")
    spectra_ids = {s.id for name in spectra_names for s in by_name[name]}
    spectra_wall = sum(total(name) for name in spectra_names)
    spectra_busy = sum(s.duration for s in spans if s.parent in spectra_ids)
    realizations = sum(
        1 for s in by_name["estimators.sample_stream"] if s.parent in spectra_ids
    )

    eig = by_name["linalg.eigvalsh"]
    eig_gflop = sum((s.n or 0.0) * (4.0 / 3.0) * (s.m or 0.0) ** 3 for s in eig) / 1e9
    circulants = by_name["transform.build_circulant"]
    env_max = max((s.n or 0.0 for s in circulants), default=0.0)
    # matrix, inverse, identity-check product and identity: four dense N x N float64
    dense_mb = max((4 * 8 * (s.n or 0.0) ** 2 / 1e6 for s in circulants), default=0.0)

    quantile_s = total("disorder.quantile")
    draws = work("disorder.quantile")
    run_parallel_s = total("estimators.run_parallel")
    kernel_busy = sum(s.duration for s in kernels)
    eig_s = total("linalg.eigvalsh")
    return {
        "config.load_s": total("config.load_config"),
        "cli.command_s": total("cli.main"),
        "disorder.quantile_s": quantile_s,
        "disorder.quantile_calls": calls("disorder.quantile"),
        "disorder.quantile_draws": draws,
        "disorder.quantile_ns_per_draw": _ratio(quantile_s * 1e9, draws),
        "disorder.cdf_calls": calls("disorder.cdf"),
        "disorder.check_assumption_s": total("disorder.check_assumption"),
        "estimators.sample_stream_calls": calls("estimators.sample_stream"),
        "estimators.sample_stream_s": total("estimators.sample_stream"),
        "estimators.run_parallel_s": run_parallel_s,
        "estimators.kernel_busy_s": kernel_busy,
        "estimators.kernel_self_s": sum(selfs[s.id] for s in kernels),
        "estimators.chunks": float(len(kernels)),
        "estimators.parallel_efficiency": _ratio(
            kernel_busy + stream_in_pool, workers * run_parallel_s
        ),
        "estimators.failed_samples": sum(s.m or 0.0 for s in kernels),
        "estimators.solve_fallback_chunks": float(
            sum(1 for n in solves_per_kernel.values() if n > 1)
        ),
        "operator.laplacian_matrix_s": total("operator.laplacian_matrix"),
        "operator.convolution_matrix_s": total("operator.convolution_matrix"),
        "operator.chain_eigenvalues_calls": calls("operator.chain_eigenvalues"),
        "operator.chain_eigenvalues_s": total("operator.chain_eigenvalues"),
        "linalg.eigvalsh_s": eig_s,
        "linalg.eigvalsh_matrices": work("linalg.eigvalsh"),
        "linalg.eigvalsh_gflop_computed": eig_gflop,
        "linalg.eigvalsh_gflops": _ratio(eig_gflop, eig_s),
        "linalg.eigh_tridiagonal_s": total("linalg.eigh_tridiagonal"),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.inv_s": total("linalg.inv"),
        "transform.build_circulant_s": total("transform.build_circulant"),
        "transform.build_circulant_calls": calls("transform.build_circulant"),
        "transform.envelope_size_max": env_max,
        "transform.dense_mb_computed": dense_mb,
        "transform.limit_inverse_one_norm_s": total("transform.limit_inverse_one_norm"),
        "transform.limit_grid_points": grid_points,
        "transform.minami_constants_s": total("transform.minami_constants"),
        "spectra.empirical_ids_s": total("spectra.empirical_ids"),
        "spectra.rescaled_ensemble_s": total("spectra.rescaled_ensemble"),
        "spectra.rescale_s": total("spectra.rescale"),
        "spectra.poisson_tests_s": total("spectra.poisson_tests"),
        "spectra.realizations": float(realizations),
        "spectra.parallel_efficiency": _ratio(spectra_busy, workers * spectra_wall),
    }


def chunk_percentiles(kernel_durations: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of chunk (kernel call) times, in ms."""
    if not kernel_durations:
        return 0.0, 0.0
    ms = np.asarray(kernel_durations) * 1e3
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90))


def write_spans(path, passes: list[tuple[int, Tracer]], header: dict) -> None:
    """Write every span of every traced ``(workers, tracer)`` pass as JSON lines
    after one header line."""
    with open(path, "w") as handle:
        handle.write(json.dumps({**header, "fields": ["pass", "workers", *Span._fields]}) + "\n")
        for index, (workers, tracer) in enumerate(passes):
            for s in tracer.spans:
                handle.write(json.dumps([index, workers, *s]) + "\n")
