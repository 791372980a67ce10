import ast
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alloylab import estimators, operator
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
    probe_fractional_moment,
    probe_fvc,
    run_parallel,
    sample_correlation,
    uniforms,
    wegner_ratio_sweep,
)
from alloylab.lattice import ConfigError, box, envelope_box
from alloylab.operator import DENSE_SOLVE_LIMIT, ResourceLimit, green_columns
from tests.sample_reference import assemble, dense_hamiltonian, draw_couplings

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


def test_run_parallel_refuses_a_shared_map_past_its_budget(monkeypatch):
    class Mapped(Exception):
        pass

    def mapped(*args, **kwargs):
        raise Mapped

    monkeypatch.setattr(estimators.mmap, "mmap", mapped)
    kernel = lambda idx: np.zeros((len(idx), 1))  # noqa: E731
    # 2**27 rows of one double, or 2**26 of two, map exactly 1 GiB; a row more does not
    for rows, columns in ((2**27, 1), (2**26, 2)):
        with pytest.raises(Mapped):
            run_parallel(kernel, rows, columns)
        with pytest.raises(ValueError, match="shared map"):
            run_parallel(kernel, rows + 1, columns)
    with pytest.raises(ValueError, match="shared map"):
        run_parallel(kernel, 10**12, 1)


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
    import scipy.linalg  # noqa: F401  -- loads scipy's copy, which the run then pins too

    libraries = openblas_libraries()
    assert [lib.package for lib in libraries] == ["numpy", "scipy"]

    def kernel(indices):
        return np.array([[lib.get_threads() for lib in libraries]] * len(indices), dtype=float)

    values = run_parallel(kernel, 64, 2, workers=workers, chunk_size=16)
    assert np.all(values == 1.0)


def fake_blas(package, count, calls):
    """A ``BlasLibrary`` at ``count`` threads that logs each ``set_threads`` call."""
    state = [count]

    def set_threads(n):
        calls.append((package, n))
        state[0] = n

    return estimators.BlasLibrary(package, "fake", lambda: state[0], set_threads)


def test_blas_threads_sets_only_the_copies_not_at_the_count(monkeypatch):
    calls = []
    libraries = (fake_blas("numpy", 1, calls), fake_blas("scipy", 2, calls))
    monkeypatch.setattr(estimators, "_openblas_libraries", lambda: (libraries, None))
    estimators.pin_blas_threads()
    assert calls == [("scipy", 1)]
    # the pin is kept: a forked run finds every copy pinned and makes no thread-count call
    calls.clear()
    run_parallel(lambda idx: np.zeros((len(idx), 1)), 32, 1, workers=2, chunk_size=8)
    run_parallel(lambda idx: np.zeros((len(idx), 1)), 32, 1, workers=1)
    assert calls == []
    # a copy that loads later is pinned by the next call, and a missing symbol of
    # one copy does not keep the loaded ones from their pin
    late = fake_blas("scipy", 2, calls)
    monkeypatch.setattr(
        estimators, "_openblas_libraries", lambda: ((libraries[0], late), "scipy_openblas_get_config")
    )
    run_parallel(lambda idx: np.zeros((len(idx), 1)), 32, 1, workers=1)
    assert calls == [("scipy", 1)]


def test_each_blas_copy_is_found_once_and_a_later_copy_when_it_loads():
    openblas_libraries()
    # a fresh process: scipy's copy loads with scipy.linalg, between the two lookups
    code = (
        "import json, operator, sys\n"
        "from alloylab import estimators\n"
        "first, _ = estimators._openblas_libraries()\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "estimators.pin_blas_threads()\n"
        "import scipy.linalg\n"
        "second, missing = estimators._openblas_libraries()\n"
        "estimators.pin_blas_threads()\n"
        "third, _ = estimators._openblas_libraries()\n"
        "print(json.dumps({'first': [lib.package for lib in first],\n"
        "                  'second': [lib.package for lib in second], 'missing': missing,\n"
        "                  'kept': first[0] is second[0] and all(map(operator.is_, second, third)),\n"
        "                  'threads': [lib.get_threads() for lib in third]}))\n"
    )
    src = str(Path(estimators.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    state = json.loads(result.stdout)
    assert state["first"] == ["numpy"]
    assert state["second"] == ["numpy", "scipy"] and state["missing"] is None
    assert state["kept"]
    assert state["threads"] == [estimators.PINNED_BLAS_THREADS] * 2


def test_forked_runs_leave_no_blas_threads_in_a_pinned_process():
    openblas_libraries()
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads")
    # OpenBLAS shuts its pool down at a fork and re-creates it on any thread-count call;
    # the process starts at OpenBLAS's own count, and run_parallel's pin is never undone
    code = (
        "import os, numpy as np\n"
        "from alloylab import estimators\n"
        "for _ in range(2):\n"
        "    estimators.run_parallel(lambda idx: np.zeros((len(idx), 1)), 32, 1, workers=2, chunk_size=8)\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    src = str(Path(estimators.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "1"


def test_run_parallel_without_blas_control(monkeypatch):
    # a resolvent kernel, so every chunk reaches LAPACK
    cfg = make_config(box_radius=3, n_samples=96, seed=4)
    inner = cfg.inner_box

    def kernel(indices):
        green = green_columns(inner, estimators._draw_diagonals(cfg, inner, indices), 0.5 + 0.1j, [0, 3])
        return green.imag.reshape(len(indices), -1)

    pinned = run_parallel(kernel, 96, 2 * inner.size, chunk_size=32)
    assert np.all(np.isfinite(pinned))  # every sample certified
    monkeypatch.setattr(
        estimators, "_openblas_libraries", lambda: ((), "scipy_openblas_set_num_threads64_")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Python 3.12+ warns on forking a process whose OpenBLAS threads are alive
        warnings.filterwarnings(
            "ignore", message=r".*multi-threaded, use of fork\(\)", category=DeprecationWarning
        )
        unpinned = run_parallel(kernel, 96, 2 * inner.size, workers=2, chunk_size=32)
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
    seed=st.integers(0, 2**130),
    indices=st.lists(st.integers(0, 2**40), min_size=1, max_size=36),
    width=st.integers(1, 300),
    attempt=st.integers(0, 4),
)
@example(seed=2**130, indices=[2**32, 2**40, 0] * 4, width=300, attempt=3)
@example(seed=2**97 + 11, indices=[2**32 - 5 + k for k in range(11)], width=9, attempt=1)
def test_uniforms_block_is_the_next_draw_of_the_stream(seed, indices, width, attempt):
    rows = uniforms(seed, indices, width, attempt)
    assert rows.shape == (len(indices), width)
    for row, index in zip(rows, indices):
        rng = reference_stream(seed, index)
        for _ in range(attempt):
            rng.random(width)
        assert np.array_equal(row, rng.random(width))
        assert np.array_equal(row, uniforms(seed, [index], width, attempt)[0])


@pytest.mark.parametrize("seed, indices", [(1, [3, -1]), (1, [2.0]), (1, [True]), (1, [2**64]), (-1, [0])])
def test_uniforms_refuses_a_negative_or_non_integer_key(seed, indices):
    with pytest.raises(ConfigError, match="non-negative integers"):
        uniforms(seed, indices, 3)


def numpy_random_users(path):
    """``(module, function)`` for every use of ``numpy.random`` in a source file."""
    tree = ast.parse(path.read_text())
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    users = set()
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        if any(name.split(".")[:2] in (["np", "random"], ["numpy", "random"]) for name in names):
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            inner = max(around, key=lambda f: f.lineno).name if around else "<module>"
            users.add((path.stem, inner))
    return users


def test_numpy_random_only_in_the_draw_rule_and_the_synthetic_control():
    # every Monte Carlo draw goes through uniforms; the Poisson control keeps its own stream
    sources = Path(estimators.__file__).parent.glob("*.py")
    assert set().union(*map(numpy_random_users, sources)) == {
        ("estimators", "uniforms"),
        ("spectra", "poisson_process_sample"),
        ("cli", "cmd_spacing"),
    }


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

    def spy(inner, diagonals, intervals):
        calls.append(len(diagonals))
        counts, fallback = count(inner, diagonals, intervals)
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


def test_count_chunks_leave_the_counting_results_unchanged(monkeypatch):
    # d=2 r=6 counts run in 64-sample chunks; at the dense budget's 35 every
    # wegner and two-ev result is the same
    cfg = make_config(
        dimension=2,
        box_radius=6,
        potential=SingleSitePotential({(0, 0): 1.0, (1, 0): 0.25, (0, -1): -0.25}),
        interval=(0.95, 1.05),
        n_samples=150,
        seed=3,
    )
    assert estimators._count_chunk(cfg.inner_box, [cfg.interval]) == 64
    assert estimators._chunk_for(cfg.inner_box.size) == 35

    def results():
        two_ev = estimate_two_eigenvalue_probability(cfg)
        sweep = wegner_ratio_sweep(cfg, [0.05, 0.1, 0.2], center=1.0)
        records = [e.to_record() for e in [two_ev.probability, two_ev.half_moment, *sweep]]
        for record in records:
            del record["wall_time"]
        return records

    chunks = []
    count_chunk = estimators._count_chunk
    monkeypatch.setattr(estimators, "_count_chunk", lambda *a, **k: chunks.append(count_chunk(*a, **k)) or chunks[-1])
    grown = results()
    assert chunks == [64, 64]
    monkeypatch.setattr(estimators, "_count_chunk", lambda *a, **k: 35)
    assert results() == grown


def test_wegner_counts_a_single_site_box():
    # one site, no black sites and no front: the counting chunk is the dense one
    for dimension in (1, 2):
        cfg = make_config(
            dimension=dimension,
            potential=SingleSitePotential.delta(dimension),
            box_radius=0,
            interval=(0.0, 1.0),
            n_samples=20,
        )
        assert estimators._count_chunk(cfg.inner_box, [cfg.interval]) == 512
        estimate = estimate_wegner(cfg)
        assert estimate.n_failed == 0 and 0.0 <= estimate.mean <= 1.0


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


def test_two_eigenvalue_counts_an_uncounted_sample_as_failed(monkeypatch):
    count = estimators.interval_counts

    def first_row_uncounted(inner, diagonals, intervals):
        counts, fallback = count(inner, diagonals, intervals)
        if not calls:
            counts[0] = np.nan
        calls.append(len(counts))
        return counts, fallback

    calls = []
    monkeypatch.setattr(estimators, "interval_counts", first_row_uncounted)
    # one NaN row of 1000 stays within the 0.1% cap
    result = estimate_two_eigenvalue_probability(
        make_config(interval=(0.95, 1.05), n_samples=1000, seed=4)
    )
    assert result.probability.n_failed == result.half_moment.n_failed == 1
    assert result.exact_inequality_holds
    assert len(calls) == 2


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


@pytest.mark.parametrize(
    "decay_exponent, regularization",
    [(math.nan, 1e-8), (3.0, math.inf), (3.0, math.nan)],
)
def test_fvc_refuses_non_finite_inputs_before_sampling(monkeypatch, decay_exponent, regularization):
    # a NaN exponent reported probability 0.0, an infinite regularization failed every sample
    def refuse_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the inputs were checked")

    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = make_config(disorder_strength=30.0, energy=0.0 + 0j, n_samples=64)
    name = "decay exponent" if math.isnan(decay_exponent) else "regularization"
    with pytest.raises(ValueError, match=name):
        probe_fvc(cfg, decay_exponent=decay_exponent, radii=[4], regularization=regularization)


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
    draw = estimators._draw_diagonals

    def spoiled(cfg, inner, indices, attempt=0):
        diagonals = draw(cfg, inner, indices, attempt)
        if attempt == 0:
            diagonals[indices % 4 == 0, 0] = np.nan
        return diagonals

    cfg = make_config(disorder_strength=5.0, energy=0.5 + 0j, n_samples=64, seed=2)
    clean = probe_fvc(cfg, decay_exponent=3.0, radii=[3])[0]
    monkeypatch.setattr(estimators, "_draw_diagonals", spoiled)
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
            omega = draw_couplings(cfg.density, env, rng)
            h = dense_hamiltonian(inner, assemble(inner, cfg.potential, omega, cfg.disorder_strength)[0])
            if np.min(np.abs(np.linalg.eigvalsh(h) - energy)) > gap:
                break
            redraws += 1
        green = np.linalg.inv(h - (energy + 1e-8j) * np.eye(inner.size))
        outcomes.append(bool(np.all(np.abs(green[far]) <= float(radius) ** -decay_exponent)))
        resamples.append(redraws)
    return outcomes, resamples


def test_fvc_resampling_matches_per_row_reference(monkeypatch):
    cfg = make_config(disorder_strength=10.0, energy=1.0 + 0j, n_samples=600, seed=4)
    outcomes, resamples = fvc_reference(cfg, 3, 3.0, 0.05)
    assert 0 < max(resamples) < estimators.MAX_ATTEMPTS
    monkeypatch.setattr(estimators, "RESONANCE_GAP", 0.05)
    # with a single attempt every resonant first draw is a failed sample
    failed = sum(r > 0 for r in resamples)
    for workers in (1, 2):
        run = replace(cfg, workers=workers)
        (point,) = probe_fvc(run, decay_exponent=3.0, radii=[3])
        assert point.probability == sum(outcomes) / 600
        assert point.resample_fraction == sum(resamples) / (600 + sum(resamples))
        assert point.n_failed == 0
        with monkeypatch.context() as single:
            single.setattr(estimators, "MAX_ATTEMPTS", 1)
            with pytest.raises(RunFailure, match=f"{failed} of 600"):
                probe_fvc(run, decay_exponent=3.0, radii=[3])


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


@pytest.mark.parametrize("probe", ["fvc", "fmb", "minami"])
def test_probes_count_uncertified_solves(monkeypatch, probe):
    solve = operator.resolvent_columns

    def first_member_uncertified(matrices, z, columns):
        solutions, certified = solve(matrices, z, columns)
        certified[0] = False
        return solutions, certified

    monkeypatch.setattr(operator, "resolvent_columns", first_member_uncertified)
    cfg = make_config(disorder_strength=30.0, energy=0.0 + 0.01j, n_samples=40, seed=3)
    # one uncertified sample of 40 is beyond the 0.1% cap; minami's NaN det is no envelope fault
    with pytest.raises(RunFailure, match="1 of 40"):
        if probe == "fvc":
            probe_fvc(cfg, decay_exponent=3.0, radii=[4])
        elif probe == "fmb":
            probe_fractional_moment(cfg, moment=0.5)
        else:
            estimate_minami(replace(cfg, site_x=(-1,), site_y=(1,)))


@pytest.mark.parametrize(
    "run",
    [estimate_wegner, estimate_two_eigenvalue_probability],
)
def test_counting_refuses_a_box_past_the_dense_cap_before_sampling(monkeypatch, run):
    # counting needs no dense base, but its eigvalsh recount does
    def refuse_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the box was checked")

    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = make_config(
        dimension=2, potential=SingleSitePotential.delta(2), box_radius=40, interval=(0.0, 1.0)
    )
    assert cfg.inner_box.size > DENSE_SOLVE_LIMIT
    with pytest.raises(ResourceLimit):
        run(cfg)


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
