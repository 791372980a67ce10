"""Tests of the benchmark's own logic (run with ``python3 -m pytest perfbench/tests``)."""

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import tracing
import workloads
from tracing import Span

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(0.0, 1.0), (2.0, 3.0)], 0.0, 10.0) == 2.0
    assert tracing.covered_length([(0.0, 2.0), (1.0, 3.0)], 0.0, 10.0) == 3.0
    assert tracing.covered_length([(0.0, 5.0), (1.0, 2.0)], 0.0, 10.0) == 5.0
    assert tracing.covered_length([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert tracing.covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_union_of_children_only():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, 1),
        # two concurrent children on different threads overlap on [3, 4]
        Span(1, "child", 1.0, 4.0, 0, 2),
        Span(2, "child", 3.0, 6.0, 0, 3),
        # a grandchild is covered by its parent, not subtracted again
        Span(3, "grandchild", 1.5, 2.5, 1, 2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_tracer_links_nested_and_pool_spans():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda x: x + 1, "leaf")

    def submit(values):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(leaf, v) for v in values]]

    outer = tracer.wrap(submit, "outer")
    assert outer([1, 2, 3]) == [2, 3, 4]
    (root,) = [s for s in tracer.spans if s.name == "outer"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert root.parent is None and root.thread == threading.get_ident()
    assert len(leaves) == 3 and all(s.parent == root.id for s in leaves)
    assert all(root.start <= s.start <= s.end <= root.end for s in leaves)


def test_tracer_records_failed_call_and_reraises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    (span,) = tracer.spans
    assert span.name == "boom" and span.end >= span.start
    assert tracer.wrap(lambda: 1, "after")() == 1
    assert tracer.spans[-1].parent is None


def test_pass_layer_metrics_arithmetic():
    spans = [
        Span(0, "estimators.run_parallel", 0.0, 4.0, None, 1),
        Span(1, "estimators.sample_stream", 0.0, 1.0, 0, 2),
        Span(2, "estimators.kernel", 1.0, 4.0, 0, 2, 8.0, 1.0),
        Span(3, "disorder.quantile", 1.0, 2.0, 2, 2, 64.0),
        Span(4, "linalg.solve", 2.0, 2.5, 2, 2, 8.0, 7.0),
        Span(5, "linalg.solve", 2.5, 3.0, 2, 2, 1.0, 7.0),
        Span(6, "estimators.kernel", 0.0, 2.0, 0, 3, 8.0, 0.0),
        Span(7, "linalg.eigvalsh", 0.5, 1.5, 6, 3, 4.0, 150.0),
    ]
    m = tracing.pass_layer_metrics(spans, workers=2)
    assert m["estimators.kernel_busy_s"] == pytest.approx(5.0)
    assert m["estimators.kernel_self_s"] == pytest.approx((3.0 - 2.0) + (2.0 - 1.0))
    assert m["estimators.parallel_efficiency"] == pytest.approx((5.0 + 1.0) / (2 * 4.0))
    assert m["estimators.failed_samples"] == 1.0
    assert m["estimators.solve_fallback_chunks"] == 1.0
    assert m["disorder.quantile_ns_per_draw"] == pytest.approx(1e9 / 64.0)
    assert m["linalg.eigvalsh_gflop_computed"] == pytest.approx(4 * (4 / 3) * 150.0**3 / 1e9)
    assert m["linalg.eigvalsh_gflops"] == pytest.approx(m["linalg.eigvalsh_gflop_computed"])
    assert m["spectra.parallel_efficiency"] == 0.0


def test_instrument_restores_every_target():
    import numpy as np

    import alloylab.cli as cli
    from alloylab.disorder import DisorderDensity

    before = (cli.main, np.linalg.eigvalsh, DisorderDensity.__dict__["quantile"])
    with tracing.instrument(tracing.Tracer()):
        assert cli.main is not before[0]
        assert np.linalg.eigvalsh is not before[1]
    assert (cli.main, np.linalg.eigvalsh, DisorderDensity.__dict__["quantile"]) == before


def test_benchmark_declares_the_metrics_it_prints():
    spec = json.loads(BENCHMARK.read_text())
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == tracing.declared_metrics()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    # the declared workloads are a subset: the others stay runnable by hand
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# config generation
# ---------------------------------------------------------------------------

SEED_KEYS = {"seed", "ids_seed"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_configs_are_a_function_of_the_seed(name):
    build = workloads.WORKLOADS[name].build
    assert build(7) == build(7)
    first, second = build(7), build(8)
    assert [i.command for i in first] == [i.command for i in second]
    assert [i.items for i in first] == [i.items for i in second]
    assert any(a.config != b.config for a, b in zip(first, second))
    if name != "constants_d23":
        # the geometry is fixed; only Monte Carlo seeds move
        def strip(inv):
            return {k: v for k, v in inv.config.items() if k not in SEED_KEYS}

        assert [strip(i) for i in first] == [strip(i) for i in second]


def test_every_constants_config_has_a_reference():
    reference = workloads.load_reference()
    labels = {inv.label for seed in range(40) for inv in workloads.build_constants_d23(seed)}
    assert labels <= set(reference)
    assert {key for key, _ in workloads.all_constants_keys()} == set(reference)


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def minami_record(**changes):
    record = {
        "kind": "mc_estimate", "estimator": "minami", "mean": 0.8, "stderr": 0.01,
        "n_samples": workloads.DET_SAMPLES, "n_valid": workloads.DET_SAMPLES, "n_failed": 0,
        "verdict": "within_bound", "envelope_violations": 0, "within_classical": True,
    }
    record.update(changes)
    return record


@pytest.mark.parametrize(
    "changes",
    [{"n_failed": 1}, {"verdict": "violated_beyond_3sigma"}, {"envelope_violations": 2},
     {"within_classical": False}, {"n_samples": 10}, {"mean": math.nan}],
)
def test_det_check_flags_doctored_record(changes):
    inv = workloads.build_det_d1(1)[0]
    assert workloads.check_det_d1(inv, 0, [minami_record()], {}) == []
    assert workloads.check_det_d1(inv, 0, [minami_record(**changes)], {})


def test_det_check_flags_exit_code_and_missing_record():
    inv = workloads.build_det_d1(1)[0]
    assert workloads.check_det_d1(inv, 1, [minami_record()], {})
    assert workloads.check_det_d1(inv, 0, [], {})


def test_two_ev_check_flags_broken_inequality():
    inv = workloads.build_count_d2(1)[0]
    estimates = [
        {"kind": "mc_estimate", "estimator": name, "mean": 0.1, "n_samples": inv.items,
         "n_failed": 0, "verdict": "within_bound"}
        for name in ("two_eigenvalue_probability", "two_eigenvalue_half_moment")
    ]
    chain = {"kind": "two_ev_chain", "exact_inequality_holds": True}
    assert workloads.check_count_d2(inv, 0, estimates + [chain], {}) == []
    broken = dict(chain, exact_inequality_holds=False)
    assert workloads.check_count_d2(inv, 0, estimates + [broken], {})


def test_constants_check_uses_relative_tolerance():
    key, reference = next(iter(workloads.load_reference().items()))
    record = {"kind": "constants", **reference}
    assert workloads.constants_problems(record, reference) == []
    nudged = dict(record, site_resolved_bound=reference["site_resolved_bound"] * (1 + 1e-10))
    assert workloads.constants_problems(nudged, reference) == []
    doctored = dict(record, inverse_one_norm=reference["inverse_one_norm"] * (1 + 1e-7))
    assert workloads.constants_problems(doctored, reference)
    resized = dict(record, envelope_size=reference["envelope_size"] + 1)
    assert workloads.constants_problems(resized, reference)


def rescaled_csv(swap=False):
    rows = ["realization,xi"]
    per = 2 * workloads.UNFOLD_STATS_RADIUS + 1
    for r in range(workloads.UNFOLD_REALIZATIONS):
        xs = [float(i) for i in range(per)]
        if swap and r == 3:
            xs[10], xs[11] = xs[11], xs[10]
        rows += [f"{r},{x}" for x in xs]
    return ("\n".join(rows) + "\n").encode()


def test_unfold_check_separates_verdicts_from_failures():
    inv = workloads.build_unfold_d1(1)[0]
    record = {"kind": "spacing_stats", "verdict": "fail", "reference_energy": 1.0,
              "n_realizations": workloads.UNFOLD_REALIZATIONS}
    files = {"rescaled.csv": rescaled_csv()}
    # a failed Poisson test exits 1 and is a recorded verdict, not a failure
    assert workloads.check_unfold_d1(inv, 1, [record], files) == []
    assert workloads.check_unfold_d1(inv, 0, [dict(record, verdict="pass")], files) == []
    assert workloads.check_unfold_d1(inv, 1, [dict(record, verdict="pass")], files)
    assert workloads.check_unfold_d1(inv, 2, [], files)
    assert workloads.check_unfold_d1(inv, 1, [record], {"rescaled.csv": rescaled_csv(True)})


def test_output_checker_flags_worker_mismatch(tmp_path):
    workload = workloads.Workload(
        name="fake", why="", item="item", setup_stops=(), build=lambda seed: [],
        check=lambda inv, rc, records, files: [],
    )
    inv = workloads.Invocation(label="fake", command="minami", config={}, items=5)
    checker = run.OutputChecker(workload)
    out = tmp_path / "out"
    out.mkdir()
    (out / "results.jsonl").write_text('{"kind": "x"}\n')
    (out / "manifest.json").write_text('{"created_at": "now"}\n')
    checker.record(inv, 1, 0, out, None)
    (out / "manifest.json").write_text('{"created_at": "later"}\n')
    checker.record(inv, 2, 0, out, None)
    assert checker.problems == [] and checker.failed == 0 and checker.attempted == 10
    (out / "results.jsonl").write_text('{"kind": "y"}\n')
    checker.record(inv, 2, 0, out, None)
    assert checker.failed == 5 and "differ" in checker.problems[0]
    checker.record(inv, 1, 1, out, None)
    assert checker.failed == 10
