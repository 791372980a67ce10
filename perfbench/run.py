"""alloylab benchmark: CLI workloads at one and two workers, with a traced variant.

Usage (from the repository root)::

    python3 perfbench/run.py --workload det_d1 --seed 1 --seconds 20 --trace 0

The run generates the workload's config files from ``--seed``, times set-up
in fresh interpreters, then drives ``alloylab.cli.main`` in-process for
``--seconds`` seconds, alternating whole passes at ``--workers 1`` and
``--workers 2`` (capped at the CPU count).  Every pass's outputs are checked
and must be byte-identical to the first pass's.  With ``--trace 1`` traced
passes are interleaved with untraced ones and per-layer metrics are printed
instead of the end-to-end ones.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  BLAS threads are
left at the user's default on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_CYCLES = 3
END_TO_END_UNITS = {
    "throughput_w1": "1/s",
    "throughput_w2": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed probe)."""


@dataclass
class PassResult:
    workers: int
    seconds: float
    cpu_seconds: float
    tracer: tracing.Tracer | None


class OutputChecker:
    """Checks each invocation's outputs and their identity across passes."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.expected: dict[str, tuple[int, dict[str, str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: Counter = Counter()

    def record(self, inv: workloads.Invocation, workers: int, rc, out_dir: Path, error) -> None:
        self.attempted += inv.items
        problems = [error] if error else self._problems(inv, rc, out_dir)
        if problems:
            self.failed += inv.items
            self.problems += [f"{inv.label} (workers={workers}): {p}" for p in problems]

    def _problems(self, inv, rc, out_dir: Path) -> list[str]:
        files = {
            p.name: p.read_bytes()
            for p in sorted(out_dir.glob("*"))
            if p.is_file() and p.name != "manifest.json"
        }
        outcome = (rc, {name: hashlib.sha256(data).hexdigest() for name, data in files.items()})
        known = self.expected.get(inv.label)
        if known is not None:
            return [] if outcome == known else ["outputs differ from the first pass's"]
        try:
            records = [
                json.loads(line)
                for line in files.get("results.jsonl", b"").decode().splitlines()
                if line.strip()
            ]
        except json.JSONDecodeError as err:
            return [f"unreadable results.jsonl: {err}"]
        problems = self.workload.check(inv, rc, records, files)
        if not problems:
            self.expected[inv.label] = outcome
            self.verdicts.update(r["verdict"] for r in records if r.get("kind") == "spacing_stats")
        return problems


def import_cli():
    sys.path.insert(0, str(SRC))
    import alloylab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"alloylab imported from {cli.__file__}, not from {SRC}")
    return cli


def probe_setup(workload, inv, config: Path) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the end of set-up, and import time."""
    stops = [arg for name in workload.setup_stops for arg in ("--stop", name)]
    cmd = [
        sys.executable, str(HERE / "probe.py"), "--src", str(SRC), *stops,
        "--", inv.command, "--config", str(config), "--workers", "1",
    ]
    before = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"set-up probe timed out after {PROBE_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["reached"] - before, result["import_s"]


def run_pass(cli, invocations, configs, workdir, workers, tracer, checker) -> PassResult:
    seconds = cpu = 0.0
    outcomes = []
    sink = io.StringIO()
    with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
        for inv in invocations:
            out_dir = workdir / "out" / inv.label
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = [inv.command, "--config", str(configs[inv.label]),
                    "--workers", str(workers), "--out", str(out_dir)]
            rc, error = None, None
            usage = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    rc = cli.main(argv)
                except Exception:
                    error = traceback.format_exc(limit=3)
            seconds += time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            cpu += (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
            sink.seek(0)
            sink.truncate()
            outcomes.append((inv, rc, out_dir, error))
    for inv, rc, out_dir, error in outcomes:
        checker.record(inv, workers, rc, out_dir, error)
    return PassResult(workers, seconds, cpu, tracer)


def environment(workers2: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workers": [1, workers2],
    }


def measure(cli, invocations, configs, workdir, seconds, schedule, checker):
    """Alternate whole passes over ``schedule`` until ``seconds`` have elapsed."""
    results: dict[tuple[int, bool], list[PassResult]] = {key: [] for key in schedule}
    start = time.perf_counter()
    for cycle in itertools.count(1):
        cycle_start = time.perf_counter()
        for workers, traced in schedule:
            tracer = tracing.Tracer() if traced else None
            results[(workers, traced)].append(
                run_pass(cli, invocations, configs, workdir, workers, tracer, checker)
            )
        now = time.perf_counter()
        # stop at the cycle boundary nearest to the deadline
        if cycle >= MIN_CYCLES and now - start + (now - cycle_start) / 2 >= seconds:
            return results


def throughput(items: int, passes: list[PassResult]) -> float:
    return items / statistics.median(p.seconds for p in passes)


def layer_metrics(results, items, workers2, import_s) -> dict[str, float]:
    out = {"cli.import_s": import_s}
    declared = tracing.declared_metrics()
    for prefix, workers in (("", 1), ("w2.", workers2)):
        traced = results[(workers, True)]
        untraced = results[(workers, False)]
        per_pass = [tracing.pass_layer_metrics(p.tracer.spans, workers) for p in traced]
        values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        kernels = [
            s.duration for p in traced for s in p.tracer.spans if s.name == "estimators.kernel"
        ]
        values["estimators.chunk_p50_ms"], values["estimators.chunk_tail_ms"] = (
            tracing.chunk_percentiles(kernels)
        )
        values["process.cpu_per_wall"] = statistics.median(
            p.cpu_seconds / p.seconds for p in untraced
        )
        plain, with_spans = throughput(items, untraced), throughput(items, traced)
        values["trace.overhead_share"] = 1.0 - with_spans / plain
        values["trace.throughput_delta"] = with_spans - plain
        out.update({prefix + k: v for k, v in values.items() if prefix + k in declared})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    invocations = workload.build(args.seed)
    items = sum(inv.items for inv in invocations)
    workers2 = min(2, len(os.sched_getaffinity(0)))
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        if not (SRC / "alloylab" / "__init__.py").is_file():
            raise BenchError(f"alloylab sources not found under {SRC}")
        configs = {}
        (workdir / "configs").mkdir(parents=True, exist_ok=True)
        for inv in invocations:
            path = workdir / "configs" / f"{inv.label}.json"
            path.write_text(json.dumps(inv.config, indent=2) + "\n")
            configs[inv.label] = path

        probes = [
            probe_setup(workload, invocations[0], configs[invocations[0].label])
            for _ in range(SETUP_PROBES)
        ]
        cli = import_cli()
        env = environment(workers2)
        checker = OutputChecker(workload)
        schedule = [(1, False), (workers2, False)]
        if args.trace:
            schedule = [(1, False), (1, True), (workers2, False), (workers2, True)]
        results = measure(cli, invocations, configs, workdir, args.seconds, schedule, checker)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = layer_metrics(results, items, workers2, statistics.median(p[1] for p in probes))
        units = {name: unit for name, (unit, _) in tracing.declared_metrics().items()}
        traced = [(p.workers, p.tracer) for key in schedule if key[1] for p in results[key]]
        header = {"workload": workload.name, "seed": args.seed, "environment": env}
        tracing.write_spans(WORK / f"trace-{workload.name}.jsonl", traced, header)
    else:
        values = {
            "throughput_w1": throughput(items, results[(1, False)]),
            "throughput_w2": throughput(items, results[(workers2, False)]),
            "setup_s": statistics.median(p[0] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS

    summary = {
        "workload": workload.name,
        "item": workload.item,
        "items_per_pass": items,
        "pass_seconds": {
            f"w{w}{'-traced' if t else ''}": [round(p.seconds, 4) for p in v]
            for (w, t), v in results.items()
        },
        "setup_probes_s": [round(p[0], 4) for p in probes],
        "statistical_verdicts": dict(checker.verdicts),
        "problems": checker.problems[:20],
        "environment": env,
    }
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": not checker.problems and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
