"""Command-line front end: experiment dispatch, records, and plot data.

Outputs are line-delimited JSON records plus CSV for anything plottable;
timestamps live only in the run manifest so records stay byte-identical
for identical (config, seed).  Exit status encodes the scientific verdict
so CI can chain the acceptance suite: 0 pass/complete; 1 a failed verdict,
or ``TransformError``, ``RunFailure`` or ``NumericalFault`` (``run failed:``);
2 a ``ConfigError`` (``ResourceLimit`` included) or an ``OSError``.  Any
other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, experiment_from_config, load_config, read
from .disorder import POINTS_BUDGET, check_assumption
from .estimators import (
    VERDICT_VIOLATED,
    VERDICT_WITHIN,
    NumericalFault,
    RunFailure,
    blas_environment,
    canonical_digest,
    estimate_minami,
    estimate_two_eigenvalue_probability,
    estimate_wegner,
    pin_blas_threads,
    probe_fractional_moment,
    probe_fvc,
    sweep_configs,
    wegner_ratio_sweep,
)
from .operator import DENSE_SOLVE_LIMIT, ResourceLimit
from .spectra import (
    empirical_ids,
    free_chain_ids,
    picket_fence_sample,
    poisson_process_sample,
    poisson_tests,
    probe_pos,
    rescaled_ensemble,
)
from .transform import TransformError, build_circulant, limit_inverse_one_norm, minami_constants

WORKERS_ENV = "ALLOYLAB_WORKERS"
IDS_SEED_OFFSET = 1_000_003  # default decoupling of the unfolding seed


class _Reporter:
    """Collects one subcommand's records and CSV tables; writes them under ``--out``.

    The directory is created at the first write, so a run refused before
    its results leaves none behind.
    """

    def __init__(self, subcommand: str, out_dir: str | None):
        self.subcommand = subcommand
        self.out_dir = Path(out_dir) if out_dir else None
        if self.out_dir and self.out_dir.exists() and not self.out_dir.is_dir():
            raise ConfigError(f"--out {self.out_dir} exists and is not a directory")
        self.lines: list[str] = []
        self.outputs: list[str] = []
        self.moved: dict[str, list] = {"wall_time": [], "count_fallbacks": []}

    def record(self, payload: dict) -> None:
        # wall clock and count fallbacks move to the manifest's lists; records
        # stay byte-identical across reruns of the same (config, seed)
        payload = dict(payload)
        for key in self.moved.keys() & payload.keys():
            self.moved[key].append(payload.pop(key))
        # strict JSON: a statistic without a finite value arrives as None, so NaN here is a bug
        line = json.dumps(payload, sort_keys=True, allow_nan=False)
        self.lines.append(line)
        print(line)

    def _output(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    def csv(self, name: str, header: list[str], rows) -> None:
        if not self.out_dir:
            return
        with self._output(name).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)

    def finalize(self, digest: str, seed: int, workers: int) -> None:
        """Write ``results.jsonl`` and ``manifest.json``, the one home of wall clock and machine."""
        if not self.out_dir:
            return
        self._output("results.jsonl").write_text("".join(line + "\n" for line in self.lines))
        manifest = {
            "subcommand": self.subcommand,
            "config_digest": digest,
            "seed": seed,
            "artifact_version": __version__,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "outputs": sorted(self.outputs),
            "wall_times": self.moved["wall_time"],
            "count_fallbacks": self.moved["count_fallbacks"],
            "environment": {
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                **blas_environment(),
                "workers": workers,
                "cpu_count": os.cpu_count(),
            },
        }
        (self.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _overrides(args) -> dict:
    """The sampling fields set on the command line, which win over the config's.

    The worker count comes from ``--workers``, else from the environment.
    """
    workers = args.workers
    env = os.environ.get(WORKERS_ENV)
    if workers is None and env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    flags = {"seed": args.seed, "samples": args.samples, "workers": workers}
    return {name: value for name, value in flags.items() if value is not None}


# ---------------------------------------------------------------------------
# subcommands: each takes the config (overrides merged), the parsed
# arguments and the run's reporter, and returns the exit status
# ---------------------------------------------------------------------------

def cmd_check(raw, args, reporter) -> int:
    cfg = experiment_from_config(raw)
    resolution = read(raw, "grid_resolution", int, _default_grid_resolution(cfg.potential))
    report = check_assumption(cfg.potential, cfg.density, resolution)
    digest = cfg.digest()
    reporter.record(
        {
            "kind": "assumption_check",
            "config_digest": digest,
            **dataclasses.asdict(report),
            "satisfied": report.satisfied,
        }
    )
    reporter.finalize(digest, cfg.seed, cfg.workers)
    if not report.satisfied:
        certificate = report.fourier_min_modulus - report.lipschitz_slack
        print(
            "assumption not certified: grid minimum minus Lipschitz slack is "
            f"{certificate:.6g} (<= 0) and no dominant site exists",
            file=sys.stderr,
        )
        return 1
    return 0


def _default_grid_resolution(potential) -> int:
    """Assumption-check grid: at least 64 points, four per support width."""
    return max(64, 4 * (2 * potential.support_radius + 1))


def _require_certified(cfg) -> None:
    report = check_assumption(cfg.potential, cfg.density, _default_grid_resolution(cfg.potential))
    if not report.satisfied:
        raise ConfigError(
            "disorder assumption not certified for this potential/density "
            f"(grid minimum {report.fourier_min_modulus:.6g}, "
            f"slack {report.lipschitz_slack:.6g})"
        )


def cmd_constants(raw, args, reporter) -> int:
    cfg = experiment_from_config(raw, required=("box_radius", "site_x", "site_y"))
    tolerance = read(raw, "limit_tolerance", float, 1e-8)
    _require_certified(cfg)
    transform = build_circulant(cfg.potential, cfg.inner_box)
    limit_bound = limit_inverse_one_norm(cfg.potential, tolerance=tolerance)
    constants = minami_constants(
        transform, cfg.density, cfg.disorder_strength, cfg.site_x, cfg.site_y
    )
    digest = cfg.digest()
    reporter.record(
        {
            "kind": "constants",
            "config_digest": digest,
            "envelope_size": transform.size,
            "inverse_one_norm": transform.inverse_one_norm,
            "condition_number": transform.condition_number,
            "limit_inverse_norm_bound": limit_bound,
            "rho_d1_norm": constants.rho_d1_norm,
            "rho_d2_norm": constants.rho_d2_norm,
            "base_constant": constants.base_constant,
            "determinant_bound": constants.determinant_bound,
            "site_resolved_bound": constants.site_resolved_bound,
            "site_x": list(cfg.site_x),
            "site_y": list(cfg.site_y),
        }
    )
    print(
        f"matrix {transform.size}x{transform.size}  "
        f"|inverse|_1 = {transform.inverse_one_norm:.8g}  "
        f"limit bound = {limit_bound:.8g}\n"
        f"base constant = {constants.base_constant:.8g}  "
        f"determinant bound = {constants.determinant_bound:.8g}  "
        f"site-resolved = {constants.site_resolved_bound:.8g}",
        file=sys.stderr,
    )
    reporter.finalize(digest, cfg.seed, cfg.workers)
    return 0


def cmd_minami(raw, args, reporter) -> int:
    cfg = experiment_from_config(raw, required=("box_radius", "energy", "site_x", "site_y"))
    _require_certified(cfg)
    result = estimate_minami(cfg)
    reporter.record({"kind": "mc_estimate", **result.to_record()})
    reporter.finalize(result.config_digest, result.seed, cfg.workers)
    return 0 if result.verdict == VERDICT_WITHIN else 1


def _read_sweep(raw) -> tuple[list[float], float] | None:
    """A wegner sweep's ``(widths, center)``, or None when the config sets no ``widths``."""
    if "widths" not in raw:
        return None
    widths = read(raw, "widths", [float])
    center = read(raw, "center", float)
    if not (widths and all(w >= 0 for w in widths)):
        raise ConfigError(f"'widths' must be a non-empty list of numbers >= 0: {widths}")
    return widths, center


def cmd_wegner(raw, args, reporter) -> int:
    sweep = _read_sweep(raw)
    required = ("box_radius",) if sweep else ("box_radius", "interval")
    cfg = experiment_from_config(raw, required=required)
    estimates = wegner_ratio_sweep(cfg, *sweep) if sweep else [estimate_wegner(cfg)]
    for e in estimates:
        reporter.record({"kind": "mc_estimate", **e.to_record()})
    if sweep:  # a None ratio (zero width) is written as an empty cell
        rows = [[e.extras["interval_width"], e.mean, e.stderr, e.extras["count_ratio"]]
                for e in estimates]
        reporter.csv("wegner.csv", ["interval_width", "mean_count", "stderr", "count_ratio"], rows)
    reporter.finalize(estimates[0].config_digest, cfg.seed, cfg.workers)
    return 0


def cmd_two_ev(raw, args, reporter) -> int:
    cfg = experiment_from_config(raw, required=("box_radius", "interval"))
    _require_certified(cfg)
    result = estimate_two_eigenvalue_probability(cfg)
    reporter.record({"kind": "mc_estimate", **result.probability.to_record()})
    reporter.record({"kind": "mc_estimate", **result.half_moment.to_record()})
    reporter.record(
        {
            "kind": "two_ev_chain",
            "config_digest": result.probability.config_digest,
            "exact_inequality_holds": result.exact_inequality_holds,
        }
    )
    reporter.finalize(result.probability.config_digest, cfg.seed, cfg.workers)
    ok = (
        result.exact_inequality_holds
        and result.probability.verdict != VERDICT_VIOLATED
        and result.half_moment.verdict != VERDICT_VIOLATED
    )
    return 0 if ok else 1


def cmd_fvc(raw, args, reporter) -> int:
    cfg = experiment_from_config(raw, required=("energy",))
    points = probe_fvc(
        cfg,
        decay_exponent=read(raw, "decay_exponent", float),
        radii=read(raw, "radii", [int]),
        regularization=read(raw, "regularization", float, 1e-8),
    )
    digest = cfg.digest()
    rows = []
    for point in points:
        reporter.record({"kind": "fvc_point", "config_digest": digest, **dataclasses.asdict(point)})
        rows.append([point.box_radius, point.probability, point.stderr, point.resample_fraction])
    reporter.csv("fvc.csv", ["box_radius", "probability", "stderr", "resample_fraction"], rows)
    reporter.finalize(digest, cfg.seed, cfg.workers)
    return 0


def cmd_fmb(raw, args, reporter) -> int:
    cfg = experiment_from_config(raw, required=("box_radius", "energy"))
    report = probe_fractional_moment(
        cfg,
        moment=read(raw, "fractional_exponent", float),
        pairs=read(raw, "pairs", [[[int], [int]]], None),
    )
    digest = cfg.digest()
    reporter.record(
        {
            "kind": "fmb_fit",
            "config_digest": digest,
            "moment": report.moment,
            "amplitude": report.amplitude,
            "decay_rate": report.decay_rate,
            "r_squared": report.r_squared,
            # an uncertified sample fails every pair alike
            "n_failed": max(p.n_failed for p in report.points),
        }
    )
    reporter.csv(
        "fmb.csv",
        ["distance", "mean", "stderr"],
        [[p.distance, p.mean, p.stderr] for p in report.points],
    )
    reporter.finalize(digest, cfg.seed, cfg.workers)
    return 0


def _require(condition: bool, message: str) -> None:
    """Refuse a range before sampling, where the library would refuse it only after."""
    if not condition:
        raise ConfigError(message)


def _ids_from_config(raw: dict) -> tuple:
    cfg = experiment_from_config(raw)
    ids_seed = read(raw, "ids_seed", int, cfg.seed + IDS_SEED_OFFSET)
    _require(ids_seed >= 0, f"'ids_seed' must be non-negative, got {ids_seed}")
    ids = empirical_ids(
        dataclasses.replace(cfg, seed=ids_seed),
        ids_radius=read(raw, "ids_radius", int),
        n_realizations=read(raw, "ids_realizations", int, 64),
        grid_points=read(raw, "ids_grid_points", int, 20001),
    )
    return cfg, ids


def cmd_ids(raw, args, reporter) -> int:
    epsilons = read(raw, "pos_epsilons", [float], None)
    reference_level = read(raw, "reference_level", float, 0.5)
    kappa = read(raw, "kappa", float, 0.0)
    pos_a = read(raw, "pos_a", float, -1.0)
    pos_b = read(raw, "pos_b", float, 1.0)
    if epsilons is not None:
        _require(0.0 <= reference_level <= 1.0, f"'reference_level' must lie in [0, 1], got {reference_level}")
        _require(reference_level < 1.0 or pos_b <= 0.0, "'reference_level' 1 is the IDS grid's last energy, "
                 f"and 'pos_b' {pos_b} > 0 probes past it")
        _require(pos_a < pos_b, f"need a < b, got 'pos_a' {pos_a} and 'pos_b' {pos_b}")
        _require(all(eps > 0 for eps in epsilons), f"'pos_epsilons' must be positive: {epsilons}")
    cfg, ids = _ids_from_config(raw)
    if epsilons is not None:  # before any write, so a refused probe leaves no partial --out
        probe = probe_pos(ids, ids.energy_at_level(reference_level), kappa, pos_a, pos_b, epsilons)
    digest = cfg.digest()
    record = {
        "kind": "ids",
        "config_digest": digest,
        **{k: v for k, v in ids.metadata.items() if k != "config_digest"},
        "grid_points": int(ids.grid.size),
    }
    if cfg.dimension == 1 and cfg.disorder_strength == 0.0:
        # compare in the unshifted convention, where the free spectrum is [-2, 2]
        energies = ids.grid - (2.0 if cfg.shifted_laplacian else 0.0)
        inside = (energies > -1.99) & (energies < 1.99)
        distance = float(np.max(np.abs(ids.values[inside] - free_chain_ids(energies[inside]))))
        record["free_ids_sup_distance"] = distance
        print(f"sup distance to free-chain closed form: {distance:.6f}", file=sys.stderr)
    reporter.record(record)
    reporter.csv(
        "ids.csv", ["energy", "ids"], [[float(e), float(v)] for e, v in zip(ids.grid, ids.values)]
    )
    if epsilons is not None:
        reporter.record({"kind": "pos_probe", "config_digest": digest, **dataclasses.asdict(probe)})
    reporter.finalize(digest, cfg.seed, cfg.workers)
    return 0


def cmd_spacing(raw, args, reporter) -> int:
    window = tuple(read(raw, "window", [float, float], [-5.0, 5.0]))
    _require(window[0] < window[1], f"'window' must be an increasing pair, got {list(window)}")
    if args.synthetic:
        n_realizations = read(raw, "realizations", int, 300)
        seed = read(raw, "seed", int, 0)
        workers = read(raw, "workers", int, 1)
        _require(workers >= 1, "worker count must be at least 1")
        _require(seed >= 0, f"'seed' must be non-negative, got {seed}")
        span = (window[0] - 10.0, window[1] + 10.0)
        points = span[1] - span[0]  # about a realization's points: unit intensity over the span
        _require(points <= POINTS_BUDGET, f"'window' {list(window)} spans over {POINTS_BUDGET} points")
        most = POINTS_BUDGET // points  # realizations within the budget
        _require(1 <= n_realizations <= most, f"'realizations' must lie in [1, {most:g}], got {n_realizations}")
        if args.synthetic == "poisson":
            # a control point process, not a Monte Carlo estimate of the operator,
            # so it keeps one sequential stream rather than estimators.uniforms
            rng = np.random.default_rng(seed)
            samples = [poisson_process_sample(rng, *span) for _ in range(n_realizations)]
        else:
            samples = [picket_fence_sample(*span) for _ in range(n_realizations)]
        stats = poisson_tests(samples, window)
        digest = canonical_digest({"synthetic": args.synthetic, "seed": seed, "n": n_realizations})
        reporter.record({"kind": "spacing_stats", "config_digest": digest, **stats.to_record()})
        reporter.finalize(digest, seed, workers)
        return 0 if stats.verdict() == "pass" else 1

    stats_radius = read(raw, "stats_radius", int)
    n_realizations = read(raw, "realizations", int)
    reference_level = read(raw, "reference_level", float, 0.5)
    ids_radius = read(raw, "ids_radius", int)
    _require(
        0 <= 2 * stats_radius <= ids_radius,
        f"'stats_radius' must lie in [0, ids_radius / 2 = {ids_radius / 2:g}], got {stats_radius}",
    )
    _require(n_realizations >= 1, f"'realizations' must be at least 1, got {n_realizations}")
    # level 1 is the grid's last energy, which rescale refuses after both samplings
    _require(0.0 <= reference_level < 1.0, f"'reference_level' must lie in [0, 1), got {reference_level}")
    cfg, ids = _ids_from_config(raw)
    e0 = ids.energy_at_level(reference_level)
    samples = rescaled_ensemble(
        cfg,
        stats_radius=stats_radius,
        n_realizations=n_realizations,
        ids=ids,
        reference_energy=e0,
    )
    stats = poisson_tests(samples, window)
    digest = cfg.digest()
    reporter.record(
        {
            "kind": "spacing_stats",
            "config_digest": digest,
            "reference_energy": e0,
            "reference_level": reference_level,
            **stats.to_record(),
        }
    )
    reporter.csv(
        "rescaled.csv",
        ["realization", "xi"],
        [[r, float(x)] for r, xi in enumerate(samples) for x in xi],
    )
    reporter.finalize(digest, cfg.seed, cfg.workers)
    return 0 if stats.verdict() == "pass" else 1


def cmd_verify_digest(raw, args, reporter) -> int:
    cfg = experiment_from_config(raw)
    sweep = _read_sweep(raw)
    # a sweep's records carry their own width's digest, as wegner wrote them
    expected = [c.digest() for c in (sweep_configs(cfg, *sweep) if sweep else [cfg])]
    mismatches = total = 0
    for number, line in enumerate(Path(args.records).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{args.records}:{number}:{err.colno}: invalid JSON ({err.msg})") from None
        if not isinstance(record, dict):
            raise ConfigError(f"{args.records}:{number}: a record must be a JSON object")
        total += 1
        if record.get("config_digest") not in expected:
            mismatches += 1
    print(f"{total} records, {mismatches} digest mismatches (expected {', '.join(expected)})")
    return 0 if total > 0 and mismatches == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alloylab",
        description="Numerical laboratory for discrete alloy-type random operators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # every command's flags, built once
    common.add_argument("--config", required=True, help="path to the JSON experiment config")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--samples", type=int, default=None, help="override the sample count")
    common.add_argument("--workers", type=int, default=None, help="override the worker count")
    common.add_argument("--out", default=None, help="directory for records and CSV tables")

    def add(name, func, help_text, needs_records=False):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if needs_records:
            p.add_argument("--records", required=True, help="results.jsonl to verify")
        if name == "spacing":
            p.add_argument(
                "--synthetic",
                choices=("poisson", "picket_fence"),
                default=None,
                help="replace the operator pipeline by a synthetic point process",
            )
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "certify the disorder assumption for (potential, density)")
    add("constants", cmd_constants, "report transform norms and determinant-bound constants")
    add("minami", cmd_minami, "Monte Carlo mean of det Im of the Green block vs its bound")
    add("wegner", cmd_wegner, "eigenvalue counting linearity diagnostic")
    add("two-ev", cmd_two_ev, "two-eigenvalue probability chain vs its quadratic bound")
    add("fvc", cmd_fvc, "finite-volume localization criterion probe")
    add("fmb", cmd_fmb, "fractional-moment decay diagnostic")
    add("ids", cmd_ids, "empirical integrated density of states")
    add("spacing", cmd_spacing, "rescaled level-spacing statistics vs the Poisson law")
    add("verify-digest", cmd_verify_digest, "re-hash a config and check stored records", True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the command is the process: pinned once and never restored, BLAS is already
    # at run_parallel's count after each fork, so no OpenBLAS pool is re-created;
    # scipy's copy, loaded later if at all, is pinned where it loads
    pin_blas_threads()
    try:
        raw = load_config(args.config)
        raw.update(_overrides(args))
        return args.func(raw, args, _Reporter(args.command, args.out))
    except (TransformError, RunFailure, NumericalFault) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    except ResourceLimit as err:
        print(
            f"resource cap: {err}; shrink the box radius or dimension "
            f"(dense solves are limited to {DENSE_SOLVE_LIMIT} rows)",
            file=sys.stderr,
        )
        return 2
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
