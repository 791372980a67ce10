"""Command-line front end: experiment dispatch, records, and plot data.

Outputs are line-delimited JSON records plus CSV for anything plottable;
timestamps live only in the run manifest so records stay byte-identical
for identical (config, seed).  Exit status encodes the scientific verdict
so CI can chain the acceptance suite: 0 pass/complete, 1 verdict failure,
2 usage or configuration error, or a box past the dense resource cap.
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

from . import __version__
from .config import (
    ConfigError,
    experiment_from_config,
    load_config,
    require_fields,
)
from .disorder import check_assumption
from .estimators import (
    NumericalFault,
    RunFailure,
    canonical_digest,
    estimate_minami,
    estimate_two_eigenvalue_probability,
    estimate_wegner,
    probe_fractional_moment,
    probe_fvc,
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


@dataclasses.dataclass
class RunManifest:
    subcommand: str
    config_digest: str
    seed: int
    artifact_version: str
    created_at: str
    outputs: list[str]
    wall_times: list[float]

    def write(self, out_dir: Path) -> None:
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2) + "\n")


class _Reporter:
    """Collects records and optional CSV tables for one run."""

    def __init__(self, out_dir: str | None):
        self.out_dir = Path(out_dir) if out_dir else None
        self.records: list[dict] = []
        self.outputs: list[str] = []
        self.wall_times: list[float] = []
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def record(self, payload: dict) -> None:
        # wall clock lives in the manifest; records stay byte-identical
        # across reruns of the same (config, seed)
        if "wall_time" in payload:
            payload = dict(payload)
            self.wall_times.append(payload.pop("wall_time"))
        self.records.append(payload)
        print(json.dumps(payload, sort_keys=True))

    def csv(self, name: str, header: list[str], rows) -> None:
        if not self.out_dir:
            return
        path = self.out_dir / name
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        self.outputs.append(name)

    def finalize(self, subcommand: str, digest: str, seed: int) -> None:
        if not self.out_dir:
            return
        records_path = self.out_dir / "results.jsonl"
        with records_path.open("w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.outputs.append("results.jsonl")
        manifest = RunManifest(
            subcommand=subcommand,
            config_digest=digest,
            seed=seed,
            artifact_version=__version__,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            outputs=sorted(self.outputs),
            wall_times=self.wall_times,
        )
        manifest.write(self.out_dir)


def _resolve_workers(args_workers: int | None) -> int | None:
    """Precedence: --workers flag, then environment, then config."""
    if args_workers is not None:
        return args_workers
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return None


def _overrides(args) -> dict:
    return {
        "seed": args.seed,
        "samples": args.samples,
        "workers": _resolve_workers(args.workers),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    raw = load_config(args.config)
    cfg = experiment_from_config(raw, overrides=_overrides(args))
    resolution = int(raw.get("grid_resolution", _default_grid_resolution(cfg.potential)))
    report = check_assumption(cfg.potential, cfg.density, resolution)
    reporter = _Reporter(args.out)
    digest = cfg.digest()
    reporter.record(
        {
            "kind": "assumption_check",
            "config_digest": digest,
            **dataclasses.asdict(report),
            "satisfied": report.satisfied,
        }
    )
    reporter.finalize("check", digest, cfg.seed)
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


def cmd_constants(args) -> int:
    raw = load_config(args.config)
    cfg = experiment_from_config(
        raw, required=("box_radius", "site_x", "site_y"), overrides=_overrides(args)
    )
    _require_certified(cfg)
    transform = build_circulant(cfg.potential, cfg.inner_box)
    limit_bound = limit_inverse_one_norm(cfg.potential, tolerance=float(raw.get("limit_tolerance", 1e-8)))
    constants = minami_constants(
        transform, cfg.density, cfg.disorder_strength, cfg.site_x, cfg.site_y
    )
    digest = cfg.digest()
    reporter = _Reporter(args.out)
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
    reporter.finalize("constants", digest, cfg.seed)
    return 0


def cmd_minami(args) -> int:
    raw = load_config(args.config)
    cfg = experiment_from_config(
        raw,
        required=("box_radius", "energy", "site_x", "site_y"),
        overrides=_overrides(args),
    )
    _require_certified(cfg)
    result = estimate_minami(cfg)
    reporter = _Reporter(args.out)
    reporter.record({"kind": "mc_estimate", **result.to_record()})
    reporter.finalize("minami", result.config_digest, result.seed)
    return 0 if result.verdict == "within_bound" else 1


def cmd_wegner(args) -> int:
    raw = load_config(args.config)
    overrides = _overrides(args)
    reporter = _Reporter(args.out)
    if "widths" in raw:
        require_fields(raw, ("center",))
        cfg = experiment_from_config(raw, required=("box_radius",), overrides=overrides)
        sweep = wegner_ratio_sweep(cfg, raw["widths"], float(raw["center"]))
        rows = []
        for estimate in sweep:
            reporter.record({"kind": "mc_estimate", **estimate.to_record()})
            rows.append(
                [estimate.extras["interval_width"], estimate.mean, estimate.stderr,
                 estimate.extras["count_ratio"]]
            )
        reporter.csv("wegner.csv", ["interval_width", "mean_count", "stderr", "count_ratio"], rows)
        digest = sweep[0].config_digest if sweep else cfg.digest()
        reporter.finalize("wegner", digest, cfg.seed)
        return 0
    cfg = experiment_from_config(raw, required=("box_radius", "interval"), overrides=overrides)
    result = estimate_wegner(cfg)
    reporter.record({"kind": "mc_estimate", **result.to_record()})
    reporter.finalize("wegner", result.config_digest, result.seed)
    return 0


def cmd_two_ev(args) -> int:
    raw = load_config(args.config)
    cfg = experiment_from_config(
        raw, required=("box_radius", "interval"), overrides=_overrides(args)
    )
    _require_certified(cfg)
    result = estimate_two_eigenvalue_probability(cfg)
    reporter = _Reporter(args.out)
    reporter.record({"kind": "mc_estimate", **result.probability.to_record()})
    reporter.record({"kind": "mc_estimate", **result.half_moment.to_record()})
    reporter.record(
        {
            "kind": "two_ev_chain",
            "config_digest": result.probability.config_digest,
            "exact_inequality_holds": result.exact_inequality_holds,
        }
    )
    reporter.finalize("two-ev", result.probability.config_digest, cfg.seed)
    ok = (
        result.exact_inequality_holds
        and result.probability.verdict != "violated_beyond_3sigma"
        and result.half_moment.verdict != "violated_beyond_3sigma"
    )
    return 0 if ok else 1


def cmd_fvc(args) -> int:
    raw = load_config(args.config)
    require_fields(raw, ("decay_exponent", "radii"))
    cfg = experiment_from_config(raw, required=("energy",), overrides=_overrides(args))
    points = probe_fvc(
        cfg,
        decay_exponent=float(raw["decay_exponent"]),
        radii=[int(r) for r in raw["radii"]],
        regularization=float(raw.get("regularization", 1e-8)),
    )
    digest = cfg.digest()
    reporter = _Reporter(args.out)
    rows = []
    for point in points:
        reporter.record({"kind": "fvc_point", "config_digest": digest, **dataclasses.asdict(point)})
        rows.append([point.box_radius, point.probability, point.stderr, point.resample_fraction])
    reporter.csv("fvc.csv", ["box_radius", "probability", "stderr", "resample_fraction"], rows)
    reporter.finalize("fvc", digest, cfg.seed)
    return 0


def cmd_fmb(args) -> int:
    raw = load_config(args.config)
    require_fields(raw, ("fractional_exponent",))
    cfg = experiment_from_config(
        raw, required=("box_radius", "energy"), overrides=_overrides(args)
    )
    pairs = None
    if "pairs" in raw:
        pairs = [(tuple(x), tuple(y)) for x, y in raw["pairs"]]
    report = probe_fractional_moment(cfg, moment=float(raw["fractional_exponent"]), pairs=pairs)
    digest = cfg.digest()
    reporter = _Reporter(args.out)
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
    reporter.finalize("fmb", digest, cfg.seed)
    return 0


def _ids_from_config(raw: dict, args) -> tuple:
    cfg = experiment_from_config(raw, required=("ids_radius",), overrides=_overrides(args))
    ids_seed = int(raw.get("ids_seed", cfg.seed + IDS_SEED_OFFSET))
    ids_cfg = dataclasses.replace(cfg, seed=ids_seed)
    ids = empirical_ids(
        ids_cfg,
        ids_radius=int(raw["ids_radius"]),
        n_realizations=int(raw.get("ids_realizations", 64)),
        grid_points=int(raw.get("ids_grid_points", 20001)),
    )
    return cfg, ids


def cmd_ids(args) -> int:
    raw = load_config(args.config)
    cfg, ids = _ids_from_config(raw, args)
    digest = cfg.digest()
    reporter = _Reporter(args.out)
    record = {
        "kind": "ids",
        "config_digest": digest,
        **{k: v for k, v in ids.metadata.items() if k != "config_digest"},
        "grid_points": int(ids.grid.size),
    }
    if cfg.dimension == 1 and cfg.disorder_strength == 0.0:
        inside = (ids.grid > -1.99) & (ids.grid < 1.99)
        distance = float(np.max(np.abs(ids.values[inside] - free_chain_ids(ids.grid[inside]))))
        record["free_ids_sup_distance"] = distance
        print(f"sup distance to free-chain closed form: {distance:.6f}", file=sys.stderr)
    reporter.record(record)
    reporter.csv(
        "ids.csv", ["energy", "ids"], [[float(e), float(v)] for e, v in zip(ids.grid, ids.values)]
    )
    if "pos_epsilons" in raw:
        probe = probe_pos(
            ids,
            ids.energy_at_level(float(raw.get("reference_level", 0.5))),
            kappa=float(raw.get("kappa", 0.0)),
            a=float(raw.get("pos_a", -1.0)),
            b=float(raw.get("pos_b", 1.0)),
            epsilons=[float(e) for e in raw["pos_epsilons"]],
        )
        reporter.record({"kind": "pos_probe", "config_digest": digest, **probe.to_record()})
    reporter.finalize("ids", digest, cfg.seed)
    return 0


def cmd_spacing(args) -> int:
    raw = load_config(args.config)
    reporter = _Reporter(args.out)
    synthetic = args.synthetic or raw.get("synthetic")
    window = tuple(float(w) for w in raw.get("window", (-5.0, 5.0)))
    if synthetic:
        n_realizations = int(raw.get("realizations", 300))
        seed = int(raw.get("seed", 0) if args.seed is None else args.seed)
        span = (window[0] - 10.0, window[1] + 10.0)
        if synthetic == "poisson":
            rng = np.random.default_rng(seed)
            samples = [poisson_process_sample(rng, *span) for _ in range(n_realizations)]
        elif synthetic == "picket_fence":
            samples = [picket_fence_sample(*span) for _ in range(n_realizations)]
        else:
            raise ConfigError(f"unknown synthetic mode {synthetic!r}")
        stats = poisson_tests(samples, window)
        digest = canonical_digest({"synthetic": synthetic, "seed": seed, "n": n_realizations})
        reporter.record({"kind": "spacing_stats", "config_digest": digest, **stats.to_record()})
        reporter.finalize("spacing", digest, seed)
        return 0 if stats.verdict() == "pass" else 1

    require_fields(raw, ("stats_radius", "realizations"))
    cfg, ids = _ids_from_config(raw, args)
    reference_level = float(raw.get("reference_level", 0.5))
    e0 = ids.energy_at_level(reference_level)
    samples = rescaled_ensemble(
        cfg,
        stats_radius=int(raw["stats_radius"]),
        n_realizations=int(raw["realizations"]),
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
        [[r, float(x)] for r, sample in enumerate(samples) for x in sample.xi],
    )
    reporter.finalize("spacing", digest, cfg.seed)
    return 0 if stats.verdict() == "pass" else 1


def cmd_verify_digest(args) -> int:
    raw = load_config(args.config)
    cfg = experiment_from_config(raw, overrides=_overrides(args))
    expected = cfg.digest()
    path = Path(args.records)
    mismatches = 0
    total = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        total += 1
        if record.get("config_digest") != expected:
            mismatches += 1
    print(f"{total} records, {mismatches} digest mismatches (expected {expected})")
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

    def add(name, func, help_text, needs_records=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--samples", type=int, default=None, help="override the sample count")
        p.add_argument("--workers", type=int, default=None, help="override the worker count")
        p.add_argument("--out", default=None, help="directory for records and CSV tables")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
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
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
