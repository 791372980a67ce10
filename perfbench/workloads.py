"""Benchmark workloads: seeded config generation and output checks.

Each workload is one *pass*: a fixed list of CLI invocations whose configs
are generated from the workload seed.  The geometry of every workload is
fixed; the seed only picks Monte Carlo seeds (and, for the seed-free
constants, which site pair is evaluated), so timings do not depend on it.
A pass is sized so that a run of a few seconds holds several passes at each
worker count.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_constants.json"
RELATIVE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Invocation:
    """One ``alloylab <command> --config <file>`` call inside a pass."""

    label: str
    command: str
    config: dict
    items: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    # ``module:attribute`` names; the first call of any of them ends set-up
    setup_stops: tuple[str, ...]
    build: Callable[[int], list[Invocation]]
    # (invocation, exit code, records, output files) -> problems found
    check: Callable[[Invocation, int, list[dict], dict[str, bytes]], list[str]]


def _seeds(workload: str, seed: int, k: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(k)]


# ---------------------------------------------------------------------------
# det_d1: Minami determinant sweep (acceptance criteria 3/4/9/10)
# ---------------------------------------------------------------------------

DET_SAMPLES = 1024  # two 512-sample chunks per invocation, one per worker
DET_ENERGIES = (0.0, 0.5, 1.0, 1.5, 2.0)
DET_PROFILES = ("delta", "nn_positive")


def build_det_d1(seed: int) -> list[Invocation]:
    (mc_seed,) = _seeds("det_d1", seed, 1)
    return [
        Invocation(
            label=f"minami-{profile}-re{re:g}",
            command="minami",
            config={
                "dimension": 1,
                "box_radius": 3,
                "disorder_strength": 2.0,
                "potential": profile,
                "density": "bump",
                "energy": [re, 0.05],
                "site_x": [-1],
                "site_y": [1],
                "samples": DET_SAMPLES,
                "seed": mc_seed,
            },
            items=DET_SAMPLES,
        )
        for profile in DET_PROFILES
        for re in DET_ENERGIES
    ]


def _mc_problems(record: dict, samples: int) -> list[str]:
    problems = []
    if record.get("n_failed") != 0:
        problems.append(f"{record.get('estimator')}: n_failed={record.get('n_failed')}")
    if record.get("n_samples") != samples:
        problems.append(f"{record.get('estimator')}: n_samples={record.get('n_samples')}")
    if not math.isfinite(record.get("mean", math.nan)):
        problems.append(f"{record.get('estimator')}: non-finite mean")
    return problems


def check_det_d1(inv: Invocation, rc: int, records: list[dict], files: dict) -> list[str]:
    estimates = [r for r in records if r.get("estimator") == "minami"]
    if rc != 0:
        return [f"exit code {rc}"]
    if len(estimates) != 1:
        return [f"expected one minami record, got {len(estimates)}"]
    record = estimates[0]
    problems = _mc_problems(record, inv.items)
    if record.get("envelope_violations") != 0:
        problems.append(f"envelope_violations={record.get('envelope_violations')}")
    if record.get("verdict") != "within_bound":
        problems.append(f"verdict {record.get('verdict')}")
    if record.get("within_classical") is False:
        problems.append("classical pi^2 |rho|_inf^2 comparison violated")
    return problems


# ---------------------------------------------------------------------------
# count_d2: two-eigenvalue chain plus a Wegner width sweep, d=2
# ---------------------------------------------------------------------------

COUNT_SAMPLES = 128
COUNT_WIDTHS = (0.05, 0.1, 0.2)


def build_count_d2(seed: int) -> list[Invocation]:
    two_ev_seed, wegner_seed = _seeds("count_d2", seed, 2)
    base = {
        "dimension": 2,
        "box_radius": 6,
        "disorder_strength": 2.0,
        "potential": "nn_signed",
        "density": "bump",
        "samples": COUNT_SAMPLES,
    }
    return [
        Invocation(
            label="two-ev",
            command="two-ev",
            config={**base, "interval": [0.95, 1.05], "seed": two_ev_seed},
            items=COUNT_SAMPLES,
        ),
        Invocation(
            label="wegner-sweep",
            command="wegner",
            config={**base, "widths": list(COUNT_WIDTHS), "center": 1.0, "seed": wegner_seed},
            items=COUNT_SAMPLES * len(COUNT_WIDTHS),
        ),
    ]


def check_count_d2(inv: Invocation, rc: int, records: list[dict], files: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    estimates = [r for r in records if r.get("kind") == "mc_estimate"]
    problems = []
    for record in estimates:
        problems += _mc_problems(record, COUNT_SAMPLES)
    if inv.command == "two-ev":
        if len(estimates) != 2:
            problems.append(f"expected two estimates, got {len(estimates)}")
        chains = [r for r in records if r.get("kind") == "two_ev_chain"]
        if len(chains) != 1 or chains[0].get("exact_inequality_holds") is not True:
            problems.append("exact indicator <= pair-count inequality not recorded as holding")
        for record in estimates:
            if record.get("verdict") == "violated_beyond_3sigma":
                problems.append(f"{record.get('estimator')} violated its bound")
    else:
        if len(estimates) != len(COUNT_WIDTHS):
            problems.append(f"expected {len(COUNT_WIDTHS)} estimates, got {len(estimates)}")
        widths = sorted(r.get("interval_width", math.nan) for r in estimates)
        if not all(math.isclose(a, b) for a, b in zip(widths, COUNT_WIDTHS)):
            problems.append(f"swept widths {widths}")
        if any(not (r.get("count_ratio", -1.0) >= 0.0) for r in estimates):
            problems.append("count ratio missing or negative")
        if "wegner.csv" not in files:
            problems.append("wegner.csv missing")
    return problems


# ---------------------------------------------------------------------------
# unfold_d1: IDS, rescaled ensemble and Poisson tests (criterion 7 at half size)
# ---------------------------------------------------------------------------

UNFOLD_IDS_REALIZATIONS = 8
UNFOLD_REALIZATIONS = 48
UNFOLD_STATS_RADIUS = 250


def build_unfold_d1(seed: int) -> list[Invocation]:
    stats_seed, ids_seed = _seeds("unfold_d1", seed, 2)
    return [
        Invocation(
            label="spacing",
            command="spacing",
            config={
                "dimension": 1,
                "disorder_strength": 10.0,
                "potential": "delta",
                "density": "bump",
                "ids_radius": 1000,
                "ids_realizations": UNFOLD_IDS_REALIZATIONS,
                "ids_grid_points": 16001,
                "ids_seed": ids_seed,
                "stats_radius": UNFOLD_STATS_RADIUS,
                "realizations": UNFOLD_REALIZATIONS,
                "window": [-5.0, 5.0],
                "reference_level": 0.5,
                "seed": stats_seed,
            },
            items=UNFOLD_IDS_REALIZATIONS + UNFOLD_REALIZATIONS,
        )
    ]


def check_unfold_d1(inv: Invocation, rc: int, records: list[dict], files: dict) -> list[str]:
    stats = [r for r in records if r.get("kind") == "spacing_stats"]
    if len(stats) != 1:
        return [f"exit code {rc}, {len(stats)} spacing records"]
    record = stats[0]
    problems = []
    # exit status 1 means the Poisson tests failed: a recorded verdict that
    # fails on about 5% of seeds by design, so it is not a failed operation
    if (rc == 0) != (record.get("verdict") == "pass") or rc not in (0, 1):
        problems.append(f"exit code {rc} with verdict {record.get('verdict')}")
    if record.get("n_realizations") != UNFOLD_REALIZATIONS:
        problems.append(f"n_realizations={record.get('n_realizations')}")
    if not math.isfinite(record.get("reference_energy", math.nan)):
        problems.append("reference energy missing")
    problems += _unfolding_problems(files.get("rescaled.csv"))
    return problems


def _unfolding_problems(csv_bytes: bytes | None) -> list[str]:
    """The unfolding through a monotone IDS keeps every realization sorted."""
    if csv_bytes is None:
        return ["rescaled.csv missing"]
    lines = csv_bytes.decode().splitlines()
    if not lines or lines[0] != "realization,xi":
        return ["rescaled.csv header"]
    last: dict[int, float] = {}
    rows = 0
    for line in lines[1:]:
        r, xi = line.split(",")
        r, xi = int(r), float(xi)
        if xi < last.get(r, -math.inf):
            return [f"realization {r} not monotone after unfolding"]
        last[r] = xi
        rows += 1
    expected = UNFOLD_REALIZATIONS * (2 * UNFOLD_STATS_RADIUS + 1)
    if rows != expected or len(last) != UNFOLD_REALIZATIONS:
        return [f"rescaled.csv has {rows} rows over {len(last)} realizations, expected {expected}"]
    return []


# ---------------------------------------------------------------------------
# constants_d23: dense circulant transform and bound constants, d=2 and d=3
# ---------------------------------------------------------------------------

CONSTANTS_GEOMETRIES = ((2, 12), (2, 15), (2, 18), (3, 3), (3, 4))
CONSTANTS_PAIRS = (((0,), (1,)), ((-1,), (1,)), ((0,), (-1,)))
CONSTANTS_FIELDS = (
    "inverse_one_norm",
    "condition_number",
    "limit_inverse_norm_bound",
    "rho_d1_norm",
    "rho_d2_norm",
    "base_constant",
    "determinant_bound",
    "site_resolved_bound",
)


def _pair(d: int, index: int) -> tuple[list[int], list[int]]:
    x, y = CONSTANTS_PAIRS[index]
    return list(x) + [0] * (d - 1), list(y) + [1] * (d - 1)


def constants_key(d: int, r: int, x, y) -> str:
    return f"d{d}_r{r}_x{','.join(map(str, x))}_y{','.join(map(str, y))}"


def build_constants_d23(seed: int) -> list[Invocation]:
    rng = random.Random(f"constants_d23:{seed}")
    pair = rng.randrange(len(CONSTANTS_PAIRS))
    out = []
    for d, r in CONSTANTS_GEOMETRIES:
        x, y = _pair(d, pair)
        out.append(
            Invocation(
                label=constants_key(d, r, x, y),
                command="constants",
                config={
                    "dimension": d,
                    "box_radius": r,
                    "disorder_strength": 2.0,
                    "potential": "nn_signed",
                    "density": "bump",
                    "site_x": x,
                    "site_y": y,
                    "seed": rng.randrange(1, 2**31),
                },
                items=1,
            )
        )
    return out


def all_constants_keys() -> list[tuple[str, dict]]:
    """Every (key, config) the constants workload can generate, for the reference."""
    out = []
    for index in range(len(CONSTANTS_PAIRS)):
        for d, r in CONSTANTS_GEOMETRIES:
            x, y = _pair(d, index)
            out.append((constants_key(d, r, x, y), {"d": d, "r": r, "x": x, "y": y}))
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def constants_problems(record: dict, reference: dict) -> list[str]:
    problems = []
    size, want_size = record.get("envelope_size"), reference["envelope_size"]
    if size != want_size:
        problems.append(f"envelope_size {size} != {want_size}")
    for name in CONSTANTS_FIELDS:
        got, want = record.get(name), reference[name]
        if not isinstance(got, (int, float)) or abs(got - want) > RELATIVE_TOLERANCE * abs(want):
            problems.append(f"{name} {got!r} differs from reference {want!r}")
    return problems


def check_constants_d23(inv: Invocation, rc: int, records: list[dict], files: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    constants = [r for r in records if r.get("kind") == "constants"]
    if len(constants) != 1:
        return [f"expected one constants record, got {len(constants)}"]
    return constants_problems(constants[0], load_reference()[inv.label])


# ---------------------------------------------------------------------------

# set-up of a Monte Carlo command ends where per-sample work starts
MC_SETUP_STOPS = (
    "alloylab.estimators:run_parallel",
    "numpy.linalg:eigvalsh",
    "numpy.linalg:solve",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="det_d1",
            why="minami d=1 r=3, 2 profiles x 5 energies: per-sample streams and quantile "
            "bisection dominate, 7x7 solves are a few percent; bypasses heavy linear algebra",
            item="Monte Carlo sample",
            setup_stops=MC_SETUP_STOPS,
            build=build_det_d1,
            check=check_det_d1,
        ),
        Workload(
            name="count_d2",
            why="two-ev plus a wegner width sweep, d=2 r=6 (169 sites): batched eigvalsh "
            "dominates, so the eigensolve layer and BLAS-thread x worker interaction show",
            item="Monte Carlo sample",
            setup_stops=MC_SETUP_STOPS,
            build=build_count_d2,
            check=check_count_d2,
        ),
        Workload(
            name="unfold_d1",
            why="spacing d=1: IDS on r=1000, unfolded r=250 ensemble, Poisson tests; "
            "tridiagonal eigensolves and quantiles on spectra's own thread pool",
            item="realization",
            setup_stops=(
                "alloylab.spectra:chain_eigenvalues",
                "scipy.linalg:eigh_tridiagonal",
                "numpy.linalg:eigvalsh",
                "alloylab.estimators:run_parallel",
            ),
            build=build_unfold_d1,
            check=check_unfold_d1,
        ),
        Workload(
            name="constants_d23",
            why="constants nn_signed at d=2 r=12,15,18 and d=3 r=3,4: dense circulant "
            "build and inverse (N<=1521), no sampling or eigensolves; sets peak memory",
            item="transform",
            setup_stops=(
                "alloylab.cli:build_circulant",
                "alloylab.cli:limit_inverse_one_norm",
                "alloylab.cli:minami_constants",
            ),
            build=build_constants_d23,
            check=check_constants_d23,
        ),
    )
}
