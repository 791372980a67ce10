import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from alloylab import estimators, spectra
from alloylab.cli import main
from alloylab.config import ConfigError, read

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name="config.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def base_fields(**extra):
    fields = dict(
        dimension=1,
        box_radius=2,
        disorder_strength=2.0,
        potential="delta",
        density="bump",
        seed=3,
        samples=300,
        workers=1,
    )
    fields.update(extra)
    return fields


def refuse_sampling(*args, **kwargs):
    raise AssertionError("sampling started before the config was validated")


def read_records(out_dir):
    lines = (Path(out_dir) / "results.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_delta_preset(tmp_path, capsys):
    cfg = write_config(tmp_path, **base_fields())
    assert main(["check", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["fourier_min_modulus"] == pytest.approx(1.0)
    assert record["satisfied"] is True


def test_check_zero_mean_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, **base_fields(potential=[[[0], 1.0], [[1], -1.0]]))
    assert main(["check", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "not certified" in err


def test_check_nondominant_positive_transform(tmp_path, capsys):
    # |u(0)| = 1 < 1.3 = sum of the rest, yet the transform stays positive
    u = [[[0], 1.0], [[1], 0.45], [[-1], 0.45], [[2], 0.2], [[-2], 0.2]]
    cfg = write_config(tmp_path, **base_fields(potential=u))
    assert main(["check", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["dominance_holds"] is False
    assert record["satisfied"] is True


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 1,,}')
    assert main(["check", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_field_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path, dimension=1, potential="delta", density="bump")
    assert main(["check", "--config", cfg]) == 2
    assert "disorder_strength" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_delta_bump(tmp_path, capsys):
    cfg = write_config(tmp_path, **base_fields(site_x=[0], site_y=[1]))
    out = tmp_path / "run"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    (record,) = read_records(out)
    assert record["inverse_one_norm"] == 1.0
    assert record["limit_inverse_norm_bound"] == pytest.approx(1.0, abs=1e-12)
    d2 = 40.0 * math.sqrt(3.0) / 3.0
    assert record["base_constant"] == pytest.approx(max(3.75**2, d2) / 4.0, rel=1e-12)
    assert record["determinant_bound"] == pytest.approx(
        (math.pi / 2.0) ** 2 * record["base_constant"], rel=1e-12
    )


def test_constants_perturbed_delta_neumann(tmp_path):
    u = [[[0], 1.0], [[1], 0.1]]
    cfg = write_config(tmp_path, **base_fields(potential=u, site_x=[0], site_y=[1]))
    out = tmp_path / "run"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    (record,) = read_records(out)
    assert record["limit_inverse_norm_bound"] <= 1.0 / (1.0 - 0.1) + 1e-8
    assert record["inverse_one_norm"] <= record["limit_inverse_norm_bound"] * (1 + 1e-6)


def test_constants_d3_beyond_dense_reach(tmp_path):
    # envelope 19**3 = 6859 sites: four dense 6859 x 6859 float64 arrays
    # and an O(N**3) inverse would be needed without the FFT kernel
    u = [[[0, 0, 0], 1.0], [[1, 0, 0], 0.2], [[0, -1, 0], -0.1], [[0, 0, 1], 0.05]]
    cfg = write_config(
        tmp_path,
        **base_fields(dimension=3, box_radius=8, potential=u, site_x=[0, 0, 0], site_y=[1, 0, 0]),
    )
    out = tmp_path / "run"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    (record,) = read_records(out)
    assert record["envelope_size"] == 6859
    assert record["inverse_one_norm"] <= record["limit_inverse_norm_bound"] * (1 + 1e-6)
    assert record["site_resolved_bound"] <= record["determinant_bound"]
    assert json.loads((out / "manifest.json").read_text())["wall_times"] == []


def test_manifest_environment_schema(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, **base_fields(interval=[0.0, 1.0], samples=40))
    out = tmp_path / "run"
    assert main(["wegner", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    environment = manifest["environment"]
    assert set(environment) == {
        "numpy", "scipy", "openblas", "blas_threads", "blas_missing", "workers", "cpu_count"
    }
    assert environment["numpy"] == np.__version__
    assert environment["scipy"] == scipy.__version__
    assert environment["workers"] == 2
    assert environment["cpu_count"] == os.cpu_count()
    if environment["blas_missing"] is None:
        assert environment["blas_threads"] == 1
        assert set(environment["openblas"]) == {"numpy", "scipy"}
        assert all(config.startswith("OpenBLAS") for config in environment["openblas"].values())
    else:
        assert environment["blas_threads"] is None

    monkeypatch.setattr(estimators, "_openblas_libraries", lambda: ((), "scipy_openblas_get_config"))
    assert main(["wegner", "--config", cfg, "--out", str(out)]) == 0
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    assert environment["blas_threads"] is None
    assert environment["blas_missing"] == "scipy_openblas_get_config"
    assert environment["openblas"] == {}
    assert environment["workers"] == 1


# ---------------------------------------------------------------------------
# estimator commands
# ---------------------------------------------------------------------------

def minami_fields(**extra):
    return base_fields(energy=[0.5, 0.1], site_x=[-1], site_y=[1], **extra)


def fvc_fields(**extra):
    fields = dict(disorder_strength=30.0, energy=[0.0, 0.0], samples=60,
                  decay_exponent=3.0, radii=[4, 6])
    fields.update(extra)
    return base_fields(**fields)


def fmb_fields(**extra):
    fields = dict(box_radius=8, disorder_strength=30.0, energy=[0.0, 0.01],
                  samples=120, fractional_exponent=0.5)
    fields.update(extra)
    return base_fields(**fields)


def test_minami_command_and_digest_verify(tmp_path):
    cfg = write_config(tmp_path, **minami_fields())
    out = tmp_path / "run"
    assert main(["minami", "--config", cfg, "--out", str(out)]) == 0
    (record,) = read_records(out)
    assert record["verdict"] == "within_bound"
    assert "wall_time" not in record
    records_path = str(out / "results.jsonl")
    assert main(["verify-digest", "--config", cfg, "--records", records_path]) == 0
    # tampering with the config changes the digest
    other = write_config(tmp_path, name="other.json", **minami_fields(seed=4))
    assert main(["verify-digest", "--config", other, "--records", records_path]) == 1


def test_wegner_sweep_records_verify(tmp_path):
    sweep = base_fields(box_radius=3, widths=[0.1, 0.2], center=1.0, samples=100)
    cfg = write_config(tmp_path, **sweep)
    out = tmp_path / "run"
    assert main(["wegner", "--config", cfg, "--out", str(out)]) == 0
    records_path = str(out / "results.jsonl")
    assert main(["verify-digest", "--config", cfg, "--records", records_path]) == 0
    other = write_config(tmp_path, name="other.json", **{**sweep, "center": 1.5})
    assert main(["verify-digest", "--config", other, "--records", records_path]) == 1


def ids_fields(**extra):
    fields = dict(disorder_strength=4.0, ids_radius=40, ids_realizations=6, ids_grid_points=501)
    fields.update(extra)
    return base_fields(**fields)


@pytest.mark.parametrize(
    "command, fields, code",
    [
        ("minami", minami_fields, 0),
        ("fvc", fvc_fields, 0),
        ("fmb", fmb_fields, 0),
        ("wegner", lambda: base_fields(box_radius=3, widths=[0.1, 0.4], center=1.0), 0),
        ("two-ev", lambda: base_fields(dimension=2, interval=[0.9, 1.1], samples=200), 0),
        ("ids", lambda: ids_fields(pos_epsilons=[0.2, 0.4]), 0),
        # toy-scale statistics fail the Poisson verdict; the records must still match
        ("spacing", lambda: ids_fields(dimension=2, ids_radius=6, stats_radius=3,
                                       realizations=20, window=[-2.0, 2.0]), 1),
    ],
    ids=["minami", "fvc", "fmb", "wegner", "two-ev", "ids", "spacing"],
)
def test_minami_records_byte_identical(tmp_path, command, fields, code):
    cfg = write_config(tmp_path, **fields())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out1)]) == code
    assert main([command, "--config", cfg, "--out", str(out2), "--workers", "4"]) == code
    outputs = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
    assert "results.jsonl" in outputs
    for name in outputs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_seed_override_changes_digest(tmp_path):
    cfg = write_config(tmp_path, **minami_fields())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["minami", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["minami", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    assert read_records(out1)[0]["config_digest"] != read_records(out2)[0]["config_digest"]


def test_workers_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, **minami_fields())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["minami", "--config", cfg, "--out", str(out1)]) == 0
    monkeypatch.setenv("ALLOYLAB_WORKERS", "3")
    assert main(["minami", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.jsonl").read_bytes() == (out2 / "results.jsonl").read_bytes()
    monkeypatch.setenv("ALLOYLAB_WORKERS", "zebra")
    assert main(["minami", "--config", cfg]) == 2


def test_wegner_sweep_csv(tmp_path):
    cfg = write_config(
        tmp_path, **base_fields(box_radius=3, widths=[0.1, 0.2], center=1.0, samples=400)
    )
    out = tmp_path / "run"
    assert main(["wegner", "--config", cfg, "--out", str(out)]) == 0
    table = (out / "wegner.csv").read_text().splitlines()
    assert table[0] == "interval_width,mean_count,stderr,count_ratio"
    assert len(table) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "wegner"
    assert "wegner.csv" in manifest["outputs"]
    assert len(manifest["wall_times"]) == 2


@pytest.mark.parametrize("widths", [0.1, [], [0.1, -0.1]])
def test_wegner_sweep_rejects_bad_widths_before_sampling(tmp_path, monkeypatch, capsys, widths):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **base_fields(widths=widths, center=1.0))
    assert main(["wegner", "--config", cfg]) == 2
    assert "widths" in capsys.readouterr().err


def strict_records(out_dir):
    def reject_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    lines = (out_dir / "results.jsonl").read_text().splitlines()
    return [json.loads(line, parse_constant=reject_constant) for line in lines]


def test_undefined_statistics_are_recorded_as_null(tmp_path):
    sweep = write_config(tmp_path, "sweep.json", **base_fields(widths=[0.0, 0.2], center=1.0))
    fence = write_config(
        tmp_path, "fence.json", **base_fields(realizations=20, window=[0.2, 0.4])
    )
    assert main(["wegner", "--config", sweep, "--out", str(tmp_path / "w")]) == 0
    assert main(["spacing", "--config", fence, "--synthetic", "picket_fence",
                 "--out", str(tmp_path / "s")]) == 1
    zero, wide = strict_records(tmp_path / "w")
    assert zero["interval_width"] == 0.0 and zero["count_ratio"] is None
    assert wide["count_ratio"] > 0.0
    (stats,) = strict_records(tmp_path / "s")
    assert stats["n_gaps"] == 0
    assert stats["ks_statistic"] is None and stats["ks_threshold"] is None
    table = (tmp_path / "w" / "wegner.csv").read_text().splitlines()
    assert table[1].endswith(",") and table[1].count(",") == 3


def test_two_ev_command(tmp_path):
    cfg = write_config(
        tmp_path, **base_fields(box_radius=3, interval=[0.95, 1.05], samples=500)
    )
    out = tmp_path / "run"
    assert main(["two-ev", "--config", cfg, "--out", str(out)]) == 0
    records = read_records(out)
    kinds = {r.get("estimator", r["kind"]) for r in records}
    assert "two_eigenvalue_probability" in kinds
    assert "two_eigenvalue_half_moment" in kinds


def test_fvc_command(tmp_path):
    cfg = write_config(tmp_path, **fvc_fields())
    out = tmp_path / "run"
    assert main(["fvc", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "fvc.csv").read_text().splitlines()
    assert len(rows) == 3


def test_fmb_command(tmp_path):
    cfg = write_config(tmp_path, **fmb_fields())
    out = tmp_path / "run"
    assert main(["fmb", "--config", cfg, "--out", str(out)]) == 0
    (record,) = [r for r in read_records(out) if r["kind"] == "fmb_fit"]
    assert record["decay_rate"] > 0


@pytest.mark.parametrize(
    "command, fields",
    [("fvc", fvc_fields(radii=[4], samples=1000)), ("fmb", fmb_fields(samples=1000))],
)
def test_probe_records_count_failed_samples(tmp_path, monkeypatch, command, fields):
    solve = estimators.resolvent_columns
    calls = []

    def first_member_uncertified_once(matrices, z, columns):
        solutions, certified = solve(matrices, z, columns)
        if not calls:
            certified[0] = False
        calls.append(len(certified))
        return solutions, certified

    monkeypatch.setattr(estimators, "resolvent_columns", first_member_uncertified_once)
    # one uncertified sample of 1000 stays within the 0.1% cap; one worker,
    # so that every call reaches the spy's list in this process
    cfg = write_config(tmp_path, **fields)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
    (record,) = [r for r in read_records(out) if r["kind"] in ("fvc_point", "fmb_fit")]
    assert record["n_failed"] == 1
    assert len(calls) > 1


def test_manifest_schema_keeps_wall_times(tmp_path):
    cfg = write_config(
        tmp_path, **base_fields(box_radius=3, interval=[0.95, 1.05], samples=200)
    )
    out = tmp_path / "run"
    assert main(["two-ev", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "subcommand", "config_digest", "seed", "artifact_version", "created_at", "outputs",
        "wall_times", "count_fallbacks", "environment",
    }
    assert manifest["subcommand"] == "two-ev"
    assert manifest["outputs"] == ["results.jsonl"]
    # one wall time and one fallback count per Monte Carlo estimate, none left in the records
    assert len(manifest["wall_times"]) == 2
    assert all(isinstance(t, float) and t >= 0.0 for t in manifest["wall_times"])
    assert len(manifest["count_fallbacks"]) == 2
    assert all(isinstance(n, int) and 0 <= n <= 200 for n in manifest["count_fallbacks"])
    assert all("wall_time" not in r and "count_fallbacks" not in r for r in read_records(out))


def test_fvc_rejects_zero_regularization(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **fvc_fields(regularization=0.0))
    assert main(["fvc", "--config", cfg]) == 2
    assert "regularization" in capsys.readouterr().err


def test_fmb_rejects_imaginary_part_below_the_floor(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **fmb_fields(energy=[0.0, 1e-15]))
    assert main(["fmb", "--config", cfg]) == 2
    assert "Im z" in capsys.readouterr().err


def test_resource_cap_guidance(tmp_path, capsys):
    fields = base_fields(dimension=2, box_radius=40, energy=[0.5, 0.1])
    fields.update(site_x=[0, 0], site_y=[1, 0])
    cfg = write_config(tmp_path, **fields)
    assert main(["minami", "--config", cfg]) == 2
    assert "resource cap" in capsys.readouterr().err
    # the spectra path: a 67 x 67 IDS box has no banded fast path in d=2
    ids = write_config(
        tmp_path, name="ids.json", **base_fields(dimension=2, ids_radius=33, ids_realizations=1)
    )
    assert main(["ids", "--config", ids]) == 2
    err = capsys.readouterr().err
    assert "resource cap" in err
    assert "4489" in err and "4096" in err


@pytest.mark.parametrize(
    "command, fields",
    [
        ("wegner", base_fields(dimension=2, box_radius=40, interval=[0.9, 1.1])),
        ("two-ev", base_fields(dimension=2, box_radius=40, interval=[0.9, 1.1])),
        # the first radius fits; the second is refused before the first is sampled
        ("fvc", fvc_fields(dimension=2, decay_exponent=6.0, radii=[2, 40])),
        ("fmb", fmb_fields(dimension=2, box_radius=40)),
    ],
    ids=["wegner", "two-ev", "fvc", "fmb"],
)
def test_resource_cap_refused_before_sampling(tmp_path, monkeypatch, capsys, command, fields):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **fields)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource cap:") and "6561" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# spectra commands
# ---------------------------------------------------------------------------

def test_ids_free_chain_closed_form(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        **base_fields(disorder_strength=0.0, ids_radius=1000, ids_realizations=1,
                      ids_grid_points=4001),
    )
    out = tmp_path / "run"
    assert main(["ids", "--config", cfg, "--out", str(out)]) == 0
    (record,) = read_records(out)
    assert record["free_ids_sup_distance"] < 0.01
    header = (out / "ids.csv").read_text().splitlines()[0]
    assert header == "energy,ids"


def test_ids_free_chain_closed_form_shifted(tmp_path):
    # the shifted free chain has spectrum [0, 4]; its IDS is the same law moved by 2
    cfg = write_config(
        tmp_path,
        **base_fields(disorder_strength=0.0, ids_radius=1000, ids_realizations=1,
                      ids_grid_points=4001, shifted_laplacian=True),
    )
    out = tmp_path / "run"
    assert main(["ids", "--config", cfg, "--out", str(out)]) == 0
    (record,) = read_records(out)
    assert record["free_ids_sup_distance"] < 0.01


def test_spacing_synthetic_poisson_passes(tmp_path):
    cfg = write_config(tmp_path, **base_fields(realizations=300, window=[-5.0, 5.0]))
    assert main(["spacing", "--config", cfg, "--synthetic", "poisson", "--seed", "8"]) == 0


def test_spacing_picket_fence_fails_decisively(tmp_path, capsys):
    cfg = write_config(tmp_path, **base_fields(realizations=300, window=[-5.0, 5.0]))
    assert main(["spacing", "--config", cfg, "--synthetic", "picket_fence"]) == 1
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["ks_statistic"] > 0.5


def test_spacing_pipeline_small(tmp_path):
    cfg = write_config(
        tmp_path,
        **base_fields(
            disorder_strength=10.0,
            stats_radius=60,
            realizations=150,
            ids_radius=150,
            ids_realizations=60,
            ids_grid_points=4001,
            window=[-3.0, 3.0],
            seed=20,
        ),
    )
    out = tmp_path / "run"
    code = main(["spacing", "--config", cfg, "--out", str(out)])
    (record,) = [r for r in read_records(out) if r["kind"] == "spacing_stats"]
    assert abs(record["unit_mean"] - 1.0) < 0.35
    assert record["chi2_pvalue"] > 1e-4
    assert (out / "rescaled.csv").exists()
    assert code in (0, 1)  # statistical verdict at toy scale; records must exist


@pytest.mark.parametrize("radii", [[0, 2], [2, 0]])
def test_fvc_rejects_radius_zero(tmp_path, monkeypatch, capsys, radii):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **fvc_fields(radii=radii))
    assert main(["fvc", "--config", cfg]) == 2
    assert "radii" in capsys.readouterr().err


@pytest.mark.parametrize("radius", [0, 1])
def test_fmb_needs_two_pair_distances(tmp_path, monkeypatch, capsys, radius):
    # radius 0 has no default pair and radius 1 a single distance: no decay to fit
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **fmb_fields(box_radius=radius))
    assert main(["fmb", "--config", cfg]) == 2
    assert "two or more distinct distances" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# typed config fields
# ---------------------------------------------------------------------------

def test_reader_type_rule():
    assert read({"x": 2}, "x", float) == 2.0 and type(read({"x": 2}, "x", float)) is float
    assert read({}, "x", int, None) is None
    assert read({"x": [1, 2.5]}, "x", [float, float]) == [1.0, 2.5]
    assert read({"x": [[[0], 1]]}, "x", (str, [[[int], float]])) == [[[0], 1.0]]
    for value, kind in [(True, int), (True, float), (2.0, int), (1, bool), ("1", float),
                        ([1, 2, 3], [float, float]), ([1, "a"], [int]), (3, [dict])]:
        with pytest.raises(ConfigError, match="field 'x' must be"):
            read({"x": value}, "x", kind)
    with pytest.raises(ConfigError, match="missing required config field 'x'"):
        read({}, "x", int)


COMMAND_FIELDS = {
    "check": base_fields(),
    "constants": base_fields(site_x=[0], site_y=[1]),
    "minami": minami_fields(),
    "wegner": base_fields(widths=[0.1], center=1.0),
    "two-ev": base_fields(interval=[0.95, 1.05]),
    "fvc": fvc_fields(),
    "fmb": fmb_fields(),
    "ids": base_fields(ids_radius=50, pos_epsilons=[0.1]),
    "spacing": base_fields(ids_radius=50, stats_radius=20, realizations=10),
    "verify-digest": base_fields(),
}
COMMON_MALFORMED = [
    ("box_radius", [2]), ("box_radius", 2.7), ("dimension", [1]), ("site_x", 0),
    ("density", {"pieces": 3}), ("shifted_laplacian", "false"), ("samples", True),
]
MALFORMED = [
    ("wegner", "center", [1.0]),
    ("fvc", "radii", 4),
    ("fmb", "pairs", 3),
    ("fmb", "pairs", [[[0], [2], [4]]]),
    ("fmb", "fractional_exponent", [0.5]),
    ("ids", "ids_radius", [50]),
    ("ids", "ids_seed", [7]),
    ("ids", "reference_level", [0.5]),
    ("ids", "pos_epsilons", 0.1),
    ("spacing", "window", 5),
    ("spacing", "window", [-1.0, 0.0, 1.0]),
    ("spacing", "realizations", [3]),
    ("check", "grid_resolution", [64]),
    ("constants", "limit_tolerance", [1e-8]),
] + [(command, field, value) for command in COMMAND_FIELDS for field, value in COMMON_MALFORMED]


@pytest.mark.parametrize("command, field, value", MALFORMED)
def test_malformed_field_exits_2_before_sampling(
    tmp_path, monkeypatch, capsys, command, field, value
):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    monkeypatch.setattr(spectra, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **{**COMMAND_FIELDS[command], field: value})
    out = tmp_path / "run"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "verify-digest":
        argv += ["--records", str(tmp_path / "results.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    named = "pieces" if field == "density" else field  # a density table fails at its nested field
    assert f"'{named}'" in err
    assert not out.exists()


def test_unreadable_records_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, **minami_fields())
    missing = tmp_path / "missing.jsonl"
    assert main(["verify-digest", "--config", cfg, "--records", str(missing)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert str(missing) in line


def test_out_path_of_a_file_exits_2_before_sampling(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **minami_fields())
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert main(["minami", "--config", cfg, "--out", str(taken)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert str(taken) in line
    assert taken.read_text() == "keep"


def test_spacing_synthetic_takes_flags_only(tmp_path, capsys):
    # the flag is the one switch: a "synthetic" config key selects nothing
    keyed = write_config(tmp_path, **base_fields(realizations=30, synthetic="poisson"))
    assert main(["spacing", "--config", keyed]) == 2
    assert "stats_radius" in capsys.readouterr().err
    cfg = write_config(tmp_path, "w.json", **base_fields(realizations=30, workers=3))
    out = tmp_path / "run"
    assert main(["spacing", "--config", cfg, "--synthetic", "poisson", "--out", str(out),
                 "--workers", "2", "--seed", "5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"]["workers"] == 2
    assert manifest["seed"] == 5


def test_every_config_field_is_documented():
    fields = set()
    for module in ("cli.py", "config.py"):
        text = (ROOT / "src" / "alloylab" / module).read_text()
        fields.update(re.findall(r'\bread\(\s*\w+,\s*"(\w+)"', text))
    assert len(fields) > 30
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    assert [f for f in sorted(fields) if f"`{f}`" not in section and f'"{f}"' not in section] == []


def test_refused_pos_probe_leaves_no_out(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        **base_fields(ids_radius=50, ids_realizations=2, ids_grid_points=101,
                      pos_epsilons=[0.1], pos_a=1.0, pos_b=-1.0),
    )
    out = tmp_path / "run"
    assert main(["ids", "--config", cfg, "--out", str(out)]) == 2
    assert "need a < b" in capsys.readouterr().err
    assert not out.exists()


RANGE_REFUSALS = [
    ("spacing", "window", [1.0, -1.0]),
    ("spacing", "stats_radius", 26),
    ("spacing", "stats_radius", -1),
    ("spacing", "realizations", 0),
    ("spacing", "reference_level", 1.5),
    ("ids", "pos_a", 1.0),
    ("ids", "pos_epsilons", [0.1, 0.0]),
    ("ids", "reference_level", -0.5),
]


@pytest.mark.parametrize("command, field, value", RANGE_REFUSALS)
def test_ids_and_spacing_ranges_refused_before_sampling(
    tmp_path, monkeypatch, capsys, command, field, value
):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    monkeypatch.setattr(spectra, "run_parallel", refuse_sampling)
    cfg = write_config(tmp_path, **{**COMMAND_FIELDS[command], field: value})
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert f"'{field}'" in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "flag", "environment"])
@pytest.mark.parametrize("command", ["check", "constants", "minami", "spacing"])
def test_worker_count_below_one_exits_2(tmp_path, monkeypatch, capsys, command, source):
    monkeypatch.setattr(estimators, "run_parallel", refuse_sampling)
    fields = dict(COMMAND_FIELDS[command])
    argv = [command, "--out", str(tmp_path / "run")]
    if command == "spacing":
        argv += ["--synthetic", "poisson"]
    if source == "config":
        fields["workers"] = 0
    elif source == "flag":
        argv += ["--workers", "0"]
    else:
        monkeypatch.setenv("ALLOYLAB_WORKERS", "0")
    assert main(argv + ["--config", write_config(tmp_path, **fields)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: worker count must be at least 1")
    assert not (tmp_path / "run").exists()
