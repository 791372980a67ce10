import json
import math
from pathlib import Path

import pytest

from alloylab import estimators
from alloylab.cli import main


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


@pytest.mark.parametrize(
    "command, fields",
    [("minami", minami_fields), ("fvc", fvc_fields), ("fmb", fmb_fields)],
    ids=["minami", "fvc", "fmb"],
)
def test_minami_records_byte_identical(tmp_path, command, fields):
    cfg = write_config(tmp_path, **fields())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out1)]) == 0
    assert main([command, "--config", cfg, "--out", str(out2), "--workers", "4"]) == 0
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
    # one uncertified sample of 1000 stays within the 0.1% cap
    cfg = write_config(tmp_path, **fields)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
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
        "wall_times",
    }
    assert manifest["subcommand"] == "two-ev"
    assert manifest["outputs"] == ["results.jsonl"]
    # one wall time per Monte Carlo estimate, none left in the records
    assert len(manifest["wall_times"]) == 2
    assert all(isinstance(t, float) and t >= 0.0 for t in manifest["wall_times"])
    assert all("wall_time" not in record for record in read_records(out))


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
