import json
import math
from pathlib import Path

import pytest

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


# ---------------------------------------------------------------------------
# estimator commands
# ---------------------------------------------------------------------------

def minami_fields(**extra):
    return base_fields(energy=[0.5, 0.1], site_x=[-1], site_y=[1], **extra)


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


def test_minami_records_byte_identical(tmp_path):
    cfg = write_config(tmp_path, **minami_fields())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["minami", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["minami", "--config", cfg, "--out", str(out2), "--workers", "4"]) == 0
    assert (out1 / "results.jsonl").read_bytes() == (out2 / "results.jsonl").read_bytes()


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
    cfg = write_config(
        tmp_path,
        **base_fields(disorder_strength=30.0, energy=[0.0, 0.0], samples=60,
                      decay_exponent=3.0, radii=[4, 6]),
    )
    out = tmp_path / "run"
    assert main(["fvc", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "fvc.csv").read_text().splitlines()
    assert len(rows) == 3


def test_fmb_command(tmp_path):
    cfg = write_config(
        tmp_path,
        **base_fields(box_radius=8, disorder_strength=30.0, energy=[0.0, 0.01],
                      samples=120, fractional_exponent=0.5),
    )
    out = tmp_path / "run"
    assert main(["fmb", "--config", cfg, "--out", str(out)]) == 0
    (record,) = [r for r in read_records(out) if r["kind"] == "fmb_fit"]
    assert record["decay_rate"] > 0


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
