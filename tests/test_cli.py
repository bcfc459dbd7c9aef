import json

import pytest

from coskit import cli


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


BASE = {"experiment": "verify",
        "model": {"model": "hyperbolic", "matrix": [2, 1, 1, 1], "tau": 1.0, "V": 1.0},
        "grid": {"n_torus": 16, "n_fiber": 16}, "seed": 0}


def test_run_verify_exit_zero(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    assert report["schema"] == cli.SCHEMA
    assert report["experiment"] == "verify"
    assert "phi_squared" in report["residuals"]
    assert (tmp_path / "out" / "timings.json").exists()


def test_run_betti_parabolic(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "betti",
                               "model": {"model": "hyperbolic", "matrix": [1, 1, 0, 1]}})
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scalars"]["b1"] == 2
    assert report["scalars"]["verdict"] == "b1_even_excludes_cokahler"


def test_run_energy_flat_zero(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "energy",
                               "model": {"model": "flat_cokahler"},
                               "grid": {"n_torus": 16, "n_fiber": 16}})
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scalars"]["energy"] == 0.0


def test_invalid_config_lists_all_violations():
    bad = {"experiment": "nonsense", "bogus": 1,
           "model": {"model": "hyperbolic", "matrix": [1, 2, 3], "junk": 0}}
    with pytest.raises(cli.ConfigError) as err:
        cli.run(bad)
    msgs = err.value.violations
    assert len(msgs) >= 4
    assert any("bogus" in m for m in msgs)
    assert any("nonsense" in m for m in msgs)
    assert any("junk" in m for m in msgs)
    assert any("matrix" in m for m in msgs)


def test_invalid_config_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "verify", "bogus": True})
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("cfg, error", [
    (dict(BASE, model={"model": "hyperbolic", "matrix": [1, 1, 0, 1]}), "NotHyperbolicError"),
    (dict(BASE, grid={"n_torus": "abc"}), "ValueError"),
    (dict(BASE, grid={"n_torus": 4}), "GridError"),
    (dict(BASE, experiment="lyapunov", dynamics={"horizon": 0.3}), "ValueError"),
], ids=["non_hyperbolic", "n_torus_not_int", "n_torus_too_small", "horizon_below_tau"])
def test_value_error_exit_code(tmp_path, capsys, cfg, error):
    path = write_cfg(tmp_path, cfg)
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["failures"][0].startswith(f"{error}: ")
    assert not (tmp_path / "out").exists()


def test_reports_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, dict(BASE, experiment="lyapunov",
                                   dynamics={"horizon": 20.0, "seeds": 2}))
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--seed", "7"])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 7


def test_optimize_writes_gap_history_csv(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": "optimize",
        "model": {"model": "hyperbolic", "matrix": [2, 1, 1, 1]},
        "grid": {"n_torus": 8, "n_fiber": 128},
        "deformation": {"seed": 0, "amplitude": 0.3},
        "optimizer": {"steps": 1500}})
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "gap_history.csv").read_text().strip().splitlines()
    assert lines[0] == "step,value"
    assert len(lines) > 100


def test_sweep_energy_fits_fourth_order(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": "energy",
        "model": {"model": "hyperbolic", "matrix": [2, 1, 1, 1]},
        "resolutions": [16, 24, 32]})
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    fit = report["fits"]["relative_error"]
    assert fit["status"] == "fitted"
    assert fit["order"] > 3.5
    assert report["fits"]["torsion_constancy"]["status"] == "machine_floor"
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_verify_el_at_floor(tmp_path):
    # the critical metric's EL residual cancels exactly: the sweep
    # reports machine_floor rather than a fitted order
    cfg = write_cfg(tmp_path, {
        "experiment": "verify",
        "model": {"model": "hyperbolic", "matrix": [2, 1, 1, 1]},
        "resolutions": [12, 16, 24]})
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["fits"]["euler_lagrange_supnorm"]["status"] == "machine_floor"


def test_sweep_requires_three_resolutions():
    with pytest.raises(cli.ConfigError):
        cli.convergence_sweep({"experiment": "energy", "resolutions": [16, 32]})


def test_grid_model_monodromy_conflict():
    cfg = {"experiment": "verify",
           "model": {"model": "hyperbolic", "matrix": [2, 1, 1, 1]},
           "grid": {"n_torus": 16, "n_fiber": 16, "monodromy": [1, 0, 0, 1]}}
    with pytest.raises(cli.ConfigError):
        cli.run(cfg)
