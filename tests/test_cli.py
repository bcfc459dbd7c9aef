import json
import re
from pathlib import Path

import numpy as np
import pytest

import coskit as ck
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


def test_run_lyapunov_flat_zero(tmp_path):
    # suspension by the identity: the flow differential is constant, all rates zero
    cfg = write_cfg(tmp_path, {"experiment": "lyapunov",
                               "model": {"model": "flat_cokahler"},
                               "grid": {"n_torus": 16, "n_fiber": 16}})
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scalars"]["exponents"] == [0.0, 0.0, 0.0]


def test_invalid_config_lists_all_violations():
    bad = {"experiment": "nonsense", "bogus": 1,
           "model": {"model": "hyperbolic", "matrix": [1, 2, 3], "junk": 0},
           "grid": {"n_torus": "abc"}, "dynamics": {"seeds": 0},
           "tolerances": {"gap_rel": -1.0}, "deformation": 3}
    with pytest.raises(cli.ConfigError) as err:
        cli.run(bad)
    msgs = err.value.violations
    assert len(msgs) >= 8
    assert any("bogus" in m for m in msgs)
    assert any("nonsense" in m for m in msgs)
    assert any("junk" in m for m in msgs)
    assert any("matrix" in m for m in msgs)
    assert "grid.n_torus must be an integer, got 'abc'" in msgs
    assert "dynamics.seeds must be positive, got 0" in msgs
    assert "tolerances.gap_rel must be non-negative, got -1.0" in msgs
    assert "section 'deformation' must be an object" in msgs


def test_invalid_config_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "verify", "bogus": True})
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


# a domain error is reported as "<ErrorClass>: <message>"; a bad config
# value as a ConfigError violation that names its key
@pytest.mark.parametrize("cfg, start", [
    (dict(BASE, model={"model": "hyperbolic", "matrix": [1, 1, 0, 1]}), "NotHyperbolicError: "),
    (dict(BASE, grid={"n_torus": "abc"}), "grid.n_torus must be an integer, got 'abc'"),
    (dict(BASE, grid={"n_torus": 16, "n_fiber": "abc"}),
     "grid.n_fiber must be an integer, got 'abc'"),
    (dict(BASE, grid={"n_torus": 4}), "GridError: "),
    (dict(BASE, experiment="lyapunov", dynamics={"horizon": 0.3}), "ValueError: "),
    (dict(BASE, seed="x"), "seed must be an integer, got 'x'"),
    ([BASE], "config root must be a JSON object"),
    (dict(BASE, model={"model": "contact_t3", "n": "x"}), "model.n must be an integer, got 'x'"),
    (dict(BASE, experiment="lyapunov", dynamics={"seeds": "x"}),
     "dynamics.seeds must be an integer, got 'x'"),
    (dict(BASE, experiment="first_variation", deformation={"count": "x"}),
     "deformation.count must be an integer, got 'x'"),
    (dict(BASE, experiment="gap_identity", deformation={"seed": "x"}),
     "deformation.seed must be an integer, got 'x'"),
    (dict(BASE, experiment="optimize", optimizer={"steps": "x"}),
     "optimizer.steps must be an integer, got 'x'"),
    (dict(BASE, model=dict(BASE["model"], tau=float("nan"))),
     "model.tau must be a finite real number, got nan"),
    (dict(BASE, experiment="energy", tolerances={"energy_rel": float("nan")}),
     "tolerances.energy_rel must be a finite real number, got nan"),
    (dict(BASE, experiment="first_variation", deformation={"count": 0}),
     "deformation.count must be positive, got 0"),
    (dict(BASE, experiment="energy", tolerances={"energy_rell": 1e-3}),
     "unknown key 'tolerances.energy_rell'"),
    (dict(BASE, model=dict(BASE["model"], matrix=[2.5, 1, 1, 1])),
     "model.matrix must be 4 integers, row-major, got [2.5, 1, 1, 1]"),
    (dict(BASE, grid={"n_torus": 8.9}), "grid.n_torus must be an integer, got 8.9"),
    (dict(BASE, seed=True), "seed must be an integer, got True"),
    (dict(BASE, model=dict(BASE["model"], matrix=5)),
     "model.matrix must be 4 integers, row-major, got 5"),
    (dict(BASE, model=dict(BASE["model"], tau=None)),
     "model.tau must be a finite real number, got None"),
    (dict(BASE, tolerances=3), "section 'tolerances' must be an object"),
    (dict(BASE, out=5), "out must be a string, got 5"),
    (dict(BASE, experiment="lyapunov", dynamics={"seeds": 0}),
     "dynamics.seeds must be positive, got 0"),
    (dict(BASE, experiment="betti", model={"matrix": [2 ** 63, 1, 1, 1]}),
     "model.matrix must be within the int64 range, got [9223372036854775808, 1, 1, 1]"),
    # (F41, F40; F40, F39) is in SL(2,Z); lambda ~ 2.3e8 makes the float64 metric singular
    (dict(BASE, model={"matrix": [165580141, 102334155, 102334155, 63245986]},
          grid={"n_torus": 8}),
     "TensorCalculusError: metric not positive definite"),
], ids=["non_hyperbolic", "n_torus_not_int", "n_fiber_not_int", "n_torus_too_small",
        "horizon_below_tau", "seed_not_int", "root_not_object", "model_n_not_int",
        "dynamics_seeds_not_int", "deformation_count_not_int", "deformation_seed_not_int",
        "optimizer_steps_not_int", "tau_nan", "energy_rel_nan", "deformation_count_zero",
        "tolerance_key_misspelt", "matrix_not_int", "n_torus_not_whole", "seed_bool",
        "matrix_scalar", "tau_null", "tolerances_not_object", "out_not_string",
        "dynamics_seeds_zero", "matrix_beyond_int64", "fibonacci_gluing_singular_metric"])
def test_value_error_exit_code(tmp_path, capsys, cfg, start):
    path = write_cfg(tmp_path, cfg)
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["failures"][0].startswith(start)
    assert not (tmp_path / "out").exists()


# the sweep overrides only grid.n_torus and grid.n_fiber per resolution
@pytest.mark.parametrize("cfg, start", [
    (dict(BASE, resolutions=[16, 16, 16]), "resolutions must be strictly increasing, got [16, 16, 16]"),
    (dict(BASE, resolutions=[32, 16, 24]), "resolutions must be strictly increasing, got [32, 16, 24]"),
    (dict(BASE, resolutions=[8, "a", 16]), "resolutions must be at least 3 integers, got [8, 'a', 16]"),
    (dict(BASE, resolutions=[8, 10, 12], grid={"monodromy": [1, 0, 0, 1]}),
     "grid.monodromy conflicts with model.matrix"),
], ids=["repeated", "unordered", "not_int", "monodromy_conflict"])
def test_sweep_value_error_exit_code(tmp_path, capsys, cfg, start):
    path = write_cfg(tmp_path, cfg)
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["failures"][0].startswith(start)
    assert not (tmp_path / "out").exists()


def test_truncated_config_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE)[:-7])
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["failures"][0].startswith("JSONDecodeError: ")
    assert not (tmp_path / "out").exists()


def test_missing_config_exit_code(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["failures"][0].startswith("FileNotFoundError: ")
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


def test_seed_flag_still_checks_config_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(BASE, seed="x"))
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--seed", "7"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["failures"] == [
        "seed must be an integer, got 'x'"]


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
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for name in ("step_size", "backtracks", "grad_norm2"):
        rows = (tmp_path / "out" / f"{name}.csv").read_text().strip().splitlines()
        assert rows[0] == "step,value"
        assert len(rows) == report["scalars"]["steps"] + 1 == len(lines) - 1


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


def test_sweep_verify_small_area_at_floor(tmp_path):
    # at V = 0.5 the roundoff of the critical metric's EL residual reaches
    # 2.4e-11 at 64^3, above an absolute 1e-11 floor; the floor scales with
    # the run's own roundoff scale, so the sweep reports machine_floor
    cfg = write_cfg(tmp_path, {
        "experiment": "verify",
        "model": {"model": "hyperbolic", "matrix": [2, 1, 1, 1], "V": 0.5},
        "resolutions": [16, 32, 64]})
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for name in ("euler_lagrange_supnorm", "nabla_r_h_supnorm"):
        assert report["fits"][name]["status"] == "machine_floor"
    assert max(report["fits"]["euler_lagrange_supnorm"]["errors"]) > 1e-11


def test_sweep_floor_is_pinned_multiple_of_roundoff_scale():
    # c = 4: the critical metrics' EL and nabla_R h residuals sit at 0.09 to
    # 0.53 roundoff scales over gluings, tau in [0.5, 2] and V in [0.5, 2]
    assert cli._FLOOR_FACTOR == 4.0
    model = ck.build_hyperbolic_model([[2, 1], [1, 1]], tau=0.5, area=0.5)
    _, metric = ck.critical_metric(model, ck.Grid(16, 16, model.matrix))
    g = metric.g.data
    expected = np.finfo(float).eps * np.max(np.abs(g)) * np.max(np.abs(metric.ginv)) \
        * (1.0 / 0.5) ** 2 * 16 ** 2
    assert cli._roundoff_scale(metric, np.max(np.abs(metric.ginv))) \
        == pytest.approx(expected, rel=1e-12)
    report = cli.run({"experiment": "verify",
                      "model": {"model": "hyperbolic", "matrix": [2, 1, 1, 1]},
                      "grid": {"n_torus": 16}})
    assert not any(k.startswith("_") for k in report)


# -- the config schema --------------------------------------------------------

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


def test_grid_keys_resolve_against_schema():
    p = cli.resolve_config({"experiment": "verify",
                            "grid": {"n_torus": 16, "n_fiber": 8, "monodromy": [2, 1, 1, 1]}})
    assert (p["grid.n_torus"], p["grid.n_fiber"]) == (16, 8)
    assert np.array_equal(p["grid.monodromy"], [[2, 1], [1, 1]])
    for grid, violation in (({"n_torus": 16, "n_fiber": 8, "bogus": 1},
                             "unknown key 'grid.bogus'"),
                            ({"n_torus": 16, "n_fiber": 8, "monodromy": [1, 0, 0]},
                             "grid.monodromy must be 4 integers, row-major, got [1, 0, 0]")):
        with pytest.raises(cli.ConfigError) as err:
            cli.resolve_config({"experiment": "verify", "grid": grid})
        assert err.value.violations == [violation]


def test_schema_defaults():
    p = cli.resolve_config({"experiment": "first_variation", "seed": 7, "grid": {"n_torus": 12}})
    assert (p["grid.n_fiber"], p["deformation.seed"]) == (12, 7)
    assert (p["deformation.amplitude"], p["deformation.count"]) == (0.1, 10)
    p = cli.resolve_config({"experiment": "gap_identity"})
    assert (p["deformation.amplitude"], p["deformation.count"]) == (0.3, 20)
    assert cli.resolve_config({"experiment": "optimize"})["optimizer.steps"] == 1500
    # each experiment gets only the keys it reads
    assert set(cli.resolve_config({"experiment": "betti"})) == {
        "experiment", "seed", "out", "model.matrix"}
    with pytest.raises(cli.ConfigError, match="missing key 'experiment'"):
        cli.resolve_config({})


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_resolve(path):
    cfg = json.loads(path.read_text())
    assert cli.resolve_config(cfg)["experiment"] == cfg["experiment"]


def test_readme_config_lists_every_key_and_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Annotated config")[1].split("```")[1]
    flat = {}
    for section, value in json.loads(re.sub(r"#.*", "", block)).items():
        if isinstance(value, dict):
            flat.update((f"{section}.{k}", v) for k, v in value.items())
        else:
            flat[section] = value
    assert set(flat) == set(cli.CONFIG_SCHEMA)

    def annotated(key, text):
        return any(f'"{key.split(".")[-1]}"' in line and text in line
                   for line in block.splitlines())

    for key, (_, default, _) in cli.CONFIG_SCHEMA.items():
        if isinstance(default, cli.SameAs):
            assert flat[key] == flat[default] and annotated(key, f"default: {default}")
        elif isinstance(default, dict):
            assert flat[key] == default["*"]
            assert all(annotated(key, f"{v} for {e}") for e, v in default.items() if e != "*")
        elif default is not None:
            assert flat[key] == default, key


def test_verify_certificate_floor_is_pinned(crit16_gluing):
    # c = 16: the algebraic certificate entries sit at up to 2.9 of
    # eps max|g|^2 max|g^-1| over 400 random gluings with entries up to 28;
    # on these four gluings the effective tolerance is the absolute 1e-8
    assert cli._CERT_FACTOR == 16.0
    _, metric = crit16_gluing
    g = metric.g.data
    floor = np.finfo(float).eps * np.max(np.abs(g)) ** 2 * np.max(np.abs(metric.ginv))
    assert cli._CERT_FACTOR * floor < 1e-8


def test_verify_passes_ill_conditioned_gluing():
    # max|g| max|g^-1| = 1.8e6: metric_reconstruction is roundoff above 1e-8
    report = cli.run({"experiment": "verify",
                      "model": {"model": "hyperbolic", "matrix": [-3, 1, -28, 9], "V": 0.5},
                      "grid": {"n_torus": 16}})
    assert report["residuals"]["metric_reconstruction"] > 1e-8
    assert report["pass"], report["failures"]
