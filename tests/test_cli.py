import json
import re
import sys
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
# BASE without its grid, for lyapunov, which reads no grid key
UNGRIDDED = {k: v for k, v in BASE.items() if k != "grid"}


def read_keys_only(cfg):
    """cfg without the keys that its pair of experiment and model does not read, by
    CONFIG_SCHEMA's readers; on a pair that cli.EXPERIMENTS leaves out, without the
    keys that its experiment reads on no model."""
    experiment, out = cfg["experiment"], {}
    fits = cli.EXPERIMENTS[experiment][1]
    model = None if fits is None else cfg.get("model", {}).get("model", "hyperbolic")

    def read(key):
        readers = cli.CONFIG_SCHEMA[key][2]
        return (experiment, model) in readers or (
            fits is not None and model not in fits and any(e == experiment for e, _ in readers))

    for name, value in cfg.items():
        if isinstance(value, dict):
            value = {k: v for k, v in value.items() if read(f"{name}.{k}")}
            if value:
                out[name] = value
        elif read(name):
            out[name] = value
    return out


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


def test_verify_judges_sol_bracket_residuals(tmp_path, monkeypatch):
    # the sol frame's brackets are stencil residuals, held to 10 h^4:
    # 1.1e-4 against 4.2e-3 at 8^3
    cfg = write_cfg(tmp_path, {"experiment": "verify", "model": {"model": "sol"},
                               "grid": {"n_torus": 8, "n_fiber": 8}})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    real = cli.dynamics.sol_bracket_residuals
    monkeypatch.setattr(cli.dynamics, "sol_bracket_residuals",
                        lambda grid: real(grid) | {"y_x_plus": 1.0})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 1
    report = json.loads((tmp_path / "bad" / "report.json").read_text())
    assert report["failures"] == ["residual sol_bracket.y_x_plus above tolerance"]


def test_run_betti_parabolic(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "betti", "model": {"matrix": [1, 1, 0, 1]}})
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


def test_run_lyapunov_flat_zero(tmp_path, capsys):
    # lyapunov_exponents takes only a hyperbolic model: nothing computes the
    # flat chart's exponents, so the pair is refused rather than reported zero
    cfg = write_cfg(tmp_path, {"experiment": "lyapunov", "model": {"model": "flat_cokahler"}})
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["failures"] == [
        "experiment 'lyapunov' does not run on model.model 'flat_cokahler'"]
    assert not (tmp_path / "out").exists()


def test_invalid_config_lists_all_violations():
    bad = {"experiment": "nonsense", "bogus": 1,
           "model": {"model": "hyperbolic", "matrix": [1, 2, 3], "junk": 0},
           "grid": {"n_torus": "abc"}, "dynamics": {"seeds": 0},
           "optimizer": {"steps": -1}, "deformation": 3}
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
    assert "optimizer.steps must be positive, got -1" in msgs
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
    (dict(UNGRIDDED, experiment="lyapunov", dynamics={"horizon": 0.3}), "ValueError: "),
    (dict(BASE, seed="x"), "seed must be an integer, got 'x'"),
    ([BASE], "config root must be a JSON object"),
    (dict(BASE, model={"model": "contact_t3", "n": "x"}), "model.n must be an integer, got 'x'"),
    (dict(UNGRIDDED, experiment="lyapunov", dynamics={"seeds": "x"}),
     "dynamics.seeds must be an integer, got 'x'"),
    (dict(BASE, experiment="first_variation", deformation={"count": "x"}),
     "deformation.count must be an integer, got 'x'"),
    (dict(BASE, experiment="gap_identity", deformation={"seed": "x"}),
     "deformation.seed must be an integer, got 'x'"),
    (dict(BASE, experiment="optimize", optimizer={"steps": "x"}),
     "optimizer.steps must be an integer, got 'x'"),
    (dict(BASE, model=dict(BASE["model"], tau=float("nan"))),
     "model.tau must be a finite real number, got nan"),
    # the pass/fail bounds are pinned in cli: a tolerances section is unknown
    (dict(BASE, experiment="energy", tolerances={"energy_rel": float("nan")}),
     "unknown key 'tolerances'"),
    (dict(BASE, experiment="first_variation", deformation={"count": 0}),
     "deformation.count must be positive, got 0"),
    (dict(BASE, experiment="optimize", optimizer={"stepz": 10}),
     "unknown key 'optimizer.stepz'"),
    (dict(BASE, model=dict(BASE["model"], matrix=[2.5, 1, 1, 1])),
     "model.matrix must be 4 integers, row-major, got [2.5, 1, 1, 1]"),
    (dict(BASE, grid={"n_torus": 8.9}), "grid.n_torus must be an integer, got 8.9"),
    (dict(BASE, seed=True), "seed must be an integer, got True"),
    (dict(BASE, model=dict(BASE["model"], matrix=5)),
     "model.matrix must be 4 integers, row-major, got 5"),
    (dict(BASE, model=dict(BASE["model"], tau=None)),
     "model.tau must be a finite real number, got None"),
    (dict(BASE, optimizer=3), "section 'optimizer' must be an object"),
    (dict(BASE, out=5), "out must be a string, got 5"),
    (dict(UNGRIDDED, experiment="lyapunov", dynamics={"seeds": 0}),
     "dynamics.seeds must be positive, got 0"),
    ({"experiment": "betti", "model": {"matrix": [2 ** 63, 1, 1, 1]}},
     "model.matrix must be within the int64 range, got [9223372036854775808, 1, 1, 1]"),
    # (F41, F40; F40, F39) is in SL(2,Z); lambda ~ 2.3e8 makes the float64 metric singular
    (dict(BASE, model={"matrix": [165580141, 102334155, 102334155, 63245986]},
          grid={"n_torus": 8}),
     "TensorCalculusError: metric not positive definite"),
    # a pair that cli.EXPERIMENTS does not list
    (dict(UNGRIDDED, experiment="lyapunov", model={"model": "sol"}),
     "experiment 'lyapunov' does not run on model.model 'sol'"),
    # the hyperbolic chart's monodromy is model.matrix; the stall stop is 0
    (dict(BASE, grid={"n_torus": 16, "monodromy": [2, 1, 1, 1]}),
     "unknown key 'grid.monodromy'"),
    (dict(BASE, experiment="optimize", optimizer={"steps": 10, "tolerance": 0.0}),
     "unknown key 'optimizer.tolerance'"),
    # a key that the configured experiment does not read
    (dict(BASE, experiment="lyapunov"), "key 'grid.n_torus' is not read by experiment 'lyapunov'"),
    (dict(BASE, experiment="optimize", deformation={"count": 5}),
     "key 'deformation.count' is not read by experiment 'optimize'"),
    ({"experiment": "betti", "model": {"model": "hyperbolic"}},
     "key 'model.model' is not read by experiment 'betti'"),
    # a key that the configured experiment reads on other models only
    (dict(BASE, model={"model": "sol", "tau": 1.0}),
     "key 'model.tau' is not read by experiment 'verify' on model.model 'sol'"),
    (dict(BASE, model={"model": "contact_t3", "V": 1.0}),
     "key 'model.V' is not read by experiment 'verify' on model.model 'contact_t3'"),
    (dict(BASE, experiment="energy", model={"model": "flat_cokahler", "matrix": [2, 1, 1, 1]}),
     "key 'model.matrix' is not read by experiment 'energy' on model.model 'flat_cokahler'"),
    (dict(BASE, experiment="first_variation", model={"model": "sol", "n": 2}),
     "key 'model.n' is not read by experiment 'first_variation' on model.model 'sol'"),
    (dict(BASE, model={"model": "hyperbolic", "mu": 2.0}),
     "key 'model.mu' is not read by experiment 'verify' on model.model 'hyperbolic'"),
    (dict(BASE, model={"model": "sol"}, resolutions=[8, 10, 12]),
     "key 'resolutions' is not read by experiment 'verify' on model.model 'sol'"),
    (dict(BASE, experiment="energy", model={"model": "flat_cokahler"}, resolutions=[8, 10, 12]),
     "key 'resolutions' is not read by experiment 'energy' on model.model 'flat_cokahler'"),
], ids=["non_hyperbolic", "n_torus_not_int", "n_fiber_not_int", "n_torus_too_small",
        "horizon_below_tau", "seed_not_int", "root_not_object", "model_n_not_int",
        "dynamics_seeds_not_int", "deformation_count_not_int", "deformation_seed_not_int",
        "optimizer_steps_not_int", "tau_nan", "energy_rel_nan", "deformation_count_zero",
        "optimizer_key_misspelt", "matrix_not_int", "n_torus_not_whole", "seed_bool",
        "matrix_scalar", "tau_null", "optimizer_not_object", "out_not_string",
        "dynamics_seeds_zero", "matrix_beyond_int64", "fibonacci_gluing_singular_metric",
        "lyapunov_on_sol", "grid_monodromy", "optimizer_tolerance", "grid_on_lyapunov",
        "count_on_optimize", "model_on_betti", "tau_on_sol", "V_on_contact",
        "matrix_on_flat", "n_on_sol", "mu_on_hyperbolic", "resolutions_on_verify_sol",
        "resolutions_on_energy_flat"])
def test_value_error_exit_code(tmp_path, capsys, cfg, start):
    path = write_cfg(tmp_path, cfg)
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["failures"][0].startswith(start)
    assert not (tmp_path / "out").exists()


def refusal(command, experiment, model):
    """The first failure of a pair that cli.EXPERIMENTS does not support, or None."""
    fits = cli.EXPERIMENTS[experiment][1]
    if fits is not None and model not in fits:
        return f"experiment {experiment!r} does not run on model.model {model!r}"
    if command == "sweep" and not (fits or {}).get(model):
        on = f" for model.model {model!r}" if fits else ""
        return f"no convergence sweep of {experiment!r}{on}"
    return None


# the models that an experiment reading a model does not sweep
UNSWEPT = [(e, m) for e, (_, fits) in cli.EXPERIMENTS.items() if fits for m in cli.MODELS
           if refusal("sweep", e, m)]


# the sweep overrides only grid.n_torus and grid.n_fiber per resolution
@pytest.mark.parametrize("cfg, start", [
    (dict(BASE, resolutions=[16, 16, 16]), "resolutions must be strictly increasing, got [16, 16, 16]"),
    (dict(BASE, resolutions=[32, 16, 24]), "resolutions must be strictly increasing, got [32, 16, 24]"),
    (dict(BASE, resolutions=[8, "a", 16]), "resolutions must be at least 3 integers, got [8, 'a', 16]"),
] + [
    (read_keys_only(dict(BASE, experiment=experiment, model={"model": kind},
                         resolutions=[8, 10, 12])),
     refusal("sweep", experiment, kind))
    for experiment, kind in UNSWEPT
], ids=["repeated", "unordered", "not_int"]
    + [f"{experiment}_{kind}" for experiment, kind in UNSWEPT])
def test_sweep_value_error_exit_code(tmp_path, capsys, cfg, start):
    path = write_cfg(tmp_path, cfg)
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["failures"][0].startswith(start)
    assert not (tmp_path / "out").exists()


def test_every_pair_runs_its_check_or_is_refused(tmp_path, capsys, monkeypatch):
    # all experiment x model pairs at 8^3, run and swept, each config holding
    # only keys its experiment reads: the pairs that exit 2 are exactly those
    # cli.EXPERIMENTS leaves out, each with its refusal; and every key an
    # experiment resolves is read on one of its models
    reads = {e: set() for e in cli.EXPERIMENTS}

    class Recorded(dict):
        def __getitem__(self, key):
            reads[dict.__getitem__(self, "experiment")].add(key)
            return dict.__getitem__(self, key)

    resolve = cli.resolve_config
    monkeypatch.setattr(cli, "resolve_config", lambda *args: Recorded(resolve(*args)))
    refused = {"run": set(), "sweep": set()}
    for command in refused:
        for experiment in cli.EXPERIMENTS:
            for model in cli.MODELS:
                path = write_cfg(tmp_path, read_keys_only({
                    "experiment": experiment, "model": {"model": model},
                    "grid": {"n_torus": 8}, "resolutions": [8, 10, 12],
                    "optimizer": {"steps": 20}}))
                rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
                out = capsys.readouterr().out
                assert rc in (0, 1, 2), (command, experiment, model)
                if rc == 2:
                    refused[command].add((experiment, model))
                    assert json.loads(out)["failures"] == [refusal(command, experiment, model)]
    for command, pairs in refused.items():
        assert pairs == {(e, m) for e in cli.EXPERIMENTS for m in cli.MODELS
                         if refusal(command, e, m)}, command
    # resolve_config and main read these themselves
    consulted = {"experiment", "seed", "out", "model.model", "resolutions"}
    for experiment, keys in reads.items():
        assert set(resolve({"experiment": experiment})) - consulted <= keys, experiment


def smallest_runs():
    """(experiment, model, runner, config) of each supported pair at the smallest sizes."""
    smallest = {"grid.n_torus": 5, "grid.n_fiber": 5, "deformation.count": 1,
                "optimizer.steps": 1, "dynamics.seeds": 1, "dynamics.horizon": 1.0}
    for experiment, (runner, fits) in cli.EXPERIMENTS.items():
        for model in fits or (None,):
            p = cli.resolve_config({"experiment": experiment}
                                   | ({"model": {"model": model}} if model else {}))
            yield experiment, model, runner, p | {k: v for k, v in smallest.items() if k in p}


def test_every_resolved_key_is_read_by_its_pair():
    # each supported pair's runner, at the smallest grid and sizes, reads
    # every key that resolve_config returns for the pair, bar those that
    # run, sweep and the support check read themselves
    consulted = {"experiment", "seed", "out", "model.model", "resolutions"}
    for experiment, model, runner, p in smallest_runs():
        read = set()

        class Recorded(dict):
            def __getitem__(self, key):
                read.add(key)
                return dict.__getitem__(self, key)

        runner(Recorded(p))
        assert set(p) - consulted <= read, (experiment, model, set(p) - consulted - read)


def test_no_pair_builds_christoffel(monkeypatch):
    # the Reeb covariant derivatives take nabla R from L_R g and dalpha+, so
    # every supported pair runs with the Christoffel builder refused wherever
    # coskit binds it
    def refuse(*args, **kwargs):
        raise AssertionError("christoffel called on a run path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coskit" and hasattr(module, "christoffel"):
            monkeypatch.setattr(module, "christoffel", refuse)
    for experiment, model, runner, p in smallest_runs():
        runner(p)


def test_first_variation_passes_at_12_on_every_admitted_model(tmp_path, capsys):
    # first_variation is the exact derivative of the discrete energy, so
    # its 1e-3 tolerance holds on coarse grids and on the open sol box too
    for model in cli.EXPERIMENTS["first_variation"][1]:
        path = write_cfg(tmp_path, {"experiment": "first_variation", "model": {"model": model},
                                    "grid": {"n_torus": 12}})
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0, (model, capsys.readouterr().out)
        capsys.readouterr()


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


def test_report_numpy_values_write_as_python_values(tmp_path):
    x = 0.1 + 0.2
    numpy_report = {"count": np.int64(7), "pass": np.bool_(True), "energy": np.float64(x),
                    "spectrum": np.array([[x, -1.5], [2.0, 1e-300]]),
                    "nested": {"n": [np.int64(-3), (np.float64(x), np.bool_(False))]}}
    plain_report = {"count": 7, "pass": True, "energy": x,
                    "spectrum": [[x, -1.5], [2.0, 1e-300]],
                    "nested": {"n": [-3, [x, False]]}}
    a = cli.write_report(numpy_report, tmp_path / "a", 0.0).read_text()
    b = cli.write_report(plain_report, tmp_path / "b", 0.0).read_text()
    assert a == b


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, dict(UNGRIDDED, experiment="lyapunov",
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


def test_sweep_energy_closed_form_on_sol(tmp_path):
    # E = 8 / |mu| on the sol chart, reached at 4th order like the suspension's
    cfg = write_cfg(tmp_path, {"experiment": "energy", "model": {"model": "sol", "mu": -0.5},
                               "resolutions": [8, 10, 12]})
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    fit = report["fits"]["relative_error"]
    assert fit["status"] == "fitted" and fit["order"] > 3.5


@pytest.mark.parametrize("model, expected, bound", [
    ({"model": "contact_t3", "n": -1}, 4 * np.pi, 1.6e-3),
    ({"model": "sol", "mu": 0.5}, 16.0, 2.2e-5)], ids=["contact_t3", "sol"])
def test_run_energy_checks_closed_form(model, expected, bound):
    # at 16^3 the relative errors are 1.56e-3 (contact_t3) and 2.1e-5 (sol),
    # above the pinned 1e-6: their sweeps, not a run, judge these charts
    report = cli.run({"experiment": "energy", "model": model, "grid": {"n_torus": 16}})
    assert report["scalars"]["expected_energy"] == expected
    assert report["scalars"]["relative_error"] < bound
    assert report["failures"] == ["energy relative error above tolerance"]


def test_sweep_verify_contact_t3_passes(tmp_path):
    # the contact testbed is not critical: its EL residual tends to sqrt(2),
    # which is no discretisation error, so the sweep fits the two that vanish
    cfg = write_cfg(tmp_path, {"experiment": "verify", "model": {"model": "contact_t3"},
                               "resolutions": [8, 10, 12]})
    rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["fits"]) == {"nabla_r_h_supnorm", "torsion_constancy"}
    assert all(fit["status"] == "machine_floor" for fit in report["fits"].values())


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
    assert cli._roundoff_scale(metric) == pytest.approx(expected, rel=1e-12)
    report = cli.run({"experiment": "verify",
                      "model": {"model": "hyperbolic", "matrix": [2, 1, 1, 1]},
                      "grid": {"n_torus": 16}})
    assert not any(k.startswith("_") for k in report)


# -- the config schema --------------------------------------------------------

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


def test_grid_keys_resolve_against_schema():
    p = cli.resolve_config({"experiment": "verify", "grid": {"n_torus": 16, "n_fiber": 8}})
    assert (p["grid.n_torus"], p["grid.n_fiber"]) == (16, 8)
    with pytest.raises(cli.ConfigError) as err:
        cli.resolve_config({"experiment": "verify", "grid": {"n_torus": 16, "bogus": 1}})
    assert err.value.violations == ["unknown key 'grid.bogus'"]


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


def test_readme_pair_table_matches_experiments():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = [line.strip("|").split("|") for line in
            readme.split("Supported pairs")[1].split("\n\n")[1].splitlines()]
    header = [cell.strip() for cell in rows[0]]
    assert header == ["experiment", *cli.MODELS]
    table = {cells[0].strip(): [cell.strip() for cell in cells[1:]] for cells in rows[2:]}
    assert list(table) == list(cli.EXPERIMENTS)
    for experiment, cells in table.items():
        assert cells == ["refused" if refusal("run", experiment, m) else
                         "run" if refusal("sweep", experiment, m) else "run + sweep"
                         for m in cli.MODELS], experiment


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


@pytest.mark.parametrize("model, passes", [
    ({"model": "hyperbolic", "matrix": [2, 1, 1, 1]}, 37),
    ({"model": "hyperbolic", "matrix": [-2, 1, 1, -1]}, 37),
    ({"model": "flat_cokahler"}, 37),
    ({"model": "contact_t3"}, 51),
], ids=["hyperbolic-trace+", "hyperbolic-trace-", "flat_cokahler", "contact_t3"])
def test_verify_stencil_passes(monkeypatch, model, passes):
    # every field of these charts depends on t alone, so every stencil pass
    # of verify reads a t-column; a suspension's d alpha, d beta and
    # Reeb-field gradient are M-point stencils of zeros, and the contact
    # testbed's alpha, beta and Reeb field vary along t
    real = ck.grids._centered
    p = cli.resolve_config({"experiment": "verify", "model": model,
                            "grid": {"n_torus": 8, "n_fiber": 8}})
    shapes = []
    monkeypatch.setattr(ck.grids, "_centered",
                        lambda *args: (lambda out: shapes.append(out.shape) or out)(real(*args)))
    assert cli._run_verify(p)["failures"] == []
    assert len(shapes) == passes
    assert {s[1:3] for s in shapes} == {(1, 1)}
