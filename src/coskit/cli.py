"""Config-driven experiment runner with machine-readable reports.

Usage:
    coskit run   --config experiment.json [--out DIR] [--seed N]
    coskit sweep --config experiment.json [--out DIR] [--seed N]

The config is strict JSON; unknown keys anywhere are rejected with a
full list of violations before any computation starts.  Reports are
deterministic for a fixed (config, seed) pair: the JSON body contains
no timings (those go to a sibling timings.json) and all floats pass
through Python's repr.  Exit status is 0 iff every asserted criterion
in the report passed, 1 if one failed, and 2 for invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import dynamics, topology, variational
from .cosymplectic import ALGEBRAIC_CERT_KEYS
from .grids import Grid
from .models import build_hyperbolic_model, contact_t3_testbed, critical_metric, \
    flat_cokahler, sol_box_grid, sol_model

SCHEMA = "coskit-report/1"

EXPERIMENTS = ("verify", "energy", "optimize", "lyapunov", "betti",
               "first_variation", "gap_identity")

_TOP_KEYS = {"experiment", "model", "grid", "seed", "out", "tolerances",
             "dynamics", "deformation", "optimizer", "resolutions"}
_MODEL_KEYS = {"model", "matrix", "tau", "V", "mu", "n"}
_GRID_KEYS = {"n_torus", "n_fiber", "monodromy"}
_DYNAMICS_KEYS = {"horizon", "seeds"}
_DEFORMATION_KEYS = {"seed", "amplitude", "count"}
_OPTIMIZER_KEYS = {"steps", "tolerance"}


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def validate_config(cfg: dict) -> list[str]:
    bad = []
    if not isinstance(cfg, dict):
        return ["config root must be a JSON object"]
    bad += [f"unknown key {k!r}" for k in sorted(set(cfg) - _TOP_KEYS)]
    if "experiment" not in cfg:
        bad.append("missing key 'experiment'")
    elif cfg["experiment"] not in EXPERIMENTS:
        bad.append(f"unknown experiment {cfg['experiment']!r}; one of {EXPERIMENTS}")
    for section, keys in (("model", _MODEL_KEYS), ("grid", _GRID_KEYS),
                          ("dynamics", _DYNAMICS_KEYS),
                          ("deformation", _DEFORMATION_KEYS),
                          ("optimizer", _OPTIMIZER_KEYS)):
        sub = cfg.get(section, {})
        if not isinstance(sub, dict):
            bad.append(f"section {section!r} must be an object")
            continue
        bad += [f"unknown key {section}.{k}" for k in sorted(set(sub) - keys)]
    model = cfg.get("model", {})
    if isinstance(model, dict):
        kind = model.get("model", "hyperbolic")
        if kind not in ("hyperbolic", "flat_cokahler", "contact_t3", "sol"):
            bad.append(f"unknown model kind {kind!r}")
        if kind == "hyperbolic" and "matrix" in model and len(model["matrix"]) != 4:
            bad.append("model.matrix must be 4 integers, row-major")
    if "resolutions" in cfg:
        res = cfg["resolutions"]
        if not isinstance(res, list) or len(res) < 3:
            bad.append("resolutions must list at least 3 grid sizes")
    return bad


def _int_value(section: dict, key: str, default: int, name: str) -> int:
    """section[key] (or default) as an int; ConfigError naming the key otherwise."""
    value = section.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError([f"{name} must be an integer, got {value!r}"]) from None


def _build(cfg: dict):
    """Returns (kind, model_or_none, structure, metric) for the configured chart."""
    mcfg = dict(cfg.get("model", {}))
    kind = mcfg.get("model", "hyperbolic")
    gcfg = cfg.get("grid", {})
    n_torus = _int_value(gcfg, "n_torus", 32, "grid.n_torus")
    n_fiber = _int_value(gcfg, "n_fiber", n_torus, "grid.n_fiber")
    if kind == "hyperbolic":
        matrix = np.asarray(mcfg.get("matrix", [2, 1, 1, 1]), dtype=np.int64).reshape(2, 2)
        model = build_hyperbolic_model(matrix, float(mcfg.get("tau", 1.0)),
                                       float(mcfg.get("V", 1.0)))
        if "monodromy" in gcfg and not np.array_equal(
                np.asarray(gcfg["monodromy"]).reshape(2, 2), matrix):
            raise ConfigError(["grid.monodromy conflicts with model.matrix"])
        grid = Grid(n_torus, n_fiber, matrix)
        structure, metric = critical_metric(model, grid)
        return kind, model, structure, metric
    if kind == "flat_cokahler":
        structure, metric = flat_cokahler(Grid(n_torus, n_fiber))
        return kind, None, structure, metric
    if kind == "contact_t3":
        structure, metric = contact_t3_testbed(_int_value(mcfg, "n", 1, "model.n"),
                                               Grid(n_torus, n_fiber))
        return kind, None, structure, metric
    if kind == "sol":
        structure, metric = sol_model(float(mcfg.get("mu", 1.0)),
                                      sol_box_grid(n_torus, n_fiber))
        return kind, None, structure, metric
    raise ConfigError([f"unknown model kind {kind!r}"])


def _tol(cfg, name, default):
    return float(cfg.get("tolerances", {}).get(name, default))


def _roundoff_scale(metric) -> float:
    """eps max|g| max|g^-1| max|R|^2 / h^2, h the finest grid spacing.

    The size of float roundoff in a second Reeb derivative of the metric
    (the Euler-Lagrange field, nabla_R h) measured in the metric norm:
    rounding errors of size eps max|g| in the coordinate components are
    weighed by g^-1 and divided twice by the stencil step along R.
    Carried in runner bodies for the convergence sweep's floor; run()
    leaves it out of report.json.
    """
    reeb = np.max(np.abs(metric.structure.reeb.data))
    return float(np.finfo(float).eps * np.max(np.abs(metric.g.data))
                 * np.max(np.abs(metric.ginv)) * reeb ** 2 / min(metric.grid.spacing) ** 2)


# -- experiments ---------------------------------------------------------------


def _run_verify(cfg, seed):
    kind, model, structure, metric = _build(cfg)
    h = structure.grid.spacing[0]
    tol_exact = _tol(cfg, "exact", 1e-8)
    tol_fd = _tol(cfg, "fd_scale", 10.0) * h ** 4
    residuals = dict(metric.certificate)
    residuals.update({f"structure.{k}": v for k, v in structure.residuals().items()})
    scalars = {}
    if kind != "sol":
        scalars["euler_lagrange_supnorm"] = variational.euler_lagrange_supnorm(metric)
        scalars["nabla_r_h_supnorm"] = variational.nabla_r_h_residual(metric)
        rep = variational.torsion_report(metric)
        scalars["energy"] = rep.energy
        scalars["torsion_constancy"] = rep.constancy if rep.energy > 0 else 0.0
    else:
        scalars["nabla_r_h_supnorm"] = variational.nabla_r_h_residual(metric)
        scalars.update({f"sol_bracket.{k}": v for k, v in
                        dynamics.sol_bracket_residuals(structure.grid).items()})
    exact_bad = [k for k in ALGEBRAIC_CERT_KEYS
                 if k in residuals and residuals[k] > tol_exact]
    fd_bad = [k for k, v in residuals.items()
              if k not in ALGEBRAIC_CERT_KEYS and v > max(tol_fd, tol_exact)]
    failures = [f"residual {k} above tolerance" for k in exact_bad + fd_bad]
    if model is not None:
        mu2 = model.mu ** 2
        if scalars["euler_lagrange_supnorm"] > 1e-4 * mu2:
            failures.append("euler_lagrange_supnorm above 1e-4 * mu^2")
    return {"residuals": residuals, "scalars": scalars, "failures": failures,
            "_roundoff_scale": _roundoff_scale(metric)}


def _run_energy(cfg, seed):
    kind, model, structure, metric = _build(cfg)
    rep = variational.torsion_report(metric)
    out = {"scalars": {"energy": rep.energy,
                       "torsion_mean": float(np.mean(rep.torsion_field)),
                       "torsion_constancy": rep.constancy if rep.energy > 0 else 0.0,
                       "first_integral_residual": rep.first_integral_residual},
           "failures": [], "_roundoff_scale": _roundoff_scale(metric)}
    if kind == "hyperbolic":
        expected = 8.0 * model.area * model.log_lambda ** 2 / model.tau
        rel = abs(rep.energy - expected) / expected
        out["scalars"]["expected_energy"] = expected
        out["scalars"]["relative_error"] = rel
        if rel > _tol(cfg, "energy_rel", 1e-6):
            out["failures"].append("energy relative error above tolerance")
    elif kind == "flat_cokahler":
        out["scalars"]["expected_energy"] = 0.0
        if rep.energy != 0.0:
            out["failures"].append("flat co-Kaehler energy not exactly zero")
    return out


def _run_lyapunov(cfg, seed):
    dcfg = cfg.get("dynamics", {})
    n_seeds = _int_value(dcfg, "seeds", 10, "dynamics.seeds")
    kind, model, structure, metric = _build(cfg)
    if kind != "hyperbolic":
        return {"scalars": {"exponents": [0.0, 0.0, 0.0]}, "failures": []}
    horizon = float(dcfg.get("horizon", 50.0)) * model.tau
    rng = np.random.default_rng(seed)
    mu = model.mu
    rows, worst, spread = [], 0.0, 0.0
    base = dynamics.lyapunov_exponents(model, horizon=horizon)
    for _ in range(n_seeds):
        p = rng.random(3)
        ly = dynamics.lyapunov_exponents(model, p, horizon=horizon)
        rows.append([float(v) for v in ly])
        worst = max(worst, float(np.max(np.abs(ly - np.array([mu, 0.0, -mu])))))
        spread = max(spread, float(np.max(np.abs(ly - base))))
    sum_abs = max(abs(sum(r)) for r in rows)
    failures = []
    if worst > _tol(cfg, "lyapunov_abs", 1e-9):
        failures.append("lyapunov exponent error above tolerance")
    if sum_abs > _tol(cfg, "lyapunov_sum", 1e-12):
        failures.append("lyapunov sum not zero")
    return {"scalars": {"mu": mu, "max_error": worst, "max_sum": sum_abs,
                        "base_point_spread": spread},
            "tables": {"exponents": rows}, "failures": failures,
            "_roundoff_scale": _roundoff_scale(metric)}


def _run_betti(cfg, seed):
    mcfg = cfg.get("model", {})
    matrix = np.asarray(mcfg.get("matrix", [2, 1, 1, 1]), dtype=np.int64).reshape(2, 2)
    betti = topology.betti_numbers_mapping_torus(matrix)
    verdict = topology.critical_metric_obstruction(matrix)
    return {"scalars": {"b0": betti[0], "b1": betti[1], "b2": betti[2], "b3": betti[3],
                        "verdict": verdict.verdict,
                        "h1_torsion": topology.h1_torsion_invariants(matrix),
                        "note": verdict.note},
            "failures": []}


def _run_first_variation(cfg, seed):
    dcfg = cfg.get("deformation", {})
    count = _int_value(dcfg, "count", 10, "deformation.count")
    rng = np.random.default_rng(_int_value(dcfg, "seed", seed, "deformation.seed"))
    kind, model, structure, metric = _build(cfg)
    amplitude = float(dcfg.get("amplitude", 0.1))
    if kind == "hyperbolic":
        chart = variational.deformation_chart(model, structure.grid)
        base = variational.deform(
            chart, variational.random_deformation(structure.grid, seed, amplitude=0.25))
    else:
        h0 = variational.random_tangent(metric, rng, 0.3)
        base = variational.exponential_curve(metric, h0, 1.0)
    step = 2e-3
    rows, worst = [], 0.0
    for _ in range(count):
        h = variational.random_tangent(base, rng, amplitude, model=model)
        fv = variational.first_variation(base, h)
        fd = (variational.energy(variational.exponential_curve(base, h, step))
              - variational.energy(variational.exponential_curve(base, h, -step))) / (2 * step)
        rel = abs(fv - fd) / (abs(fd) + 1e-30)
        rows.append([fv, fd, rel])
        worst = max(worst, rel)
    failures = []
    if worst > _tol(cfg, "first_variation_rel", 1e-3):
        failures.append("first variation does not match centered differences")
    out = {"scalars": {"max_relative_error": worst},
           "tables": {"formula_fd_rel": rows}, "failures": failures}
    if kind == "hyperbolic":
        h = variational.random_tangent(metric, rng, amplitude, model=model)
        crit_val = abs(variational.first_variation(metric, h))
        e0 = variational.energy(metric)
        out["scalars"]["critical_point_value"] = crit_val
        if crit_val > 1e-6 * e0:
            failures.append("first variation at the critical metric not ~ 0")
    return out


def _run_gap_identity(cfg, seed):
    dcfg = cfg.get("deformation", {})
    count = _int_value(dcfg, "count", 20, "deformation.count")
    base_seed = _int_value(dcfg, "seed", seed, "deformation.seed")
    kind, model, structure, metric = _build(cfg)
    if kind != "hyperbolic":
        raise ConfigError(["gap_identity requires the hyperbolic model"])
    amplitude = float(dcfg.get("amplitude", 0.3))
    chart = variational.deformation_chart(model, structure.grid)
    e0 = variational.energy(chart.metric)
    rows, worst_gap, min_gap, worst_div = [], 0.0, np.inf, 0.0
    for k in range(count):
        d = variational.random_deformation(structure.grid, base_seed + k, amplitude=amplitude)
        rep = variational.energy_gap(d, chart.mu, structure)
        direct = variational.energy_gap_direct(chart, d)
        rows.append([rep.gap, direct, abs(rep.gap - direct) / e0])
        worst_gap = max(worst_gap, abs(rep.gap - direct) / e0)
        min_gap = min(min_gap, rep.gap)
        worst_div = max(worst_div, abs(rep.divergence_residual))
    failures = []
    if worst_gap > _tol(cfg, "gap_rel", 1e-6):
        failures.append("gap identity mismatch above tolerance")
    if min_gap < -1e-10:
        failures.append("negative energy gap")
    return {"scalars": {"max_identity_error": worst_gap, "min_gap": float(min_gap),
                        "max_divergence_residual": worst_div},
            "tables": {"gap_direct_rel": rows}, "failures": failures}


def _run_optimize(cfg, seed):
    dcfg = cfg.get("deformation", {})
    ocfg = cfg.get("optimizer", {})
    d_seed = _int_value(dcfg, "seed", seed, "deformation.seed")
    steps = _int_value(ocfg, "steps", 1500, "optimizer.steps")
    kind, model, structure, metric = _build(cfg)
    if kind != "hyperbolic":
        raise ConfigError(["optimize requires the hyperbolic model"])
    chart = variational.deformation_chart(model, structure.grid)
    d0 = variational.random_deformation(structure.grid, d_seed,
                                        amplitude=float(dcfg.get("amplitude", 0.3)))
    result = variational.minimize_energy(
        d0, chart.mu, structure, steps=steps,
        tolerance=float(ocfg.get("tolerance", 0.0)))
    reduction = result.gap_history[0] / max(result.gap_history[-1], 1e-300)
    failures = []
    if reduction < 1e4:
        failures.append("gap reduction below 1e4")
    if result.final_sup_r > 1e-3:
        failures.append("final sup |r| above 1e-3")
    if result.final_sup_ru > 1e-3:
        failures.append("final sup |R(log p)| above 1e-3")
    return {"scalars": {"initial_gap": result.gap_history[0],
                        "final_gap": result.gap_history[-1],
                        "reduction_factor": reduction,
                        "steps": result.steps_taken,
                        "converged": result.converged,
                        "final_sup_r": result.final_sup_r,
                        "final_sup_ru": result.final_sup_ru},
            "series": {"gap_history": [float(v) for v in result.gap_history]},
            "failures": failures}


_RUNNERS = {
    "verify": _run_verify,
    "energy": _run_energy,
    "optimize": _run_optimize,
    "lyapunov": _run_lyapunov,
    "betti": _run_betti,
    "first_variation": _run_first_variation,
    "gap_identity": _run_gap_identity,
}


def run(cfg: dict, seed: int = 0) -> dict:
    """Validate, dispatch, and assemble a deterministic report."""
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    body = _RUNNERS[cfg["experiment"]](cfg, seed)
    report = {
        "schema": SCHEMA,
        "experiment": cfg["experiment"],
        "config": cfg,
        "seed": seed,
        "pass": not body.get("failures"),
    }
    report.update({k: v for k, v in body.items() if not k.startswith("_")})
    return report


# -- convergence sweeps ---------------------------------------------------------

# the machine floor is this many roundoff scales; the critical metrics'
# residuals sit at 0.09 to 0.53 scales over gluings, tau and V
_FLOOR_FACTOR = 4.0

_SWEEP_METRICS = {
    "verify": ("euler_lagrange_supnorm", "nabla_r_h_supnorm", "torsion_constancy"),
    "energy": ("relative_error", "torsion_constancy"),
    "lyapunov": ("max_error",),
}


def convergence_sweep(cfg: dict, seed: int = 0, scheme_order: float = 4.0,
                      floor: float = 1e-11) -> dict:
    """Run an experiment across resolutions and fit the error order.

    Metrics whose errors sit below the machine floor at every resolution
    are marked machine_floor (exact quantities stay flat); otherwise a
    log-log fit must give at least scheme_order - 0.5 and the errors
    must decrease monotonically, else the metric is flagged as failed,
    not silently passed.  The floor at each resolution is the larger of
    the absolute ``floor`` and _FLOOR_FACTOR times the run's own
    roundoff scale (see _roundoff_scale), which grows like 1/h^2 and
    with the conditioning of the metric.
    """
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    resolutions = cfg.get("resolutions", [16, 32, 64])
    metrics = _SWEEP_METRICS.get(cfg["experiment"])
    if metrics is None:
        raise ConfigError([f"no convergence sweep for {cfg['experiment']!r}"])
    table, floors = {}, []
    for n in resolutions:
        sub = dict(cfg)
        sub.pop("resolutions", None)
        body = _RUNNERS[cfg["experiment"]](sub | {"grid": {"n_torus": n, "n_fiber": n}}, seed)
        floors.append(max(floor, _FLOOR_FACTOR * body.get("_roundoff_scale", 0.0)))
        for name in metrics:
            table.setdefault(name, []).append(float(body["scalars"][name]))
    fits, failures = {}, []
    logh = np.log(1.0 / np.asarray(resolutions, dtype=float))
    for name, errs in table.items():
        errs_arr = np.asarray(errs)
        if np.all(errs_arr <= floors):
            fits[name] = {"status": "machine_floor", "errors": errs}
            continue
        if np.any(errs_arr <= 0.0):
            fits[name] = {"status": "nonpositive_error", "errors": errs}
            failures.append(f"{name}: nonpositive error in sweep")
            continue
        order = float(np.polyfit(logh, np.log(errs_arr), 1)[0])
        monotone = bool(np.all(np.diff(errs_arr) < 0))
        ok = order >= scheme_order - 0.5 and monotone
        fits[name] = {"status": "fitted", "order": order, "monotone": monotone,
                      "errors": errs}
        if not ok:
            failures.append(f"{name}: order {order:.2f} / monotone {monotone}")
    return {"schema": SCHEMA, "experiment": cfg["experiment"] + "_sweep",
            "config": cfg, "seed": seed, "resolutions": list(resolutions),
            "fits": fits, "failures": failures, "pass": not failures}


# -- serialization ----------------------------------------------------------------


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _to_jsonable(obj.tolist())
    return obj


def write_report(report: dict, out_dir: Path, elapsed: float) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    body = _to_jsonable({k: v for k, v in report.items() if k != "series"})
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")
    (out_dir / "timings.json").write_text(
        json.dumps({"wall_clock_s": elapsed}) + "\n")
    series = report.get("series", {})
    for name, values in series.items():
        lines = ["step,value"] + [f"{i},{v!r}" for i, v in enumerate(values)]
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    if "fits" in report:
        lines = ["metric,resolution,error"]
        for name, fit in report["fits"].items():
            for n, e in zip(report["resolutions"], fit["errors"]):
                lines.append(f"{name},{n},{e!r}")
        (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    return path


def _load_config(path: Path) -> dict:
    """The parsed config file; ConfigError if it cannot be read or its root is
    not an object, JSONDecodeError (a ValueError) if it is not JSON."""
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError([f"{type(err).__name__}: {err}"]) from None
    cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise ConfigError(validate_config(cfg))
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="coskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else _int_value(cfg, "seed", 0, "seed")
        out_dir = args.out or Path(cfg.get("out", "coskit_out"))
        if args.command == "run":
            report = run(cfg, seed)
        else:
            report = convergence_sweep(cfg, seed)
    except ValueError as err:
        # every coskit error class (GridError, NotHyperbolicError, ...) is a ValueError
        if isinstance(err, ConfigError):
            failures = err.violations
        else:
            failures = [f"{type(err).__name__}: {err}"]
        print(json.dumps({"schema": SCHEMA, "pass": False, "failures": failures}, indent=2))
        return 2
    path = write_report(report, out_dir, time.perf_counter() - t0)
    print(f"wrote {path}  pass={report['pass']}")
    if report["failures"]:
        print(json.dumps({"failures": report["failures"]}, indent=2))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
