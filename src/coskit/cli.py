"""Config-driven experiment runner with machine-readable reports.

Usage:
    coskit run   --config experiment.json [--out DIR] [--seed N]
    coskit sweep --config experiment.json [--out DIR] [--seed N]

The config is strict JSON, resolved against one table (CONFIG_SCHEMA):
unknown keys and values of the wrong kind anywhere are rejected with a
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

# the experiments a convergence sweep runs, and the scalars it fits
_SWEEP_METRICS = {
    "verify": ("euler_lagrange_supnorm", "nabla_r_h_supnorm", "torsion_constancy"),
    "energy": ("relative_error", "torsion_constancy"),
    "lyapunov": ("max_error",),
}


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# -- config schema ----------------------------------------------------------------


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # the comparison is False for NaN and exact for ints too large for a float
    return (_is_integer(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_integer, value))


def _choice(*options: str) -> tuple:
    return str, (f"one of {options}", lambda v: isinstance(v, str) and v in options)


# a kind: the conversion to the value the runners read, then the checks a
# given value must pass in turn, each named by what it asks ("<key> must
# be <name>, got <value>" reports the first one failed)
INTEGER = (int, ("an integer", _is_integer))
COUNT = (int, ("an integer", _is_integer), ("positive", lambda v: v > 0))
REAL = (float, ("a finite real number", _is_real))
NONNEGATIVE = (float, ("a finite real number", _is_real), ("non-negative", lambda v: v >= 0))
STRING = (str, ("a string", lambda v: isinstance(v, str)))
_INT64 = np.iinfo(np.int64)
MATRIX = (lambda v: np.asarray(v, dtype=np.int64).reshape(2, 2),
          ("4 integers, row-major", lambda v: _is_int_list(v) and len(v) == 4),
          ("within the int64 range", lambda v: all(_INT64.min <= x <= _INT64.max for x in v)))
RESOLUTIONS = (list, ("at least 3 integers", lambda v: _is_int_list(v) and len(v) >= 3),
               ("strictly increasing", lambda v: all(a < b for a, b in zip(v, v[1:]))))


class SameAs(str):
    """A default that is the resolved value of the key named, an earlier row."""


_BUILT = tuple(e for e in EXPERIMENTS if e != "betti")
_DEFORMED = ("optimize", "first_variation", "gap_identity")

# dotted key: (kind, default, the experiments that read it), in resolution
# order.  A default is a value; SameAs(key); {experiment: value, "*": value
# for the others}; or None for a required key.  Domain rules that a
# constructor enforces with a named error class (Grid's N >= 5, det and
# trace of L, tau, V > 0, mu != 0, winding != 0, a horizon of at least one
# period) are left to it.
CONFIG_SCHEMA = {
    "experiment": (_choice(*EXPERIMENTS), None, EXPERIMENTS),
    "seed": (INTEGER, 0, EXPERIMENTS),
    "out": (STRING, "coskit_out", EXPERIMENTS),
    "resolutions": (RESOLUTIONS, [16, 32, 64], tuple(_SWEEP_METRICS)),
    "model.model": (_choice("hyperbolic", "flat_cokahler", "contact_t3", "sol"),
                    "hyperbolic", _BUILT),
    "model.matrix": (MATRIX, [2, 1, 1, 1], EXPERIMENTS),
    "model.tau": (REAL, 1.0, _BUILT),
    "model.V": (REAL, 1.0, _BUILT),
    "model.mu": (REAL, 1.0, _BUILT),
    "model.n": (INTEGER, 1, _BUILT),
    "grid.n_torus": (INTEGER, 32, _BUILT),
    "grid.n_fiber": (INTEGER, SameAs("grid.n_torus"), _BUILT),
    "grid.monodromy": (MATRIX, SameAs("model.matrix"), _BUILT),
    "dynamics.horizon": (REAL, 50.0, ("lyapunov",)),
    "dynamics.seeds": (COUNT, 10, ("lyapunov",)),
    "deformation.seed": (INTEGER, SameAs("seed"), _DEFORMED),
    "deformation.amplitude": (REAL, {"first_variation": 0.1, "*": 0.3}, _DEFORMED),
    "deformation.count": (COUNT, {"first_variation": 10, "*": 20},
                          ("first_variation", "gap_identity")),
    "optimizer.steps": (COUNT, 1500, ("optimize",)),
    "optimizer.tolerance": (NONNEGATIVE, 0.0, ("optimize",)),
    "tolerances.exact": (NONNEGATIVE, 1e-8, ("verify",)),
    "tolerances.fd_scale": (NONNEGATIVE, 10.0, ("verify",)),
    "tolerances.energy_rel": (NONNEGATIVE, 1e-6, ("energy",)),
    "tolerances.lyapunov_abs": (NONNEGATIVE, 1e-9, ("lyapunov",)),
    "tolerances.lyapunov_sum": (NONNEGATIVE, 1e-12, ("lyapunov",)),
    "tolerances.first_variation_rel": (NONNEGATIVE, 1e-3, ("first_variation",)),
    "tolerances.gap_rel": (NONNEGATIVE, 1e-6, ("gap_identity",)),
}

_SECTIONS = {key.split(".")[0] for key in CONFIG_SCHEMA if "." in key}


def resolve_config(cfg, seed: int | None = None) -> dict:
    """The values the configured experiment reads, by dotted key, defaults filled in.

    Every key of ``cfg`` is checked against CONFIG_SCHEMA, whichever experiment reads it,
    and ConfigError lists every violation.  A given ``seed`` replaces the config's, once checked.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(["config root must be a JSON object"])
    given, bad = {}, []
    for name, value in cfg.items():
        if name not in _SECTIONS:
            given[name] = value
        elif isinstance(value, dict):
            given.update((f"{name}.{key}", v) for key, v in value.items())
        else:
            bad.append(f"section {name!r} must be an object")
    bad += [f"unknown key {key!r}" for key in given if key not in CONFIG_SCHEMA]
    values = {}
    for key, ((convert, *checks), default, _) in CONFIG_SCHEMA.items():
        if key in given:
            unmet = next((name for name, test in checks if not test(given[key])), None)
            if unmet is None:
                values[key] = convert(given[key])
            else:
                bad.append(f"{key} must be {unmet}, got {given[key]!r}")
        elif isinstance(default, SameAs):
            values[key] = values.get(default)       # None if that key is bad
        elif isinstance(default, dict):
            values[key] = convert(default.get(values.get("experiment"), default["*"]))
        elif default is None:
            bad.append(f"missing key {key!r}")
        else:
            values[key] = convert(default)
        if key == "seed" and seed is not None:
            values[key] = seed
    if bad:
        raise ConfigError(bad)
    return {key: values[key] for key, (_, _, readers) in CONFIG_SCHEMA.items()
            if values["experiment"] in readers}


def _build(p: dict):
    """(kind, model or None, structure, metric) for the chart of the resolved config p."""
    kind, n_torus, n_fiber = p["model.model"], p["grid.n_torus"], p["grid.n_fiber"]
    if kind == "hyperbolic":
        matrix = p["model.matrix"]
        if not np.array_equal(p["grid.monodromy"], matrix):
            raise ConfigError(["grid.monodromy conflicts with model.matrix"])
        model = build_hyperbolic_model(matrix, p["model.tau"], p["model.V"])
        structure, metric = critical_metric(model, Grid(n_torus, n_fiber, matrix))
        return kind, model, structure, metric
    if kind == "flat_cokahler":
        structure, metric = flat_cokahler(Grid(n_torus, n_fiber))
    elif kind == "contact_t3":
        structure, metric = contact_t3_testbed(p["model.n"], Grid(n_torus, n_fiber))
    else:
        structure, metric = sol_model(p["model.mu"], sol_box_grid(n_torus, n_fiber))
    return kind, None, structure, metric


def _roundoff_scale(metric, ginv_max: float) -> float:
    """eps max|g| max|g^-1| max|R|^2 / h^2, h the finest grid spacing.

    The size of float roundoff in a second Reeb derivative of the metric
    (the Euler-Lagrange field, nabla_R h) measured in the metric norm:
    rounding errors of size eps max|g| in the coordinate components are
    weighed by g^-1 and divided twice by the stencil step along R.
    Carried in runner bodies for the convergence sweep's floor; run()
    leaves it out of report.json.  ``ginv_max`` is max|g^-1|.
    """
    reeb = np.max(np.abs(metric.structure.reeb.data))
    return float(np.finfo(float).eps * np.max(np.abs(metric.g.data))
                 * ginv_max * reeb ** 2 / min(metric.grid.spacing) ** 2)


# -- experiments ---------------------------------------------------------------

# the algebraic certificate entries of critical metrics sit at up to
# 2.9 eps max|g|^2 max|g^-1| over 400 random hyperbolic gluings with
# entries up to 28, tau = 1 and V in {0.5, 1}
_CERT_FACTOR = 16.0


def _run_verify(p):
    kind, model, structure, metric = _build(p)
    h = structure.grid.spacing[0]
    ginv_max = np.max(np.abs(metric.ginv))
    tol_exact = p["tolerances.exact"]
    # the pointwise identities multiply g, g^-1 and g again: their roundoff
    # grows like eps max|g|^2 max|g^-1| and on an ill-conditioned metric
    # exceeds an absolute tol_exact
    tol_cert = max(tol_exact, _CERT_FACTOR * np.finfo(float).eps
                   * np.max(np.abs(metric.g.data)) ** 2 * ginv_max)
    tol_fd = p["tolerances.fd_scale"] * h ** 4
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
                 if k in residuals and residuals[k] > tol_cert]
    fd_bad = [k for k, v in residuals.items()
              if k not in ALGEBRAIC_CERT_KEYS and v > max(tol_fd, tol_exact)]
    failures = [f"residual {k} above tolerance" for k in exact_bad + fd_bad]
    if model is not None:
        mu2 = model.mu ** 2
        if scalars["euler_lagrange_supnorm"] > 1e-4 * mu2:
            failures.append("euler_lagrange_supnorm above 1e-4 * mu^2")
    return {"residuals": residuals, "scalars": scalars, "failures": failures,
            "_roundoff_scale": _roundoff_scale(metric, ginv_max)}


def _run_energy(p):
    kind, model, structure, metric = _build(p)
    rep = variational.torsion_report(metric)
    out = {"scalars": {"energy": rep.energy,
                       "torsion_mean": float(np.mean(rep.torsion_field)),
                       "torsion_constancy": rep.constancy if rep.energy > 0 else 0.0,
                       "first_integral_residual": rep.first_integral_residual},
           "failures": [], "_roundoff_scale": _roundoff_scale(metric, np.max(np.abs(metric.ginv)))}
    if kind == "hyperbolic":
        expected = 8.0 * model.area * model.log_lambda ** 2 / model.tau
        rel = abs(rep.energy - expected) / expected
        out["scalars"]["expected_energy"] = expected
        out["scalars"]["relative_error"] = rel
        if rel > p["tolerances.energy_rel"]:
            out["failures"].append("energy relative error above tolerance")
    elif kind == "flat_cokahler":
        out["scalars"]["expected_energy"] = 0.0
        if rep.energy != 0.0:
            out["failures"].append("flat co-Kaehler energy not exactly zero")
    return out


def _run_lyapunov(p):
    kind, model, structure, metric = _build(p)
    if kind != "hyperbolic":
        return {"scalars": {"exponents": [0.0, 0.0, 0.0]}, "failures": []}
    horizon = p["dynamics.horizon"] * model.tau
    rng = np.random.default_rng(p["seed"])
    mu = model.mu
    rows, worst, spread = [], 0.0, 0.0
    base = dynamics.lyapunov_exponents(model, horizon=horizon)
    for _ in range(p["dynamics.seeds"]):
        point = rng.random(3)
        ly = dynamics.lyapunov_exponents(model, point, horizon=horizon)
        rows.append([float(v) for v in ly])
        worst = max(worst, float(np.max(np.abs(ly - np.array([mu, 0.0, -mu])))))
        spread = max(spread, float(np.max(np.abs(ly - base))))
    sum_abs = max(abs(sum(r)) for r in rows)
    failures = []
    if worst > p["tolerances.lyapunov_abs"]:
        failures.append("lyapunov exponent error above tolerance")
    if sum_abs > p["tolerances.lyapunov_sum"]:
        failures.append("lyapunov sum not zero")
    return {"scalars": {"mu": mu, "max_error": worst, "max_sum": sum_abs,
                        "base_point_spread": spread},
            "tables": {"exponents": rows}, "failures": failures,
            "_roundoff_scale": _roundoff_scale(metric, np.max(np.abs(metric.ginv)))}


def _run_betti(p):
    matrix = p["model.matrix"]
    betti = topology.betti_numbers_mapping_torus(matrix)
    verdict = topology.critical_metric_obstruction(matrix)
    return {"scalars": {"b0": betti[0], "b1": betti[1], "b2": betti[2], "b3": betti[3],
                        "verdict": verdict.verdict,
                        "h1_torsion": topology.h1_torsion_invariants(matrix),
                        "note": verdict.note},
            "failures": []}


def _run_first_variation(p):
    rng = np.random.default_rng(p["deformation.seed"])
    kind, model, structure, metric = _build(p)
    if kind == "hyperbolic":
        chart = variational.deformation_chart(model, structure.grid)
        base = variational.deform(
            chart, variational.random_deformation(structure.grid, p["seed"], amplitude=0.25))
    else:
        h0 = variational.random_tangent(metric, rng, 0.3)
        base = variational.exponential_curve(metric, h0, 1.0)
    step = 2e-3
    rows, worst = [], 0.0
    for _ in range(p["deformation.count"]):
        h = variational.random_tangent(base, rng, p["deformation.amplitude"], model=model)
        fv = variational.first_variation(base, h)
        fd = (variational.energy(variational.exponential_curve(base, h, step))
              - variational.energy(variational.exponential_curve(base, h, -step))) / (2 * step)
        rel = abs(fv - fd) / (abs(fd) + 1e-30)
        rows.append([fv, fd, rel])
        worst = max(worst, rel)
    failures = []
    if worst > p["tolerances.first_variation_rel"]:
        failures.append("first variation does not match centered differences")
    out = {"scalars": {"max_relative_error": worst},
           "tables": {"formula_fd_rel": rows}, "failures": failures}
    if kind == "hyperbolic":
        h = variational.random_tangent(metric, rng, p["deformation.amplitude"], model=model)
        crit_val = abs(variational.first_variation(metric, h))
        e0 = variational.energy(metric)
        out["scalars"]["critical_point_value"] = crit_val
        if crit_val > 1e-6 * e0:
            failures.append("first variation at the critical metric not ~ 0")
    return out


def _run_gap_identity(p):
    if p["model.model"] != "hyperbolic":
        raise ConfigError(["gap_identity requires the hyperbolic model"])
    _, model, structure, metric = _build(p)
    chart = variational.deformation_chart(model, structure.grid)
    e0 = variational.energy(chart.metric)
    rows, worst_gap, min_gap, worst_div = [], 0.0, np.inf, 0.0
    for k in range(p["deformation.count"]):
        d = variational.random_deformation(structure.grid, p["deformation.seed"] + k,
                                           amplitude=p["deformation.amplitude"])
        rep = variational.energy_gap(d, chart.mu, structure)
        direct = variational.energy_gap_direct(chart, d)
        rows.append([rep.gap, direct, abs(rep.gap - direct) / e0])
        worst_gap = max(worst_gap, abs(rep.gap - direct) / e0)
        min_gap = min(min_gap, rep.gap)
        worst_div = max(worst_div, abs(rep.divergence_residual))
    failures = []
    if worst_gap > p["tolerances.gap_rel"]:
        failures.append("gap identity mismatch above tolerance")
    if min_gap < -1e-10:
        failures.append("negative energy gap")
    return {"scalars": {"max_identity_error": worst_gap, "min_gap": float(min_gap),
                        "max_divergence_residual": worst_div},
            "tables": {"gap_direct_rel": rows}, "failures": failures}


def _run_optimize(p):
    if p["model.model"] != "hyperbolic":
        raise ConfigError(["optimize requires the hyperbolic model"])
    _, model, structure, metric = _build(p)
    chart = variational.deformation_chart(model, structure.grid)
    d0 = variational.random_deformation(structure.grid, p["deformation.seed"],
                                        amplitude=p["deformation.amplitude"])
    result = variational.minimize_energy(d0, chart.mu, structure, steps=p["optimizer.steps"],
                                         tolerance=p["optimizer.tolerance"])
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
            "series": {"gap_history": [float(v) for v in result.gap_history],
                       "step_size": result.step_sizes,
                       "backtracks": result.backtracks,
                       "grad_norm2": result.grad_norm2},
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
    """Resolve, dispatch, and assemble a deterministic report."""
    p = resolve_config(cfg, seed)
    body = _RUNNERS[p["experiment"]](p)
    report = {
        "schema": SCHEMA,
        "experiment": p["experiment"],
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
    p = resolve_config(cfg, seed)
    metrics = _SWEEP_METRICS.get(p["experiment"])
    if metrics is None:
        raise ConfigError([f"no convergence sweep for {p['experiment']!r}"])
    table, floors = {}, []
    for n in p["resolutions"]:
        body = _RUNNERS[p["experiment"]](p | {"grid.n_torus": n, "grid.n_fiber": n})
        floors.append(max(floor, _FLOOR_FACTOR * body.get("_roundoff_scale", 0.0)))
        for name in metrics:
            table.setdefault(name, []).append(float(body["scalars"][name]))
    fits, failures = {}, []
    logh = np.log(1.0 / np.asarray(p["resolutions"], dtype=float))
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
    return {"schema": SCHEMA, "experiment": p["experiment"] + "_sweep",
            "config": cfg, "seed": seed, "resolutions": p["resolutions"],
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
    """The parsed config; ConfigError if unreadable, JSONDecodeError if not JSON."""
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError([f"{type(err).__name__}: {err}"]) from None
    return json.loads(text)


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
        params = resolve_config(cfg, args.seed)
        out_dir = args.out or Path(params["out"])
        report = (run if args.command == "run" else convergence_sweep)(cfg, params["seed"])
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
