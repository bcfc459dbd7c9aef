"""The benchmark's four workloads: inputs, timed rounds and output checks.

Each workload has three parts:

* ``build(seed)`` makes the inputs from the seed: models, grids,
  certified metrics and starts.  The harness times it as ``setup_s``.
* ``run_round(inp, clock)`` runs one round of the workload's operations.
  Every timed call sits in a ``with clock(stage):`` block; the program
  objects a stage works on are built fresh, outside the blocks, so
  nothing cached on them in one round serves the next.
* ``check(inp, out)`` checks one round's outputs against closed forms
  and properties the method must have, at the tolerances the acceptance
  suite pins.  It returns ``(failures, facts)``: a list of violated
  checks and the measured quantities they compared.

coskit functions are called through their module attributes
(``va.minimize_energy``, not an imported name), so the traced run sees
these calls.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

import coskit as ck
from coskit import cli, dynamics as dy, tensors, variational as va
from coskit.cosymplectic import ALGEBRAIC_CERT_KEYS
from coskit.tensors import TensorField

# gluings of the descent, variation and splitting workloads (two with
# lambda > 0 and equal |lambda|, one with lambda < 0), and their scales
GLUINGS = (((2, 1), (1, 1)), ((-2, 1), (1, -1)), ((3, 1), (2, 1)))
TAU, AREA = 0.7, 2.0

DESCENT_STARTS = 8          # seeded starts per gluing
DESCENT_STEPS = 10          # optimizer iterations per start
VARIATION_STEP = 2e-3       # centered-difference step along exponential curves
SWEEP_RESOLUTIONS = (16, 32, 40)
LYAPUNOV_POINTS = 10
COCYCLE_PERIODS = 40


class Workload(NamedTuple):
    build: Callable
    run_round: Callable
    check: Callable
    # certified metrics handed to the timed calls of one round, built
    # outside the clock; the denominator of the traced per-metric ratios
    handed_metrics: int


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=n)]


def energy_closed_form(area: float, log_lambda: float, tau: float) -> float:
    """Energy of the critical metric, 8 V log^2|lambda| / tau."""
    return 8.0 * area * log_lambda ** 2 / tau


def relative_error(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


def int_matpow(mat, n: int) -> list[list[int]]:
    """Power n >= 0 of a 2x2 integer matrix, by repeated multiplication."""
    out = [[1, 0], [0, 1]]
    for _ in range(n):
        out = [[out[i][0] * mat[0][j] + out[i][1] * mat[1][j] for j in range(2)]
               for i in range(2)]
    return out


# -- descent --------------------------------------------------------------------


def build_descent(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for mat in GLUINGS:
        model = ck.build_hyperbolic_model(mat, TAU, AREA)
        grid = ck.Grid(8, 256, model.matrix)
        chart = va.deformation_chart(model, grid)
        starts = [va.random_deformation(grid, s, amplitude=0.3)
                  for s in _seeds(rng, DESCENT_STARTS)]
        cases.append({"model": model, "grid": grid, "chart": chart, "starts": starts})
    return {"cases": cases}


def run_descent(inp: dict, clock) -> dict:
    out = {}
    for i, case in enumerate(inp["cases"]):
        model, grid = case["model"], case["grid"]
        for j, start in enumerate(case["starts"]):
            d0 = va.Deformation(grid, start.u, start.r)
            structure = ck.suspension_structure(model, grid)
            with clock(f"minimize_energy[{i}.{j}]"):
                out[(i, j)] = va.minimize_energy(d0, model.mu, structure,
                                                 steps=DESCENT_STEPS)
    return out


def check_descent(inp: dict, out: dict) -> tuple[list[str], dict]:
    # The energy-gap identity gap(d) = E(deform(d)) - E(g_crit) holds up to
    # a discretization error that depends on the deformation.  Criterion 9
    # pins 1e-6 E0 on 20 fixed seeds; over 264 random starts the error
    # reached 5.3e-7 E0 at the start and 9.1e-7 E0 after 10 descent steps,
    # so with 24 starts a run the check uses 1e-5 E0.
    failures = []
    facts = {"energy_rel_error": 0.0, "start_gap_identity_over_e0": 0.0,
             "final_gap_identity_over_e0": 0.0, "accepted_steps": 0}
    for i, case in enumerate(inp["cases"]):
        model, chart = case["model"], case["chart"]
        e0 = va.energy(chart.metric)
        rel = relative_error(e0, energy_closed_form(model.area, model.log_lambda, model.tau))
        facts["energy_rel_error"] = max(facts["energy_rel_error"], rel)
        if rel > 1e-6:
            failures.append(f"descent[{i}]: E(g_crit) off the closed form by {rel:.2e}")
        for j, start in enumerate(case["starts"]):
            tag, res = f"descent[{i}.{j}]", out[(i, j)]
            hist = res.gap_history
            facts["accepted_steps"] += res.steps_taken
            if len(hist) != res.steps_taken + 1:
                failures.append(f"{tag}: gap history has {len(hist)} entries "
                                f"for {res.steps_taken} steps")
            if any(b > a for a, b in zip(hist, hist[1:])):
                failures.append(f"{tag}: gap history increases")
            if min(hist) < 0.0:
                failures.append(f"{tag}: negative energy gap {min(hist):.3e}")
            for key, d, gap in (("start", start, hist[0]),
                                ("final", res.deformation, hist[-1])):
                direct = va.energy(va.deform(chart, d)) - e0
                err = abs(gap - direct) / e0
                facts[f"{key}_gap_identity_over_e0"] = max(
                    facts[f"{key}_gap_identity_over_e0"], err)
                if err > 1e-5 or direct < 0.0:
                    failures.append(f"{tag}: {key} gap {gap!r} against E(deform(d)) - "
                                    f"E(g_crit) = {direct!r}: {err:.2e} E0")
    return failures, facts


# -- variation ------------------------------------------------------------------


def _contact_base(rng) -> dict:
    grid = ck.Grid(32, 32)
    structure, metric0 = ck.contact_t3_testbed(1, grid)
    base = va.exponential_curve(metric0, va.random_tangent(metric0, rng, 0.3), 1.0)
    fields = {k: getattr(structure, k).data for k in ("alpha", "beta", "reeb")}

    def make_structure():
        return ck.Structure(grid, TensorField(grid, fields["alpha"], "d"),
                            TensorField(grid, fields["beta"], "dd"),
                            TensorField(grid, fields["reeb"], "u"), structure.flavor)

    return {"grid": grid, "make_structure": make_structure, "g": base.g.data,
            "tangent": va.random_tangent(base, rng, 0.1)}


def _hyperbolic_base(mat, rng) -> dict:
    model = ck.build_hyperbolic_model(mat, TAU, AREA)
    grid = ck.Grid(32, 32, model.matrix)
    chart = va.deformation_chart(model, grid)
    seed, = _seeds(rng, 1)
    base = va.deform(chart, va.random_deformation(grid, seed, amplitude=0.25))
    return {"grid": grid, "make_structure": lambda: ck.suspension_structure(model, grid),
            "g": base.g.data, "tangent": va.random_tangent(base, rng, 0.1, model=model)}


def build_variation(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    bases = {"contact": _contact_base(rng)}
    for k, mat in enumerate(GLUINGS[:2]):
        bases[f"hyperbolic{k}"] = _hyperbolic_base(mat, rng)
    model = ck.build_hyperbolic_model(GLUINGS[0], TAU, AREA)
    grid = ck.Grid(32, 32, model.matrix)
    _, crit = ck.critical_metric(model, grid)
    return {"bases": bases, "model": model, "grid": grid,
            "critical_tangent": va.random_tangent(crit, rng, 0.1, model=model)}


def run_variation(inp: dict, clock) -> dict:
    out = {}
    for name, b in inp["bases"].items():
        base = ck.certify_compatible(b["make_structure"](),
                                     TensorField(b["grid"], b["g"].copy(), "dd"))
        h = b["tangent"]
        with clock(f"{name}.first_variation"):
            fv = va.first_variation(base, h)
        with clock(f"{name}.exponential_curve+"):
            g_plus = va.exponential_curve(base, h, VARIATION_STEP)
        with clock(f"{name}.exponential_curve-"):
            g_minus = va.exponential_curve(base, h, -VARIATION_STEP)
        with clock(f"{name}.energy+"):
            e_plus = va.energy(g_plus)
        with clock(f"{name}.energy-"):
            e_minus = va.energy(g_minus)
        out[name] = {"first_variation": fv, "energy_plus": e_plus, "energy_minus": e_minus,
                     "certificates": (g_plus.max_residual(ALGEBRAIC_CERT_KEYS),
                                      g_minus.max_residual(ALGEBRAIC_CERT_KEYS))}
    _, crit = ck.critical_metric(inp["model"], inp["grid"])
    with clock("critical.first_variation"):
        out["critical"] = va.first_variation(crit, inp["critical_tangent"])
    return out


def l2_norm(metric, data: np.ndarray) -> float:
    """L^2 norm of a (0,2) tensor field against the metric and alpha ^ beta."""
    return float(np.sqrt(metric.structure.integrate(
        tensors.tensor_norm2(data, "dd", metric.g.data, metric.ginv))))


def first_variation_error(fv: float, e_plus: float, e_minus: float, step: float,
                          scale: float) -> float:
    """Gap between the formula and the centered difference of E, over `scale`."""
    return abs(fv - (e_plus - e_minus) / (2.0 * step)) / scale


def check_variation(inp: dict, out: dict) -> tuple[list[str], dict]:
    # The gap is measured against 2 |EL| |H|, the largest first variation a
    # tangent of H's L^2 norm can have.  Relative to the centered difference
    # itself it is ill-conditioned: a random tangent can be nearly orthogonal
    # to the gradient, and then the O(h^4) gap between the discrete formula
    # and the discrete energy dominates a tiny derivative.
    failures, worst, worst_plain, worst_cert = [], 0.0, 0.0, 0.0
    for name, b in inp["bases"].items():
        o = out[name]
        base = ck.certify_compatible(b["make_structure"](), TensorField(b["grid"], b["g"], "dd"))
        scale = 2.0 * l2_norm(base, va.euler_lagrange_residual(base).data) \
            * l2_norm(base, b["tangent"].data)
        args = (o["first_variation"], o["energy_plus"], o["energy_minus"], VARIATION_STEP)
        err = first_variation_error(*args, scale)
        worst = max(worst, err)
        worst_plain = max(worst_plain, first_variation_error(
            *args, abs(o["energy_plus"] - o["energy_minus"]) / (2.0 * VARIATION_STEP)))
        if err > 1e-3:
            failures.append(f"variation[{name}]: first variation off the centered "
                            f"difference by {err:.2e} of 2 |EL| |H|")
        cert = max(o["certificates"])
        worst_cert = max(worst_cert, cert)
        if cert > 1e-8:
            failures.append(f"variation[{name}]: curve metric certificate {cert:.2e}")
    _, crit = ck.critical_metric(inp["model"], inp["grid"])
    e0 = va.energy(crit)
    crit_ratio = abs(out["critical"]) / e0
    if crit_ratio > 1e-6:
        failures.append(f"variation: first variation at the critical metric is "
                        f"{crit_ratio:.2e} E0")
    return failures, {"first_variation_error_over_scale": worst,
                      "first_variation_rel_error": worst_plain,
                      "critical_first_variation_over_e0": crit_ratio,
                      "curve_certificate": worst_cert}


# -- sweep ----------------------------------------------------------------------


def build_sweep(seed: int) -> dict:
    # convergence_sweep builds its models and metrics itself; verify does
    # not use the seed, so the inputs are the same for every seed
    model = ck.build_hyperbolic_model(GLUINGS[0], 1.0, 1.0)
    cfg = {"experiment": "verify",
           "model": {"model": "hyperbolic",
                     "matrix": [int(v) for row in GLUINGS[0] for v in row],
                     "tau": model.tau, "V": model.area},
           "resolutions": list(SWEEP_RESOLUTIONS), "seed": seed}
    return {"model": model, "config": cfg, "seed": seed}


def run_sweep(inp: dict, clock) -> dict:
    cfg = {k: (dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v)
           for k, v in inp["config"].items()}
    with clock("convergence_sweep"):
        report = cli.convergence_sweep(cfg, inp["seed"])
    return {"report": report}


def check_sweep(inp: dict, out: dict) -> tuple[list[str], dict]:
    model, report = inp["model"], out["report"]
    failures, worst_energy, worst_res = [], 0.0, 0.0
    if list(report["resolutions"]) != list(SWEEP_RESOLUTIONS):
        failures.append(f"sweep: resolutions {report['resolutions']}")
    expected = energy_closed_form(model.area, model.log_lambda, model.tau)
    for n in SWEEP_RESOLUTIONS:
        # criterion 1 pins 1e-6 at 32^3; the stencil is 4th order
        _, metric = ck.critical_metric(model, ck.Grid(n, n, model.matrix))
        rel = relative_error(va.energy(metric), expected)
        worst_energy = max(worst_energy, rel / (32.0 / n) ** 4)
        if rel > 1e-6 * (32.0 / n) ** 4:
            failures.append(f"sweep: energy at {n}^3 off the closed form by {rel:.2e}")
    for name in ("euler_lagrange_supnorm", "nabla_r_h_supnorm"):
        errors = report["fits"][name]["errors"]
        worst_res = max(worst_res, max(errors) / model.mu ** 2)
        if len(errors) != len(SWEEP_RESOLUTIONS) or max(errors) > 1e-4 * model.mu ** 2:
            failures.append(f"sweep: {name} {errors} not below 1e-4 mu^2")
    constancy = report["fits"]["torsion_constancy"]["errors"]
    if max(constancy) > 1e-5:
        failures.append(f"sweep: torsion constancy {constancy} above 1e-5")
    return failures, {"energy_rel_error_over_h4": worst_energy,
                      "residual_over_mu2": worst_res, "sweep_pass": report["pass"]}


# -- splitting ------------------------------------------------------------------


def build_splitting(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for mat in GLUINGS:
        model = ck.build_hyperbolic_model(mat, TAU, AREA)
        grid = ck.Grid(32, 32, model.matrix)
        _, metric = ck.critical_metric(model, grid)
        cases.append({"model": model, "grid": grid, "metric": metric,
                      "points": rng.random((LYAPUNOV_POINTS, 3)),
                      "orbit_start": rng.random(3)})
    return {"cases": cases}


def run_splitting(inp: dict, clock) -> dict:
    out = {}
    for i, case in enumerate(inp["cases"]):
        model, grid = case["model"], case["grid"]
        metric = ck.certify_compatible(ck.suspension_structure(model, grid),
                                       TensorField(grid, case["metric"].g.data.copy(), "dd"))
        o = out[i] = {}
        with clock(f"anosov_splitting[{i}]"):
            frame = dy.anosov_splitting(metric)
        with clock(f"refine_splitting[{i}]"):
            refined = dy.refine_splitting(frame, metric)
        with clock(f"splitting_invariance_residual[{i}]"):
            o["invariance"] = dy.splitting_invariance_residual(refined, metric, n_periods=10)
        with clock(f"contraction_law_residual[{i}]"):
            o["contraction"] = dy.contraction_law_residual(refined, metric, model,
                                                           n_periods=10)
        with clock(f"lyapunov_exponents[{i}]"):
            o["lyapunov"] = [dy.lyapunov_exponents(model, p, horizon=50.0 * model.tau)
                             for p in case["points"]]
        with clock(f"flow_cocycle[{i}]"):
            cocycle = dy.FlowCocycle.along_orbit(model, case["orbit_start"], COCYCLE_PERIODS)
            o["composition_defect"] = cocycle.composition_residual()
            o["determinant_defect"] = cocycle.determinant_defect()
        o["cocycle_blocks"] = cocycle.torus_blocks
        # bracket_residuals differences v_pm across the seam, where they flip
        # sign when lambda < 0; it runs on the lambda > 0 gluings only
        if model.lam > 0:
            with clock(f"bracket_residuals[{i}]"):
                o["brackets"] = dy.bracket_residuals(metric, frame)
        o["frame"] = refined
    return out


def check_splitting(inp: dict, out: dict) -> tuple[list[str], dict]:
    failures = []
    facts = {"hphi_error": 0.0, "lyapunov_error": 0.0, "lyapunov_sum": 0.0,
             "invariance": 0.0, "contraction": 0.0, "bracket_over_mu": 0.0}
    for i, case in enumerate(inp["cases"]):
        model, o = case["model"], out[i]
        mu, tag = model.mu, f"splitting[{i}]"
        frame = o["frame"]
        err = max(abs(frame.hphi_stable_eig + mu), abs(frame.hphi_unstable_eig - mu))
        facts["hphi_error"] = max(facts["hphi_error"], err)
        if err > 1e-5:
            failures.append(f"{tag}: h.phi eigenvalues ({frame.hphi_stable_eig!r}, "
                            f"{frame.hphi_unstable_eig!r}) are not (-mu, mu), mu = {mu!r}")
        for ly in o["lyapunov"]:
            err = float(np.max(np.abs(np.asarray(ly) - np.array([mu, 0.0, -mu]))))
            total = abs(float(np.sum(ly)))
            facts["lyapunov_error"] = max(facts["lyapunov_error"], err)
            facts["lyapunov_sum"] = max(facts["lyapunov_sum"], total)
            if err > 1e-9 or total > 1e-12:
                failures.append(f"{tag}: Lyapunov exponents {list(ly)} are not (mu, 0, -mu)")
        facts["invariance"] = max(facts["invariance"], o["invariance"])
        facts["contraction"] = max(facts["contraction"], o["contraction"])
        if o["invariance"] > 1e-8:
            failures.append(f"{tag}: splitting invariance residual {o['invariance']:.2e}")
        if o["contraction"] > 1e-9:
            failures.append(f"{tag}: contraction law residual {o['contraction']:.2e}")
        if o["composition_defect"] != 0 or o["determinant_defect"] != 0:
            failures.append(f"{tag}: cocycle defects {o['composition_defect']}, "
                            f"{o['determinant_defect']}")
        mat = [[int(v) for v in row] for row in model.matrix]
        blocks = o["cocycle_blocks"]
        if len(blocks) != COCYCLE_PERIODS + 1 or any(
                b != int_matpow(mat, n) for n, b in enumerate(blocks)):
            failures.append(f"{tag}: cocycle blocks are not the powers L^n")
        if model.lam > 0:
            br = o["brackets"]
            worst = max(br[k] for k in ("reeb_v_plus", "reeb_v_minus",
                                        "reeb_u_plus", "reeb_u_minus"))
            facts["bracket_over_mu"] = max(facts["bracket_over_mu"], worst / mu)
            if worst > 1e-4 * mu or br["v_plus_v_minus"] > 1e-12:
                failures.append(f"{tag}: bracket residuals {br}")
    return failures, facts


WORKLOADS = {
    "descent": Workload(build_descent, run_descent, check_descent, 0),
    "variation": Workload(build_variation, run_variation, check_variation, 4),
    "sweep": Workload(build_sweep, run_sweep, check_sweep, 0),
    "splitting": Workload(build_splitting, run_splitting, check_splitting, 3),
}
