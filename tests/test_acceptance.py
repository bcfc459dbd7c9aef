"""Acceptance suite: the toolkit's exit criteria at pinned tolerances.

Default chart: L = [[2, 1], [1, 1]], tau = 1, V = 1, grid 32^3 unless a
criterion is better served by an anisotropic chart (noted inline).
Each test prints one line so a bare `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

import numpy as np
import pytest

import coskit as ck
from coskit.cosymplectic import ALGEBRAIC_CERT_KEYS, polar_compatible_metric
from coskit.grids import Grid
from coskit.tensors import TensorField, christoffel, symmetric_eigen
from coskit import dynamics as dy
from coskit import topology as tp
from coskit import variational as va
from references import covariant_reference, torsion_closed_forms


def sup(a):
    return float(np.max(np.abs(a)))


def report(num, name, value, bound, extra=""):
    print(f"[PASS] criterion {num:2d} {name}: {value:.3e} within {bound:.1e} {extra}")


# -- 1. energy of the critical metric --------------------------------------------


def test_criterion_01_energy(crit32, model):
    rep = va.torsion_report(crit32[1])
    expected = 8.0 * model.area * model.log_lambda ** 2 / model.tau
    rel = abs(rep.energy - expected) / expected
    assert rel < 1e-6
    report(1, "energy = 8 V (log|lam|)^2 / tau", rel, 1e-6)


# -- 2. torsion constancy -----------------------------------------------------------


def test_criterion_02_torsion_constancy(crit32, crit64):
    c32 = va.torsion_report(crit32[1]).constancy
    c64 = va.torsion_report(crit64[1]).constancy
    assert c32 < 1e-5
    # exact exponential assembly: both resolutions sit at the roundoff
    # floor, so the 8x decrease holds vacuously below it
    floor = 1e-12
    assert c64 <= max(c32 / 8.0, floor)
    report(2, "torsion stddev/mean", c32, 1e-5, f"(64^3: {c64:.1e}, floor branch)")


# -- 3. Euler-Lagrange residual -------------------------------------------------------


def test_criterion_03_euler_lagrange(crit32, crit64, flat16, model):
    mu2 = model.mu ** 2
    s32 = va.euler_lagrange_supnorm(crit32[1])
    s64 = va.euler_lagrange_supnorm(crit64[1])
    assert s32 < 1e-4 * mu2
    assert s64 <= max(s32 / 8.0, 1e-10 * mu2)    # floor branch, see criterion 2
    flat = sup(va.euler_lagrange_residual(flat16[1]).data)
    assert flat == 0.0
    report(3, "EL residual sup / mu^2", s32 / mu2, 1e-4,
           f"(64^3: {s64 / mu2:.1e}, flat: exactly 0)")


# -- 4. h-eigenstructure ------------------------------------------------------------------


def test_criterion_04_h_eigenstructure(crit32, model):
    _, metric = crit32
    rep = va.torsion_report(metric)
    w, _, aligned = symmetric_eigen(metric.h_tensor(), metric.g.data, metric.ginv)
    mu = model.mu
    eig_err = sup(w - np.array([mu, 0.0, -mu]))
    assert aligned
    assert eig_err < 1e-5
    mu_torsion = float(np.mean(np.sqrt(rep.torsion_field / 8.0)))
    mu_eigen = float(np.mean(w[..., 0]))
    worst_pair = max(abs(mu_torsion - mu), abs(mu_eigen - mu), abs(mu_torsion - mu_eigen))
    assert worst_pair < 1e-6
    report(4, "h eigenvalues (0, +-mu)", eig_err, 1e-5,
           f"(three mu's agree to {worst_pair:.1e})")


# -- 5. Lyapunov exponents ------------------------------------------------------------------


def test_criterion_05_lyapunov(model):
    mu = model.mu
    rng = np.random.default_rng(0)
    worst, worst_sum = 0.0, 0.0
    for _ in range(10):
        ly = dy.lyapunov_exponents(model, rng.random(3), horizon=50.0 * model.tau)
        worst = max(worst, sup(ly - np.array([mu, 0.0, -mu])))
        worst_sum = max(worst_sum, abs(float(np.sum(ly))))
    assert worst < 1e-9
    assert worst_sum < 1e-12
    report(5, "lyapunov (+mu, 0, -mu)", worst, 1e-9, f"(sum: {worst_sum:.1e})")


# -- 6. bracket relations --------------------------------------------------------------------


def test_criterion_06_brackets(crit32, crit64, model):
    mu = model.mu
    r32 = dy.bracket_residuals(crit32[1], dy.anosov_splitting(crit32[1]))
    r64 = dy.bracket_residuals(crit64[1], dy.anosov_splitting(crit64[1]))
    worst = max(r32["reeb_v_plus"], r32["reeb_v_minus"], r32["v_plus_v_minus"])
    assert worst < 1e-4 * mu
    for key in ("reeb_v_plus", "reeb_v_minus"):
        assert r32[key] / r64[key] > 8.0
    report(6, "bracket residuals / mu", worst / mu, 1e-4,
           f"(order {np.log2(r32['reeb_v_plus'] / r64['reeb_v_plus']):.2f})")


# -- 7. first-variation identity ---------------------------------------------------------------


def test_criterion_07_first_variation(model):
    worst = 0.0
    step = 2e-3
    # cosymplectic chart: a deformed (non-critical) compatible metric
    grid = Grid(32, 32, model.matrix)
    chart = va.deformation_chart(model, grid)
    base_c = va.deform(chart, va.random_deformation(grid, seed=5, amplitude=0.25))
    # contact chart: a tangent-perturbed testbed metric
    gridf = Grid(32, 32)
    _, cm0 = ck.contact_t3_testbed(1, gridf)
    rng0 = np.random.default_rng(11)
    base_t = va.exponential_curve(cm0, va.random_tangent(cm0, rng0, 0.3), 1.0)
    for base, mdl, seed in ((base_c, model, 13), (base_t, None, 17)):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            h = va.random_tangent(base, rng, 0.1, model=mdl)
            fv = va.first_variation(base, h)
            fd = (va.energy(va.exponential_curve(base, h, step))
                  - va.energy(va.exponential_curve(base, h, -step))) / (2 * step)
            worst = max(worst, abs(fv - fd) / (abs(fd) + 1e-30))
    assert worst < 1e-3
    # at the critical metric the formula value is ~ 0
    _, gcrit = ck.critical_metric(model, grid)
    e0 = va.energy(gcrit)
    hc = va.random_tangent(gcrit, np.random.default_rng(19), 0.1, model=model)
    crit_val = abs(va.first_variation(gcrit, hc))
    assert crit_val < 1e-6 * e0
    report(7, "first variation vs centered FD", worst, 1e-3,
           f"(at critical: {crit_val / e0:.1e} * E)")


# -- 8. closed-form torsion of the 3-parameter deformation --------------------------------------


def test_criterion_08_closed_form_torsion(fiber_chart):
    # t-only deformations: the anisotropic (8, 256) chart puts the whole
    # stencil error budget on the fiber axis the fields vary along
    mu = fiber_chart.mu
    worst_cf = worst_fe = 0.0
    for seed in range(20):
        d = va.random_deformation(fiber_chart.grid, seed=seed, amplitude=0.3)
        rep = va.torsion_report(va.deform(fiber_chart, d))
        cf, fe = torsion_closed_forms(d, mu, fiber_chart.structure)
        worst_cf = max(worst_cf, sup(cf - rep.torsion_field))
        worst_fe = max(worst_fe, sup(fe - rep.torsion_field))
    assert worst_cf < 1e-4 * mu ** 2
    assert worst_fe < 1e-4 * mu ** 2
    report(8, "closed-form torsion / mu^2", worst_cf / mu ** 2, 1e-4,
           f"(intermediate expansion: {worst_fe / mu ** 2:.1e})")


# -- 9. energy-gap identity and minimality ------------------------------------------------------


def test_criterion_09_energy_gap_and_minimizer(fiber_chart):
    mu = fiber_chart.mu
    structure = fiber_chart.structure
    e0 = va.energy(fiber_chart.metric)
    min_gap, worst = np.inf, 0.0
    for seed in range(20):
        d = va.random_deformation(fiber_chart.grid, seed=seed, amplitude=0.3)
        rep = va.energy_gap(d, mu, structure)
        direct = va.energy_gap_direct(fiber_chart, d)
        min_gap = min(min_gap, rep.gap)
        worst = max(worst, abs(rep.gap - direct))
    assert min_gap >= -1e-10
    assert worst < 1e-6 * e0

    d0 = va.random_deformation(fiber_chart.grid, seed=100, amplitude=0.3)
    res = va.minimize_energy(d0, mu, structure, steps=2500)
    reduction = res.gap_history[0] / max(res.gap_history[-1], 1e-300)
    assert reduction > 1e4
    assert res.final_sup_r < 1e-3
    assert res.final_sup_ru < 1e-3
    report(9, "gap identity / E", worst / e0, 1e-6,
           f"(min gap {min_gap:.2e} >= 0, optimizer x{reduction:.1e}, "
           f"sup|r| {res.final_sup_r:.1e}, sup|R(u)| {res.final_sup_ru:.1e})")


# -- 10. Betti numbers ---------------------------------------------------------------------------


def test_criterion_10_betti():
    assert tp.betti_numbers_mapping_torus([[2, 1], [1, 1]]) == (1, 1, 1, 1)
    assert tp.betti_numbers_mapping_torus([[1, 1], [0, 1]])[1] == 2
    print("[PASS] criterion 10 betti: cat map (1,1,1,1); parabolic b1 = 2 (exact)")


# -- 11. Sol <-> mapping-torus equivalence -------------------------------------------------------


def test_criterion_11_sol_equivalence(model, grid32):
    mp = ck.sol_to_mapping_torus(model)
    res = mp.pullback_residuals(grid32)
    worst = max(res.values())
    assert worst < 1e-8
    # the working relation is tau = mu_sol * log(lambda) (matching
    # torsions 8/mu^2 = 8 (log lam / tau)^2); the reciprocal reading
    # tau = mu / log(lambda) leaves an O(1) mismatch, recorded here
    assert model.tau == pytest.approx(mp.sol.mu * mp.k)
    from coskit.models import SolMappingTorusMap, SolModel
    wrong = SolMappingTorusMap(model, SolModel(model.tau * mp.k), mp.chart_change)
    assert wrong.pullback_residuals(grid32)["g"] > 1e-2
    report(11, "sol pullback residuals", worst, 1e-8,
           f"(mu_sol = tau/log(lam) = {mp.sol.mu:.6f})")


# -- 12. compatibility certification -------------------------------------------------------------


def test_criterion_12_certification(crit32, flat16, model, fiber_chart):
    charts = {"critical": crit32[1], "flat": flat16[1]}
    charts["contact"] = ck.contact_t3_testbed(1, Grid(32, 32))[1]
    charts["sol"] = ck.sol_model(1.0, ck.sol_box_grid(8, 48))[1]
    structure, gcrit = crit32
    from tests.test_cosymplectic import noisy_seed
    seed, _ = noisy_seed(structure, model, 0.1, seed=12)
    charts["polar"] = polar_compatible_metric(structure, seed)
    charts["deformed"] = va.deform(
        fiber_chart, va.random_deformation(fiber_chart.grid, seed=3, amplitude=0.3))
    worst_name, worst = None, 0.0
    for name, metric in charts.items():
        val = metric.max_residual(ALGEBRAIC_CERT_KEYS)
        assert val < 1e-8, (name, metric.certificate)
        # derived property: geodesic Reeb orbits, nabla_R R = 0
        nr = covariant_reference(metric.structure.reeb, christoffel(metric.g, metric.ginv),
                                 metric.structure.reeb)
        h4 = 10.0 * metric.grid.spacing[0] ** 4
        assert sup(nr) < max(h4, 1e-8), name
        if val > worst:
            worst_name, worst = name, val
    report(12, "certification residuals", worst, 1e-8,
           f"(worst chart: {worst_name}; all of {sorted(charts)})")
