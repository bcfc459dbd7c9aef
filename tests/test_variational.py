import numpy as np
import pytest

import coskit as ck
from coskit.cosymplectic import ALGEBRAIC_CERT_KEYS, polar_compatible_metric
from coskit.grids import Grid, _torus_permutation, partial_derivative
from coskit.tensors import TensorField, symmetric_eigen
from coskit import variational as va


def sup(a):
    return float(np.max(np.abs(a)))


# -- torsion report ------------------------------------------------------------


def test_torsion_report_critical(crit32, model):
    _, metric = crit32
    rep = va.torsion_report(metric)
    expected = 8.0 * model.area * model.log_lambda ** 2 / model.tau
    assert abs(rep.energy - expected) / expected < 1e-6
    assert rep.constancy < 1e-12
    assert np.all(rep.torsion_field >= 0.0)
    assert rep.first_integral_residual < 1e-10
    assert abs(rep.mu - model.mu) < 1e-6


def test_torsion_report_flat(flat16):
    _, metric = flat16
    rep = va.torsion_report(metric)
    assert rep.energy == 0.0
    assert sup(rep.torsion_field) == 0.0


def test_torsion_report_polar_not_below_critical(crit32, model):
    from tests.test_cosymplectic import noisy_seed
    structure, metric = crit32
    seed, gcrit = noisy_seed(structure, model, 0.1, seed=3)
    out = polar_compatible_metric(structure, seed)
    assert va.energy(out) >= va.energy(gcrit) - 1e-10


# -- Euler-Lagrange residual -----------------------------------------------------


def test_el_residual_critical_below_tolerance(crit32, crit64, model):
    mu2 = model.mu ** 2
    s32 = va.euler_lagrange_supnorm(crit32[1])
    s64 = va.euler_lagrange_supnorm(crit64[1])
    assert s32 < 1e-4 * mu2
    # exact exponential assembly cancels the stencil error identically,
    # so both residuals sit at the roundoff floor rather than decaying
    # at a measurable 4th order
    assert s64 < max(s32 / 8.0, 1e-10 * mu2)


def test_el_residual_flat_exact_zero(flat16):
    assert sup(va.euler_lagrange_residual(flat16[1]).data) == 0.0


def test_el_residual_noncritical_stable_positive(model):
    # a genuinely non-critical compatible metric has an EL residual that
    # converges to a positive limit, not to zero
    sups = []
    for n in (24, 48):
        grid = Grid(n, n, model.matrix)
        chart = va.deformation_chart(model, grid)
        gt = va.deform(chart, va.random_deformation(grid, seed=4, amplitude=0.3))
        sups.append(va.euler_lagrange_supnorm(gt))
    assert sups[0] > 0.05
    assert abs(sups[0] - sups[1]) < 0.25 * sups[1]


def test_nabla_r_h_critical_and_flat(crit32, flat16, model):
    assert va.nabla_r_h_residual(crit32[1]) < 1e-4 * model.mu
    assert va.nabla_r_h_residual(flat16[1]) == 0.0


def test_el_vs_nabla_r_h_ratio(model):
    # (nabla_R L_R g)(X, Y) = 2 g(X, (nabla_R h)(phi Y)): the two
    # criticality diagnostics vanish together, sup-norm ratio near 2
    for seed in (1, 5):
        grid = Grid(24, 24, model.matrix)
        chart = va.deformation_chart(model, grid)
        gt = va.deform(chart, va.random_deformation(grid, seed=seed, amplitude=0.3))
        el = va.euler_lagrange_supnorm(gt)
        nh = va.nabla_r_h_residual(gt)
        assert 0.25 < el / nh < 4.0


# -- tangent space -----------------------------------------------------------------


def test_tangent_project_idempotent(crit32, model):
    _, metric = crit32
    rng = np.random.default_rng(2)
    h = va.random_tangent(metric, rng, 0.2, model=model)
    h2 = va.tangent_project(h, metric)
    assert sup(h2.data - h.data) < 1e-12


def test_tangent_project_kills_reeb_direction(crit32):
    structure, metric = crit32
    alpha = structure.alpha.data
    h_raw = TensorField(metric.grid, np.einsum("...i,...j->...ij", alpha, alpha), "dd")
    assert sup(va.tangent_project(h_raw, metric).data) < 1e-13


def test_tangent_project_random_satisfies_invariants(crit32):
    _, metric = crit32
    rng = np.random.default_rng(3)
    h_raw = TensorField(metric.grid, rng.standard_normal(metric.grid.shape + (3, 3)), "dd")
    h = va.tangent_project(h_raw, metric)
    res = va.tangent_residuals(h, metric)
    assert res["iota_reeb"] < 1e-10
    assert res["phi_symmetry"] < 1e-10


# -- exponential curves --------------------------------------------------------------


def test_exponential_curve_at_zero(crit32, model):
    _, metric = crit32
    rng = np.random.default_rng(4)
    h = va.random_tangent(metric, rng, 0.2, model=model)
    g0 = va.exponential_curve(metric, h, 0.0)
    assert sup(g0.g.data - metric.g.data) < 1e-14


def test_exponential_curve_derivative_is_h(crit32, model):
    _, metric = crit32
    rng = np.random.default_rng(5)
    h = va.random_tangent(metric, rng, 0.2, model=model)
    errs = []
    for s in (1e-2, 5e-3):
        dg = (va.exponential_curve(metric, h, s).g.data
              - va.exponential_curve(metric, h, -s).g.data) / (2 * s)
        errs.append(sup(dg - h.data))
    assert errs[1] < 1e-4
    assert errs[0] / errs[1] > 3.0    # O(s^2)


def test_exponential_curve_certifies_at_half(crit32, model):
    _, metric = crit32
    rng = np.random.default_rng(6)
    h = va.random_tangent(metric, rng, 0.3, model=model)
    out = va.exponential_curve(metric, h, 0.5)
    assert out.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-10


def test_exponential_curve_overflow_guard(crit32, model):
    _, metric = crit32
    rng = np.random.default_rng(7)
    h = va.random_tangent(metric, rng, 1.0, model=model)
    with pytest.raises(OverflowError):
        va.exponential_curve(metric, h, 1e4)


# -- first variation -----------------------------------------------------------------


def test_first_variation_zero_at_critical(crit32, model):
    _, metric = crit32
    rng = np.random.default_rng(8)
    e0 = va.energy(metric)
    for _ in range(3):
        h = va.random_tangent(metric, rng, 0.2, model=model)
        assert abs(va.first_variation(metric, h)) < 1e-6 * e0


def test_first_variation_negative_along_residual(model):
    grid = Grid(24, 24, model.matrix)
    chart = va.deformation_chart(model, grid)
    gt = va.deform(chart, va.random_deformation(grid, seed=9, amplitude=0.3))
    el_dir = va.tangent_project(va.euler_lagrange_residual(gt), gt)
    assert va.first_variation(gt, el_dir) < 0.0


@pytest.mark.parametrize("chart_kind", ["cosymplectic", "contact"])
def test_first_variation_matches_centered_differences(chart_kind, model):
    if chart_kind == "cosymplectic":
        grid = Grid(32, 32, model.matrix)
        chart = va.deformation_chart(model, grid)
        base = va.deform(chart, va.random_deformation(grid, seed=5, amplitude=0.25))
        mdl = model
    else:
        grid = Grid(32, 32)
        _, cm0 = ck.contact_t3_testbed(1, grid)
        rng0 = np.random.default_rng(11)
        base = va.exponential_curve(cm0, va.random_tangent(cm0, rng0, 0.3), 1.0)
        mdl = None
    rng = np.random.default_rng(13)
    step = 2e-3
    for _ in range(5):
        h = va.random_tangent(base, rng, 0.1, model=mdl)
        fv = va.first_variation(base, h)
        fd = (va.energy(va.exponential_curve(base, h, step))
              - va.energy(va.exponential_curve(base, h, -step))) / (2 * step)
        assert abs(fv - fd) / (abs(fd) + 1e-30) < 1e-3


# -- closed-form kernels against test-local references ------------------------------
# the summation order differs from the references, so agreement is to
# roundoff, not bit for bit


@pytest.fixture(scope="module")
def curve_bases(model):
    grid = Grid(16, 16, model.matrix)
    chart = va.deformation_chart(model, grid)
    hyper = va.deform(chart, va.random_deformation(grid, seed=5, amplitude=0.25))
    rng = np.random.default_rng(17)
    _, contact0 = ck.contact_t3_testbed(1, Grid(16, 16))   # critical: moved off it
    contact = va.exponential_curve(contact0, va.random_tangent(contact0, rng, 0.3), 1.0)
    return [(hyper, va.random_tangent(hyper, rng, 0.1, model=model)),
            (contact, va.random_tangent(contact, rng, 0.1))]


def two_eigh_exponential(metric, h, s):
    """g0 e^{s g0^{-1} H} through g0^{1/2}, g0^{-1/2} and a second eigh."""
    g = metric.g.data
    w, v = np.linalg.eigh(g)
    gsq = np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(w), v)
    gisq = np.einsum("...ij,...j,...kj->...ik", v, 1.0 / np.sqrt(w), v)
    hplus = np.einsum("...ik,...kj->...ij", np.linalg.inv(g), h.data)
    b = gsq @ hplus @ gisq
    w, v = np.linalg.eigh(0.5 * (b + np.swapaxes(b, -1, -2)))
    exp_b = np.einsum("...ij,...j,...kj->...ik", v, np.exp(s * w), v)
    g_s = np.einsum("...ik,...kj->...ij", g, gisq @ exp_b @ gsq)
    return 0.5 * (g_s + np.swapaxes(g_s, -1, -2))


@pytest.mark.parametrize("s", [2e-3, -2e-3, 0.5, 1.0])
def test_exponential_curve_matches_two_eigh_reference(curve_bases, s):
    for metric, h in curve_bases:
        ref = two_eigh_exponential(metric, h, s)
        assert sup(va.exponential_curve(metric, h, s).g.data - ref) <= 1e-13 * sup(ref)


def test_first_variation_pairing_matches_einsum(curve_bases):
    for metric, h in curve_bases:
        el = va.euler_lagrange_residual(metric).data
        ginv = np.linalg.inv(metric.g.data)
        ref = -2.0 * metric.structure.integrate(
            np.einsum("...ia,...jb,...ij,...ab->...", ginv, ginv, el, h.data))
        assert abs(va.first_variation(metric, h) - ref) <= 1e-13 * abs(ref)


# -- the coframe deformation ------------------------------------------------------------


def test_deform_zero_is_identity(chart32):
    d0 = va.Deformation.zero(chart32.grid)
    gt = va.deform(chart32, d0)
    assert sup(gt.g.data - chart32.metric.g.data) < 1e-13


def test_deform_certifies_random(chart32):
    for seed in range(3):
        d = va.random_deformation(chart32.grid, seed=seed, amplitude=0.3)
        gt = va.deform(chart32, d)
        assert gt.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-10


def test_deform_constraint_built_in(chart32):
    d = va.random_deformation(chart32.grid, seed=1, amplitude=0.3)
    assert sup(d.p * d.q - d.r ** 2 - 1.0) < 1e-14
    assert np.all(d.p > 0)


def test_lie_matrix_q_form_matches_not_p_form(fiber_chart):
    # the direct Lie derivative fixes the lower-right entry to
    # R(q) - 2 mu q; the R(q) - 2 mu p variant is off by O(1)
    d = va.random_deformation(fiber_chart.grid, seed=2, amplitude=0.3)
    chk = va.lie_matrix_frame_check(fiber_chart, d)
    assert chk["q_form"] < 1e-4
    assert chk["p_form"] > 0.1


def test_deformed_h_eigenstructure(fiber_chart):
    # h of a deformed compatible metric keeps eigenvalues (0, mu, -mu)
    # with mu = 2^{-3/2} |L_R g| pointwise
    d = va.random_deformation(fiber_chart.grid, seed=6, amplitude=0.3)
    gt = va.deform(fiber_chart, d)
    rep = va.torsion_report(gt)
    w, _, _ = symmetric_eigen(rep.h, gt.g.data)
    assert sup(w[..., 0] - rep.mu_field) < 1e-5
    assert sup(w[..., 1]) < 1e-5
    assert sup(w[..., 2] + rep.mu_field) < 1e-5


def test_torsion_closed_form_and_first_expansion(fiber_chart):
    mu = fiber_chart.mu
    for seed in range(5):
        d = va.random_deformation(fiber_chart.grid, seed=seed, amplitude=0.3)
        rep = va.torsion_report(va.deform(fiber_chart, d))
        cf = va.torsion_closed_form(d, mu, fiber_chart.structure)
        fe = va.torsion_first_expansion(d, mu, fiber_chart.structure)
        assert sup(cf - rep.torsion_field) < 1e-4 * mu ** 2
        assert sup(fe - rep.torsion_field) < 1e-4 * mu ** 2


def test_torsion_closed_form_zero_deformation(fiber_chart):
    d0 = va.Deformation.zero(fiber_chart.grid)
    cf = va.torsion_closed_form(d0, fiber_chart.mu, fiber_chart.structure)
    assert sup(cf - 8.0 * fiber_chart.mu ** 2) < 1e-13


# -- energy gap ---------------------------------------------------------------------------


def test_energy_gap_zero_deformation(fiber_chart):
    rep = va.energy_gap(va.Deformation.zero(fiber_chart.grid),
                        fiber_chart.mu, fiber_chart.structure)
    assert rep.gap == 0.0
    assert rep.divergence_residual == 0.0


def test_energy_gap_identity(fiber_chart):
    e0 = va.energy(fiber_chart.metric)
    for seed in range(5):
        d = va.random_deformation(fiber_chart.grid, seed=seed, amplitude=0.3)
        rep = va.energy_gap(d, fiber_chart.mu, fiber_chart.structure)
        direct = va.energy_gap_direct(fiber_chart, d)
        assert rep.gap > 0.0
        assert abs(rep.gap - direct) < 1e-6 * e0
        assert abs(rep.divergence_residual) < 1e-12


def test_energy_gap_flow_invariant_u_is_zero(model):
    # r = 0 and u constant along the flow (an L-invariant torus function)
    # is the minimizing family: the gap vanishes identically
    grid = Grid(16, 64, model.matrix)
    chart = va.deformation_chart(model, grid)
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((grid.n_torus, grid.n_torus))
    # exact average over the monodromy orbit of each grid point
    pi, pj = _torus_permutation(grid.n_torus, grid.monodromy)
    ii, jj = np.meshgrid(np.arange(grid.n_torus), np.arange(grid.n_torus), indexing="ij")
    ci, cj = ii, jj
    inv = np.zeros_like(raw)
    order = 0
    while True:
        inv += raw[ci, cj]
        order += 1
        ci, cj = pi[ci, cj], pj[ci, cj]
        if np.array_equal(ci, ii) and np.array_equal(cj, jj):
            break
    inv /= order
    assert sup(inv - inv[pi, pj]) < 1e-12
    u = 0.3 * np.broadcast_to(inv, grid.shape).copy() / max(1e-9, np.max(np.abs(inv)))
    d = va.Deformation(grid, u, np.zeros(grid.shape))
    rep = va.energy_gap(d, chart.mu, chart.structure)
    assert abs(rep.gap) < 1e-20
    gt = va.deform(chart, d)
    assert gt.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-10
    assert abs(va.energy_gap_direct(chart, d)) < 1e-9


# -- minimizer ---------------------------------------------------------------------------


def test_minimize_from_zero_terminates_immediately(fiber_chart):
    res = va.minimize_energy(va.Deformation.zero(fiber_chart.grid),
                             fiber_chart.mu, fiber_chart.structure, steps=50)
    assert res.converged
    assert res.gap_history[-1] == 0.0


def test_minimize_random_start(fiber_chart):
    d0 = va.random_deformation(fiber_chart.grid, seed=11, amplitude=0.3)
    res = va.minimize_energy(d0, fiber_chart.mu, fiber_chart.structure, steps=2000)
    assert res.gap_history[0] / max(res.gap_history[-1], 1e-300) > 1e4
    assert res.final_sup_r < 1e-3
    assert res.final_sup_ru < 1e-3
    assert all(b <= a * (1 + 1e-12) for a, b in zip(res.gap_history, res.gap_history[1:]))


def test_minimize_two_starts_reach_global_floor(fiber_chart):
    finals = []
    for seed in (21, 22):
        d0 = va.random_deformation(fiber_chart.grid, seed=seed, amplitude=0.3)
        res = va.minimize_energy(d0, fiber_chart.mu, fiber_chart.structure, steps=2500)
        finals.append(res.gap_history[-1])
    assert max(finals) < 1e-6


# The optimizer before its objective was fused: u and r as separate arrays,
# four reeb_derivative calls and a gradient for every trial.  The fused
# optimizer must reproduce it bit for bit.

def _reference_gap_and_gradient(u, r, mu, structure, weight):
    ru = va.reeb_derivative(u, structure)
    rr = va.reeb_derivative(r, structure)
    a = 2.0 * mu * r + r * ru - rr
    gap = float(np.sum(2.0 * a ** 2 + 2.0 * ru ** 2) * weight)
    grad_u = -weight * va.reeb_derivative(4.0 * a * r + 4.0 * ru, structure)
    grad_r = weight * (4.0 * a * (2.0 * mu + ru) + va.reeb_derivative(4.0 * a, structure))
    return gap, grad_u, grad_r


def _reference_minimize(initial, mu, structure, steps, tolerance=0.0, step0=1e-2):
    grid = structure.grid
    dens = structure.volume_density
    ht, hx, hy = grid.spacing
    weight = abs(float(dens.flat[0])) * ht * hx * hy
    u, r = initial.u.copy(), initial.r.copy()
    gap, gu, gr = _reference_gap_and_gradient(u, r, mu, structure, weight)
    history = [gap]
    step = step0
    prev = None
    converged = False
    n_done = 0
    for n in range(steps):
        if prev is not None:
            du, dr = u - prev[0], r - prev[1]
            dgu, dgr = gu - prev[2], gr - prev[3]
            denom = float(np.sum(du * dgu) + np.sum(dr * dgr))
            if denom > 0:
                step = float((np.sum(du * du) + np.sum(dr * dr)) / denom)
        gnorm2 = float(np.sum(gu * gu) + np.sum(gr * gr))
        if gnorm2 == 0.0:
            converged = True
            break
        trial = step
        for _ in range(60):
            u_t, r_t = u - trial * gu, r - trial * gr
            gap_t, gu_t, gr_t = _reference_gap_and_gradient(u_t, r_t, mu, structure, weight)
            if gap_t <= gap - 1e-4 * trial * gnorm2:
                break
            trial *= 0.5
        else:
            converged = True
            break
        if gap - gap_t <= tolerance * max(gap, 1e-300):
            u, r, gap = u_t, r_t, gap_t
            history.append(gap)
            n_done = n + 1
            converged = True
            break
        prev = (u, r, gu, gr)
        u, r, gap, gu, gr = u_t, r_t, gap_t, gu_t, gr_t
        history.append(gap)
        n_done = n + 1
    return history, u, r, n_done, converged


@pytest.mark.parametrize("mat, seed, steps, tolerance", [
    ([[2, 1], [1, 1]], 31, 150, 0.0),
    ([[-2, 1], [1, -1]], 32, 150, 0.0),
    ([[3, 1], [2, 1]], 33, 150, 0.0),
    ([[2, 1], [1, 1]], 34, 400, 1e-2),
], ids=["L0", "L1", "L2", "L0-tolerance"])
def test_minimize_bit_identical_to_unfused_reference(mat, seed, steps, tolerance):
    model = ck.build_hyperbolic_model(mat, tau=0.7, area=2.0)
    grid = Grid(8, 256, model.matrix)
    structure = ck.suspension_structure(model, grid)
    d0 = va.random_deformation(grid, seed, amplitude=0.3)
    res = va.minimize_energy(d0, model.mu, structure, steps=steps, tolerance=tolerance)
    history, u, r, n_done, converged = _reference_minimize(d0, model.mu, structure, steps,
                                                           tolerance)
    assert res.gap_history == history
    assert np.array_equal(res.deformation.u, u)
    assert np.array_equal(res.deformation.r, r)
    assert res.steps_taken == n_done
    assert res.converged == converged
    assert res.final_sup_r == sup(r)
    assert res.final_sup_ru == sup(va.reeb_derivative(u, structure))
    if tolerance > 0.0:
        assert converged and n_done < steps   # the tolerance stopped this run


def test_reeb_derivative_follows_rotating_reeb_field():
    # the contact testbed's R = cos(2 pi n t) d_x + sin(2 pi n t) d_y has non-constant components
    grid = Grid(16, 16)
    structure, _ = ck.contact_t3_testbed(2, grid)
    f = np.random.default_rng(4).standard_normal(grid.shape)
    r = structure.reeb.data
    expected = (r[..., 1] * partial_derivative(f, "", grid, 1)
                + r[..., 2] * partial_derivative(f, "", grid, 2))
    assert np.array_equal(va.reeb_derivative(f, structure), expected)


def test_minimize_rejects_non_constant_reeb_field():
    # the contact testbed's alpha ^ beta density is constant, its Reeb field is not
    structure, _ = ck.contact_t3_testbed(1, Grid(16, 16))
    with pytest.raises(ValueError, match="Reeb field with constant components"):
        va.minimize_energy(va.Deformation.zero(structure.grid), 1.0, structure, steps=5)


def test_minimize_rejects_deformation_on_another_grid(fiber_chart):
    other = Grid(8, 256, [[3, 1], [2, 1]])   # same shape, another gluing
    d0 = va.random_deformation(other, seed=1, amplitude=0.3)
    with pytest.raises(ValueError, match="different grid"):
        va.minimize_energy(d0, fiber_chart.mu, fiber_chart.structure, steps=5)


def test_minimize_records_telemetry_per_accepted_step(fiber_chart):
    d0 = va.random_deformation(fiber_chart.grid, seed=12, amplitude=0.3)
    res = va.minimize_energy(d0, fiber_chart.mu, fiber_chart.structure, steps=60)
    assert res.steps_taken == 60
    assert len(res.step_sizes) == len(res.backtracks) == len(res.grad_norm2) == 60
    assert all(s > 0.0 for s in res.step_sizes)
    assert all(isinstance(b, int) and 0 <= b < 60 for b in res.backtracks)
    assert any(b > 0 for b in res.backtracks)
    assert all(g > 0.0 for g in res.grad_norm2)
