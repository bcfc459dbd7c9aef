import numpy as np
import pytest

import coskit as ck
from coskit.cosymplectic import ALGEBRAIC_CERT_KEYS
from coskit.grids import Grid, _torus_permutation
from coskit.models import NotHyperbolicError, NotSymplecticError, \
    build_hyperbolic_model, critical_metric, sol_to_mapping_torus
from coskit import variational as va
from coskit import dynamics as dy


def sup(a):
    return float(np.max(np.abs(a)))


# -- model construction ----------------------------------------------------------


def test_eigenvalue_from_characteristic_polynomial():
    m = build_hyperbolic_model([[2, 1], [1, 1]])
    assert m.lam == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, rel=1e-15)
    assert np.max(np.abs(np.asarray(m.matrix, float) @ m.w_plus - m.lam * m.w_plus)) < 1e-13
    assert np.max(np.abs(np.asarray(m.matrix, float) @ m.w_minus - m.w_minus / m.lam)) < 1e-13


def test_parabolic_rejected():
    with pytest.raises(NotHyperbolicError):
        build_hyperbolic_model([[1, 1], [0, 1]])
    with pytest.raises(NotHyperbolicError):
        build_hyperbolic_model([[0, -1], [1, 0]])     # elliptic, |trace| = 0


def test_determinant_rejected():
    with pytest.raises(NotSymplecticError):
        build_hyperbolic_model([[3, 1], [1, 1]])      # det 2
    with pytest.raises(NotSymplecticError):
        build_hyperbolic_model([[2, 1], [1, 0]])      # det -1


@pytest.mark.parametrize("tau, area", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                       (1.0, np.inf), (-1.0, 1.0), (1.0, 0.0)])
def test_non_positive_or_non_finite_scales_rejected(tau, area):
    with pytest.raises(ValueError, match="tau and V must be positive and finite"):
        build_hyperbolic_model([[2, 1], [1, 1]], tau, area)


def test_eigenvector_normalization():
    for mat, v in (([[2, 1], [1, 1]], 1.0), ([[3, 2], [1, 1]], 2.5)):
        m = build_hyperbolic_model(mat, area=v)
        pairing = m.area * (m.w_plus[0] * m.w_minus[1] - m.w_plus[1] * m.w_minus[0])
        assert pairing == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(m.w_plus) == pytest.approx(1.0)
        nz = np.nonzero(np.abs(m.w_plus) > 1e-13)[0][0]
        assert m.w_plus[nz] > 0


def test_negative_trace_model_builds():
    m = build_hyperbolic_model([[-2, -1], [-1, -1]])
    assert m.lam < -1.0
    grid = Grid(16, 16, m.matrix)
    _, metric = critical_metric(m, grid)
    assert metric.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-10


# -- critical metric --------------------------------------------------------------


def test_monodromy_mismatch_rejected(model):
    with pytest.raises(ValueError):
        critical_metric(model, Grid(16, 16))


def test_torsion_and_energy(crit32, model):
    _, metric = crit32
    rep = va.torsion_report(metric)
    expected_torsion = 8.0 * (model.log_lambda / model.tau) ** 2
    assert sup(rep.torsion_field - expected_torsion) < 1e-5 * expected_torsion
    expected_energy = 8.0 * model.area * model.log_lambda ** 2 / model.tau
    assert abs(rep.energy - expected_energy) < 1e-6 * expected_energy


def test_seam_identity_exact(model, grid32):
    # F* g = g: transporting the metric once around the fiber loop
    # reproduces it exactly (exponential algebra, no stencils)
    _, metric = critical_metric(model, grid32)
    a = grid32.gluing_jacobian
    g0 = model.metric_matrix(0.0)
    g1 = model.metric_matrix(1.0)
    assert sup(a.T @ g0 @ a - g1) < 1e-12
    pi, pj = _torus_permutation(grid32.n_torus, grid32.monodromy)
    fetched = np.einsum("ai,xyab,bj->xyij", a, metric.g.data[0][pi, pj], a)
    analytic_row = model.metric_matrix(1.0)
    assert sup(fetched - analytic_row) < 1e-12


def test_rescaled_eigenvectors_is_time_translation(model, grid32):
    # the (c w+, w-/c) freedom is a pure t-translation of the metric, by
    # log(c) / log(lam): absorbing c^{-2} lam^{2t} forces lam^{2 delta} = c^2
    c = 1.7
    delta = np.log(c) / model.log_lambda
    t = np.linspace(0.0, 1.0, 13)
    g_scaled = model.metric_matrix(t, scale=c)
    g_shifted = model.metric_matrix(t - delta)
    assert sup(g_scaled - g_shifted) < 1e-12
    # half that translation (a nearby candidate factor) does not absorb it
    assert sup(g_scaled - model.metric_matrix(t - delta / 2.0)) > 0.1


def test_suspension_structure_flavor_residuals(crit32):
    structure, _ = crit32
    res = structure.residuals()
    assert res["alpha_of_reeb"] < 1e-14
    assert res["reeb_in_kernel_of_beta"] < 1e-14
    assert res["d_alpha"] < 1e-13
    assert res["d_beta"] < 1e-13


# -- Sol model ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def sol48():
    grid = ck.sol_box_grid(8, 48)
    return ck.sol_model(1.3, grid)


def test_sol_bracket_relations(sol48):
    structure, _ = sol48
    res = dy.sol_bracket_residuals(structure.grid)
    for v in res.values():
        assert v < 1e-5


def test_sol_certifies(sol48):
    _, metric = sol48
    assert metric.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-10


def test_sol_phi_matches_closed_form(sol48):
    structure, metric = sol48
    grid = structure.grid
    t = np.broadcast_to(grid.t, grid.shape)
    phi = np.zeros(grid.shape + (3, 3))
    phi[..., 1, 2] = np.exp(2.0 * t)
    phi[..., 2, 1] = -np.exp(-2.0 * t)
    assert sup(metric.phi.data - phi) < 1e-12


def test_sol_critical_by_local_frame(sol48):
    # nabla_R h = 0 within stencil tolerance: the local-frame criterion
    _, metric = sol48
    assert va.nabla_r_h_residual(metric) < 1e-4


def test_sol_torsion_is_8_over_mu_squared(sol48):
    # the Sol chart with parameter mu has |L_R g|^2 = 8 / mu^2: its
    # h-eigenvalue is 1/mu (reciprocal of the chart parameter)
    structure, metric = sol48
    from coskit.tensors import lie_derivative, tensor_norm2
    lg = lie_derivative(metric.g, structure.reeb)
    torsion = tensor_norm2(lg.data, "dd", metric.g.data)
    assert sup(torsion - 8.0 / 1.3 ** 2) < 1e-5


def test_sol_rejects_zero_mu_and_closed_grid(model):
    with pytest.raises(ValueError):
        ck.sol_model(0.0, ck.sol_box_grid(8, 16))
    with pytest.raises(ValueError):
        ck.sol_model(1.0, Grid(8, 16))


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
def test_sol_rejects_non_finite_mu(mu):
    with pytest.raises(ValueError, match="mu must be nonzero and finite"):
        ck.sol_model(mu, ck.sol_box_grid(8, 16))


# -- flat co-Kaehler -----------------------------------------------------------------


def test_flat_cokahler_zero_energy(flat16):
    _, metric = flat16
    rep = va.torsion_report(metric)
    assert rep.energy == 0.0
    assert sup(rep.torsion_field) == 0.0


def test_flat_cokahler_nijenhuis_zero(flat16):
    from coskit.tensors import nijenhuis
    _, metric = flat16
    assert sup(nijenhuis(metric.phi).data) == 0.0


def test_flat_cokahler_euler_lagrange_zero(flat16):
    _, metric = flat16
    assert sup(va.euler_lagrange_residual(metric).data) == 0.0


# -- contact testbed ------------------------------------------------------------------


@pytest.fixture(scope="module")
def contact32():
    return ck.contact_t3_testbed(1, Grid(32, 32))


def test_contact_r_invariance(contact32):
    structure, _ = contact32
    res = structure.residuals()
    assert res["lie_reeb_alpha"] < 1e-12
    assert res["lie_reeb_beta"] < 1e-12


def test_contact_iota_r_dalpha(contact32):
    from coskit.tensors import exterior_derivative
    structure, _ = contact32
    dalpha = exterior_derivative(structure.alpha)
    ir = np.einsum("...ij,...i->...j", dalpha.data, structure.reeb.data)
    assert sup(ir) < 1e-10


def test_contact_dalpha_plus_nonzero(contact32):
    from coskit.cosymplectic import d_alpha_plus
    _, metric = contact32
    assert sup(d_alpha_plus(metric).data) > 1.0


def test_contact_certifies_with_r_invariant_condition(contact32):
    _, metric = contact32
    assert metric.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-12
    assert metric.certificate["d_alpha_phi_antisymmetry"] < 1e-12


def test_contact_rejects_bad_input():
    with pytest.raises(ValueError):
        ck.contact_t3_testbed(0, Grid(16, 16))
    m = build_hyperbolic_model([[2, 1], [1, 1]])
    with pytest.raises(ValueError):
        ck.contact_t3_testbed(1, Grid(16, 16, m.matrix))


# -- Sol <-> mapping torus equivalence --------------------------------------------------


def test_sol_mapping_torus_pullback(model, grid32):
    mp = sol_to_mapping_torus(model)
    res = mp.pullback_residuals(grid32)
    assert max(res.values()) < 1e-8
    # tau = mu_sol * k: matching the torsions forces this relation
    assert model.tau == pytest.approx(mp.sol.mu * mp.k, rel=1e-14)


def test_sol_mapping_torus_roundtrip(model):
    mp = sol_to_mapping_torus(model)
    pts = np.random.default_rng(0).random((20, 3))
    assert mp.roundtrip_residual(pts) < 1e-12


def test_sol_mapping_torus_reciprocal_relation_fails(model, grid32):
    # using mu = tau * k (the reciprocal relation) leaves an O(1) metric
    # mismatch: the pullback residual detects the wrong parameter
    from coskit.models import SolMappingTorusMap, SolModel
    mp = sol_to_mapping_torus(model)
    wrong = SolMappingTorusMap(model, SolModel(model.tau * mp.k), mp.chart_change)
    res = wrong.pullback_residuals(grid32)
    assert res["g"] > 1e-2


def test_sol_map_out_of_scope_for_negative_lambda():
    m = build_hyperbolic_model([[-2, -1], [-1, -1]])
    with pytest.raises(ValueError):
        sol_to_mapping_torus(m)


# -- frame tags ---------------------------------------------------------------------------


def test_change_frame_diagonalizes_critical_metric(model, crit32):
    from coskit.models import change_frame
    structure, metric = crit32
    grid = metric.grid
    g_eig = change_frame(metric.g, model, "eigenframe")
    assert g_eig.frame == "eigenframe"
    t = np.broadcast_to(grid.t, grid.shape)
    lam2t = np.abs(model.lam) ** (2 * t)
    expected = np.zeros(grid.shape + (3, 3))
    expected[..., 0, 0] = model.tau ** 2
    expected[..., 1, 1] = lam2t
    expected[..., 2, 2] = 1.0 / lam2t
    assert sup(g_eig.data - expected) < 1e-12
    back = change_frame(g_eig, model, "coordinate")
    assert sup(back.data - metric.g.data) < 1e-12
    # the Reeb field has no torus components: unchanged by the basis change
    r_eig = change_frame(structure.reeb, model, "eigenframe")
    assert sup(r_eig.data - structure.reeb.data) == 0.0


# -- the three mu computations -----------------------------------------------------------


def test_mu_three_ways(crit32, model):
    _, metric = crit32
    rep = va.torsion_report(metric)
    mu_torsion = rep.mu
    mu_eigen = dy.anosov_splitting(metric).mu
    mu_exact = model.mu
    assert abs(mu_torsion - mu_exact) < 1e-6
    assert abs(mu_eigen - mu_exact) < 1e-6
    assert abs(mu_torsion - mu_eigen) < 1e-6
