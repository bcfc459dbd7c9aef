import numpy as np
import pytest

import coskit as ck
from coskit import cosymplectic, tensors
from coskit.cosymplectic import ALGEBRAIC_CERT_KEYS
from coskit.grids import Grid, _torus_permutation, partial_derivative
from coskit.tensors import TensorField, covariant_derivative, lie_derivative, \
    symmetric_eigen
from coskit import variational as va
from references import coframe_coefficients, critical_frame, frame_block, \
    torsion_closed_forms, torus_varying_deformation


def sup(a):
    return float(np.max(np.abs(a)))


# -- torsion report ------------------------------------------------------------


def _reader_bits(metric) -> list[bytes]:
    """The bytes of every variational reader of a certified metric, at grid shape."""
    rep = va.torsion_report(metric)
    assert rep.torsion_field.shape == metric.grid.shape
    assert rep.torsion_field.flags.c_contiguous
    scalars = [va.energy(metric), rep.energy, rep.first_integral_residual, rep.constancy,
               va.euler_lagrange_supnorm(metric), va.nabla_r_h_residual(metric),
               *metric.structure.residuals().values()]
    fields = [rep.torsion_field, va.euler_lagrange_residual(metric).data,
              ck.d_alpha_plus(metric).data]
    return ([np.float64(v).tobytes() for v in scalars]
            + [np.ascontiguousarray(f).tobytes() for f in fields])


@pytest.mark.parametrize("mat", [[[2, 1], [1, 1]], [[-2, 1], [1, -1]], [[3, 1], [2, 1]]],
                         ids=["2,1,1,1", "-2,1,1,-1", "3,1,2,1"])
def test_readers_same_bits_on_column_and_full_path(monkeypatch, mat):
    # the critical metric is certified as its t-column and the readers run
    # on columns; with the column test off, full copies of g and of the
    # structure's fields take the full path, to the same bytes
    model = ck.build_hyperbolic_model(mat, tau=0.7, area=2.0)
    grid = Grid(16, 16, model.matrix)
    structure, metric = ck.critical_metric(model, grid)
    column = _reader_bits(metric)
    monkeypatch.setattr(cosymplectic, "_column_of", lambda data: None)
    full_structure = ck.Structure(grid, *(TensorField(grid, np.array(f.data), f.sig)
                                          for f in (structure.alpha, structure.beta,
                                                    structure.reeb)))
    full = ck.certify_compatible(full_structure, TensorField(grid, np.array(metric.g.data), "dd"))
    assert not any(metric.g.data.strides[1:3]) and all(full.g.data.strides[1:3])
    assert list(structure.residuals()) == list(full_structure.residuals())
    assert column == _reader_bits(full)


def test_torsion_report_critical(crit32, model):
    _, metric = crit32
    rep = va.torsion_report(metric)
    expected = 8.0 * model.area * model.log_lambda ** 2 / model.tau
    assert abs(rep.energy - expected) / expected < 1e-6
    assert rep.constancy < 1e-12
    assert np.all(rep.torsion_field >= 0.0)
    assert rep.first_integral_residual < 1e-10
    assert abs(np.mean(np.sqrt(rep.torsion_field / 8.0)) - model.mu) < 1e-6


def test_torsion_report_flat(flat16):
    _, metric = flat16
    rep = va.torsion_report(metric)
    assert rep.energy == 0.0
    assert sup(rep.torsion_field) == 0.0
    assert rep.constancy == 0.0


def test_torsion_report_polar_not_below_critical(crit32, chart32):
    _, gcrit = crit32
    out = va.deform(chart32, torus_varying_deformation(gcrit.grid, seed=3))
    assert va.torsion_report(out).energy >= va.torsion_report(gcrit).energy - 1e-10


def curve_metrics(crit, model, seed):
    """exponential_curve(crit, H, s) for s = +-1 along one random suspension tangent H."""
    h = va.random_tangent(crit, np.random.default_rng(seed), 0.3, model=model)
    return [va.exponential_curve(crit, h, s) for s in (1.0, -1.0)]


def test_compatible_metrics_not_below_critical(crit16_gluing):
    # minimality: no compatible metric undercuts the critical energy; checked
    # on (u, r) deformations that vary over the torus and on metrics that
    # exponential curves reach, each certified
    model, crit = crit16_gluing
    chart = va.deformation_chart(model, crit.grid)
    metrics = [va.deform(chart, torus_varying_deformation(crit.grid, seed)) for seed in (3, 5)]
    e0 = va.energy(crit)
    for metric in metrics + curve_metrics(crit, model, seed=3):
        assert metric.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-8
        assert va.energy(metric) >= e0 - 1e-10


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


@pytest.mark.parametrize("mat", [[[2, 1], [1, 1]], [[-2, 1], [1, -1]]], ids=["trace+", "trace-"])
def test_zero_dalpha_plus_terms_skipped_with_the_same_bits(mat):
    # on a cosymplectic chart d alpha is zero, and dalpha+, nabla R and the
    # EL residual, formed on the t-columns, have the bits of the formulas
    # with g^-1 @ 0 spelled out at full shape
    model = ck.build_hyperbolic_model(mat, tau=0.7, area=2.0)
    grid = Grid(8, 8, model.matrix)
    chart = va.deformation_chart(model, grid)
    for metric in (chart.metric, va.deform(chart, va.random_deformation(grid, 3, 0.2))):
        dap = ck.d_alpha_plus(metric).data
        zero_plus = metric.ginv @ np.zeros(grid.shape + (3, 3))
        assert np.broadcast_to(dap, zero_plus.shape).tobytes() == zero_plus.tobytes()
        lg, _, nabla_r = va._reeb_connection(metric)
        nabla_ref = 0.5 * (metric.ginv @ lg.data - zero_plus)
        assert np.broadcast_to(nabla_r, nabla_ref.shape).tobytes() == nabla_ref.tobytes()
        el_ref = covariant_derivative(lg, metric.structure.reeb, nabla_ref).data
        el_ref -= lg.data @ zero_plus
        assert va.euler_lagrange_residual(metric).data.tobytes() == el_ref.tobytes()


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
    h = va.tangent_project(h_raw, metric).data
    reeb, phi = metric.structure.reeb.data, metric.phi.data
    assert sup(reeb[..., None, :] @ h) < 1e-10                          # iota_R H = 0
    assert sup(np.swapaxes(phi, -1, -2) @ h - h @ phi) < 1e-10          # H(phi ., .) = H(., phi .)


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


def test_first_variation_of_t_column_tangent(model):
    # random_tangent returns a read-only t-column tangent; L_R H of it is a
    # read-only t-column field, and first_variation raises nothing and gives
    # the bits of a full contiguous copy of H, which takes the full path
    grid = Grid(16, 16, model.matrix)
    _, metric = ck.critical_metric(model, grid)
    column = va.random_tangent(metric, np.random.default_rng(9), 0.2, model=model)
    full = TensorField(grid, np.array(column.data), "dd")
    assert not any(column.data.strides[1:3]) and all(full.data.strides[1:3])
    assert np.array_equal(column.data, full.data)
    assert not lie_derivative(column, metric.structure.reeb).data.flags.writeable
    fv = va.first_variation(metric, column)
    assert np.float64(fv).tobytes() == np.float64(va.first_variation(metric, full)).tobytes()


def _variation_bits(base, h, chart, d) -> list[bytes]:
    """The bytes of the variation path at a base metric along a tangent, and of deform(d)."""
    fields = [va.tangent_project(h, base).data]
    scalars = [va.first_variation(base, h)]
    for s in (2e-3, -2e-3, 1.0):
        curve = va.exponential_curve(base, h, s)
        fields += [curve.g.data, curve.ginv, curve.phi.data]
        scalars += [*curve.certificate.values(), va.first_variation(curve, h), va.energy(curve)]
    deformed = va.deform(chart, d)
    fields += [deformed.g.data, deformed.ginv]
    scalars += deformed.certificate.values()
    return ([np.ascontiguousarray(f).tobytes() for f in fields]
            + [np.float64(v).tobytes() for v in scalars])


def _is_column(data) -> bool:
    return not data.flags.writeable and not any(data.strides[1:3])


@pytest.mark.parametrize("mat", [[[2, 1], [1, 1]], [[-2, 1], [1, -1]], [[3, 1], [2, 1]]],
                         ids=["2,1,1,1", "-2,1,1,-1", "3,1,2,1"])
def test_variation_path_same_bits_on_column_and_full_path(monkeypatch, mat):
    # the tangent, the (u, r)-deformed base and every curve metric are t-columns;
    # full contiguous copies of the tangent, the base, the structure and the
    # frame, with the column tests off, take the full path to the same bytes
    model = ck.build_hyperbolic_model(mat, tau=0.7, area=2.0)
    grid = Grid(16, 16, model.matrix)
    chart = va.deformation_chart(model, grid)
    d = va.random_deformation(grid, 4, amplitude=0.25)
    base = va.deform(chart, d)
    h = va.random_tangent(base, np.random.default_rng(7), 0.1, model=model)
    assert _is_column(base.g.data) and _is_column(h.data)
    assert _is_column(va.exponential_curve(base, h, 1.0).g.data)
    flat = va.random_tangent(ck.flat_cokahler(Grid(8, 8))[1], np.random.default_rng(7), 0.1)
    assert flat.data.flags.c_contiguous and flat.data.shape == (8, 8, 8, 3, 3)
    column = _variation_bits(base, h, chart, d)

    monkeypatch.setattr(cosymplectic, "_column_of", lambda data: None)
    monkeypatch.setattr(va, "_state", lambda d: np.stack((d.u, d.r), axis=-1))
    structure = ck.Structure(grid, *(TensorField(grid, np.array(f.data), f.sig)
                                     for f in (chart.structure.alpha, chart.structure.beta,
                                               chart.structure.reeb)))
    full_chart = va.DeformationChart(model, structure, chart.metric,
                                     np.array(chart.vp_flat), np.array(chart.vm_flat))
    full_base = ck.certify_compatible(structure, TensorField(grid, np.array(base.g.data), "dd"))
    full_h = TensorField(grid, np.array(h.data), "dd")
    assert all(full_base.g.data.strides[1:3]) and all(full_h.data.strides[1:3])
    assert all(va.exponential_curve(full_base, full_h, 1.0).g.data.strides[1:3])
    assert all(va.deform(full_chart, d).g.data.strides[1:3])
    assert column == _variation_bits(full_base, full_h, full_chart, d)


def test_variation_stencils_the_t_column(monkeypatch, model):
    # at the critical metric, along random_tangent's column tangent, every
    # stencil of first_variation and exponential_curve reads a t-column
    grid = Grid(16, 16, model.matrix)
    _, metric = ck.critical_metric(model, grid)
    h = va.random_tangent(metric, np.random.default_rng(3), 0.1, model=model)
    stenciled = []
    real = tensors.partial_derivative
    monkeypatch.setattr(tensors, "partial_derivative",
                        lambda data, *args: stenciled.append(data) or real(data, *args))
    va.first_variation(metric, h)
    for s in (2e-3, -2e-3):
        va.first_variation(va.exponential_curve(metric, h, s), h)
    assert stenciled and {data.shape[1:3] for data in stenciled} == {(1, 1)}


def test_random_tangent_refuses_a_model_that_is_not_the_gluing(model):
    # with no model, or another gluing's, the twisted field would not be
    # defined on the mapping torus
    _, metric = ck.critical_metric(model, Grid(8, 8, model.matrix))
    with pytest.raises(ValueError, match="twisted chart needs the chart's model"):
        va.random_tangent(metric, np.random.default_rng(0), 0.1)
    other = ck.build_hyperbolic_model([[3, 1], [2, 1]])
    with pytest.raises(ValueError, match="does not match the model's gluing matrix"):
        va.random_tangent(metric, np.random.default_rng(0), 0.1, model=other)


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


def curve_theta(metric, h, s):
    """max |s B|_F over the grid, as tr(B^2) = tr((g^{-1} H)^2)."""
    hp = metric.ginv @ h.data
    return abs(s) * float(np.sqrt(np.max(np.sum(hp * np.swapaxes(hp, -1, -2), axis=(-2, -1)))))


@pytest.mark.parametrize("theta", [4.0, 20.0])
def test_exponential_curve_with_squarings_matches_two_eigh_reference(curve_bases, theta):
    # s = theta / theta(1): the fixture tangents are small (theta(1) = 0.036
    # and 0.004), so s is chosen per base for the exponential to be scaled
    # by 2^-j with j = 4 and 7
    for metric, h in curve_bases:
        for s in np.array([1.0, -1.0]) * theta / curve_theta(metric, h, 1.0):
            assert curve_theta(metric, h, s) > 0.25
            ref = two_eigh_exponential(metric, h, s)
            assert sup(va.exponential_curve(metric, h, s).g.data - ref) <= 1e-13 * sup(ref)


def test_exponential_curve_overflow_guard_threshold(flat8):
    # H = diag(0, 1, -1) on the flat metric: |sB|_F = sqrt(2) |s|, and the
    # curve diag(1, e^s, e^-s) stays representable up to the guard
    _, metric = flat8
    h = TensorField(metric.grid, np.diag([0.0, 1.0, -1.0]), "dd")
    s_max = 200.0 * np.sqrt(3.0) / np.sqrt(2.0)
    out = va.exponential_curve(metric, h, s_max * (1.0 - 1e-9))
    expected = np.exp(s_max * (1.0 - 1e-9))
    assert abs(out.g.data[..., 1, 1] - expected).max() <= 1e-12 * expected
    with pytest.raises(OverflowError):
        va.exponential_curve(metric, h, s_max * (1.0 + 1e-9))


@pytest.mark.parametrize("where", ["tangent", "s_nan", "s_inf"])
def test_exponential_curve_rejects_non_finite(flat8, where):
    _, metric = flat8
    h = va.random_tangent(metric, np.random.default_rng(3), 0.1)
    s = {"s_nan": np.nan, "s_inf": np.inf}.get(where, 0.5)
    if where == "tangent":
        h.data[2, 3, 4, 1, 1] = np.nan
    with pytest.raises(ValueError, match="tangent field is not finite" if where == "tangent"
                       else "s is not finite"):
        va.exponential_curve(metric, h, s)


def test_variation_path_calls_no_per_point_lapack(monkeypatch, model):
    # certification, curves, energy and first variation need no batched
    # LAPACK call; symmetric_eigen keeps its one eigh, so only cholesky
    # and det are refused while it runs
    def refuse(*names):
        for name in names:
            def raiser(*args, _name=name, **kwargs):
                raise AssertionError(f"numpy.linalg.{_name} called on the variation path")
            monkeypatch.setattr(np.linalg, name, raiser)

    grid = Grid(8, 8, model.matrix)
    chart = va.deformation_chart(model, grid)
    base = va.deform(chart, va.random_deformation(grid, seed=2, amplitude=0.25))
    _, contact = ck.contact_t3_testbed(1, Grid(8, 8))
    rng = np.random.default_rng(19)
    cases = [(base, va.random_tangent(base, rng, 0.1, model=model)),
             (contact, va.random_tangent(contact, rng, 0.1))]
    refuse("cholesky", "det")
    symmetric_eigen(chart.metric.h_tensor(), chart.metric.g.data, chart.metric.ginv)
    refuse("eigh")
    for metric, h in cases:
        recertified = ck.certify_compatible(metric.structure, metric.g)
        curve = va.exponential_curve(recertified, h, 2e-3)
        va.energy(curve)
        va.first_variation(curve, h)


def test_first_variation_matches_einsum(curve_bases):
    # the directional derivative of the discrete energy, with T = L_R g:
    # 2 int [tr(g^-1 T g^-1 L_R H) - tr(g^-1 H g^-1 T g^-1 T)] alpha ^ beta
    for metric, h in curve_bases:
        reeb = metric.structure.reeb
        t = ck.lie_derivative(metric.g, reeb).data
        lh = ck.lie_derivative(h, reeb).data
        ginv = np.linalg.inv(metric.g.data)
        ref = 2.0 * metric.structure.integrate(
            np.einsum("...ia,...jb,...ab,...ij->...", ginv, ginv, t, lh)
            - np.einsum("...ia,...ab,...bc,...cd,...de,...ei->...",
                        ginv, h.data, ginv, t, ginv, t))
        assert abs(va.first_variation(metric, h) - ref) <= 1e-13 * abs(ref)


def el_pairing(metric, h):
    """-2 int <EL, H>: the continuum first variation on discrete fields."""
    el = va.euler_lagrange_residual(metric).data
    return -2.0 * metric.structure.integrate(
        np.einsum("...ia,...jb,...ij,...ab->...", metric.ginv, metric.ginv, el, h.data))


def test_el_pairing_agrees_with_first_variation_at_order_4(model):
    # criterion 07's bases.  On the cosymplectic chart the gap between the
    # continuum pairing and the exact derivative is the stencil error and
    # falls at 4th order (measured 4.01 over 8^3-32^3), which pins nabla_R
    # L_R g; dalpha+ vanishes there, so the contact chart pins the cross
    # term: at 32^3 the gap is 2.3e-7 |dE|, against 1.8e-2 with the cross
    # term's coefficient doubled
    ns, gaps = (8, 16, 32), []
    for n in ns:
        grid = Grid(n, n, model.matrix)
        chart = va.deformation_chart(model, grid)
        base = va.deform(chart, va.random_deformation(grid, seed=5, amplitude=0.25))
        h = va.random_tangent(base, np.random.default_rng(13), 0.1, model=model)
        gaps.append(abs(el_pairing(base, h) - va.first_variation(base, h)))
    order = -np.polyfit(np.log(ns), np.log(gaps), 1)[0]
    assert 3.7 < order < 4.3
    _, cm0 = ck.contact_t3_testbed(1, Grid(32, 32))
    base = va.exponential_curve(cm0, va.random_tangent(cm0, np.random.default_rng(11), 0.3), 1.0)
    h = va.random_tangent(base, np.random.default_rng(17), 0.1)
    fv = va.first_variation(base, h)
    assert abs(el_pairing(base, h) - fv) < 1e-5 * abs(fv)


def richardson_bases(kind, n, model):
    """A non-critical metric on each kind of chart, as the first_variation run builds it."""
    if kind == "hyperbolic":
        grid = Grid(n, n, model.matrix)
        chart = va.deformation_chart(model, grid)
        return va.deform(chart, va.random_deformation(grid, seed=5, amplitude=0.25)), model
    _, m0 = (ck.contact_t3_testbed(1, Grid(n, n)) if kind == "contact_t3"
             else ck.sol_model(1.0, ck.sol_box_grid(n, n)))
    return va.exponential_curve(m0, va.random_tangent(m0, np.random.default_rng(11), 0.3),
                                1.0), None


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("kind", ["hyperbolic", "contact_t3", "sol"])
def test_first_variation_is_the_derivative_of_the_discrete_energy(kind, n, model):
    # Richardson-extrapolated centered differences (s = 1e-3, 2e-3) carry
    # noise of about eps E / s; measured |dE - fd| / E up to 4.6e-13 on
    # these charts (relative to |fd|: 2.1e-11 hyperbolic, 1.1e-8 contact,
    # 3.4e-7 on a sol tangent with |fd| = 4e-6); the continuum pairing
    # misses by 1e-2 |fd| and more at 8^3, and by O(|fd|) on the sol box
    base, mdl = richardson_bases(kind, n, model)
    e0 = va.energy(base)
    rng = np.random.default_rng(13)

    def centered(h, s):
        return (va.energy(va.exponential_curve(base, h, s))
                - va.energy(va.exponential_curve(base, h, -s))) / (2.0 * s)

    for _ in range(3):
        h = va.random_tangent(base, rng, 0.1, model=mdl)
        fd = (4.0 * centered(h, 1e-3) - centered(h, 2e-3)) / 3.0
        assert abs(va.first_variation(base, h) - fd) <= 2e-12 * e0


def test_first_variation_builds_no_connection(monkeypatch, model):
    # the exact derivative needs two Lie derivatives and g^-1 only: the
    # Christoffel symbols, the covariant derivative and dalpha+ are refused
    # wherever they are looked up
    def refuse(module, name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} called by first_variation")
        monkeypatch.setattr(module, name, raiser)

    grid = Grid(8, 8, model.matrix)
    chart = va.deformation_chart(model, grid)
    base = va.deform(chart, va.random_deformation(grid, seed=2, amplitude=0.25))
    _, contact = ck.contact_t3_testbed(1, Grid(8, 8))
    rng = np.random.default_rng(19)
    cases = [(base, va.random_tangent(base, rng, 0.1, model=model)),
             (contact, va.random_tangent(contact, rng, 0.1))]
    for module, name in ((tensors, "christoffel"),
                         (tensors, "covariant_derivative"), (va, "covariant_derivative"),
                         (cosymplectic, "d_alpha_plus"), (va, "d_alpha_plus")):
        refuse(module, name)
    for metric, h in cases:
        fresh = ck.certify_compatible(metric.structure, metric.g)
        va.first_variation(fresh, h)
        assert "connection" not in vars(fresh)


# -- the coframe deformation ------------------------------------------------------------


def test_deform_zero_is_identity(chart32):
    d0 = va.Deformation(chart32.grid, 0.0, 0.0)
    gt = va.deform(chart32, d0)
    assert sup(gt.g.data - chart32.metric.g.data) < 1e-13


def test_deform_certifies_random(chart32):
    for seed in range(3):
        d = va.random_deformation(chart32.grid, seed=seed, amplitude=0.3)
        gt = va.deform(chart32, d)
        assert gt.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-10


def test_deform_constraint_built_in(chart32):
    d = va.random_deformation(chart32.grid, seed=1, amplitude=0.3)
    p, q = coframe_coefficients(d)
    assert sup(p * q - d.r ** 2 - 1.0) < 1e-14
    assert np.all(p > 0)
    # deform places them in the critical frame: g(v+, v+) = q, g(v-, v-) = p,
    # g(v+, v-) = r
    for got, want in zip(frame_block(chart32, va.deform(chart32, d)), (q, p, d.r)):
        assert sup(got - want) < 1e-13


def test_deform_reaches_curve_metrics(crit16_gluing):
    # every compatible metric of the suspension structure is deform(chart, d)
    # with u = log g(v-, v-) and r = g(v+, v-): here the metrics that
    # exponential curves reach from the critical one
    model, crit = crit16_gluing
    chart = va.deformation_chart(model, crit.grid)
    for metric in curve_metrics(crit, model, seed=7):
        _, p, r = frame_block(chart, metric)
        g = va.deform(chart, va.Deformation(chart.grid, np.log(p), r)).g.data
        assert sup(g - metric.g.data) < 16 * np.finfo(float).eps * sup(metric.g.data)


def test_lie_matrix_q_form_matches_not_p_form(fiber_chart):
    # [L_R g~] in the frame F = (R, v-, v+) is F^T (L_R g~) F; the direct
    # Lie derivative fixes its lower-right entry to R(q) - 2 mu q, and the
    # variant R(q) - 2 mu p printed in some sources is off by O(1)
    structure, mu = fiber_chart.structure, fiber_chart.mu
    d = va.random_deformation(fiber_chart.grid, seed=2, amplitude=0.3)
    lg = tensors.lie_derivative(va.deform(fiber_chart, d).g, structure.reeb).data
    v_plus, v_minus, _, _ = critical_frame(fiber_chart.model, fiber_chart.grid)
    f = np.stack([structure.reeb.data, v_minus.data, v_plus.data], axis=-1)
    m = np.swapaxes(f, -1, -2) @ lg @ f
    p, q = coframe_coefficients(d)
    rp, rq, rr = (va.reeb_derivative(x, structure) for x in (p, q, d.r))
    expected = np.zeros_like(m)
    expected[..., 1, 1] = rp + 2.0 * mu * p
    expected[..., 1, 2] = rr
    expected[..., 2, 1] = rr
    variant = expected.copy()
    expected[..., 2, 2] = rq - 2.0 * mu * q
    variant[..., 2, 2] = rq - 2.0 * mu * p
    assert sup(m - expected) < 1e-4
    assert sup(m - variant) > 0.1


def test_deformed_h_eigenstructure(fiber_chart):
    # h of a deformed compatible metric keeps eigenvalues (0, mu, -mu)
    # with mu = 2^{-3/2} |L_R g| pointwise
    d = va.random_deformation(fiber_chart.grid, seed=6, amplitude=0.3)
    gt = va.deform(fiber_chart, d)
    mu_field = np.sqrt(va.torsion_report(gt).torsion_field / 8.0)
    w, _, _ = symmetric_eigen(gt.h_tensor(), gt.g.data, gt.ginv)
    assert sup(w[..., 0] - mu_field) < 1e-5
    assert sup(w[..., 1]) < 1e-5
    assert sup(w[..., 2] + mu_field) < 1e-5


def test_torsion_closed_form_and_first_expansion(fiber_chart):
    mu = fiber_chart.mu
    for seed in range(5):
        d = va.random_deformation(fiber_chart.grid, seed=seed, amplitude=0.3)
        rep = va.torsion_report(va.deform(fiber_chart, d))
        cf, fe = torsion_closed_forms(d, mu, fiber_chart.structure)
        assert sup(cf - rep.torsion_field) < 1e-4 * mu ** 2
        assert sup(fe - rep.torsion_field) < 1e-4 * mu ** 2


def test_torsion_closed_form_zero_deformation(fiber_chart):
    d0 = va.Deformation(fiber_chart.grid, 0.0, 0.0)
    cf, _ = torsion_closed_forms(d0, fiber_chart.mu, fiber_chart.structure)
    assert sup(cf - 8.0 * fiber_chart.mu ** 2) < 1e-13


# -- energy gap ---------------------------------------------------------------------------


def test_energy_gap_zero_deformation(fiber_chart):
    rep = va.energy_gap(va.Deformation(fiber_chart.grid, 0.0, 0.0),
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
    res = va.minimize_energy(va.Deformation(fiber_chart.grid, 0.0, 0.0),
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


def _reference_minimize(initial, mu, structure, steps, step0=1e-2):
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
        if gap - gap_t <= 0.0:
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


def _with_negative_zero(grid: Grid, seed: int) -> va.Deformation:
    """random_deformation whose r has one +0.0 t-slab holding one -0.0."""
    d = va.random_deformation(grid, seed, amplitude=0.3)
    r = np.array(d.r)
    r[7] = 0.0
    r[7, 3, 2] = -0.0
    return va.Deformation(grid, d.u, r)


def _start(grid: Grid, seed) -> va.Deformation:
    return seed(grid, 34) if callable(seed) else va.random_deformation(grid, seed, amplitude=0.3)


def _x_reeb_structure(grid: Grid) -> ck.Structure:
    """A closed flat chart whose Reeb field 0.7 d_x has no t-component."""
    return ck.Structure(grid, TensorField(grid, [0.0, 1.0 / 0.7, 0.0], "d"),
                        TensorField(grid, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                                    "dd"),
                        TensorField(grid, [0.0, 0.7, 0.0], "u"))


# the random_deformation starts descend on their t-column, the others at
# full shape; every one must give the reference's bits, also where R has
# no t-component (None: the flat chart of _x_reeb_structure)
@pytest.mark.parametrize("mat, seed, steps", [
    ([[2, 1], [1, 1]], 31, 150),
    ([[-2, 1], [1, -1]], 32, 150),
    ([[3, 1], [2, 1]], 33, 150),
    ([[-2, 1], [1, -1]], torus_varying_deformation, 150),
    ([[2, 1], [1, 1]], _with_negative_zero, 60),
    (None, 35, 40),
], ids=["L0", "L1", "L2", "L1-torus-varying", "L0-negative-zero", "flat-reeb-0.7dx"])
def test_minimize_bit_identical_to_unfused_reference(monkeypatch, mat, seed, steps):
    model = ck.build_hyperbolic_model(mat or [[2, 1], [1, 1]], tau=0.7, area=2.0)
    if mat is None:
        grid = Grid(8, 256)
        structure = _x_reeb_structure(grid)
    else:
        grid = Grid(8, 256, model.matrix)
        structure = ck.suspension_structure(model, grid)
    d0 = _start(grid, seed)
    shapes = _recorded_stencil_shapes(monkeypatch)
    res = va.minimize_energy(d0, model.mu, structure, steps=steps)
    on_column = isinstance(seed, int)
    assert set(shapes) == {(256, 1, 1, 2) if on_column else (256, 8, 8, 2)}
    history, u, r, n_done, converged = _reference_minimize(d0, model.mu, structure, steps)
    assert res.gap_history == history
    assert np.array_equal(res.deformation.u, u)
    assert np.array_equal(res.deformation.r, r)
    assert res.steps_taken == n_done
    assert res.converged == converged
    assert res.final_sup_r == sup(r)
    assert res.final_sup_ru == sup(va.reeb_derivative(u, structure))


def _recorded_stencil_shapes(monkeypatch):
    shapes = []

    def recording(data, *args):
        shapes.append(data.shape)
        return partial_derivative(data, *args)
    monkeypatch.setattr(va, "partial_derivative", recording)
    return shapes


@pytest.mark.parametrize("mat", [[[2, 1], [1, 1]], [[-2, 1], [1, -1]]], ids=["trace+", "trace-"])
def test_descent_stencils_the_t_column(monkeypatch, mat):
    model = ck.build_hyperbolic_model(mat, tau=0.7, area=2.0)
    grid = Grid(8, 256, model.matrix)
    structure = ck.suspension_structure(model, grid)
    shapes = _recorded_stencil_shapes(monkeypatch)
    for seed in (1, 2):
        d0 = va.random_deformation(grid, seed, amplitude=0.3)
        va.minimize_energy(d0, model.mu, structure, steps=20)
        va.energy_gap(d0, model.mu, structure)
    assert len(shapes) > 40 and set(shapes) == {(256, 1, 1, 2)}
    shapes.clear()
    for start in (torus_varying_deformation, _with_negative_zero):
        va.minimize_energy(start(grid, 3), model.mu, structure, steps=2)
    assert shapes and set(shapes) == {(256, 8, 8, 2)}


def test_descent_reads_its_column_from_the_deformation_layout(monkeypatch, fiber_chart):
    # random_deformation stores (u, r) as read-only t-columns and the descent
    # returns its result the same way; a contiguous full copy of the start is
    # kept as given, descends at full shape and reaches the same bytes
    grid, structure, mu = fiber_chart.grid, fiber_chart.structure, fiber_chart.mu
    d0 = va.random_deformation(grid, seed=13, amplitude=0.3)
    assert _is_column(d0.u) and _is_column(d0.r)
    full_u, full_r = np.array(d0.u), np.array(d0.r)
    full = va.Deformation(grid, full_u, full_r)
    assert full.u is full_u and full.r is full_r
    shapes = _recorded_stencil_shapes(monkeypatch)
    res = va.minimize_energy(d0, mu, structure, steps=40)
    assert set(shapes) == {(grid.n_fiber, 1, 1, 2)}
    assert _is_column(res.deformation.u) and _is_column(res.deformation.r)
    shapes.clear()
    res_full = va.minimize_energy(full, mu, structure, steps=40)
    assert set(shapes) == {grid.shape + (2,)}
    assert np.array(res.gap_history).tobytes() == np.array(res_full.gap_history).tobytes()
    for a, b in ((res.deformation.u, res_full.deformation.u),
                 (res.deformation.r, res_full.deformation.r)):
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_energy_gap_same_bits_on_column_and_full_copy(monkeypatch, fiber_chart):
    structure, mu = fiber_chart.structure, fiber_chart.mu
    starts = [va.random_deformation(fiber_chart.grid, seed, amplitude=0.3) for seed in range(4)]
    column = [va.energy_gap(d, mu, structure) for d in starts]
    monkeypatch.setattr(va, "_state", lambda d: np.stack((d.u, d.r), axis=-1))
    shapes = _recorded_stencil_shapes(monkeypatch)
    full = [va.energy_gap(d, mu, structure) for d in starts]
    assert set(shapes) == {fiber_chart.grid.shape + (2,)}
    for a, b in zip(column, full):
        assert np.float64(a.gap).tobytes() == np.float64(b.gap).tobytes()
        assert (np.float64(a.divergence_residual).tobytes()
                == np.float64(b.divergence_residual).tobytes())


def test_reeb_derivative_follows_rotating_reeb_field():
    # the contact testbed's R = cos(2 pi n t) d_x + sin(2 pi n t) d_y has non-constant
    # components; the suspension's (1/tau) d_t is constant, summed with a float
    # coefficient, which must give the products of the constant component array
    model = ck.build_hyperbolic_model([[2, 1], [1, 1]], tau=0.7)
    suspension = Grid(16, 16, model.matrix)
    for structure in (ck.contact_t3_testbed(2, Grid(16, 16))[0],
                      ck.suspension_structure(model, suspension)):
        grid = structure.grid
        f = np.random.default_rng(4).standard_normal(grid.shape)
        r = structure.reeb.data
        expected = sum(r[..., c] * partial_derivative(f, "", grid, c)
                       for c in range(3) if np.any(r[..., c]))
        assert np.array_equal(va.reeb_derivative(f, structure), expected)


def test_minimize_rejects_non_constant_reeb_field():
    # the contact testbed's alpha ^ beta density is constant, its Reeb field is not
    structure, _ = ck.contact_t3_testbed(1, Grid(16, 16))
    with pytest.raises(ValueError, match="Reeb field with constant components"):
        va.minimize_energy(va.Deformation(structure.grid, 0.0, 0.0), 1.0, structure, steps=5)


def test_energy_gap_refuses_open_chart():
    # the gap is a plain sum times one weight: on the open Sol box that sum
    # would drop the trapezoid end weights of structure.integrate
    structure, _ = ck.sol_model(1.0, ck.sol_box_grid(8, 16))
    d = va.Deformation(structure.grid, 0.1, 0.0)
    with pytest.raises(ValueError, match="closed chart"):
        va.energy_gap(d, 1.0, structure)
    with pytest.raises(ValueError, match="closed chart"):
        va.minimize_energy(d, 1.0, structure, steps=5)


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
