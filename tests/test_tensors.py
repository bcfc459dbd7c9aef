from fractions import Fraction

import numpy as np
import pytest

import coskit as ck
from coskit import cli, grids, tensors
from coskit.grids import Grid
from coskit.tensors import TensorField, TensorCalculusError, christoffel, \
    covariant_derivative, exterior_derivative, hodge_star, inverse_metric, lie_bracket, \
    lie_derivative, sqrtm_spd, symmetric_eigen, tensor_norm2
from coskit import variational as va
from coskit.variational import random_global_scalar
from references import covariant_gradient, covariant_reference, nijenhuis


def sup(a):
    return float(np.max(np.abs(a)))


def random_global_one_form(model, grid, seed):
    """Seam-compatible 1-form: t-random coefficients on the critical coframe."""
    rng = np.random.default_rng(seed)
    t = np.broadcast_to(grid.t, grid.shape)
    lamt = np.abs(model.lam) ** t
    theta = model.dual_basis
    data = np.zeros(grid.shape + (3,))
    data[..., 0] = random_global_scalar(grid, rng, 1.0)
    data[..., 1:] += random_global_scalar(grid, rng, 1.0)[..., None] \
        * lamt[..., None] * theta[0]
    data[..., 1:] += random_global_scalar(grid, rng, 1.0)[..., None] \
        * (1.0 / lamt)[..., None] * theta[1]
    return TensorField(grid, data, "d")


# -- exterior derivative ---------------------------------------------------


def test_d_of_constant_forms_exact(crit32):
    structure, _ = crit32
    assert sup(exterior_derivative(structure.alpha).data) == 0.0
    assert sup(exterior_derivative(structure.beta).data) == 0.0


def test_d_matches_analytic_contact_form():
    grid = Grid(32, 32)
    structure, _ = ck.contact_t3_testbed(1, grid)
    dalpha = exterior_derivative(structure.alpha)
    assert sup(dalpha.data - structure.beta.data) < 2e-3
    # and beta is itself closed to stencil accuracy
    assert sup(exterior_derivative(structure.beta).data) < 1e-2


def test_dd_is_zero_flat_and_twisted(model, grid32):
    rng = np.random.default_rng(0)
    flat = Grid(16, 16)
    t, x, y = flat.coordinates()
    data = np.stack([np.cos(2 * np.pi * (x + 2 * y)) * np.ones(flat.shape),
                     np.sin(2 * np.pi * (t - y)) * np.ones(flat.shape),
                     rng.random() * np.ones(flat.shape)], axis=-1)
    omega = TensorField(flat, data, "d")
    assert sup(exterior_derivative(exterior_derivative(omega)).data) < 1e-11

    omega_tw = random_global_one_form(model, grid32, seed=1)
    dd = exterior_derivative(exterior_derivative(omega_tw))
    assert sup(dd.data) < 1e-10


def test_d_rejects_nonantisymmetric():
    grid = Grid(16, 16)
    bad = TensorField(grid, np.ones(grid.shape + (3, 3)), "dd")
    with pytest.raises(TensorCalculusError):
        exterior_derivative(bad)


def test_antisymmetry_check_on_stored_constant_and_full_form():
    # a stored constant is checked at one point: the same verdict and the
    # same exception as the full-shape copy, checked at every point
    grid = Grid(8, 8, [[2, 1], [1, 1]])
    bad = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.5, 0.0]])
    stored = TensorField(grid, bad, "dd")
    assert not any(stored.data.strides[:3])
    for form in (stored, TensorField(grid, np.broadcast_to(bad, grid.shape + (3, 3)).copy(),
                                     "dd")):
        with pytest.raises(TensorCalculusError, match="not antisymmetric"):
            exterior_derivative(form)
    good = bad - bad.T
    exterior_derivative(TensorField(grid, good, "dd"))
    # one bad point of a full-shape form is found
    full = np.broadcast_to(good, grid.shape + (3, 3)).copy()
    full[3, 4, 5] = bad
    with pytest.raises(TensorCalculusError, match="not antisymmetric"):
        exterior_derivative(TensorField(grid, full, "dd"))


# -- Lie derivative ---------------------------------------------------------


def test_killing_field_flat(flat16):
    structure, metric = flat16
    lg = lie_derivative(metric.g, structure.reeb)
    assert sup(lg.data) == 0.0


def test_lie_alpha_vanishes_on_models(crit32, flat16):
    for structure, _ in (crit32, flat16):
        assert sup(lie_derivative(structure.alpha, structure.reeb).data) < 1e-13


def test_lie_leibniz_rule():
    grid = Grid(16, 16)
    t, x, y = grid.coordinates()
    rng = np.random.default_rng(4)
    f = np.cos(2 * np.pi * (x + y)) * np.ones(grid.shape)
    tdata = rng.random((3, 3))
    tens = TensorField(grid, np.broadcast_to(tdata, grid.shape + (3, 3)).copy(), "dd")
    xvec = TensorField(grid, np.stack(
        [np.sin(2 * np.pi * t) * np.ones(grid.shape),
         np.ones(grid.shape), np.cos(2 * np.pi * y) * np.ones(grid.shape)], axis=-1), "u")
    ft = TensorField(grid, f[..., None, None] * tens.data, "dd")
    lhs = lie_derivative(ft, xvec).data
    xf = sum(xvec.data[..., i] * ck.partial_derivative(f, "", grid, i) for i in range(3))
    rhs = xf[..., None, None] * tens.data + f[..., None, None] * lie_derivative(tens, xvec).data
    assert sup(lhs - rhs) < 5e-3 * max(1.0, sup(lhs))


def test_lie_bracket_antisymmetry():
    grid = Grid(16, 16)
    t, x, y = grid.coordinates()
    u = TensorField(grid, np.stack([np.cos(2 * np.pi * x) * np.ones(grid.shape),
                                    np.ones(grid.shape), np.zeros(grid.shape)], axis=-1), "u")
    v = TensorField(grid, np.stack([np.zeros(grid.shape), np.sin(2 * np.pi * t) * np.ones(grid.shape),
                                    np.ones(grid.shape)], axis=-1), "u")
    assert sup(lie_bracket(u, v).data + lie_bracket(v, u).data) < 1e-12


# -- Christoffel symbols and covariant derivative ----------------------------


def test_christoffel_flat_zero(flat16):
    _, metric = flat16
    gamma = christoffel(metric.g, metric.ginv)
    assert sup(gamma) == 0.0
    assert sup(gamma - np.swapaxes(gamma, 4, 5)) == 0.0


def test_christoffel_eigenframe_closed_form(model):
    # on the eigen-coordinate box chart: Gamma^t_{++} = -(log lam / tau^2) lam^{2t}
    grid = ck.sol_box_grid(8, 64)
    t = np.broadcast_to(grid.t, grid.shape)
    k = model.log_lambda
    g = np.zeros(grid.shape + (3, 3))
    g[..., 0, 0] = model.tau ** 2
    g[..., 1, 1] = np.exp(2 * k * t)
    g[..., 2, 2] = np.exp(-2 * k * t)
    gamma = christoffel(TensorField(grid, g, "dd"), inverse_metric(g))
    expected = -(k / model.tau ** 2) * np.exp(2 * k * t)
    assert sup(gamma[..., 0, 1, 1] - expected) < 1e-6
    assert sup(gamma - np.swapaxes(gamma, 4, 5)) == 0.0


def test_metric_compatibility_and_geodesic_reeb(crit32):
    structure, metric = crit32
    gamma = christoffel(metric.g, metric.ginv)
    ng = covariant_gradient(metric.g, gamma)
    assert sup(ng.data) < 1e-11
    nr = covariant_reference(structure.reeb, gamma, structure.reeb)
    assert sup(nr) < 1e-12


def test_nabla_g_machine_zero_any_metric(model):
    # metric compatibility of the Levi-Civita symbols is algebraic in
    # (g, dg): it cancels to roundoff for any metric at any resolution
    from coskit import variational as va
    for n in (16, 32):
        grid = Grid(n, n, model.matrix)
        chart = va.deformation_chart(model, grid)
        gt = va.deform(chart, va.random_deformation(grid, seed=2, amplitude=0.3))
        ng = covariant_gradient(gt.g, christoffel(gt.g, gt.ginv))
        assert sup(ng.data) < 1e-11


def test_nabla_r_phi_on_compatible_metrics(crit32, model):
    from coskit import variational as va
    structure, metric = crit32
    nphi = covariant_reference(metric.phi, christoffel(metric.g, metric.ginv), structure.reeb)
    assert sup(nphi) < 1e-11
    # deformed compatible metric: residual is stencil error, 4th order
    # (16^3 is preasymptotic for mode-3 content, so measure 32 -> 64)
    sups = []
    for n in (32, 64):
        grid = Grid(n, n, model.matrix)
        chart = va.deformation_chart(model, grid)
        gt = va.deform(chart, va.random_deformation(grid, seed=7, amplitude=0.3))
        nphi_t = covariant_reference(gt.phi, christoffel(gt.g, gt.ginv), chart.structure.reeb)
        sups.append(sup(nphi_t))
    assert sups[0] < 0.05
    assert sups[0] / sups[1] > 2 ** 3.5


def test_covariant_derivative_linear_in_direction(crit32):
    structure, metric = crit32
    gamma = christoffel(metric.g, metric.ginv)
    rng = np.random.default_rng(8)
    x = TensorField(metric.grid, np.broadcast_to(rng.random(3), metric.grid.shape + (3,)).copy(), "u")
    y = TensorField(metric.grid, np.broadcast_to(rng.random(3), metric.grid.shape + (3,)).copy(), "u")
    both = TensorField(metric.grid, x.data + 2.0 * y.data, "u")

    def along(v):
        # nabla_c V^a, the (1,1) field that covariant_derivative takes
        return covariant_derivative(metric.phi, v,
                                    np.swapaxes(covariant_gradient(v, gamma).data, -1, -2)).data

    da, db, dc = along(x), along(y), along(both)
    assert sup(dc - da - 2.0 * db) < 1e-12


# -- restriction to the direction's nonzero axes ---------------------------------
# the kernels skip only exact zeros, so along any direction they must equal
# the full-gradient contraction bit for bit; the references below are that
# formula, stacking all three partials and contracting them with X by einsum


def stencil_gradient(data, sig, grid):
    """All three partials by partial_derivative, axis by axis, with no skip."""
    return np.stack([ck.partial_derivative(data, sig, grid, a) for a in range(3)], axis=3)


def lie_reference(t, x):
    grad_t = stencil_gradient(t.data, t.sig, t.grid)
    grad_x = stencil_gradient(x.data, x.sig, t.grid)
    gax, slots = [0, 1, 2], list(range(4, 4 + len(t.sig)))
    out = np.einsum(grad_t, gax + [3] + slots, x.data, gax + [3], gax + slots)
    out -= tensors._derivation(t.data, t.sig, np.swapaxes(grad_x, -1, -2))
    return out


RESTRICTION_GLUINGS = {"L0": [[2, 1], [1, 1]], "L1": [[-2, 1], [1, -1]], "L2": [[3, 1], [2, 1]]}


@pytest.fixture(scope="module", params=[f"{name}-{kind}" for name in RESTRICTION_GLUINGS
                                        for kind in ("critical", "deformed")]
                + ["contact", "sol"])
def reeb_case(request):
    """A compatible metric per chart: suspension charts, contact testbed, Sol box."""
    if request.param == "contact":
        return ck.contact_t3_testbed(1, Grid(16, 16))[1]
    if request.param == "sol":
        return ck.sol_model(1.0, ck.sol_box_grid(8, 24))[1]
    name, kind = request.param.split("-")
    model = ck.build_hyperbolic_model(RESTRICTION_GLUINGS[name], tau=0.7, area=2.0)
    grid = Grid(16, 16, model.matrix)
    if kind == "critical":
        return ck.critical_metric(model, grid)[1]
    chart = va.deformation_chart(model, grid)
    return va.deform(chart, va.random_deformation(grid, seed=5, amplitude=0.25))


def test_reeb_kernels_bit_identical_to_full_gradient(reeb_case):
    metric = reeb_case
    reeb = metric.structure.reeb
    lg = lie_derivative(metric.g, reeb)
    assert np.all(lg.data == lie_reference(metric.g, reeb))
    assert np.all(lie_derivative(metric.phi, reeb).data == lie_reference(metric.phi, reeb))
    nabla_r = va._reeb_connection(metric)[2]
    nabla = covariant_derivative(lg, reeb, nabla_r)
    ref = lie_reference(lg, reeb) + tensors._derivation(lg.data, "dd", nabla_r)
    assert np.all(nabla.data == ref)


@pytest.mark.parametrize("chart, calls", [("suspension", 1), ("contact", 2), ("tilted", 3)])
def test_reeb_kernels_stencil_only_nonzero_axes(monkeypatch, chart, calls):
    # (1/tau) d_t on a suspension, cos d_x + sin d_y on the contact testbed,
    # and the contact R tilted by d_t: one, two and three nonzero axes
    if chart == "suspension":
        model = ck.build_hyperbolic_model([[2, 1], [1, 1]])
        metric = ck.critical_metric(model, Grid(16, 16, model.matrix))[1]
    else:
        metric = ck.contact_t3_testbed(1, Grid(16, 16))[1]
    reeb = metric.structure.reeb
    if chart == "tilted":
        reeb = TensorField(reeb.grid, reeb.data + np.array([1.0, 0.0, 0.0]), "u")
    lg = lie_derivative(metric.g, reeb)
    nabla_r = va._reeb_connection(metric)[2]
    seen = []

    def counting(data, *args):
        seen.append(data)
        return ck.partial_derivative(data, *args)

    # the stencil may read the field's t-column, a view of its memory
    monkeypatch.setattr(tensors, "partial_derivative", counting)
    lie_derivative(metric.g, reeb)
    assert sum(np.shares_memory(d, metric.g.data) for d in seen) == calls
    seen.clear()
    covariant_derivative(lg, reeb, nabla_r)
    assert sum(np.shares_memory(d, lg.data) for d in seen) == calls


# -- the Reeb covariant derivatives against the Christoffel form -----------------
# coskit forms nabla_R S as L_R S + D(nabla R) S with nabla R = (g^-1 T - dalpha+) / 2,
# T = L_R g; the reference is christoffel and covariant_gradient contracted with R


def reeb_residuals_and_references(metric):
    """(EL, reference EL, nabla_R h, reference nabla_R h) of a compatible metric."""
    reeb = metric.structure.reeb
    gamma = christoffel(metric.g, metric.ginv)
    lg = lie_derivative(metric.g, reeb)
    el_ref = covariant_reference(lg, gamma, reeb) - lg.data @ ck.d_alpha_plus(metric).data
    del lg
    h = metric.h_tensor()
    nh = covariant_derivative(h, reeb, va._reeb_connection(metric)[2]).data
    return va.euler_lagrange_residual(metric).data, el_ref, nh, covariant_reference(h, gamma, reeb)


def metric_sup(metric, data, sig):
    return float(np.sqrt(np.max(tensor_norm2(data, sig, metric.g.data, metric.ginv))))


def test_reeb_covariant_derivatives_match_christoffel(reeb_case):
    # the suspension's R = (1/tau) d_t and g(R, .) = tau dt are constant, so
    # both forms take the same differences and agree to roundoff (at most
    # 0.015 roundoff scales at 16^3); on the undeformed contact testbed and
    # the Sol box they agree bit for bit
    metric = reeb_case
    el, el_ref, nh, nh_ref = reeb_residuals_and_references(metric)
    scale = cli._roundoff_scale(metric)
    assert metric_sup(metric, el - el_ref, "dd") <= scale
    assert metric_sup(metric, nh - nh_ref, "ud") <= scale
    assert va.nabla_r_h_residual(metric) == metric_sup(metric, nh, "ud")


def test_reeb_covariant_derivatives_converge_to_christoffel_on_deformed_contact():
    # a deformed contact metric: R is not constant, and the two forms are
    # different 4th-order discretizations (ratios 10.8 from 16^3 to 32^3 and
    # 14.5 from 32^3 to 64^3)
    diffs = []
    for n in (32, 64):
        _, g0 = ck.contact_t3_testbed(1, Grid(n, n))
        metric = va.exponential_curve(g0, va.random_tangent(g0, np.random.default_rng(1), 0.3), 1)
        del g0
        el, el_ref, nh, nh_ref = reeb_residuals_and_references(metric)
        diffs.append((metric_sup(metric, el - el_ref, "dd"), metric_sup(metric, nh - nh_ref, "ud")))
        del metric, el, el_ref, nh, nh_ref
    for coarse, fine in zip(*diffs):
        assert np.log2(coarse / fine) >= 3.5




# -- storage and exact-zero derivatives ------------------------------------------
# a TensorField keeps input with fewer grid axes as a read-only broadcast view;
# a finite, stored-constant field (zero strides on all three grid axes) that
# the seam carries to itself has an exactly zero stencil gradient, and
# gradient and exterior_derivative return it without a stencil; each skipped
# result must equal the stencilled one bit for bit, compared by tobytes() so
# that a -0.0 shows


def test_full_shape_input_kept_as_given():
    grid = Grid(8, 8)
    data = np.random.default_rng(0).random(grid.shape + (3, 3))
    f = TensorField(grid, data, "dd")
    assert f.data is data and f.data.flags.writeable


@pytest.mark.parametrize("data, strides", [
    (np.eye(3), (0, 0, 0, 24, 8)),
    (np.arange(8.0).reshape(8, 1, 1, 1, 1) * np.eye(3), (72, 0, 0, 24, 8)),
], ids=["constant", "t-only"])
def test_fewer_grid_axes_stored_as_zero_stride_view(data, strides):
    grid = Grid(8, 8)
    f = TensorField(grid, data, "dd")
    assert f.data.shape == grid.shape + (3, 3) and f.data.strides == strides
    assert np.shares_memory(f.data, data)
    with pytest.raises(ValueError):
        f.data[0, 0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        f.data += 1.0


def full_copy(f):
    """f as a contiguous full-shape field, which the tensor layer computes at full shape."""
    return TensorField(f.grid, np.array(f.data), f.sig)


def recording_stencils(monkeypatch):
    """The list of arrays that tensors' stencil reads, filled as it runs."""
    stenciled = []
    real = tensors.partial_derivative

    def recording(data, *args):
        stenciled.append(data)
        return real(data, *args)

    monkeypatch.setattr(tensors, "partial_derivative", recording)
    return stenciled


SUSPENSIONS = [(matrix, tau, area) for matrix in ([[2, 1], [1, 1]], [[-2, 1], [1, -1]])
               for tau in (0.7, 1.0) for area in (1.0, 2.0)]


def suspension_id(case):
    matrix, tau, area = case
    return f"trace{'+' if matrix[0][0] > 0 else '-'}-tau{tau}-V{area}"


def critical8(matrix, tau, area):
    model = ck.build_hyperbolic_model(matrix, tau=tau, area=area)
    return ck.critical_metric(model, Grid(8, 8, model.matrix))


@pytest.fixture(scope="module", params=[None] + SUSPENSIONS,
                ids=lambda c: "flat" if c is None else suspension_id(c))
def constant_structure(request):
    """(tau dt, V dx^dy, tau^-1 d_t) on the flat chart and on suspensions of both trace signs."""
    if request.param is None:
        return ck.flat_cokahler(Grid(8, 8))[0]
    return critical8(*request.param)[0]


def test_exact_zero_forms_skip_bit_identical(constant_structure, monkeypatch):
    # the constant forms are stencilled on their t-column; their gradient
    # and d have the bytes of the full-shape copies' stencils, all +0.0
    grid = constant_structure.grid
    scalar = TensorField(grid, 2.5, "")
    fields = (scalar, constant_structure.alpha, constant_structure.beta)
    grads = [tensors.gradient(f.data, f.sig, grid) for f in fields]
    ds = [exterior_derivative(full_copy(f)).data for f in fields]
    for f, grad in zip(fields, grads):
        assert grad.tobytes() == stencil_gradient(f.data, f.sig, grid).tobytes()
    # the same scalar as a full array, to the same bytes
    full = TensorField(grid, np.full(grid.shape, 2.5), "")
    assert tensors.gradient(full.data, full.sig, grid).tobytes() == grads[0].tobytes()
    assert exterior_derivative(full).data.tobytes() == ds[0].tobytes()
    stenciled = recording_stencils(monkeypatch)
    for f, d in zip(fields, ds):
        out = exterior_derivative(f)
        assert out.sig == "d" * (len(f.sig) + 1)
        assert out.data.tobytes() == d.tobytes()
        assert not np.any(d) and not np.any(np.signbit(d))
    assert stenciled and all(a.shape[1:3] == (1, 1) for a in stenciled)


@pytest.mark.parametrize("case", SUSPENSIONS, ids=suspension_id)
def test_lie_along_suspension_reeb_skip_bit_identical(case, monkeypatch):
    # L_R on the t-columns has the bytes of L_R on full-shape copies, and
    # the Reeb field is stencilled only as its column
    structure, metric = critical8(*case)
    reeb = structure.reeb
    fields = (metric.g, metric.phi, structure.alpha, structure.beta)
    refs = [lie_derivative(full_copy(f), full_copy(reeb)).data for f in fields]
    stenciled = recording_stencils(monkeypatch)
    for f, ref in zip(fields, refs):
        assert lie_derivative(f, reeb).data.tobytes() == ref.tobytes()
    reeb_reads = [d for d in stenciled if np.shares_memory(d, reeb.data)]
    assert reeb_reads and all(d.shape[1:3] == (1, 1) for d in reeb_reads)


def test_christoffel_flat_cokahler_skip_bit_identical(flat8):
    # Gamma of the constant flat metric, stored as its t-column, has the
    # bytes of Gamma of a full-shape copy: +0.0 everywhere
    _, metric = flat8
    ref = christoffel(full_copy(metric.g), np.array(metric.ginv))
    assert christoffel(metric.g, metric.ginv).tobytes() == ref.tobytes()
    assert not np.any(ref) and not np.any(np.signbit(ref))


def seam_moved(grid, sig, stored):
    """dx, or d_x: stored constant, or as a full array."""
    if stored:
        return TensorField(grid, [0.0, 1.0, 0.0], sig)
    data = np.zeros(grid.shape + (3,))
    data[..., 1] = 1.0
    return TensorField(grid, data, sig)


@pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[-2, 1], [1, -1]]], ids=["L+", "L-"])
@pytest.mark.parametrize("sig", ["d", "u"])
def test_no_skip_on_constant_field_the_seam_moves(matrix, sig):
    # dx and d_x are constant on the chart, but the gluing carries them to
    # other constants, so their t-derivative is nonzero at the seam, on the
    # stored constant's t-column as on the full array
    grid = Grid(8, 8, matrix)
    for stored in (True, False):
        f = seam_moved(grid, sig, stored)
        grad = tensors.gradient(f.data, sig, grid)
        assert grad.tobytes() == stencil_gradient(f.data, sig, grid).tobytes()
        assert np.any(grad[[0, 1, -2, -1], :, :, 0])
        assert not np.any(grad[2:-2])
        if sig == "d":
            d = exterior_derivative(f).data
            assert d.tobytes() == exterior_derivative(full_copy(f)).data.tobytes()
            assert np.any(d[0]) and not np.any(d[2:-2])


def test_no_skip_on_open_box():
    # the one-sided rows of the open t-axis, on the t-column and the full grid
    structure, metric = ck.sol_model(1.0, ck.sol_box_grid(8, 16))
    grid = structure.grid
    for f in (structure.alpha, structure.beta, structure.reeb):
        assert tensors.gradient(f.data, f.sig, grid).tobytes() \
            == stencil_gradient(f.data, f.sig, grid).tobytes()
        column = tensors.gradient(f.data[:, :1, :1], f.sig, grid)
        assert np.broadcast_to(column, grid.shape + column.shape[3:]).tobytes() \
            == stencil_gradient(f.data, f.sig, grid).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_no_skip_on_nonfinite_constant(value):
    # a non-finite constant, stored or full, is stencilled to NaN
    for grid in (Grid(8, 8), Grid(8, 8, [[2, 1], [1, 1]])):
        for data in (np.full(grid.shape + (3,), value),
                     TensorField(grid, np.full(3, value), "d").data):
            with np.errstate(invalid="ignore"):
                grad = tensors.gradient(data, "d", grid)
                d = exterior_derivative(TensorField(grid, data, "d")).data
            assert np.all(np.isnan(grad)) and np.all(np.isnan(d))   # inf - inf, nan - nan


def test_no_skip_on_full_arrays():
    # a constant full-shape array is stencilled to the zeros of the stored
    # constant, and one point breaks constancy, as does one -0.0 among
    # +0.0, whose stencil gradient holds -0.0 entries
    grid = Grid(8, 8, [[2, 1], [1, 1]])
    d_t = TensorField(grid, [1.0, 0.0, 0.0], "u").data
    constant = np.array(d_t)
    assert tensors.gradient(constant, "u", grid).tobytes() \
        == tensors.gradient(d_t, "u", grid).tobytes()
    for value in (1.0 + 2.0 ** -52, -0.0):
        data = np.zeros(grid.shape + (3,)) if value == 0.0 else np.ones(grid.shape + (3,))
        data[3, 2, 5, 1] = value
        grad = tensors.gradient(data, "u", grid)
        assert grad.tobytes() == stencil_gradient(data, "u", grid).tobytes()
        assert np.any(np.signbit(grad)) if value == 0.0 else np.any(grad)


# -- Hodge star ---------------------------------------------------------------


def test_hodge_alpha_is_beta(crit32):
    structure, metric = crit32
    chol = tensors.check_positive_definite(metric.g.data)
    star = hodge_star(structure.alpha, chol, structure.orientation, ginv=metric.ginv)
    assert sup(star.data - structure.beta.data) < 1e-12


def test_hodge_flat_dt():
    grid = Grid(16, 16)
    structure, metric = ck.flat_cokahler(grid)
    dt = TensorField(grid, np.broadcast_to(np.array([1.0, 0, 0]), grid.shape + (3,)).copy(), "d")
    star = hodge_star(dt, tensors.check_positive_definite(metric.g.data), ginv=metric.ginv)
    expected = np.zeros(grid.shape + (3, 3))
    expected[..., 1, 2] = 1.0
    expected[..., 2, 1] = -1.0
    assert sup(star.data - expected) < 1e-14


def test_hodge_involution_and_isometry(model, grid32, crit32):
    _, metric = crit32
    omega = random_global_one_form(model, grid32, seed=11)
    g, ginv = metric.g.data, metric.ginv
    star = hodge_star(omega, tensors.check_positive_definite(g), ginv=ginv)
    # the inverse direction on 2-forms: (*s)_l = g_lk (1/2) eps^{kij} s_ij / sqrt(g)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    comp = 0.5 * np.einsum("kij,...ij->...k", eps, star.data)
    back = np.einsum("...lk,...k->...l", g, comp) / np.sqrt(np.linalg.det(g))[..., None]
    assert sup(back - omega.data) < 1e-12
    n1 = tensor_norm2(omega.data, "d", g, ginv)
    n2 = 0.5 * tensor_norm2(star.data, "dd", g, ginv)   # form norm: 1/k! factor
    assert sup(n1 - n2) < 1e-12 * max(1.0, sup(n1))


# -- Nijenhuis tensor ----------------------------------------------------------


def test_nijenhuis_flat_cokahler_zero(flat16):
    _, metric = flat16
    assert sup(nijenhuis(metric.phi).data) == 0.0


def test_nijenhuis_hyperbolic_nonzero(crit32, model):
    n = nijenhuis(crit32[1].phi)
    assert sup(n.data) > 0.1 * model.mu


def test_nijenhuis_covariant_derivative_identity(crit32):
    # 2 g((nabla_X phi) Y, Z) = g([phi, phi](Y, Z), phi X) on random frames
    structure, metric = crit32
    rng = np.random.default_rng(12)
    n = nijenhuis(metric.phi).data
    nphi = covariant_gradient(metric.phi, christoffel(metric.g, metric.ginv))
    for _ in range(4):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        z = rng.standard_normal(3)
        lhs = 2.0 * np.einsum("...ij,...aim,a,m,...j->...", metric.g.data,
                              nphi.data, x, y, np.broadcast_to(z, metric.grid.shape + (3,)))
        rhs = np.einsum("...ij,...imn,m,n,...jk,k->...", metric.g.data, n, y, z,
                        metric.phi.data, x)
        assert sup(lhs - rhs) < 5e-5 * max(1.0, sup(rhs))


# -- symmetric eigendecomposition ----------------------------------------------


def test_symmetric_eigen_identity_operator(flat16):
    _, metric = flat16
    ident = TensorField(metric.grid, np.broadcast_to(np.eye(3), metric.grid.shape + (3, 3)).copy(), "ud")
    w, v, aligned = symmetric_eigen(ident, metric.g.data, metric.ginv)
    assert sup(w - 1.0) < 1e-12
    assert not aligned    # fully degenerate spectrum


def test_symmetric_eigen_flat_h_zero(flat16):
    _, metric = flat16
    w, _, _ = symmetric_eigen(metric.h_tensor(), metric.g.data, metric.ginv)
    assert sup(w) < 1e-13


def test_symmetric_eigen_h_eigenvalues(crit32, model):
    _, metric = crit32
    h = metric.h_tensor()
    w, v, aligned = symmetric_eigen(h, metric.g.data, metric.ginv)
    assert aligned
    mu = model.mu
    assert sup(w - np.array([mu, 0.0, -mu])) < 1e-5
    # pointwise eigen-residual A v = e v below 1e-10
    res = np.einsum("...ij,...jk->...ik", h.data, v) - w[..., None, :] * v
    assert sup(res) < 1e-10
    # eigenvectors g-orthonormal
    gram = np.einsum("...ij,...ia,...jb->...ab", metric.g.data, v, v)
    assert sup(gram - np.eye(3)) < 1e-10


def test_symmetric_eigen_rejects_nonselfadjoint(flat16):
    _, metric = flat16
    bad = np.zeros(metric.grid.shape + (3, 3))
    bad[..., 0, 1] = 1.0
    with pytest.raises(TensorCalculusError):
        symmetric_eigen(TensorField(metric.grid, bad, "ud"), metric.g.data, metric.ginv)


def test_symmetric_eigen_matches_sqrtm_reduction(crit16_gluing):
    # reference: the similarity by g^{1/2}, two eigh of the field
    _, metric = crit16_gluing
    h, g = metric.h_tensor(), metric.g.data
    gsq, gisq = sqrtm_spd(g)
    b = gsq @ h.data @ gisq
    w_ref, u_ref = np.linalg.eigh(0.5 * (b + np.swapaxes(b, -1, -2)))
    w_ref, v_ref = w_ref[..., ::-1], (gisq @ u_ref)[..., ::-1]
    w, v, aligned = symmetric_eigen(h, g, metric.ginv)
    assert aligned
    assert sup(w - w_ref) <= 1e-13 * sup(w_ref)
    signs = np.sign(np.sum(v * v_ref, axis=-2, keepdims=True))
    assert sup(v - signs * v_ref) <= 1e-12 * sup(v_ref)
    bad = h.data.copy()
    bad[..., 0, 1] += 1e-3
    with pytest.raises(TensorCalculusError):
        symmetric_eigen(TensorField(metric.grid, bad, "ud"), g, metric.ginv)


# -- closed-form pointwise 3x3 algebra -----------------------------------------
# each kernel against a test-local LAPACK / einsum reference; the
# summation order differs, so agreement is to roundoff, not bit for bit


def random_spd_field(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape + (3, 3))
    return a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(3)


@pytest.fixture(scope="module")
def deformed_l2_metric():
    model = ck.build_hyperbolic_model([[3, 1], [2, 1]], tau=1.0, area=1.0)
    grid = Grid(16, 16, model.matrix)
    chart = va.deformation_chart(model, grid)
    return va.deform(chart, va.random_deformation(grid, seed=3, amplitude=0.25))


def assert_inverse_matches_lapack(g):
    ginv = inverse_metric(g)
    ref = np.linalg.inv(g)
    assert sup(ginv - ref) <= 1e-13 * sup(ref)
    assert sup(ginv @ g - np.eye(3)) <= 1e-13


def test_inverse_metric_random_spd():
    assert_inverse_matches_lapack(random_spd_field((16, 16, 16), seed=0))


def test_inverse_metric_deformed_l2(deformed_l2_metric):
    g = deformed_l2_metric.g.data
    assert_inverse_matches_lapack(g)
    ginv = inverse_metric(g)
    assert np.array_equal(ginv, np.swapaxes(ginv, -1, -2))   # adjugate keeps symmetry


def test_inverse_metric_rejects_singular():
    g = random_spd_field((4, 4, 4), seed=4)
    g[1, 2, 3] = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(TensorCalculusError):
        inverse_metric(g)


def scaled_spd_field(shape, seed, cond):
    """Random SPD field D A D with A well conditioned and D spreading cond."""
    rng = np.random.default_rng(seed)
    d = cond ** (0.25 * rng.uniform(-1.0, 1.0, shape + (3,)))
    d[..., 0], d[..., 1] = cond ** -0.25, cond ** 0.25
    return d[..., :, None] * random_spd_field(shape, seed) * d[..., None, :]


def rotated_spd_field(shape, seed, cond):
    """Random SPD field Q diag(w) Q^T with eigenvalues 1/sqrt(cond) and sqrt(cond)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal(shape + (3, 3)))
    w = cond ** (0.5 * rng.uniform(-1.0, 1.0, shape + (3,)))
    w[..., 0], w[..., 1] = cond ** -0.5, cond ** 0.5
    g = (q * w[..., None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


@pytest.mark.parametrize("field", ["random", "scaled_1e8"])
def test_cholesky3_and_det3_match_lapack(field):
    if field == "random":
        g = random_spd_field((16, 16, 16), seed=5)
    else:
        g = scaled_spd_field((16, 16, 16), seed=6, cond=1e8)
        assert np.max(np.linalg.cond(g)) > 1e8
    c, ref = tensors._cholesky3(g), np.linalg.cholesky(g)
    assert sup(c - ref) <= 1e-14 * sup(ref)
    assert np.all(np.triu(c, 1) == 0.0)
    det, det_ref = factor_det(c), np.linalg.det(g)
    assert sup(det - det_ref) <= 1e-14 * sup(det_ref)


def factor_det(c):
    """det g = (C_00 C_11 C_22)^2 from the lower Cholesky factor C."""
    return np.prod(np.diagonal(c, axis1=-2, axis2=-1), axis=-1) ** 2


LEIBNIZ_TERMS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                 ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def test_cholesky3_and_det3_within_rounding_bounds_at_condition_1e8():
    # in a random orientation the condition number amplifies rounding: the
    # factor is backward stable, and the determinant read off it is within
    # a relative 4 cond eps of the exact one, a bound that the cofactor
    # expansion along row 0 misses by orders of magnitude
    cond = 1e8
    g = rotated_spd_field((8, 8, 8), seed=7, cond=cond)
    eps = np.finfo(float).eps
    c = tensors._cholesky3(g)
    backward = np.max(np.abs(c @ np.swapaxes(c, -1, -2) - g), axis=(-2, -1))
    assert np.all(backward <= 4 * eps * np.max(np.abs(g), axis=(-2, -1)))
    cofactor = sum(g[..., 0, j] * (g[..., 1, j1] * g[..., 2, j2] - g[..., 1, j2] * g[..., 2, j1])
                   for j, (j1, j2) in enumerate(((1, 2), (2, 0), (0, 1))))
    dets = {"factor": factor_det(c), "cofactor": cofactor}
    worst = dict.fromkeys(dets, 0.0)
    for point in np.ndindex(g.shape[:3]):
        # the exact rational determinant of the float entries
        m = [[Fraction(v) for v in row] for row in g[point].tolist()]
        exact = sum(sign * m[0][i] * m[1][j] * m[2][k] for (i, j, k), sign in LEIBNIZ_TERMS)
        for name, det in dets.items():
            rel = abs(Fraction(float(det[point])) - exact) / exact
            worst[name] = max(worst[name], float(rel))
    assert worst["factor"] <= 4 * cond * eps
    assert worst["cofactor"] > 4 * cond * eps


def test_check_positive_definite_returns_factor_or_names_point():
    g = random_spd_field((8, 8, 8), seed=8)
    assert np.array_equal(tensors.check_positive_definite(g), tensors._cholesky3(g))
    bad = g.copy()
    bad[3, 5, 7] = np.diag([1.0, -1e-3, 2.0])
    assert tensors._cholesky3(bad) is None
    with pytest.raises(TensorCalculusError, match=r"not positive definite at grid point \(3, 5, 7\)"):
        tensors.check_positive_definite(bad)
    with pytest.raises(TensorCalculusError, match="not positive definite"):
        symmetric_eigen(TensorField(Grid(8, 8), np.eye(3), "ud"), bad, inverse_metric(bad))
    # a pivot lost to roundoff where eigvalsh may still find the spectrum
    # positive (3.9e-16): the point is named either way
    bad[3, 5, 7] = [[1.4227249891481872, 0.41668601910181774, -0.7315932784606061],
                    [0.41668601910181774, 0.544712457575045, 0.312445667420026],
                    [-0.7315932784606061, 0.312445667420026, 1.0325625532767682]]
    assert tensors._cholesky3(bad) is None
    with pytest.raises(TensorCalculusError, match=r"not positive definite at grid point \(3, 5, 7\)"):
        tensors.check_positive_definite(bad)
    bad[3, 5, 7] = g[3, 5, 7]
    bad[1, 2, 4, 2, 0] = np.nan
    with pytest.raises(TensorCalculusError, match=r"not finite at grid point \(1, 2, 4\)"):
        tensors.check_positive_definite(bad)


def test_sqrtm_spd_matches_einsum():
    m = random_spd_field((8, 8, 8), seed=1)
    sq, isq = sqrtm_spd(m)
    w, v = np.linalg.eigh(m)
    ref = np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(w), v)
    iref = np.einsum("...ij,...j,...kj->...ik", v, 1.0 / np.sqrt(w), v)
    assert sup(sq - ref) <= 1e-13 * sup(ref)
    assert sup(isq - iref) <= 1e-13 * sup(iref)


@pytest.mark.parametrize("sig", ["", "d", "u", "dd", "ud", "udd"])
def test_tensor_norm2_matches_einsum(sig):
    rng = np.random.default_rng(2)
    g = random_spd_field((6, 6, 6), seed=2)
    ginv = np.linalg.inv(g)
    data = rng.standard_normal(g.shape[:3] + (3,) * len(sig))
    r = len(sig)
    operands = [data, [0, 1, 2] + list(range(3, 3 + r)),
                data, [0, 1, 2] + list(range(3 + r, 3 + 2 * r))]
    for k, kind in enumerate(sig):
        operands += [g if kind == "u" else ginv, [0, 1, 2, 3 + k, 3 + r + k]]
    ref = np.einsum(*operands, [0, 1, 2])
    assert sup(tensor_norm2(data, sig, g, ginv) - ref) <= 1e-13 * sup(ref)


def einsum_slot_terms(data, sig, m):
    """The derivation of m written as one einsum per slot: m on 'u', -m^T on 'd'."""
    gax, slots = [0, 1, 2], list(range(4, 4 + len(sig)))
    out = np.zeros(data.shape)
    for s, kind in enumerate(sig):
        t_subs = gax + slots[:s] + [3] + slots[s + 1:]
        if kind == "u":
            out += np.einsum(m, gax + [slots[s], 3], data, t_subs, gax + slots)
        else:
            out -= np.einsum(m, gax + [3, slots[s]], data, t_subs, gax + slots)
    return out


@pytest.mark.parametrize("sig", ["", "u", "d", "ud", "dd", "udd"])
def test_derivation_matches_einsum(sig):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 6, 6, 3, 3))
    data = rng.standard_normal((6, 6, 6) + (3,) * len(sig))
    ref = einsum_slot_terms(data, sig, m)
    assert sup(tensors._derivation(data, sig, m) - ref) <= 1e-14 * sup(m) * sup(data)


def test_christoffel_matches_einsum():
    grid = Grid(6, 6)
    g = random_spd_field(grid.shape, seed=5)
    gamma = christoffel(TensorField(grid, g, "dd"), inverse_metric(g))
    grad = tensors.gradient(g, "dd", grid)
    b = grad + np.swapaxes(grad, 3, 4) - np.moveaxis(grad, 3, 5)
    ref = 0.5 * np.einsum("...kl,...ijl->...kij", np.linalg.inv(g), b)
    assert sup(gamma - ref) <= 1e-14 * sup(ref)
    assert gamma.flags.c_contiguous


@pytest.mark.parametrize("sig", ["u", "dd", "udd"])
def test_on_slot_constant_matches_row_form(sig):
    # the kernel groups all rows into one 2-D product; the row form on the
    # N-d view is the reference, exact on integers and at roundoff otherwise
    rng = np.random.default_rng(6)
    mat = rng.integers(-3, 4, size=(3, 3)).astype(float)
    shape = (6, 6, 6) + (3,) * len(sig)
    for data, exact in ((rng.integers(-9, 10, size=shape).astype(float), True),
                        (rng.standard_normal(shape), False)):
        for s in range(len(sig)):
            ref = np.moveaxis(np.moveaxis(data, 3 + s, -1) @ mat.T, -1, 3 + s)
            out = grids._on_slot(data, s, mat)
            if exact:
                assert np.array_equal(out, ref)
            else:
                assert sup(out - ref) <= 1e-15 * sup(ref)


def test_tensor_layer_calls_no_einsum(monkeypatch):
    # every slot product of the tensor layer goes through grids._on_slot;
    # an einsum in tensors or grids fails this test
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.einsum called in the tensor layer")

    for module in (tensors, grids):
        proxy = type(np)("numpy")
        proxy.__dict__.update(np.__dict__)
        proxy.einsum = refuse
        monkeypatch.setattr(module, "np", proxy)
    structure, metric = ck.contact_t3_testbed(1, Grid(8, 8))
    reeb = structure.reeb
    assert np.any(tensors.gradient(reeb.data, "u", reeb.grid))    # the slot terms run
    lg = lie_derivative(metric.g, reeb)
    covariant_gradient(lg, christoffel(metric.g, metric.ginv))
    covariant_derivative(lg, reeb, va._reeb_connection(metric)[2])
    tensor_norm2(lg.data, "dd", metric.g.data, metric.ginv)
    hodge_star(structure.alpha, tensors.check_positive_definite(metric.g.data),
               structure.orientation, ginv=metric.ginv)
