import dataclasses
import sys

import numpy as np
import pytest

import coskit as ck
from coskit import cosymplectic, dynamics as dy, tensors, variational
from coskit.grids import Grid, _torus_permutation
from coskit.tensors import TensorField, lie_bracket, symmetric_eigen
from references import orbit_field


def sup(a):
    return float(np.max(np.abs(a)))


# -- exact flow ---------------------------------------------------------------


def test_flow_time_zero_is_identity(model):
    p = np.array([0.3, 0.1, 0.9])
    assert sup(dy.reeb_flow(p, 0.0, model) - p) == 0.0


def test_flow_one_period_applies_gluing(model):
    # (x, 0) reaches (L x mod 1, 0) after time tau under (p, t+1) ~ (Lp, t)
    p = np.array([0.0, 0.21, 0.47])
    out = dy.reeb_flow(p, model.tau, model)
    expected = (np.asarray(model.matrix, float) @ p[1:]) % 1.0
    assert sup(out - np.array([0.0, *expected])) < 1e-12
    # and backward flow undoes it
    back = dy.reeb_flow(out, -model.tau, model)
    assert sup(back - p) < 1e-12


def test_flow_transport_volume_preserving(model):
    p = np.array([0.6, 0.2, 0.8])
    for time in (0.3, model.tau, 7.3 * model.tau, -2.0 * model.tau):
        _, a, _ = dy.flow_transport(p, time, model)
        assert abs(np.linalg.det(a) - 1.0) < 1e-9


def test_cocycle_exact_composition(model):
    co = dy.FlowCocycle.along_orbit(model, [0.0, 0.21, 0.47], 50)
    assert co.composition_residual() == 0
    assert co.determinant_defect() == 0


# -- Lyapunov exponents ----------------------------------------------------------


def test_lyapunov_exponents_critical(model):
    mu = model.mu
    ly = dy.lyapunov_exponents(model, horizon=50.0 * model.tau)
    assert sup(ly - np.array([mu, 0.0, -mu])) < 1e-9
    assert abs(float(np.sum(ly))) < 1e-12


def test_lyapunov_base_point_independence(model):
    rng = np.random.default_rng(1)
    base = dy.lyapunov_exponents(model, horizon=50.0 * model.tau)
    for _ in range(10):
        ly = dy.lyapunov_exponents(model, rng.random(3), horizon=50.0 * model.tau)
        assert sup(ly - base) < 1e-9


def test_lyapunov_short_horizon_still_exact(model):
    # the per-period cocycle is exact, so even a short horizon gives the
    # correct exponents after burn-in
    ly = dy.lyapunov_exponents(model, horizon=5.0 * model.tau)
    assert sup(ly - np.array([model.mu, 0.0, -model.mu])) < 1e-9


# -- Anosov splitting ---------------------------------------------------------------


@pytest.fixture(scope="module")
def frame32(crit32):
    _, metric = crit32
    return dy.refine_splitting(dy.anosov_splitting(metric), metric)


def test_splitting_alignment_with_torus_eigenvectors(frame32, model):
    def max_sin(v, w):
        w3 = np.array([0.0, w[0], w[1]])
        w3 = w3 / np.linalg.norm(w3)
        vn = v / np.linalg.norm(v, axis=-1, keepdims=True)
        perp = vn - (vn @ w3)[..., None] * w3
        return np.max(np.linalg.norm(perp, axis=-1))

    assert max_sin(frame32.v_minus.data, model.w_plus) < 1e-8
    assert max_sin(frame32.v_plus.data, model.w_minus) < 1e-8


def test_splitting_hphi_eigenvalues(frame32, model):
    # nabla R = h phi: the stable line carries the -mu eigenvalue of h phi
    # (positive eigenvalue = orbit divergence = unstable direction)
    assert frame32.hphi_stable_eig == pytest.approx(-model.mu, abs=1e-5)
    assert frame32.hphi_unstable_eig == pytest.approx(model.mu, abs=1e-5)


def test_splitting_frame_spans(frame32, crit32):
    structure, metric = crit32
    frame = np.stack([structure.reeb.data, frame32.v_minus.data,
                      frame32.v_plus.data], axis=-1)
    dets = np.linalg.det(frame)
    assert float(np.min(np.abs(dets))) > 0.1


def test_splitting_invariance(frame32, crit32):
    _, metric = crit32
    assert dy.splitting_invariance_residual(frame32, metric, n_periods=10) < 1e-8


def test_contraction_law(frame32, crit32, model):
    _, metric = crit32
    assert dy.contraction_law_residual(frame32, metric, model, n_periods=10) < 1e-9


def _sweep_reference(frame, metric, iterations):
    """The graph transform one normalized period at a time, paired by the
    three-operand einsum: the loop that refine_splitting composes."""
    grid, g = metric.grid, metric.g.data
    (p, q), (r, s) = grid.monodromy.tolist()
    lmat, linv = [[p, q], [r, s]], [[s, -q], [-r, p]]
    a, a_inv = np.eye(3), np.eye(3)
    a[1:, 1:], a_inv[1:, 1:] = lmat, linv
    pi_f, pj_f = _torus_permutation(grid.n_torus, lmat)
    pi_b, pj_b = _torus_permutation(grid.n_torus, linv)
    gdot = lambda u, v: np.einsum("...ij,...i,...j->...", g, u, v)
    norm = lambda v: v / np.sqrt(gdot(v, v))[..., None]
    unstable, stable = frame.v_minus.data, frame.v_plus.data
    for _ in range(iterations):
        unstable = norm(np.einsum("ij,...j->...i", a, unstable[:, pi_b, pj_b]))
        stable = norm(np.einsum("ij,...j->...i", a_inv, stable[:, pi_f, pj_f]))
    resign = lambda v, seed: v * np.sign(gdot(v, seed))[..., None]
    return resign(unstable, frame.v_minus.data), resign(stable, frame.v_plus.data)


@pytest.mark.parametrize("iterations", [3, 40])
def test_refine_matches_sweep_loop(crit16_gluing, iterations):
    # the seed is perturbed pointwise, so a few sweeps leave lines that
    # still vary over the torus and depend on where each sweep gathers
    _, metric = crit16_gluing
    frame = dy.anosov_splitting(metric)
    rng = np.random.default_rng(7)
    noisy = lambda f: TensorField(f.grid, f.data + 0.1 * rng.standard_normal(f.data.shape), "u")
    frame = dataclasses.replace(frame, v_minus=noisy(frame.v_minus),
                                v_plus=noisy(frame.v_plus))
    refined = dy.refine_splitting(frame, metric, iterations)
    for got, ref in zip((refined.v_minus.data, refined.v_plus.data),
                        _sweep_reference(frame, metric, iterations)):
        sin = np.linalg.norm(np.cross(got, ref), axis=-1) / (
            np.linalg.norm(got, axis=-1) * np.linalg.norm(ref, axis=-1))
        assert sup(sin) <= 1e-14
        # lengths agree only as far as the g-pairing resolves a unit vector:
        # on [[5,2],[2,1]] cond(g) reaches 743 and both sides are g-unit to ~1e-14
        assert sup(got - ref) <= 1e-13 * sup(ref)


def test_refine_many_iterations_in_blocks():
    # 500 periods of [[5,2],[2,1]] overflow a float L^500; refine goes in
    # blocks of 100 periods and normalizes between them
    model = ck.build_hyperbolic_model([[5, 2], [2, 1]])
    _, metric = ck.critical_metric(model, Grid(16, 16, model.matrix))
    refined = dy.refine_splitting(dy.anosov_splitting(metric), metric, iterations=500)
    for field in (refined.v_plus, refined.v_minus, refined.u_plus, refined.u_minus):
        assert np.all(np.isfinite(field.data))
    assert dy.splitting_invariance_residual(refined, metric, n_periods=10) < 1e-8


def test_splitting_invariance_over_long_horizon():
    # L^n has entries beyond int64 from n = 34 on for [[3,1],[2,1]]
    model = ck.build_hyperbolic_model([[3, 1], [2, 1]])
    _, metric = ck.critical_metric(model, Grid(16, 16, model.matrix))
    frame = dy.refine_splitting(dy.anosov_splitting(metric), metric)
    assert dy.splitting_invariance_residual(frame, metric, n_periods=40) < 1e-8


def test_splitting_builds_one_lie_derivative(model, monkeypatch):
    # h = (1/2) L_R phi is the only Lie derivative: the torsion check reads
    # h's spectrum, not a second L_R g
    _, metric = ck.critical_metric(model, Grid(12, 12, model.matrix))
    calls = []
    real = tensors.lie_derivative

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("coskit") and getattr(module, "lie_derivative", None) is real:
            monkeypatch.setattr(module, "lie_derivative", counted)
    monkeypatch.setattr(variational, "_torsion", lambda metric: pytest.fail("L_R g built"))
    dy.anosov_splitting(metric)
    assert len(calls) == 1


def test_splitting_rejects_flat(flat16):
    with pytest.raises(dy.NotHyperbolicTorsionError):
        dy.anosov_splitting(flat16[1])


# -- bracket relations ----------------------------------------------------------------


def test_bracket_relations_fourth_order(model, crit32, crit64):
    _, m32 = crit32
    _, m64 = crit64
    fr32 = dy.anosov_splitting(m32)
    fr64 = dy.anosov_splitting(m64)
    r32 = dy.bracket_residuals(m32, fr32)
    r64 = dy.bracket_residuals(m64, fr64)
    mu = model.mu
    for key in ("reeb_v_plus", "reeb_v_minus", "reeb_u_plus", "reeb_u_minus"):
        assert r32[key] < 1e-4 * mu
        assert r32[key] / r64[key] > 8.0
    assert r32["v_plus_v_minus"] < 1e-12


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


def test_splitting_frame_pins_no_eigenvector_field(model):
    # u_+ is copied out of the eigenvector field, so a frame does not keep
    # the whole (n, n, n, 3, 3) field alive: on the t-column metric each
    # frame field is backed by M x 3 floats; its values are unchanged
    _, metric = ck.critical_metric(model, Grid(16, 16, model.matrix))
    frame = dy.anosov_splitting(metric)
    for name in ("u_plus", "u_minus", "v_plus", "v_minus"):
        assert _owner(getattr(frame, name).data).size == 16 * 3
    _, evecs, _ = symmetric_eigen(metric.h_tensor(), metric.g.data, ginv=metric.ginv)
    u_plus = evecs[..., :, 0]
    u_minus = np.einsum("...ij,...j->...i", metric.phi.data, u_plus)
    assert np.array_equal(frame.u_plus.data, u_plus)
    assert np.array_equal(frame.u_minus.data, u_minus)
    assert np.array_equal(frame.v_plus.data, (u_plus + u_minus) / np.sqrt(2.0))
    assert np.array_equal(frame.v_minus.data, (u_plus - u_minus) / np.sqrt(2.0))


def _splitting_stages(metric, model) -> dict:
    """The frame stages of the splitting benchmark: both frames and every residual."""
    frame = dy.anosov_splitting(metric)
    refined = dy.refine_splitting(frame, metric)
    out = {"frame": frame, "refined": refined,
           "invariance": dy.splitting_invariance_residual(refined, metric, n_periods=10),
           "contraction": dy.contraction_law_residual(refined, metric, model, n_periods=10)}
    if model.lam > 0:
        out["brackets"] = dy.bracket_residuals(metric, frame)
    return out


def _bits(o):
    """The exact bytes of a nested output, at grid shape."""
    if isinstance(o, dict):
        return {k: _bits(v) for k, v in o.items()}
    if isinstance(o, TensorField):
        o = o.data
    elif dataclasses.is_dataclass(o):
        return [_bits(getattr(o, f.name)) for f in dataclasses.fields(o)]
    return np.ascontiguousarray(o, dtype=float).tobytes()


@pytest.mark.parametrize("mat", [[[2, 1], [1, 1]], [[-2, 1], [1, -1]], [[3, 1], [2, 1]]],
                         ids=["2,1,1,1", "-2,1,1,-1", "3,1,2,1"])
def test_splitting_same_bits_on_column_and_full_path(monkeypatch, mat):
    # the critical metric is certified as its t-column and the splitting runs
    # on columns; with the column test off, a full copy of g takes the full
    # path; every frame field, residual and certified field has the same bytes
    model = ck.build_hyperbolic_model(mat, tau=0.7, area=2.0)
    grid = Grid(16, 16, model.matrix)
    structure, metric = ck.critical_metric(model, grid)
    column = _splitting_stages(metric, model)
    monkeypatch.setattr(cosymplectic, "_column_of", lambda data: None)
    full_metric = ck.certify_compatible(structure, TensorField(grid, metric.g.data.copy(), "dd"))
    full = _splitting_stages(full_metric, model)
    assert not any(column["refined"].v_plus.data.strides[1:3])
    assert all(full["refined"].v_plus.data.strides[1:3])
    assert _bits(column) == _bits(full)
    assert metric.certificate == full_metric.certificate
    for a, b in ((metric.ginv, full_metric.ginv), (metric.phi, full_metric.phi),
                 (metric.g, full_metric.g)):
        assert _bits(a) == _bits(b)


def test_splitting_stencils_the_t_column(monkeypatch):
    # every stencil of the splitting stages reads a t-column on the critical
    # metric; on a metric whose u varies over the torus (constant in t, where
    # h stays self-adjoint) the torus-varying fields are stencilled on the
    # full grid, and the Reeb field only as its column
    model = ck.build_hyperbolic_model([[2, 1], [1, 1]], tau=0.7, area=2.0)
    grid = Grid(16, 16, model.matrix)
    _, critical = ck.critical_metric(model, grid)
    chart = variational.deformation_chart(model, grid)
    u = 0.05 * orbit_field(grid, np.random.default_rng(5))
    deformed = variational.deform(chart, variational.Deformation(grid, u, 0.0))
    stenciled = []
    real = tensors.partial_derivative
    monkeypatch.setattr(tensors, "partial_derivative",
                        lambda data, *args: stenciled.append(data) or real(data, *args))
    _splitting_stages(critical, model)
    assert stenciled and {d.shape[1:3] for d in stenciled} == {(1, 1)}
    stenciled.clear()
    _splitting_stages(deformed, model)
    reeb = deformed.structure.reeb.data
    columns = [d for d in stenciled if d.shape[1:3] == (1, 1)]
    assert columns and all(np.shares_memory(d, reeb) for d in columns)
    assert {d.shape[1:3] for d in stenciled if not np.shares_memory(d, reeb)} == {(16, 16)}


def test_bracket_perturbation_sensitivity(model, crit32):
    # perturbing the frame grows the residual linearly in the amplitude
    structure, metric = crit32
    fr = dy.anosov_splitting(metric)
    res0 = dy.bracket_residuals(metric, fr)["reeb_v_plus"]
    grid = metric.grid
    t = np.broadcast_to(grid.t, grid.shape)
    values = []
    for eps in (1e-3, 2e-3, 4e-3):
        vp = fr.v_plus.data.copy()
        vp[..., 1] += eps * np.sin(2 * np.pi * t)
        from coskit.tensors import TensorField
        fr_p = dy.SplittingFrame(fr.mu, TensorField(grid, vp, "u"), fr.v_minus,
                                 fr.u_plus, fr.u_minus,
                                 fr.hphi_stable_eig, fr.hphi_unstable_eig)
        values.append(dy.bracket_residuals(metric, fr_p)["reeb_v_plus"] - res0)
    assert values[1] / values[0] == pytest.approx(2.0, rel=0.3)
    assert values[2] / values[1] == pytest.approx(2.0, rel=0.3)


def test_bracket_residuals_refuse_negative_lambda():
    # v_pm flip sign across the seam when lambda < 0, so stencil brackets
    # of them are O(1) at the seam; the check refuses rather than report that
    model = ck.build_hyperbolic_model([[-2, 1], [1, -1]])
    _, metric = ck.critical_metric(model, Grid(16, 16, model.matrix))
    frame = dy.anosov_splitting(metric)
    with pytest.raises(ValueError, match="lambda < 0"):
        dy.bracket_residuals(metric, frame)


def test_sol_bracket_relations():
    res = dy.sol_bracket_residuals(ck.sol_box_grid(8, 48))
    assert res["y_x_plus"] < 1e-5
    assert res["y_x_minus"] < 1e-5
    assert res["x_plus_x_minus"] < 1e-12


def test_lemma_frame_brackets_from_closed_form(model, grid32, crit32):
    # the closed-form critical frame satisfies the same relations the
    # splitting extractor is tested against
    structure, metric = crit32
    v_plus, v_minus, u_plus, u_minus = ck.critical_frame(model, grid32)
    mu = model.mu
    r1 = lie_bracket(structure.reeb, v_plus).data - mu * v_plus.data
    r2 = lie_bracket(structure.reeb, v_minus).data + mu * v_minus.data
    r3 = lie_bracket(v_plus, v_minus).data
    assert sup(r1) < 1e-4 * mu
    assert sup(r2) < 1e-4 * mu
    assert sup(r3) < 1e-12
