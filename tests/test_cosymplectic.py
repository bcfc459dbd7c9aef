import inspect

import numpy as np
import pytest

import coskit as ck
from coskit import cosymplectic, tensors
from coskit import dynamics as dy, variational as va
from coskit.cosymplectic import ALGEBRAIC_CERT_KEYS, CompatibleMetric, StructureError, \
    certify_compatible
from coskit.grids import Grid
from coskit.tensors import TensorField, inverse_metric
from references import torus_varying_deformation


def sup(a):
    return float(np.max(np.abs(a)))


# -- certification --------------------------------------------------------------


def test_certify_critical_metric(crit32):
    _, metric = crit32
    assert metric.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-10


def test_certify_flat(flat16):
    _, metric = flat16
    assert metric.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-12


def test_certify_scaled_metric_fails(crit32):
    structure, metric = crit32
    doubled = TensorField(metric.grid, 2.0 * metric.g.data, "dd")
    bad = certify_compatible(structure, doubled)
    # |sqrt(2) - 1| in this certificate's |norm(R) - 1| convention
    assert bad.certificate["reeb_unit_norm"] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
    assert bad.max_residual(ALGEBRAIC_CERT_KEYS) > 0.25


def test_certify_rejects_nonsymmetric(crit32):
    structure, metric = crit32
    g = metric.g.data.copy()
    g[..., 0, 1] += 1e-3
    with pytest.raises(StructureError):
        certify_compatible(structure, TensorField(metric.grid, g, "dd"))


def test_h_tensor_identities(crit32, model):
    structure, metric = crit32
    h = metric.h_tensor()
    reeb, phi, g = structure.reeb.data, metric.phi.data, metric.g.data
    assert sup(np.einsum("...ij,...j->...i", h.data, reeb)) < 1e-12
    anti = (np.einsum("...ik,...kj->...ij", h.data, phi)
            + np.einsum("...ik,...kj->...ij", phi, h.data))
    assert sup(anti) < 1e-12
    from coskit.tensors import lie_derivative
    lg = lie_derivative(metric.g, structure.reeb)
    two_ghphi = 2.0 * np.einsum("...ik,...kl,...lj->...ij", g, h.data, phi)
    assert sup(lg.data - two_ghphi) < 1e-11


# -- the certified metric's inverse ----------------------------------------------


def test_certified_metric_inverts_g_once(monkeypatch, model):
    # one inversion per certification along certify -> first variation ->
    # curve pair -> energies; phi and every g^-1 contraction read the
    # certifier's inverse
    grid = Grid(8, 8, model.matrix)
    chart = va.deformation_chart(model, grid)
    hyper = va.deform(chart, va.random_deformation(grid, seed=2, amplitude=0.25))
    _, contact = ck.contact_t3_testbed(1, Grid(8, 8))
    rng = np.random.default_rng(19)
    cases = [(hyper, va.random_tangent(hyper, rng, 0.1, model=model)),
             (contact, va.random_tangent(contact, rng, 0.1))]
    calls = []

    def counting(g):
        calls.append(g.shape)
        return inverse_metric(g)

    monkeypatch.setattr(cosymplectic, "inverse_metric", counting)
    monkeypatch.setattr(tensors, "inverse_metric", counting)
    for metric, h in cases:
        calls.clear()
        base = certify_compatible(metric.structure, metric.g)
        va.first_variation(base, h)
        plus, minus = va.exponential_curve(base, h, 1e-3), va.exponential_curve(base, h, -1e-3)
        va.energy(plus)
        va.energy(minus)
        assert len(calls) == 3
    # the diagnostics and the dynamics layer read the certifier's inverse too
    calls.clear()
    crit = certify_compatible(chart.metric.structure, chart.metric.g)
    va.torsion_report(crit)
    va.euler_lagrange_supnorm(crit)
    va.nabla_r_h_residual(crit)
    dy.bracket_residuals(crit, dy.anosov_splitting(crit))
    assert len(calls) == 1


def test_phi_and_connection_bit_identical_to_fresh_inverse(crit16_gluing):
    _, metric = crit16_gluing
    _, contact = ck.contact_t3_testbed(1, Grid(8, 8))
    for m in (metric, contact):
        assert np.array_equal(m.phi.data, inverse_metric(m.g.data) @ m.structure.beta.data)
        assert m.phi is m.phi


def test_certified_inverse_is_read_only(flat8):
    _, metric = flat8
    assert metric.ginv is metric.ginv
    with pytest.raises(ValueError):
        metric.ginv[0, 0, 0, 0, 0] = 2.0


def test_polar_noisy_seed_certified_and_not_below_critical(crit32, chart32):
    # a noisy compatible metric, now reached through the (u, r) chart, is
    # certified and cannot undercut the critical energy
    _, gcrit = crit32
    out = va.deform(chart32, torus_varying_deformation(gcrit.grid, seed=5))
    assert out.max_residual(ALGEBRAIC_CERT_KEYS) < 1e-8
    assert va.energy(out) >= va.energy(gcrit) - 1e-10


def test_compatible_metric_members_keep_their_kind():
    # the benchmark's span tracer replaces CompatibleMetric.ginv by a property
    # around its getter and h_tensor by a wrapped function; a field or a
    # cached_property in either place would break `bench/run.py --trace 1`
    assert isinstance(CompatibleMetric.__dict__["ginv"], property)
    assert inspect.isfunction(CompatibleMetric.__dict__["h_tensor"])
