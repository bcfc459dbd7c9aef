"""Property tests of the paper's invariants over randomly drawn suspensions."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

import coskit as ck
from coskit import variational as va
from coskit.cosymplectic import ALGEBRAIC_CERT_KEYS

# every hyperbolic matrix in SL(2,Z) with entries in [-4, 4]: traces +-3 to +-6
HYPERBOLIC_SL2Z = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-4, 5), repeat=4)
                   if a * d - b * c == 1 and abs(a + d) > 2]
LOG_LAMBDA_CAT = np.log((3.0 + np.sqrt(5.0)) / 2.0)


@settings(max_examples=10, deadline=None)
@given(matrix=st.sampled_from(HYPERBOLIC_SL2Z), tau=st.floats(0.5, 2.0),
       area=st.floats(0.5, 2.0))
def test_critical_energy_and_certificate_on_random_suspensions(matrix, tau, area):
    model = ck.build_hyperbolic_model(matrix, tau=tau, area=area)
    n = 16
    _, metric = ck.critical_metric(model, ck.Grid(n, n, model.matrix))
    expected = 8.0 * area * model.log_lambda ** 2 / tau
    rel = abs(va.energy(metric) - expected) / expected
    # criterion 01 allows 1e-6 on [[2,1],[1,1]] at 32^3; the stencil's error
    # on the exponentials lam^{+-2t} goes like (h log|lam|)^4, which carries
    # the bound to this grid and multiplier (the error sits at 0.88 of it)
    assert rel < 1e-6 * ((32.0 / n) * model.log_lambda / LOG_LAMBDA_CAT) ** 4
    # the pointwise identities hold to roundoff of the 3x3 algebra, which
    # scales with max|g| max|g^-1| (observed: up to 34 eps of it over all
    # 72 matrices, 60 draws of (tau, V) each)
    g = metric.g.data
    floor = 128.0 * np.finfo(float).eps * np.max(np.abs(g)) * np.max(np.abs(metric.ginv))
    assert metric.max_residual(ALGEBRAIC_CERT_KEYS) <= floor
