"""Property tests of the paper's invariants over randomly drawn suspensions."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import coskit as ck
from coskit import dynamics as dy, variational as va
from coskit.cosymplectic import ALGEBRAIC_CERT_KEYS
from coskit.grids import GridError, _int_det, _int_matpow, _transported
from coskit.models import NotSymplecticError
from coskit.topology import TopologyError, betti_numbers_mapping_torus

# every matrix in SL(2,Z) with entries in [-4, 4], and the hyperbolic ones: traces +-3 to +-6
SL2Z = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-4, 5), repeat=4)
        if a * d - b * c == 1]
HYPERBOLIC_SL2Z = [m for m in SL2Z if abs(m[0][0] + m[1][1]) > 2]
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


def _bits(a: np.ndarray, shape: tuple) -> np.ndarray:
    """The float64 bit patterns of a at the given shape, signed zeros told apart."""
    return np.ascontiguousarray(np.broadcast_to(a, shape)).view(np.int64)


@settings(max_examples=20, deadline=None)
@given(matrix=st.sampled_from(HYPERBOLIC_SL2Z), tau=st.floats(0.5, 2.0),
       area=st.floats(0.5, 2.0))
@example(matrix=((2, 1), (1, 1)), tau=1.0, area=1.0)
@example(matrix=((2, 1), (1, 1)), tau=0.7, area=2.0)
@example(matrix=((-3, 1), (-1, 0)), tau=1.0, area=1.0)
@example(matrix=((-3, 1), (-1, 0)), tau=0.7, area=2.0)
@example(matrix=((5, 2), (2, 1)), tau=1.0, area=1.0)
@example(matrix=((5, 2), (2, 1)), tau=0.7, area=2.0)
def test_critical_coframe_on_random_suspensions(matrix, tau, area):
    model = ck.build_hyperbolic_model(matrix, tau=tau, area=area)
    grid = ck.Grid(8, 8, model.matrix)
    # the seam identity C(t + 1) = diag(1, s, s) C(t) diag(1, L), s = sign lambda
    # (observed: at most 1.09 eps of max|C| over all 72 gluings)
    t = np.linspace(0.0, 1.0, 9)
    c, c1 = model.coframe(t), model.coframe(t + 1.0)
    s = np.sign(model.lam)
    seam = np.diag([1.0, s, s]) @ c @ grid.gluing_jacobian
    assert np.max(np.abs(seam - c1)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(c1))
    # the metric it writes down is certified at roundoff, and deform at
    # (u, r) = (0, 0), on a t-column and at full shape, gives its bits
    _, metric = ck.critical_metric(model, grid)
    floor = 128.0 * np.finfo(float).eps * np.max(np.abs(metric.g.data)) \
        * np.max(np.abs(metric.ginv))
    assert metric.max_residual(ALGEBRAIC_CERT_KEYS) <= floor
    chart = va.deformation_chart(model, grid)
    shape = grid.shape + (3, 3)
    for zero in (np.zeros(grid.t.shape), np.zeros(grid.shape)):
        g = va.deform(chart, va.Deformation(grid, zero, zero)).g.data
        assert np.array_equal(_bits(g, shape), _bits(metric.g.data, shape))


@settings(max_examples=16, deadline=None)
@given(matrix=st.sampled_from(HYPERBOLIC_SL2Z), n=st.integers(12, 16),
       tau=st.floats(0.5, 2.0), area=st.floats(0.5, 2.0))
@example(matrix=((2, 1), (1, 1)), n=12, tau=1.0, area=1.0)
@example(matrix=((-4, -1), (-3, -1)), n=16, tau=1.0, area=1.0)
def test_splitting_on_random_suspensions(matrix, n, tau, area):
    # v_plus is the stable line by algebra, so the growth test passes on
    # every hyperbolic gluing, and the graph transform keeps the seed's
    # orientation; over all 72 gluings at 12^3 and 16^3 the invariance
    # residual stays below 1.2e-14, with no n_fiber scaling in log|lambda|
    model = ck.build_hyperbolic_model(matrix, tau=tau, area=area)
    _, metric = ck.critical_metric(model, ck.Grid(n, n, model.matrix))
    frame = dy.anosov_splitting(metric)
    refined = dy.refine_splitting(frame, metric)
    assert np.all(dy._gdot(metric.g.data, refined.v_plus.data, frame.v_plus.data) > 0)
    assert dy.splitting_invariance_residual(refined, metric) < 1e-8


def _max_entry(mat, n: int) -> int:
    return max(abs(x) for row in _int_matpow(mat, n) for x in row)


@settings(max_examples=60, deadline=None)
@given(matrix=st.sampled_from(SL2Z), n=st.integers(-6, 6), m=st.integers(-6, 6),
       sig=st.sampled_from(["", "u", "d", "ud", "dd"]), seed=st.integers(0, 2 ** 32 - 1))
def test_transport_is_an_exact_group_action(matrix, n, m, sig, seed):
    # float64 holds integers exactly below 2^53; each slot multiplies the
    # largest entry by at most twice the largest entry of L^k (L^-k has the
    # same entries), so draws whose carried values could pass 2^53 are skipped
    rank = len(sig)
    bound = max(2 * _max_entry(matrix, n) * 2 * _max_entry(matrix, m),
                (2 * _max_entry(matrix, n)) ** 2) ** rank * 4
    assume(bound < 2 ** 53)
    grid = ck.Grid(5, 5, np.array(matrix))
    data = np.random.default_rng(seed).integers(-4, 5, grid.shape + (3,) * rank).astype(float)
    move = lambda f, k: _transported(f, sig, grid, k)
    assert np.array_equal(move(move(data, n), -n), data)
    assert np.array_equal(move(move(data, n), m), move(data, n + m))


def _accepts(build, error) -> bool:
    try:
        build()
    except error:
        return False
    return True


def _assert_gluing_checks_agree(matrix):
    exact = _int_det(matrix) == 1
    assert _accepts(lambda: ck.Grid(8, 8, np.array(matrix)), GridError) == exact
    assert _accepts(lambda: betti_numbers_mapping_torus(matrix), TopologyError) == exact
    if abs(matrix[0][0] + matrix[1][1]) > 2:
        assert _accepts(lambda: ck.build_hyperbolic_model(matrix),
                        NotSymplecticError) == exact


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_gluing_checks_agree_with_exact_determinant(entries):
    _assert_gluing_checks_agree([entries[:2], entries[2:]])


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(1, 60))
def test_gluing_checks_agree_on_fibonacci_gluings(k):
    # [[F(k+1), F(k)], [F(k), F(k-1)]] = [[1, 1], [1, 0]]^k has determinant (-1)^k
    # (Cassini); from k = 40 on the float64 determinant rounds to 0
    fib = [[_fibonacci(k + 1), _fibonacci(k)], [_fibonacci(k), _fibonacci(k - 1)]]
    assert _int_det(fib) == (-1) ** k
    _assert_gluing_checks_agree(fib)
