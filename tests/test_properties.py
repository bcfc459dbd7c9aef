"""Property tests of the paper's invariants over randomly drawn suspensions."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import coskit as ck
from coskit import variational as va
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
