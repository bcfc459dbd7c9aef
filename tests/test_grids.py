import numpy as np
import pytest

import coskit as ck
from coskit.grids import Grid, GridError, _grid_sum, _period_pair, _sup, _torus_permutation, \
    _transported, integrate, partial_derivative, seam_transport, shift


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(32, 32, np.array([[1, 0], [0, -1]]))        # det -1
    with pytest.raises(GridError):
        Grid(32, 32, np.array([[2, 0], [0, 1]]))         # det 2
    with pytest.raises(GridError):
        Grid(4, 32)                                      # too coarse for stencil
    with pytest.raises(GridError):
        Grid(32, 32, np.array([[2, 1], [1, 1]]), open_t=True)


def test_grid_accepts_gluing_whose_float_determinant_is_zero():
    # F41 F39 - F40^2 = 1, but the float64 determinant of this matrix rounds to 0
    fib = [[165580141, 102334155], [102334155, 63245986]]
    assert Grid(8, 8, np.array(fib)).monodromy.tolist() == fib


def test_derivative_of_constant_is_zero():
    g = Grid(16, 16, np.array([[2, 1], [1, 1]]))
    f = np.full(g.shape, 3.7)
    for ax in range(3):
        assert np.all(partial_derivative(f, "", g, ax) == 0.0)


def test_derivative_sin_fourth_order():
    errs = []
    for n in (16, 32):
        g = Grid(n, n)
        _, x, _ = g.coordinates()
        f = np.sin(2 * np.pi * x) * np.ones(g.shape)
        df = partial_derivative(f, "", g, 1)
        errs.append(np.max(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * x))))
    # value at x = 0 is 2 pi within O(h^4)
    assert errs[1] < 5e-4
    assert errs[0] / errs[1] > 2 ** 3.5


def test_axis_out_of_range():
    g = Grid(16, 16)
    with pytest.raises(GridError):
        partial_derivative(np.zeros(g.shape), "", g, 3)


def test_exponential_profile_through_seam(model):
    # lam^{2t} theta+ (x) theta+ is a global (0,2) tensor; its t-derivative
    # is 2 log|lam| times itself, O(h^4), with the stencil crossing the seam.
    errs = []
    for n in (16, 32):
        g = Grid(n, n, model.matrix)
        t = np.broadcast_to(g.t, g.shape)
        theta = model.dual_basis[0]
        lam2t = np.abs(model.lam) ** (2.0 * t)
        data = np.zeros(g.shape + (3, 3))
        data[..., 1:, 1:] = lam2t[..., None, None] * np.outer(theta, theta)
        df = partial_derivative(data, "dd", g, 0)
        exact = 2.0 * model.log_lambda * data
        errs.append(np.max(np.abs(df - exact)))
    assert errs[1] < 1e-4 * np.max(np.abs(2 * model.log_lambda))
    assert errs[0] / errs[1] > 2 ** 3.5


def deck_bump_scalar(grid, mode, phase=0.0):
    """Smooth quotient scalar with genuine torus dependence.

    Deck-sum of a compactly supported bump in t times a torus mode: on
    the fundamental domain  f = chi(t) cos(2 pi n.z + psi)
    + chi(t - 1) cos(2 pi (L^T n).z + psi)  with supp chi in (-1/2, 1/2),
    which satisfies the seam rule exactly.  The bump (1 - (2s)^2)^6 is
    C^5 with moderate derivative bounds, enough for clean 4th-order
    stencil convergence; high monodromy-image frequencies make the
    field useful for convergence-order tests (ratios), not for
    absolute-tolerance identities.
    """
    n0 = np.asarray(mode, dtype=np.int64)
    n1 = grid.monodromy.T @ n0
    t, x, y = grid.coordinates()

    def chi(s):
        u = np.clip(2.0 * s, -1.0, 1.0)
        return (1.0 - u * u) ** 6

    tt = np.broadcast_to(t, grid.shape)
    term0 = chi(tt) * np.cos(2.0 * np.pi * (n0[0] * x + n0[1] * y) + phase)
    term1 = chi(tt - 1.0) * np.cos(2.0 * np.pi * (n1[0] * x + n1[1] * y) + phase)
    return term0 + term1


@pytest.mark.parametrize("mode", [(1, 0), (1, 1), (2, 1)])
def test_deck_bump_seam_convergence(model, mode):
    # smooth quotient scalars with torus dependence: t-derivative converges
    # at 4th order even though the stencil routes through the monodromy
    errs = []
    for n in (32, 64):
        g = Grid(n, n, model.matrix)
        f = deck_bump_scalar(g, mode, phase=0.3)
        df = partial_derivative(f, "", g, 0)
        g2 = Grid(n, 2 * n, model.matrix)
        f2 = deck_bump_scalar(g2, mode, phase=0.3)
        df2 = partial_derivative(f2, "", g2, 0)[::2]
        errs.append(np.max(np.abs(df - df2)))
    assert errs[0] / errs[1] > 2 ** 3.2


def test_three_analytic_fields_fourth_order():
    fields = [
        lambda t, x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        lambda t, x, y: np.exp(np.sin(2 * np.pi * t)),
        lambda t, x, y: np.cos(2 * np.pi * (t + 2 * x - y)),
    ]
    derivs = [
        lambda t, x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y),
        lambda t, x, y: np.zeros(np.broadcast_shapes(t.shape, x.shape)),
        lambda t, x, y: -4 * np.pi * np.sin(2 * np.pi * (t + 2 * x - y)),
    ]
    for f, dfx in zip(fields, derivs):
        errs = []
        for n in (16, 32):
            g = Grid(n, n)
            t, x, y = g.coordinates()
            vals = np.broadcast_to(f(t, x, y), g.shape)
            df = partial_derivative(vals, "", g, 1)
            exact = np.broadcast_to(dfx(t, x, y), g.shape)
            errs.append(np.max(np.abs(df - exact)) + 1e-18)
        assert errs[0] / errs[1] > 2 ** 3.5 or errs[1] < 1e-13


def test_integrate_constant_volume(model, crit32):
    structure, _ = crit32
    vol = integrate(np.ones(structure.grid.shape), structure.volume_density,
                    structure.grid)
    assert abs(vol - model.tau * model.area) < 1e-14


def test_integrate_sin_squared():
    g = Grid(16, 16)
    t, _, _ = g.coordinates()
    f = np.broadcast_to(np.sin(2 * np.pi * t) ** 2, g.shape)
    val = integrate(f, np.ones(g.shape), g)
    assert abs(val - 0.5) < 1e-12


def test_integrate_linear_and_shift_invariant(model, grid32):
    rng = np.random.default_rng(0)
    f1 = rng.random(grid32.shape)
    f2 = rng.random(grid32.shape)
    dens = np.ones(grid32.shape)
    a = integrate(f1, dens, grid32) + 2.0 * integrate(f2, dens, grid32)
    b = integrate(f1 + 2.0 * f2, dens, grid32)
    assert a == pytest.approx(b, abs=1e-13)
    # translation by a grid shift leaves the integral exactly unchanged
    for axis, s in ((0, 3), (1, 5), (2, -2)):
        shifted = shift(f1, "", grid32, axis, s)
        assert integrate(shifted, dens, grid32) == pytest.approx(
            integrate(f1, dens, grid32), rel=1e-14)


def test_integrate_rejects_bad_density():
    g = Grid(16, 16)
    dens = np.ones(g.shape)
    dens[0, 0, 0] = 0.0
    with pytest.raises(GridError):
        integrate(np.ones(g.shape), dens, g)
    dens[0, 0, 0] = -1.0
    with pytest.raises(GridError):
        integrate(np.ones(g.shape), dens, g)


def test_integrate_orientation_from_form():
    # a negatively oriented volume form integrates positively
    g = Grid(16, 16)
    assert integrate(np.ones(g.shape), -2.0 * np.ones(g.shape), g) == pytest.approx(2.0)


def test_seam_transport_scalar_vector_covector(model, grid32):
    # scalar untouched
    s = np.ones(grid32.shape)
    assert np.array_equal(seam_transport(s, "", grid32), s)
    # eigenvector of L picks up lambda, the dual covector 1/lambda
    w = np.zeros(grid32.shape + (3,))
    w[..., 1:] = model.w_plus
    out = seam_transport(w, "u", grid32)
    assert np.max(np.abs(out - model.lam * w)) < 1e-12
    theta = np.zeros(grid32.shape + (3,))
    theta[..., 1:] = model.dual_basis[0]
    out = seam_transport(theta, "d", grid32)
    assert np.max(np.abs(out - theta / model.lam)) < 1e-12


def test_seam_transport_roundtrip(model, grid32):
    rng = np.random.default_rng(1)
    data = rng.random(grid32.shape + (3, 3))
    back = seam_transport(seam_transport(data, "ud", grid32), "ud", grid32,
                          inverse=True)
    assert np.max(np.abs(back - data)) < 1e-12


# two gluings with lambda > 0 (one whose float inverse is inexact) and one with lambda < 0
GLUINGS = ([[2, 1], [1, 1]], [[-2, 1], [1, -1]], [[3, 1], [2, 1]])
GLUING_IDS = ["2,1,1,1", "-2,1,1,-1", "3,1,2,1"]


def _lift(block):
    a = np.eye(3)
    a[1:, 1:] = block
    return a


def _adjugate(mat):
    (a, b), (c, d) = mat
    return [[d, -b], [-c, a]]


@pytest.mark.parametrize("mat", GLUINGS, ids=GLUING_IDS)
def test_shift_fetch_rule_at_seam(mat):
    # row M-1 shifted by +1 must equal row 0 fetched at L p and carried
    # back by A^{-1} = diag(1, adj L), exactly
    grid = Grid(32, 32, np.array(mat))
    rng = np.random.default_rng(2)
    v = rng.random(grid.shape + (3,))
    shifted = shift(v, "u", grid, 0, 1)
    pi, pj = _torus_permutation(grid.n_torus, grid.monodromy)
    expected = v[0][pi, pj] @ _lift(_adjugate(mat)).T
    assert np.array_equal(shifted[-1], expected)


def _reference_shift(data, sig, grid, axis, s):
    """np.roll plus an explicit seam fetch with integer L^{+-1} (the stencil's spec)."""
    out = np.roll(data, -s, axis=axis)
    if axis != 0 or s == 0:
        return out
    m, n = grid.n_fiber, grid.n_torus
    mat = grid.monodromy.tolist()
    if s > 0:       # rows past t = 1: fetch at L p, carry by diag(1, L^{-1})
        fetch, carry, src, dst = mat, _adjugate(mat), slice(0, s), slice(m - s, m)
    else:           # rows before t = 0: fetch at L^{-1} p, carry by diag(1, L)
        fetch, carry, src, dst = _adjugate(mat), mat, slice(m + s, m), slice(0, -s)
    i, j = np.arange(n).reshape(n, 1), np.arange(n).reshape(1, n)
    pi = (fetch[0][0] * i + fetch[0][1] * j) % n
    pj = (fetch[1][0] * i + fetch[1][1] * j) % n
    slab = data[src][:, pi, pj]
    for slot, kind in enumerate(sig):
        # a covariant slot takes the inverse-transpose of the carry matrix
        c = _lift(carry) if kind == "u" else _lift(fetch).T
        slab = np.moveaxis(np.moveaxis(slab, 3 + slot, -1) @ c.T, -1, 3 + slot)
    out[dst] = slab
    return out


@pytest.mark.parametrize("mat", GLUINGS, ids=GLUING_IDS)
@pytest.mark.parametrize("sig", ["", "u", "dd"])
def test_partial_derivative_matches_exact_seam_reference(mat, sig):
    grid = Grid(8, 16, np.array(mat))
    rng = np.random.default_rng(5)
    data = rng.standard_normal(grid.shape + (3,) * len(sig))
    for axis in range(3):
        f = lambda s: _reference_shift(data, sig, grid, axis, s)
        expected = (8.0 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12.0 * grid.spacing[axis])
        assert np.array_equal(partial_derivative(data, sig, grid, axis), expected)


def _power(mat, n):
    """L^n by repeated multiplication in Python ints (negative n by the adjugate)."""
    step = mat if n >= 0 else _adjugate(mat)
    out = [[1, 0], [0, 1]]
    for _ in range(abs(n)):
        out = [[sum(out[r][k] * step[k][c] for k in range(2)) for c in range(2)]
               for r in range(2)]
    return out


@pytest.mark.parametrize("mat", GLUINGS, ids=GLUING_IDS)
def test_torus_permutation_of_large_power_composes(mat):
    # for [[3,1],[2,1]] the entries of L^40 exceed int64; reduced mod N the
    # permutation stays exact and equals 40 steps of the L permutation
    grid = Grid(16, 16, np.array(mat))
    step_i, step_j = _torus_permutation(grid.n_torus, grid.monodromy)
    pi, pj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    for _ in range(40):
        pi, pj = step_i[pi, pj], step_j[pi, pj]
    big_i, big_j = _torus_permutation(grid.n_torus, _power(mat, 40))
    assert np.array_equal(big_i, pi)
    assert np.array_equal(big_j, pj)


@pytest.mark.parametrize("mat", GLUINGS, ids=GLUING_IDS)
def test_period_transport_is_shared_and_read_only(mat):
    grid = Grid(16, 16, np.array(mat))
    for n in (-40, -2, -1, 0, 1, 2, 40):
        pair = _period_pair(grid, n)
        for k, (a, (pi, pj)) in zip((n, -n), pair):
            ref_i, ref_j = _torus_permutation(grid.n_torus, _power(mat, k))
            assert np.array_equal(a, _lift(_power(mat, k)))
            assert np.array_equal(pi, ref_i) and np.array_equal(pj, ref_j)
            assert not (a.flags.writeable or pi.flags.writeable or pj.flags.writeable)
        # memoized per (N, L, n): an equal grid gets the same arrays
        assert _period_pair(Grid(16, 8, np.array(mat)), n) is pair


@pytest.mark.parametrize("mat", GLUINGS[:2], ids=GLUING_IDS[:2])
@pytest.mark.parametrize("sig", ["", "u", "dd"])
def test_transported_column_is_its_own_gather(mat, sig):
    # a (k, 1, 1) + slots t-column skips the torus gather; carried by the
    # same slot matrices, it gives the bits of its full-shape copy, on
    # both trace signs
    grid = Grid(8, 16, np.array(mat))
    rng = np.random.default_rng(7)
    for k in (1, 2, 5):
        column = rng.standard_normal((k, 1, 1) + (3,) * len(sig))
        full = np.broadcast_to(column, (k,) + grid.shape[1:] + column.shape[3:]).copy()
        for n in (1, -1, 2, -3):
            moved = _transported(column, sig, grid, n)
            expected = _transported(full, sig, grid, n)
            assert moved.shape == column.shape
            assert np.broadcast_to(moved, expected.shape).tobytes() == expected.tobytes()


@pytest.mark.parametrize("mat", GLUINGS[:2], ids=GLUING_IDS[:2])
@pytest.mark.parametrize("sig", ["", "u", "dd"])
def test_partial_derivative_of_t_column_is_the_full_grid(mat, sig):
    # a size-1 torus axis is padded with copies of itself, so every axis of
    # a (M, 1, 1) t-column gives the bytes of its broadcast full field; NaN
    # and inf propagate as they do on the full grid
    grid = Grid(8, 16, np.array(mat))
    rng = np.random.default_rng(11)
    column = rng.standard_normal((16, 1, 1) + (3,) * len(sig))
    column[3, 0, 0] = np.nan
    column[9, 0, 0] = np.inf
    full = np.broadcast_to(column, grid.shape + column.shape[3:]).copy()
    with np.errstate(invalid="ignore"):
        for axis in range(3):
            derivative = partial_derivative(column, sig, grid, axis)
            expected = partial_derivative(full, sig, grid, axis)
            assert derivative.shape == column.shape
            assert np.broadcast_to(derivative, expected.shape).tobytes() == expected.tobytes()
        assert np.isnan(partial_derivative(column, sig, grid, 1)[3]).all()


@pytest.mark.parametrize("n", [16, 32, 40])
def test_grid_sum_of_t_column_is_the_full_grid_mean(n):
    # mu and the growth test average a strided field; from its t-column
    # the full-grid sum over the point count gives np.mean's bits
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e3):
        column = scale * rng.standard_normal((n, 1, 1, 3))
        full = np.broadcast_to(column, (n, n, n, 3)).copy()
        expected = np.mean(full[..., 0])
        got = _grid_sum(column[..., 0], (n, n, n)) / full[..., 0].size
        assert np.float64(got).tobytes() == expected.tobytes()


def test_sup_reads_the_stored_values():
    # a constant, a t-column and a full field, each as a zero-stride view and
    # as a contiguous array, with -0.0, inf and NaN among the values
    rng = np.random.default_rng(3)
    shape = (8, 6, 6, 3)
    column = rng.standard_normal((8, 1, 1, 3))
    column[2, 0, 0, 1] = -0.0
    cases = [np.broadcast_to(np.array([-2.5, 1.0, -0.0]), shape),
             np.broadcast_to(column, shape), rng.standard_normal(shape)]
    for bad in (-np.inf, np.nan):
        c = column.copy()
        c[5, 0, 0, 2] = bad
        cases.append(np.broadcast_to(c, shape))
    for a in cases + [np.array(a) for a in cases] + [column, -column[..., 0]]:
        expected = np.max(np.abs(np.array(a)))
        got = _sup(a)
        assert type(got) is float
        assert np.float64(got).tobytes() == expected.tobytes()


def test_discrete_divergence_theorem(model, grid32):
    # stencil shifts are grid bijections, so the sum of any t-derivative
    # over the fundamental domain vanishes identically
    rng = np.random.default_rng(3)
    f = rng.random(grid32.shape)
    for ax in range(3):
        df = partial_derivative(f, "", grid32, ax)
        assert abs(integrate(df, 1.0, grid32)) < 1e-12 * np.max(np.abs(f)) * grid32.n_torus


def test_monodromy_permutes_grid_bijectively(model, grid32):
    pi, pj = _torus_permutation(grid32.n_torus, grid32.monodromy)
    flat = (pi * grid32.n_torus + pj).ravel()
    assert len(np.unique(flat)) == grid32.n_torus ** 2


def test_open_t_axis_derivative():
    g = ck.sol_box_grid(8, 64)
    t = np.broadcast_to(g.t, g.shape)
    f = np.exp(2.0 * t)
    df = partial_derivative(f, "", g, 0)
    assert np.max(np.abs(df - 2.0 * f)) < 2e-6
    with pytest.raises(GridError):
        shift(f, "", g, 0, 1)


def test_grid_equality_and_hash_compare_monodromy_by_value():
    a = Grid(8, 8, np.array([[2, 1], [1, 1]]))
    b = Grid(8, 8, [[2, 1], [1, 1]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Grid(8, 8, [[3, 1], [2, 1]])
    assert a != Grid(8, 8) and a != Grid(8, 16, [[2, 1], [1, 1]])
    assert Grid(8, 8, open_t=True) != Grid(8, 8)
    assert a != "grid"
