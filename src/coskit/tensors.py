"""Coordinate tensor calculus on grid charts.

Exterior derivative, Lie derivative, covariant derivative along a vector
field (from a given nabla X), Hodge star of 1-forms, and pointwise
symmetric eigendecomposition.  All operations are pure functions from
sampled component arrays to fresh arrays; tensor slots follow the
conventions of :mod:`coskit.grids` (slot axes start at array axis 3,
signature strings over 'u'/'d').  The Lie and covariant derivatives sum
their terms along the field by the kernel of :mod:`coskit.grids`
(``_field_components``, ``_sum_along``), as the Reeb derivative of
:mod:`coskit.variational` does.

A field is stored at the axes it varies along: a ``TensorField`` built
from fewer grid axes than the chart keeps a read-only broadcast view, so
its strides are zero on the axes it does not vary along (the suspension
forms tau dt and V dx^dy and its Reeb field tau^{-1} d_t on all three,
the critical metric on x and y).  Where every input of
``exterior_derivative``, ``lie_derivative``, ``covariant_derivative``,
``hodge_star`` or ``symmetric_eigen`` is constant over the torus, it
computes on the (M, 1, 1) t-columns (``grids._columns``) and returns
t-column fields with the full grid's bits; mixed input is computed at
full shape, except that ``lie_derivative`` forms the gradient of its
direction on the direction's own column.  This is the one fast path:
the t-derivative of a constant form carried to itself across the seam
is M stencilled zeros, with the bits of the full grid.

Inner products of tensors use full index contraction with g and its
inverse: one factor of g per contravariant slot pair, one factor of
g^{-1} per covariant slot pair.  This is the norm entering the torsion
``|L_R g|^2`` and is used everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, _as_field, _columns, _field_components, _on_slot, _sum_along, _sup, \
    partial_derivative

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


class TensorCalculusError(ValueError):
    pass


@dataclass
class TensorField:
    """Sampled tensor components on a grid chart.

    data has shape grid.shape + (3,)*rank; sig is one 'u'/'d' per slot
    in storage order.  Components refer to the coordinate basis
    (t, x, y).  Input of that shape is kept as given, with no copy.
    Input with fewer grid axes (a constant (3,)*rank array, or a
    (M, 1, 1) + (3,)*rank field of t alone) is kept as a read-only
    np.broadcast_to view (grids._as_field), with zero strides on the axes
    it does not vary along: no memory per grid point, and the tensor
    layer reads constancy over the torus off the strides (grids._columns).
    """

    grid: Grid
    data: np.ndarray
    sig: str

    def __post_init__(self):
        self.data = _as_field(self.data, self.grid.shape + (3,) * len(self.sig))


def gradient(data: np.ndarray, sig: str, grid: Grid) -> np.ndarray:
    """All three partials, stacked into a new leading derivative slot."""
    out = np.empty(data.shape[:3] + (3,) + data.shape[3:])
    for ax in range(3):
        out[:, :, :, ax] = partial_derivative(data, sig, grid, ax)
    return out


# -- pointwise linear algebra -------------------------------------------

_CYCLIC = ((1, 2), (2, 0), (0, 1))


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Batched inverse of a (..., 3, 3) field: adjugate over determinant.

    With cyclic index pairs the cofactor C_ij = g[i1,j1] g[i2,j2] -
    g[i1,j2] g[i2,j1] carries its own sign, and the inverse is C^T / det.
    The inverse of an exactly symmetric g is exactly symmetric.
    """
    inv = np.empty(np.shape(g))
    for i, (i1, i2) in enumerate(_CYCLIC):
        for j, (j1, j2) in enumerate(_CYCLIC):
            inv[..., j, i] = g[..., i1, j1] * g[..., i2, j2] - g[..., i1, j2] * g[..., i2, j1]
    det = g[..., 0, 0] * inv[..., 0, 0] + g[..., 0, 1] * inv[..., 1, 0] \
        + g[..., 0, 2] * inv[..., 2, 0]
    if not np.all(det):
        raise TensorCalculusError("matrix field is singular at a grid point")
    inv /= det[..., None, None]
    return inv


def _cholesky3(g: np.ndarray) -> np.ndarray | None:
    """Closed-form lower Cholesky factor C (g = C C^T) of a (..., 3, 3) field.

    Reads the lower triangle and scales each column by the reciprocal
    of its pivot, as LAPACK's unblocked potf2 does.  Returns None unless
    every pivot is > 0 (a NaN pivot fails too).
    """
    c = np.zeros(np.shape(g))
    for j in range(3):
        pivot = g[..., j, j] - sum(c[..., j, k] * c[..., j, k] for k in range(j))
        if not np.all(pivot > 0):
            return None
        c[..., j, j] = np.sqrt(pivot)
        recip = 1.0 / c[..., j, j]
        for i in range(j + 1, 3):
            c[..., i, j] = (g[..., i, j] - sum(c[..., i, k] * c[..., j, k] for k in range(j))) \
                * recip
    return c


def check_positive_definite(g: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of g; raises, naming a grid point, if none.

    Only on failure are eigenvalues computed, to name the first point
    whose smallest eigenvalue is not > 0 (or, where roundoff failed a
    pivot of a positive spectrum, the point of the smallest eigenvalue).
    """
    c = _cholesky3(g)
    if c is not None:
        return c
    finite = np.all(np.isfinite(g), axis=(-2, -1))
    if not np.all(finite):
        point = tuple(int(v) for v in np.argwhere(~finite)[0])
        raise TensorCalculusError(f"metric not finite at grid point {point}")
    w = np.linalg.eigvalsh(g)
    low = w[..., 0]
    bad = low <= 0 if np.any(low <= 0) else low == np.min(low)
    point = tuple(int(v) for v in np.argwhere(bad)[0])
    raise TensorCalculusError(
        f"metric not positive definite at grid point {point}; "
        f"eigenvalues {w[point]}")


def sqrtm_spd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched symmetric square root and inverse square root (kept for the span tracer)."""
    w, v = np.linalg.eigh(m)
    if np.any(w <= 0):
        raise TensorCalculusError("matrix field is not positive definite")
    r = np.sqrt(w)[..., None, :]
    vt = np.swapaxes(v, -1, -2)
    return (v * r) @ vt, (v / r) @ vt


def tensor_norm2(data: np.ndarray, sig: str, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Pointwise squared norm by full index contraction with g, g^{-1}.

    Each slot in turn is contracted with its metric (g on a 'u' slot,
    g^{-1} on a 'd' slot) by the slot kernel ``grids._on_slot``; the
    result is then paired with the data.
    """
    out = data
    for s, kind in enumerate(sig):
        out = _on_slot(out, s, g if kind == "u" else ginv)
    return np.sum(out * data, axis=tuple(range(3, 3 + len(sig))))


# -- exterior derivative -------------------------------------------------

_ANTISYMMETRY_TOL = 1e-9


def _check_antisymmetric(data: np.ndarray, k: int):
    """TensorCalculusError unless a 2-form is antisymmetric to _ANTISYMMETRY_TOL."""
    if k != 2:
        return
    if _sup(data + np.swapaxes(data, 3, 4)) > _ANTISYMMETRY_TOL * max(1.0, _sup(data)):
        raise TensorCalculusError("input form is not antisymmetric")


def exterior_derivative(omega: TensorField) -> TensorField:
    """d on 0-, 1- and 2-forms; centered stencils give d(d .) = 0 to roundoff.

    A form constant over the torus is checked and stencilled on its
    t-column (grids._columns), and d of it is a t-column field.
    """
    k = len(omega.sig)
    if omega.sig != "d" * k:
        raise TensorCalculusError("exterior derivative expects a covariant form")
    if k > 2:
        raise TensorCalculusError(f"no {k}-forms beyond top degree in dimension 3")
    data, = _columns(omega.data)
    _check_antisymmetric(data, k)
    grad = gradient(data, omega.sig, omega.grid)
    if k == 1:
        grad = grad - np.swapaxes(grad, 3, 4)
    elif k == 2:
        grad = grad - np.swapaxes(grad, 3, 4) + np.moveaxis(grad, 3, 5)
    return TensorField(omega.grid, grad, "d" * (k + 1))


# -- Lie derivative -------------------------------------------------------

def _derivation(data: np.ndarray, sig: str, m: np.ndarray) -> np.ndarray:
    """The gl(3) field m acting on a tensor as a derivation.

    m acts on each 'u' slot and -m^T on each 'd' slot, and the terms are
    summed (Kobayashi & Nomizu, Foundations of Differential Geometry I,
    ch. I sec. 3).  The slot terms of both the Lie and the covariant
    derivative are of this form.
    """
    neg_mt = -np.swapaxes(m, -1, -2)
    out = None
    for s, kind in enumerate(sig):
        term = _on_slot(data, s, m if kind == "u" else neg_mt)
        out = term if out is None else np.add(out, term, out=out)
    return np.zeros(data.shape) if out is None else out


def lie_derivative(t: TensorField, x: TensorField) -> TensorField:
    """Coordinate Cartan formula for L_X T, any tensor type.

    (L_X T) = X^c d_c T - D_m T, with D_m the derivation of m[a, c] = d_c X^a.

    Only exact zeros are skipped: T is stenciled only along the axes c
    where X^c is nonzero somewhere, and the d X terms are dropped when
    the stencil gradient of X is exactly zero.  The result is the full
    sum bit for bit.

    When T and X are both constant over the torus (grids._columns), the
    sum runs on their t-columns and the result is a t-column field: a
    read-only view with zero torus strides, the bits of the full grid.
    The gradient of X is formed on X's own column whatever T's shape (the
    suspension Reeb field (1/tau) d_t costs three M-point stencils), and
    broadcast to T's grid shape for the derivation, whose slot products
    then have the batch shape of the full sum.
    """
    if x.sig != "u":
        raise TensorCalculusError("Lie derivative direction must be a vector field")
    grid = t.grid
    data, xdata = _columns(t.data, x.data)
    out = _sum_along(_field_components(xdata),
                     lambda c: partial_derivative(data, t.sig, grid, c), data.shape)
    x_column, = _columns(x.data)
    grad_x = gradient(x_column, x.sig, grid)        # [c, a] = d_c X^a
    if np.any(grad_x):
        m = np.broadcast_to(np.swapaxes(grad_x, -1, -2), data.shape[:3] + (3, 3))
        out -= _derivation(data, t.sig, m)
    return TensorField(grid, out, t.sig)


def lie_bracket(x: TensorField, y: TensorField) -> TensorField:
    return lie_derivative(y, x)


# -- Levi-Civita connection ----------------------------------------------

def christoffel(g: TensorField, ginv: np.ndarray) -> np.ndarray:
    """Levi-Civita Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}).

    No run path builds it; the tests check the Reeb covariant derivatives
    against it.  The index l is raised by the slot kernel: the bracket,
    read as a pointwise 9 x 3 matrix from l to the pair (i, j), acts on the
    l slot of g^{kl}, so Gamma comes out as a C-contiguous [k, i, j] array.
    ginv is g^{-1} as its caller holds it (a certified metric's ginv); g
    is not checked here.
    """
    grad = gradient(g.data, g.sig, g.grid)          # [a, i, j] = d_a g_{ij}
    b = grad + np.swapaxes(grad, 3, 4)
    b -= np.moveaxis(grad, 3, 5)
    del grad
    gamma = _on_slot(ginv, 1, b.reshape(b.shape[:3] + (9, 3))).reshape(b.shape)
    gamma *= 0.5
    return gamma


def covariant_derivative(t: TensorField, x: TensorField, nabla_x: np.ndarray) -> TensorField:
    """nabla_X T = L_X T + D_m T for the torsion-free nabla, D_m the derivation of m = nabla_x.

    m[a, c] = nabla_c X^a is the caller's (see _derivation); no Gamma is formed.
    The Lie term may be a read-only t-column field, so the sum is taken
    into the fresh derivation term (IEEE addition commutes: same bits).
    """
    lie = lie_derivative(t, x).data
    lie, data, m = _columns(lie, t.data, nabla_x)
    out = _derivation(data, t.sig, m)
    out += lie
    return TensorField(t.grid, out, t.sig)


# -- Hodge star -----------------------------------------------------------

def hodge_star(omega: TensorField, chol: np.ndarray, orientation: float = 1.0, *,
               ginv: np.ndarray) -> TensorField:
    """Star of a 1-form in dimension 3: (*w)_{jk} = s sqrt(g) eps_{ljk} w^l.

    orientation is +1 when dt^dx^dy is positively oriented for the
    chart's volume form, -1 otherwise.  Star is a pointwise g-isometry
    from 1-forms onto 2-forms.  chol is the lower Cholesky factor of g
    (check_positive_definite), and sqrt(det g) = C_00 C_11 C_22;
    ginv = g^{-1} raises the 1-form's index.
    """
    if omega.sig != "d":
        raise TensorCalculusError("hodge_star takes a 1-form")
    data, chol, ginv = _columns(omega.data, chol, ginv)
    sqg = orientation * chol[..., 0, 0] * chol[..., 1, 1] * chol[..., 2, 2]
    wup = _on_slot(data, 0, ginv)
    star = (wup @ _EPS3.reshape(3, 9)).reshape(wup.shape + (3,)) * sqg[..., None, None]
    return TensorField(omega.grid, star, "dd")


# -- pointwise symmetric eigendecomposition --------------------------------

def _align_eigenvector_field(vec: np.ndarray) -> np.ndarray:
    """Deterministic sign alignment of a unit eigenvector field.

    Signs propagate from the base point (0,0,0) by sweeping t, then x,
    then y; each sweep flips whole slabs by the sign of the summed inner
    product with the previous slab.
    """
    v = vec.copy()
    base = v[0, 0, 0]
    if base[np.argmax(np.abs(base))] < 0:
        v = -v
    for axis in (0, 1, 2):
        dots = np.sum(np.moveaxis(v, axis, 0)[1:] * np.moveaxis(v, axis, 0)[:-1],
                      axis=tuple(range(1, v.ndim - 1)) + (-1,))
        sgn = np.where(dots < 0, -1.0, 1.0)
        flips = np.concatenate([[1.0], np.cumprod(sgn)])
        shape = [1, 1, 1, 1]
        shape[axis] = len(flips)
        v = v * flips.reshape(shape)
    return v


# self-adjointness residual and smallest eigenvalue gap, relative to the
# largest entry of the reduced operator and of its spectrum
_SELF_ADJOINT_TOL = 1e-6
_DEGENERATE_GAP = 1e-6


def symmetric_eigen(a: TensorField, g: np.ndarray, ginv: np.ndarray):
    """Eigen-data of a pointwise g-self-adjoint operator field.

    Returns (eigenvalues, eigenvectors, aligned): eigenvalues sorted
    descending along the last axis, eigenvectors g-orthonormal with
    vectors in the last-but-one axis indexed by eigenvalue.  When all
    eigenvalue gaps are simple the eigenvector fields are sign-aligned
    by a deterministic grid sweep; on (near-)degenerate spectra only the
    eigenvalue fields are meaningful and ``aligned`` is False.

    One symmetric ``eigh`` by the Cholesky reduction (Golub & Van Loan,
    Matrix Computations, sec. 8.7): with g = C C^T, the g-self-adjoint
    operator is similar to the symmetric B = C^T a C^{-T}, and B u = w u
    gives the eigenvectors C^{-T} u.  C^{-T} = g^{-1} C, with ginv =
    g^{-1}, needs no triangular solve.  Self-adjointness is checked on B.
    On t-columns (grids._columns) the eigen-data are t-column views.
    """
    if a.sig != "ud":
        raise TensorCalculusError("symmetric_eigen expects an operator (1,1) field")
    shape = a.data.shape[:3]
    data, g, ginv = _columns(a.data, g, ginv)
    c = _cholesky3(g)
    if c is None:
        raise TensorCalculusError("matrix field is not positive definite")
    c_inv_t = ginv @ c
    b = np.swapaxes(c, -1, -2) @ data @ c_inv_t
    asym = np.max(np.abs(b - np.swapaxes(b, -1, -2)))
    scale = max(1.0, float(np.max(np.abs(b))))
    if asym > _SELF_ADJOINT_TOL * scale:
        raise TensorCalculusError(
            f"operator is not self-adjoint for the metric (residual {asym:.3e})")
    b = 0.5 * (b + np.swapaxes(b, -1, -2))
    w, u = np.linalg.eigh(b)
    w = w[..., ::-1]
    u = u[..., ::-1]
    vecs = c_inv_t @ u
    gaps = np.min(np.abs(np.diff(np.sort(w, axis=-1), axis=-1)))
    scale_w = max(float(np.max(np.abs(w))), 1e-30)
    aligned = bool(gaps > _DEGENERATE_GAP * scale_w)
    if aligned:
        for idx in range(3):
            vecs[..., idx] = _align_eigenvector_field(vecs[..., :, idx])
    if w.shape[:3] != shape:
        w = np.broadcast_to(w, shape + w.shape[3:])
        vecs = np.broadcast_to(vecs, shape + vecs.shape[3:])
    return w, vecs, aligned
