"""Coordinate tensor calculus on grid charts.

Exterior derivative, Lie derivative, Levi-Civita connection, covariant
derivative, Hodge star, Nijenhuis torsion, and pointwise symmetric
eigendecomposition.  All operations are pure functions from sampled
component arrays to fresh arrays; tensor slots follow the conventions
of :mod:`coskit.grids` (slot axes start at array axis 3, signature
strings over 'u'/'d').

Inner products of tensors use full index contraction with g and its
inverse: one factor of g per contravariant slot pair, one factor of
g^{-1} per covariant slot pair.  This is the norm entering the torsion
``|L_R g|^2`` and is used everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, partial_derivative

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
    in storage order.  frame tags whether components refer to the
    coordinate basis (t, x, y) or the eigenframe basis (t, x+, x-).
    """

    grid: Grid
    data: np.ndarray
    sig: str
    frame: str = "coordinate"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        expected = self.grid.shape + (3,) * len(self.sig)
        if self.data.shape != expected:
            self.data = np.broadcast_to(self.data, expected).copy()


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


def sqrtm_spd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched symmetric square root and inverse square root."""
    w, v = np.linalg.eigh(m)
    if np.any(w <= 0):
        raise TensorCalculusError("matrix field is not positive definite")
    r = np.sqrt(w)[..., None, :]
    vt = np.swapaxes(v, -1, -2)
    return (v * r) @ vt, (v / r) @ vt


def tensor_norm2(data: np.ndarray, sig: str, g: np.ndarray,
                 ginv: np.ndarray | None = None) -> np.ndarray:
    """Pointwise squared norm by full index contraction with g, g^{-1}.

    Each slot in turn is contracted with its (symmetric) metric by one
    matmul, the other slots flattened into the columns; the result is
    then paired with the data.
    """
    if ginv is None:
        ginv = inverse_metric(g)
    r = len(sig)
    out = data
    for s, kind in enumerate(sig):
        metric = g if kind == "u" else ginv
        moved = np.moveaxis(out, 3 + s, 3)
        flat = moved.reshape(moved.shape[:4] + (-1,))
        out = np.moveaxis((metric @ flat).reshape(moved.shape), 3, 3 + s)
    return np.sum(out * data, axis=tuple(range(3, 3 + r)))


def frame_matrix(t2: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Evaluate a (0,2) tensor on a frame: M_ab = T(f_a, f_b).

    frame has shape (..., 3, 3) with frame vectors as columns.
    """
    return np.swapaxes(frame, -1, -2) @ t2 @ frame


# -- exterior derivative -------------------------------------------------

def _check_antisymmetric(data: np.ndarray, k: int, tol: float = 1e-9):
    if k == 2 and np.max(np.abs(data + np.swapaxes(data, 3, 4))) > tol * max(1.0, np.max(np.abs(data))):
        raise TensorCalculusError("input form is not antisymmetric")


def exterior_derivative(omega: TensorField) -> TensorField:
    """d on 0-, 1- and 2-forms; centered stencils give d(d .) = 0 to roundoff."""
    k = len(omega.sig)
    if omega.sig != "d" * k:
        raise TensorCalculusError("exterior derivative expects a covariant form")
    _check_antisymmetric(omega.data, k)
    grad = gradient(omega.data, omega.sig, omega.grid)
    if k == 0:
        return TensorField(omega.grid, grad, "d", omega.frame)
    if k == 1:
        d = grad - np.swapaxes(grad, 3, 4)
        return TensorField(omega.grid, d, "dd", omega.frame)
    if k == 2:
        d = grad - np.swapaxes(grad, 3, 4) + np.moveaxis(grad, 3, 5)
        return TensorField(omega.grid, d, "ddd", omega.frame)
    raise TensorCalculusError(f"no {k}-forms beyond top degree in dimension 3")


# -- Lie derivative -------------------------------------------------------

def lie_derivative(t: TensorField, x: TensorField) -> TensorField:
    """Coordinate Cartan formula for L_X T, any tensor type.

    (L_X T) = X^c d_c T - sum_up T^{..c..} d_c X^a + sum_down T_{..c..} d_b X^c

    Only exact zeros are skipped: T is stenciled only along the axes c
    where X^c is nonzero somewhere, and the d X terms are dropped when
    the stencil gradient of X is exactly zero (a constant field such as
    the suspension Reeb field (1/tau) d_t).  The result is the full sum
    bit for bit.
    """
    if x.sig != "u":
        raise TensorCalculusError("Lie derivative direction must be a vector field")
    grid = t.grid
    r = len(t.sig)
    out = _along_field(t, x, lambda c: partial_derivative(t.data, t.sig, grid, c))
    grad_x = gradient(x.data, x.sig, grid)      # [c, a] = d_c X^a
    if np.any(grad_x):
        gax = [0, 1, 2]
        slots = list(range(4, 4 + r))
        for s, kind in enumerate(t.sig):
            t_subs = gax + slots[:s] + [3] + slots[s + 1:]
            if kind == "u":
                out -= np.einsum(t.data, t_subs, grad_x, gax + [3, slots[s]], gax + slots)
            else:
                out += np.einsum(t.data, t_subs, grad_x, gax + [slots[s], 3], gax + slots)
    return TensorField(grid, out, t.sig, t.frame)


def _along_field(t: TensorField, x: TensorField, term) -> np.ndarray:
    """sum_c X^c term(c) over the axes c where X^c is nonzero somewhere.

    The sum runs in axis order, as the contraction of the stacked terms
    does, so skipping the identically zero components changes no bit.
    """
    out = None
    for c in range(3):
        xc = x.data[..., c]
        if not np.any(xc):
            continue
        d = term(c)
        d *= xc.reshape(xc.shape + (1,) * len(t.sig))
        if out is None:
            out = d
        else:
            out += d
    return np.zeros(t.data.shape) if out is None else out


def lie_bracket(x: TensorField, y: TensorField) -> TensorField:
    return lie_derivative(y, x)


# -- Levi-Civita connection ----------------------------------------------

@dataclass
class Connection:
    """Christoffel symbols of a metric, Gamma^k_{ij}, sig 'udd'."""

    grid: Grid
    christoffel: np.ndarray
    source_metric: np.ndarray

    def symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.christoffel - np.swapaxes(self.christoffel, 4, 5))))


def check_positive_definite(g: np.ndarray):
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(g)
        bad = np.argwhere(w[..., 0] <= 0)
        point = tuple(int(v) for v in bad[0])
        raise TensorCalculusError(
            f"metric not positive definite at grid point {point}; "
            f"eigenvalues {w[point]}") from None


def christoffel(g: TensorField) -> Connection:
    """Levi-Civita Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij})."""
    check_positive_definite(g.data)
    grad = gradient(g.data, g.sig, g.grid)          # [a, i, j] = d_a g_{ij}
    b = grad + np.swapaxes(grad, 3, 4)
    b -= np.moveaxis(grad, 3, 5)
    del grad
    gamma = np.einsum("...kl,...ijl->...kij", inverse_metric(g.data), b)
    gamma *= 0.5
    return Connection(g.grid, gamma, g.data)


def covariant_derivative(t: TensorField, conn: Connection,
                         x: TensorField | None = None) -> TensorField:
    """nabla T, with a new leading covariant slot; contracted with X if given.

    Each axis a contributes d_a T + Gamma-terms, formed from the slice
    Gamma^k_{a j}.  With X given, nabla_X T = sum_a X^a (d_a T + ...) is
    accumulated only over the axes where X^a is nonzero somewhere, and
    the rank+1 array nabla T is never built; the result is the full
    contraction bit for bit.
    """
    grid = t.grid
    gamma = conn.christoffel
    gax = [0, 1, 2]
    slots = list(range(4, 4 + len(t.sig)))

    def along(a):
        d = partial_derivative(t.data, t.sig, grid, a)
        gamma_a = gamma[..., :, a, :]                # Gamma^k_{a j}
        for s, kind in enumerate(t.sig):
            t_subs = gax + slots[:s] + [3] + slots[s + 1:]
            if kind == "u":
                d += np.einsum(gamma_a, gax + [slots[s], 3], t.data, t_subs, gax + slots)
            else:
                d -= np.einsum(gamma_a, gax + [3, slots[s]], t.data, t_subs, gax + slots)
        return d

    if x is not None:
        return TensorField(grid, _along_field(t, x, along), t.sig, t.frame)
    out = np.empty(t.data.shape[:3] + (3,) + t.data.shape[3:])
    for a in range(3):
        out[:, :, :, a] = along(a)
    return TensorField(grid, out, "d" + t.sig, t.frame)


# -- Hodge star -----------------------------------------------------------

def hodge_star(omega: TensorField, g: np.ndarray, orientation: float = 1.0,
               ginv: np.ndarray | None = None) -> TensorField:
    """Star of a 1-form in dimension 3: (*w)_{jk} = s sqrt(g) eps_{ljk} w^l.

    orientation is +1 when dt^dx^dy is positively oriented for the
    chart's volume form, -1 otherwise.  Star is an involution on
    1-forms and a pointwise g-isometry onto 2-forms.  ginv, when given,
    is used for raising the 1-form's index instead of inverting g again.
    """
    eps = _EPS3.reshape(3, 9)
    if omega.sig == "d":
        if ginv is None:
            ginv = inverse_metric(g)
        sqg = orientation * np.sqrt(np.linalg.det(g))
        wup = (ginv @ omega.data[..., None])[..., 0]
        star = (wup @ eps).reshape(wup.shape + (3,)) * sqg[..., None, None]
        return TensorField(omega.grid, star, "dd", omega.frame)
    if omega.sig == "dd":
        # inverse direction, for the involution check
        sqg = orientation * np.sqrt(np.linalg.det(g))
        comp = 0.5 * (omega.data.reshape(omega.data.shape[:-2] + (9,)) @ eps.T)
        low = (g @ comp[..., None])[..., 0] / sqg[..., None]
        return TensorField(omega.grid, low, "d", omega.frame)
    raise TensorCalculusError("hodge_star implemented for 1- and 2-forms in dim 3")


# -- Nijenhuis torsion ----------------------------------------------------

def nijenhuis(phi: TensorField) -> TensorField:
    """Nijenhuis bracket [phi, phi], a (1,2) tensor antisymmetric in its arguments."""
    if phi.sig != "ud":
        raise TensorCalculusError("nijenhuis expects a (1,1) tensor field")
    grad = gradient(phi.data, phi.sig, phi.grid)    # [a, k, m] = d_a phi^k_m
    t1 = np.einsum("...mi,...mkj->...kij", phi.data, grad)
    t3 = np.einsum("...km,...imj->...kij", phi.data, grad)
    n = t1 - np.swapaxes(t1, 4, 5) - t3 + np.swapaxes(t3, 4, 5)
    return TensorField(phi.grid, n, "udd", phi.frame)


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


def symmetric_eigen(a: TensorField, g: np.ndarray, tol: float = 1e-6,
                    degenerate_gap: float = 1e-6, ginv: np.ndarray | None = None):
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
    gives the eigenvectors C^{-T} u.  C^{-T} = g^{-1} C needs no
    triangular solve; ginv, when given, is used instead of inverting g
    again.  Self-adjointness is checked on B.
    """
    if a.sig != "ud":
        raise TensorCalculusError("symmetric_eigen expects an operator (1,1) field")
    try:
        c = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise TensorCalculusError("matrix field is not positive definite") from None
    if ginv is None:
        ginv = inverse_metric(g)
    c_inv_t = ginv @ c
    b = np.swapaxes(c, -1, -2) @ a.data @ c_inv_t
    asym = np.max(np.abs(b - np.swapaxes(b, -1, -2)))
    scale = max(1.0, float(np.max(np.abs(b))))
    if asym > tol * scale:
        raise TensorCalculusError(
            f"operator is not self-adjoint for the metric (residual {asym:.3e})")
    b = 0.5 * (b + np.swapaxes(b, -1, -2))
    w, u = np.linalg.eigh(b)
    w = w[..., ::-1]
    u = u[..., ::-1]
    vecs = c_inv_t @ u
    gaps = np.min(np.abs(np.diff(np.sort(w, axis=-1), axis=-1)))
    scale_w = max(float(np.max(np.abs(w))), 1e-30)
    aligned = bool(gaps > degenerate_gap * scale_w)
    if aligned:
        for idx in range(3):
            vecs[..., idx] = _align_eigenvector_field(vecs[..., :, idx])
    return w, vecs, aligned
