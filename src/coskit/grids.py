"""Discrete charts: flat 3-torus and twisted mapping-torus grids.

Conventions used across the package:

* Coordinate order is ``(t, x, y)``; axis 0 of every field array is the
  fiber coordinate ``t``, axes 1 and 2 are the torus coordinates.
* Fields are sampled on the half-open fundamental domain: ``t_k = k/M``
  for ``k = 0..M-1`` and ``x_i = i/N``, ``y_j = j/N``.
* A mapping torus identifies ``(p, t+1) ~ (L p, t)``, so a scalar field
  on the quotient satisfies ``f(x, 1) = f(L x, 0)``.  The seam rule lives
  in this module only: stencils read from an array padded with ghost
  slabs (the ghost cells of LeVeque, *Finite Volume Methods for
  Hyperbolic Problems*, ch. 7), and on a twisted t-axis each ghost slab
  is the field pushed forward by one period, forward or backward (see
  :func:`_transported`, which every module uses to carry a field across
  n periods).  ``det L``, ``L^{-1}`` and every power ``L^n`` are exact
  integer computations (:func:`_int_det`, :func:`_int_matpow`); no
  Jacobian is inverted in floating point.
* Tensor slot signatures are strings over ``{'u', 'd'}``: one character
  per tensor slot in storage order, ``'u'`` contravariant, ``'d'``
  covariant.  A metric is ``'dd'``, a vector field ``'u'``, the tensor
  ``phi^i_j`` is ``'ud'`` with the upper slot first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

IDENTITY_2X2 = np.eye(2, dtype=np.int64)

# 4th-order one-sided rows for open (non-periodic) axes, as
# (row index from boundary, offsets, coefficients*12).
_ONESIDED_ROWS = (
    (0, (0, 1, 2, 3, 4), (-25.0, 48.0, -36.0, 16.0, -3.0)),
    (1, (-1, 0, 1, 2, 3), (-3.0, -10.0, 18.0, -6.0, 1.0)),
)


class GridError(ValueError):
    """Invalid grid specification or illegal grid operation."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the flat 3-torus, a mapping torus, or a t-box.

    Parameters
    ----------
    n_torus : points per torus direction (spacing 1/N, periodic).
    n_fiber : points along t.
    monodromy : 2x2 integer matrix applied at the t = 1 seam; the
        identity gives the flat 3-torus.  Must have determinant +1 so
        the quotient carries an orientation (and a cosymplectic
        structure).
    open_t : if True the t-axis is a non-periodic interval
        ``[t_min, t_min + t_extent]`` sampled at M points including both
        endpoints; derivatives use one-sided 4th-order stencils at the
        boundary.  Used for local (non-compact) charts such as the Sol
        model box.  ``monodromy`` must be the identity in that case.
    """

    n_torus: int
    n_fiber: int
    monodromy: np.ndarray = field(default_factory=lambda: IDENTITY_2X2.copy())
    open_t: bool = False
    t_min: float = 0.0
    t_extent: float = 1.0

    def __post_init__(self):
        if self.n_torus < 5 or self.n_fiber < 5:
            raise GridError("need at least 5 points per axis for the 4th-order stencil")
        mono = np.asarray(self.monodromy, dtype=np.int64)
        if mono.shape != (2, 2):
            raise GridError(f"monodromy must be 2x2, got shape {mono.shape}")
        det = _int_det(mono)
        if det != 1:
            raise GridError(f"monodromy must have determinant 1, got {det}")
        if self.open_t and not np.array_equal(mono, IDENTITY_2X2):
            raise GridError("open-t box charts cannot carry a nontrivial monodromy")
        if not self.open_t and (self.t_min != 0.0 or self.t_extent != 1.0):
            raise GridError("periodic/twisted t-axis must be the unit interval [0, 1)")
        object.__setattr__(self, "monodromy", mono)

    # -- geometry -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_fiber, self.n_torus, self.n_torus)

    @property
    def is_flat(self) -> bool:
        return np.array_equal(self.monodromy, IDENTITY_2X2)

    @property
    def spacing(self) -> tuple[float, float, float]:
        if self.open_t:
            ht = self.t_extent / (self.n_fiber - 1)
        else:
            ht = 1.0 / self.n_fiber
        return (ht, 1.0 / self.n_torus, 1.0 / self.n_torus)

    @property
    def t(self) -> np.ndarray:
        """Fiber coordinate of each t-slab, shape (M, 1, 1) for broadcasting."""
        ht = self.spacing[0]
        return (self.t_min + ht * np.arange(self.n_fiber)).reshape(-1, 1, 1)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (t, x, y) coordinate arrays."""
        n, m = self.n_torus, self.n_fiber
        ht = self.spacing[0]
        t = (self.t_min + ht * np.arange(m)).reshape(m, 1, 1)
        x = (np.arange(n) / n).reshape(1, n, 1)
        y = (np.arange(n) / n).reshape(1, 1, n)
        return t, x, y

    @property
    def gluing_jacobian(self) -> np.ndarray:
        """3x3 differential A = diag(1, L) of the gluing (p, t+1) -> (Lp, t)."""
        return _lift(self.monodromy)

    # written out: the dataclass-generated equality compares the monodromy
    # arrays, which is ambiguous, and the generated hash cannot hash them
    def _key(self) -> tuple:
        return (self.n_torus, self.n_fiber, tuple(self.monodromy.ravel().tolist()),
                self.open_t, self.t_min, self.t_extent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


# -- exact monodromy algebra and slot transport ---------------------------

def _int_matmul(a, b) -> list[list[int]]:
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def _int_det(mat) -> int:
    """Exact determinant of a 2x2 integer matrix (nested lists or an array) in Python ints."""
    return int(mat[0][0]) * int(mat[1][1]) - int(mat[0][1]) * int(mat[1][0])


def _int_matpow(mat, n: int) -> list[list[int]]:
    """Exact power of a 2x2 unimodular matrix in Python ints (negative n allowed)."""
    m = [[int(mat[0][0]), int(mat[0][1])], [int(mat[1][0]), int(mat[1][1])]]
    if n < 0:
        m = [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]   # adjugate = inverse, det 1
        n = -n
    out = [[1, 0], [0, 1]]
    while n:
        if n & 1:
            out = _int_matmul(out, m)
        m = _int_matmul(m, m)
        n >>= 1
    return out


def _torus_permutation(n: int, mat) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays realizing (i, j) -> mat @ (i, j) mod n on an n x n torus grid.

    The entries are reduced mod n first (exact), so powers L^k whose
    entries exceed the int64 range stay in range.
    """
    m = [[int(mat[r][c]) % n for c in range(2)] for r in range(2)]
    i = np.arange(n).reshape(n, 1)
    j = np.arange(n).reshape(1, n)
    return (m[0][0] * i + m[0][1] * j) % n, (m[1][0] * i + m[1][1] * j) % n


def _lift(block) -> np.ndarray:
    """The 3x3 matrix diag(1, block) acting on (t, x, y) components."""
    a = np.eye(3)
    a[1:, 1:] = block
    return a


def _period_transport(grid: Grid, n: int):
    """(diag(1, L^n), torus permutation of L^n): the chart differential of n
    periods of the flow and the grid index map of its base point, exactly.

    Memoized per (N, L, n); the arrays are shared and read-only.
    """
    return _period_pair(grid, n)[0]


def _period_pair(grid: Grid, n: int):
    """(_period_transport(grid, n), _period_transport(grid, -n)) from one memo lookup.

    Every twisted t-derivative fills two ghost slabs through it; on small
    charts a lookup is a measurable share of the fill.
    """
    mono = tuple(tuple(row) for row in grid.monodromy.tolist())
    return _cached_period_pair(grid.n_torus, mono, n)


@functools.lru_cache(maxsize=128)
def _cached_period_pair(n_torus: int, mono: tuple, n: int):
    pair = []
    for k in (n, -n):
        lk = _int_matpow(mono, k)
        a = _lift(lk)
        pi, pj = _torus_permutation(n_torus, lk)
        for arr in (a, pi, pj):
            arr.flags.writeable = False
        pair.append((a, (pi, pj)))
    return tuple(pair)


def _transported(data: np.ndarray, index_sig: str, grid: Grid, n: int) -> np.ndarray:
    """The field pushed forward by n periods of the gluing, at the same grid points.

    At each point p the result is ``A^n f(L^{-n} p)``, the gather at the
    torus permutation of ``L^{-n}`` with each slot carried by
    ``A^n = diag(1, L^n)`` (its inverse-transpose per covariant slot).
    The matrices are exact integer powers, so on integer-valued data
    whose carried values stay below 2^53, ``_transported(_transported(f,
    n), m)`` equals ``_transported(f, n + m)`` bit for bit.  Works on any
    number of t-slabs, e.g. the ghost slabs of :func:`_padded`.
    """
    (a, _), (a_inv, (pi, pj)) = _period_pair(grid, n)
    return _contract_slots(data[:, pi, pj], index_sig, a, a_inv)


def _contract_slots(data: np.ndarray, index_sig: str, mat: np.ndarray,
                    mat_inv: np.ndarray) -> np.ndarray:
    """Apply ``mat`` to each ``'u'`` slot and ``mat_inv.T`` to each ``'d'`` slot.

    Slots follow the three grid axes; ``mat_inv`` must be the inverse of
    ``mat``, so contractions between slots are preserved.
    """
    out = np.asarray(data, dtype=float)
    for slot, kind in enumerate(index_sig):
        m = mat if kind == "u" else mat_inv.T
        out = np.moveaxis(np.moveaxis(out, 3 + slot, -1) @ m.T, -1, 3 + slot)
    return out


def seam_transport(components: np.ndarray, index_sig: str, grid: Grid,
                   inverse: bool = False) -> np.ndarray:
    """Transform tensor components across the t = 1 seam.

    Applies the gluing differential ``A = diag(1, L)`` once per
    contravariant slot and its inverse-transpose once per covariant slot
    (the contraction-preserving pushforward).  A scalar passes through
    unchanged; on the eigenvector ``w_+`` of L this is multiplication by
    ``lambda``, on the dual covector it is multiplication by
    ``1/lambda``.  With ``inverse=True`` the round trip is the identity.
    """
    a, a_inv = grid.gluing_jacobian, _lift(_int_matpow(grid.monodromy, -1))
    if inverse:
        a, a_inv = a_inv, a
    return _contract_slots(components, index_sig, a, a_inv)


# -- ghost slabs and the stencil --------------------------------------------

def _along(axis: int, sl: slice) -> tuple:
    return (slice(None),) * axis + (sl,)


def _padded(data: np.ndarray, index_sig: str, grid: Grid, axis: int,
            width: int) -> np.ndarray:
    """``data`` with ``width`` ghost slabs on each side of ``axis``.

    Torus axes and an untwisted t-axis get periodic copies.  On a
    twisted t-axis a field on the quotient satisfies
    ``v(p, t+1) = A^{-1} v(Lp, t)`` per contravariant slot (``A^T`` per
    covariant slot), so the ghost slabs past t = 1 are the first slabs
    pushed forward by -1 period, and those before t = 0 the last slabs
    pushed forward by +1 period (:func:`_transported`).
    """
    if axis not in (0, 1, 2):
        raise GridError(f"axis out of range: {axis}")
    if axis == 0 and grid.open_t:
        raise GridError("open t-axis has no wrap; use partial_derivative")
    m = data.shape[axis]
    if width > m:
        raise GridError(f"ghost width {width} exceeds the {m} points of axis {axis}")
    low = data[_along(axis, slice(m - width, m))]
    high = data[_along(axis, slice(0, width))]
    if axis == 0 and not grid.is_flat:
        low = _transported(low, index_sig, grid, 1)
        high = _transported(high, index_sig, grid, -1)
    return np.concatenate((low, data, high), axis=axis)


def shift(data: np.ndarray, index_sig: str, grid: Grid, axis: int, s: int) -> np.ndarray:
    """Values of a seam-compatible field at grid points offset by s along axis.

    Result[k] = field at index k + s, wrapping periodically on torus
    axes and through the monodromy on the fiber axis: a slice of the
    array padded with |s| ghost slabs (see :func:`_padded`).
    """
    w = abs(s)
    padded = _padded(data, index_sig, grid, axis, w)
    return padded[_along(axis, slice(w + s, w + s + data.shape[axis]))]


def _centered(padded: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order centered derivative at every row of ``padded`` with two neighbours each side."""
    m = padded.shape[axis] - 4
    f = lambda s: padded[_along(axis, slice(2 + s, 2 + s + m))]
    # paired differences: exact zero on constants (ghost slabs are value bijections)
    d1, d2 = f(1) - f(-1), f(2) - f(-2)
    # release the padded copy before the result is allocated, so the result
    # can take its memory; allocated while the copy was alive, the result
    # fragmented the heap and the variation benchmark's peak RSS rose 5 %
    del padded, f
    return (8.0 * d1 - d2) / (12.0 * h)


def partial_derivative(data: np.ndarray, index_sig: str, grid: Grid, axis: int) -> np.ndarray:
    """Componentwise 4th-order partial derivative along a coordinate axis.

    The stencil reads two ghost slabs on each side of the axis: wrapped
    through the monodromy at the t-seam, plainly periodic on the torus
    axes.  Open t-axes use the centered stencil on their interior and
    one-sided 4th-order rows at the boundary.  The raw component
    derivative is returned; it is only seam-compatible as part of
    covariant combinations (exterior derivative, Lie derivative,
    Christoffel symbols, ...), which is how the rest of the package
    consumes it.
    """
    if axis != 0 or not grid.open_t:
        return _centered(_padded(data, index_sig, grid, axis, 2), axis, grid.spacing[axis])
    h, m = grid.spacing[0], data.shape[0]
    out = np.empty(data.shape)
    out[2:m - 2] = _centered(data, 0, h)
    for row, offs, coeffs in _ONESIDED_ROWS:
        out[row] = sum((c / 12.0) * data[row + off] for off, c in zip(offs, coeffs)) / h
        out[m - 1 - row] = sum((-c / 12.0) * data[m - 1 - row - off]
                               for off, c in zip(offs, coeffs)) / h
    return out


# -- quadrature ---------------------------------------------------------

def integrate(values: np.ndarray, density: np.ndarray, grid: Grid) -> float:
    """Integral of a scalar against a top form given by its (t,x,y)-density.

    The manifold is oriented by the supplied form, so the result equals
    the plain sum of ``values * |density|`` times the coordinate cell
    volume.  On smooth periodic data this trapezoid-type rule is
    spectrally accurate.  Raises if the density vanishes or changes sign
    anywhere.
    """
    dens = np.broadcast_to(np.asarray(density, dtype=float), grid.shape)
    vals = np.broadcast_to(np.asarray(values, dtype=float), grid.shape)
    if np.any(dens == 0.0):
        raise GridError("volume density vanishes at a grid point")
    if dens.max() > 0 > dens.min():
        raise GridError("volume density changes sign")
    ht, hx, hy = grid.spacing
    weighted = vals * np.abs(dens)
    if grid.open_t:
        wt = np.ones(grid.n_fiber)
        wt[0] = wt[-1] = 0.5
        return float(np.sum(weighted * wt.reshape(-1, 1, 1)) * ht * hx * hy)
    return float(np.sum(weighted) * ht * hx * hy)


def grid_sum(values: np.ndarray, grid: Grid) -> float:
    """Plain cell-weighted sum; the discrete divergence-theorem primitive."""
    ht, hx, hy = grid.spacing
    return float(np.sum(values) * ht * hx * hy)
