"""Explicit cosymplectic models on grid charts.

* hyperbolic mapping torus with its critical compatible metric,
* the left-invariant Sol model on an open box chart,
* the flat co-Kaehler 3-torus,
* a contact-type testbed on the flat torus (R-invariant, d(alpha) != 0),
* the affine change of coordinates identifying the Sol model with the
  mapping torus.

The hyperbolic model seeds everything: an SL(2,Z) matrix L with
|trace| > 2, eigendata L w_pm = lambda^{pm 1} w_pm, and scales tau > 0,
V > 0 for the structure (tau dt, V dx^dy).  The eigenvectors are
normalized by (V dx^dy)(w_+, w_-) = 1 with w_+ of unit length and
positive first nonzero component; the leftover scaling freedom is a
t-translation of the metric, not a hidden choice.  The critical metric,
its frame and random tangents are all read off HyperbolicModel.coframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cosymplectic import CompatibleMetric, Structure, certify_compatible
from .grids import Grid, _int_det
from .tensors import TensorField


class NotHyperbolicError(ValueError):
    """Gluing matrix has an eigenvalue of absolute value one."""


class NotSymplecticError(ValueError):
    """Gluing matrix does not preserve the symplectic form (det != 1)."""


@dataclass(frozen=True)
class HyperbolicModel:
    """SL(2,Z) gluing matrix with eigendata and structure scales."""

    matrix: np.ndarray          # 2x2 integer
    tau: float
    area: float                 # V, the dx^dy scale of beta
    lam: float                  # eigenvalue with |lam| > 1
    w_plus: np.ndarray
    w_minus: np.ndarray

    @property
    def log_lambda(self) -> float:
        return float(np.log(abs(self.lam)))

    @property
    def mu(self) -> float:
        """h-eigenvalue of the critical metric, log|lambda| / tau."""
        return self.log_lambda / self.tau

    @property
    def eigenbasis(self) -> np.ndarray:
        """Columns (w_+, w_-)."""
        return np.column_stack([self.w_plus, self.w_minus])

    @property
    def dual_basis(self) -> np.ndarray:
        """Rows (theta_+, theta_-) dual to (w_+, w_-)."""
        return np.linalg.inv(self.eigenbasis)

    def coframe(self, t) -> np.ndarray:
        """Rows (alpha, v+^flat, v-^flat) = (tau dt, |lam|^{-t} th_-, -|lam|^t th_+) at t.

        The orthonormal coframe of the critical metric, shape t.shape + (3, 3):
        the one place where that metric is written down.
        """
        lamt = np.abs(self.lam) ** np.asarray(t, dtype=float)[..., None]
        tp, tm = self.dual_basis
        c = np.zeros(lamt.shape[:-1] + (3, 3))
        c[..., 0, 0] = self.tau
        c[..., 1, 1:] = (1.0 / lamt) * tm
        c[..., 2, 1:] = -(lamt * tp)
        return c


def build_hyperbolic_model(matrix, tau: float = 1.0, area: float = 1.0) -> HyperbolicModel:
    """Validate and diagonalize an SL(2,Z) gluing matrix.

    Rejects det != 1, |trace| <= 2, and tau or V not positive and finite;
    chooses the eigenvalue with |lambda| > 1 and normalizes the
    eigenvectors per the module rules.
    """
    mat = np.asarray(matrix, dtype=np.int64)
    if mat.shape != (2, 2):
        raise NotSymplecticError(f"gluing matrix must be 2x2, got {mat.shape}")
    det = _int_det(mat)
    if det != 1:
        raise NotSymplecticError(f"det L = {det}, need 1 to preserve dx^dy")
    tr = int(mat[0, 0]) + int(mat[1, 1])
    if abs(tr) <= 2:
        raise NotHyperbolicError(f"|trace| = {abs(tr)} <= 2: eigenvalues on the unit circle")
    if not (0 < tau < np.inf and 0 < area < np.inf):
        raise ValueError("tau and V must be positive and finite")
    disc = np.sqrt(tr * tr - 4.0)
    lam = (tr + disc) / 2.0 if tr > 0 else (tr - disc) / 2.0

    def eigvec(ev):
        a, b = float(mat[0, 0]), float(mat[0, 1])
        c, d = float(mat[1, 0]), float(mat[1, 1])
        v1 = np.array([b, ev - a])
        v2 = np.array([ev - d, c])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        return v / np.linalg.norm(v)

    wp = eigvec(lam)
    wm = eigvec(1.0 / lam)
    nz = np.nonzero(np.abs(wp) > 1e-13)[0][0]
    if wp[nz] < 0:
        wp = -wp
    pairing = area * (wp[0] * wm[1] - wp[1] * wm[0])   # (V dx^dy)(w+, w-)
    wm = wm / pairing
    return HyperbolicModel(mat, float(tau), float(area), float(lam), wp, wm)


# -- grid field assembly ----------------------------------------------------


def _constant_structure(grid: Grid, c: float, area: float) -> Structure:
    """(c dt, V dx^dy) with Reeb field c^{-1} d_t, constant on the chart."""
    beta = [[0.0, 0.0, 0.0], [0.0, 0.0, area], [0.0, -area, 0.0]]
    return Structure(grid, TensorField(grid, [c, 0.0, 0.0], "d"), TensorField(grid, beta, "dd"),
                     TensorField(grid, [1.0 / c, 0.0, 0.0], "u"), "cosymplectic")


def suspension_structure(model: HyperbolicModel, grid: Grid) -> Structure:
    """(tau dt, V dx^dy) with Reeb field tau^{-1} d_t on the mapping torus."""
    if not np.array_equal(grid.monodromy, model.matrix):
        raise ValueError("grid monodromy does not match the model's gluing matrix")
    return _constant_structure(grid, model.tau, model.area)


def critical_metric(model: HyperbolicModel, grid: Grid) -> tuple[Structure, CompatibleMetric]:
    """The suspension structure with its critical compatible metric.

    g is the sum of the squares of the rows of model.coframe, in the order
    of deform's sum, so deform at (u, r) = (0, 0) gives its bits.  It
    depends on t alone and satisfies the seam identity exactly.
    """
    structure = suspension_structure(model, grid)
    c = model.coframe(grid.t)
    g = sum(c[..., k, :, None] * c[..., k, None, :] for k in range(3))
    return structure, certify_compatible(structure, TensorField(grid, g, "dd"))


def flat_cokahler(grid: Grid) -> tuple[Structure, CompatibleMetric]:
    """(dt, dx^dy) with the flat metric; the zero-torsion branch."""
    if not grid.is_flat:
        raise ValueError("flat co-Kaehler model needs an untwisted grid")
    structure = _constant_structure(grid, 1.0, 1.0)
    return structure, certify_compatible(structure, TensorField(grid, np.eye(3), "dd"))


# -- Sol model on an open box chart -----------------------------------------


@dataclass(frozen=True)
class SolModel:
    """Left-invariant Sol data: (mu dt, dx+ ^ dx-) on coordinates (t, x+, x-)."""

    mu: float

    def metric_matrix(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        g = np.zeros(t.shape + (3, 3))
        g[..., 0, 0] = self.mu ** 2
        g[..., 1, 1] = np.exp(-2.0 * t)
        g[..., 2, 2] = np.exp(2.0 * t)
        return g


def sol_box_grid(n_torus: int, n_fiber: int) -> Grid:
    """The open box chart t in [-1/2, 1/2] of the Sol model."""
    return Grid(n_torus, n_fiber, open_t=True)


def sol_model(mu: float, grid: Grid) -> tuple[Structure, CompatibleMetric]:
    """The Sol chart: structure (mu dt, dx+^dx-), metric, and phi.

    phi = e^{2t} dx- (x) d_{x+} - e^{-2t} dx+ (x) d_{x-}; the left
    invariant frame (d_t, e^{pm t} d_{x pm}) satisfies the sol bracket
    relations.  The chart is an open box used for local checks only.
    """
    if mu == 0 or not np.isfinite(mu):
        raise ValueError("mu must be nonzero and finite")
    if not grid.open_t:
        raise ValueError("sol model lives on an open box chart")
    model = SolModel(float(mu))
    structure = _constant_structure(grid, mu, 1.0)
    g = TensorField(grid, model.metric_matrix(grid.t), "dd")
    return structure, certify_compatible(structure, g)


def sol_frame(grid: Grid) -> tuple[TensorField, TensorField, TensorField]:
    """(Y, X_+, X_-) = (d_t, e^t d_{x+}, e^{-t} d_{x-}): the sol basis fields."""
    t = grid.t
    xp = np.zeros(t.shape + (3,))
    xp[..., 1] = np.exp(t)
    xm = np.zeros(t.shape + (3,))
    xm[..., 2] = np.exp(-t)
    return (TensorField(grid, [1.0, 0.0, 0.0], "u"), TensorField(grid, xp, "u"),
            TensorField(grid, xm, "u"))


# -- contact-type testbed on the flat torus ---------------------------------


def contact_t3_testbed(winding: int, grid: Grid) -> tuple[Structure, CompatibleMetric]:
    """R-invariant almost cosymplectic testbed with d(alpha) != 0.

    alpha = cos(2 pi n t) dx + sin(2 pi n t) dy, beta = d alpha, Reeb
    field R = cos(2 pi n t) d_x + sin(2 pi n t) d_y, compatible metric
    (2 pi n)^2 dt^2 + dx^2 + dy^2.  Exercises the d(alpha)+ term of the
    general Euler-Lagrange equation.  Its energy is 4 pi |n|, and it is
    not critical: for n = 1 the Euler-Lagrange residual is tangent to the
    compatible metrics with sup norm sqrt(2) (1.412 at 16^3, 1.414 at
    32^3), and along it the energy falls at the rate the first variation
    gives.  The residual is constant in x and y, and most random_tangent
    fields pair with it to roundoff (25 of 30 at 16^3).
    """
    if winding == 0:
        raise ValueError("winding must be nonzero")
    if not grid.is_flat:
        raise ValueError("contact testbed needs an untwisted grid")
    n = int(winding)
    w = 2.0 * np.pi * n
    c, s = np.cos(w * grid.t), np.sin(w * grid.t)

    alpha = np.zeros(c.shape + (3,))
    alpha[..., 1] = c
    alpha[..., 2] = s
    beta = np.zeros(c.shape + (3, 3))
    beta[..., 0, 1] = -w * s
    beta[..., 1, 0] = w * s
    beta[..., 0, 2] = w * c
    beta[..., 2, 0] = -w * c
    g = np.diag([w * w, 1.0, 1.0])

    # R has alpha's components; both are read-only views of one array
    structure = Structure(grid, TensorField(grid, alpha, "d"),
                          TensorField(grid, beta, "dd"),
                          TensorField(grid, alpha, "u"), "general_r_invariant")
    return structure, certify_compatible(structure, TensorField(grid, g, "dd"))


# -- model equivalence: Sol covers the mapping torus -------------------------


@dataclass(frozen=True)
class SolMappingTorusMap:
    """Affine chart change identifying the Sol model with a mapping torus.

    chart_change maps mapping-torus cover coordinates (t, x, y) to Sol
    coordinates (t_s, x+, x-): t_s = k t with k = log lambda, and
    (x+, x-) = (-theta_- z, +theta_+ z).  Pulling the Sol tensors back
    through it reproduces the mapping-torus tensors exactly when the
    Sol parameter is mu_sol = tau / k (equivalently tau = mu_sol * k:
    matching the two torsions 8 mu_sol^{-2} = 8 (k/tau)^2 forces this).
    """

    model: HyperbolicModel
    sol: SolModel
    chart_change: np.ndarray     # 3x3, rows of the Sol coordinates

    @property
    def k(self) -> float:
        return self.model.log_lambda

    def sol_point(self, points: np.ndarray) -> np.ndarray:
        return points @ self.chart_change.T

    def pullback_residuals(self, grid: Grid) -> dict[str, float]:
        """Sup-norm mismatch of (alpha, beta, g) after pulling back from Sol."""
        structure, metric = critical_metric(self.model, grid)
        c = self.chart_change
        t_s = self.k * np.broadcast_to(grid.t, grid.shape)

        alpha_sol = np.array([self.sol.mu, 0.0, 0.0])
        alpha_pull = np.einsum("a,ai->i", alpha_sol, c)
        beta_sol = np.zeros((3, 3))
        beta_sol[1, 2], beta_sol[2, 1] = 1.0, -1.0
        beta_pull = c.T @ beta_sol @ c
        g_sol = self.sol.metric_matrix(t_s)
        g_pull = np.einsum("ai,...ab,bj->...ij", c, g_sol, c)

        return {
            "alpha": float(np.max(np.abs(alpha_pull - structure.alpha.data))),
            "beta": float(np.max(np.abs(beta_pull - structure.beta.data))),
            "g": float(np.max(np.abs(g_pull - metric.g.data))),
        }

    def roundtrip_residual(self, points: np.ndarray) -> float:
        inv = np.linalg.inv(self.chart_change)
        back = self.sol_point(points) @ inv.T
        return float(np.max(np.abs(back - points)))


def sol_to_mapping_torus(model: HyperbolicModel) -> SolMappingTorusMap:
    """Construct the Sol <-> mapping-torus identification for lambda > 0.

    lambda < 0 (non-orientable eigenlines) needs the double-cover /
    half-twist construction and is out of scope.
    """
    if model.lam < 0:
        raise ValueError("out of scope: lambda < 0 requires the double-cover gluing")
    k = model.log_lambda
    theta = model.dual_basis
    c = np.zeros((3, 3))
    c[0, 0] = k
    c[1, 1:] = -theta[1]
    c[2, 1:] = theta[0]
    return SolMappingTorusMap(model, SolModel(model.tau / k), c)
