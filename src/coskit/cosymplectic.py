"""Cosymplectic and R-invariant almost cosymplectic structures.

A structure is a pair (alpha, beta) of a 1-form and a 2-form with
alpha ^ beta nowhere zero, together with its Reeb field R (alpha(R) = 1,
beta(R, .) = 0).  A compatible metric g carries the derived (1,1)
tensor phi with

    phi^2 = -1 + alpha (x) R,   beta = g(., phi .),   alpha = g(R, .),

where phi is recovered from the metric as phi = g^{-1} beta, i.e.
phi^k_j = g^{kl} beta_{lj} (beta's first slot is the contracted one).
Certification evaluates all defining and derived identities and returns
their sup-norm residuals; nothing downstream trusts a metric that did
not pass through the certifier.

A certified metric holds g, the read-only g^{-1} its certifier formed,
and the certificate; phi, the one derived field kept, is formed from
that g^{-1} on first use.  g and g^{-1} are one snapshot, so g.data
must not be mutated after certification.  A metric constant over the
torus, as every critical metric is, is stored as its t-column: g, g^{-1}
and phi are read-only views with zero torus strides, a write raises
ValueError, and the tensor layer, d_alpha_plus and the structure's
residuals compute on the column (see grids._columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import Grid, _columns, _stored, _sup, integrate
from .tensors import TensorField, check_positive_definite, exterior_derivative, hodge_star, \
    inverse_metric, lie_derivative

FLAVORS = ("cosymplectic", "general_r_invariant")


class StructureError(ValueError):
    pass


@dataclass
class Structure:
    """Almost cosymplectic structure (alpha, beta) with Reeb field on a chart."""

    grid: Grid
    alpha: TensorField
    beta: TensorField
    reeb: TensorField
    flavor: str = "cosymplectic"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise StructureError(f"unknown flavor {self.flavor!r}")

    @property
    def volume_density(self) -> np.ndarray:
        """(alpha ^ beta)(d_t, d_x, d_y); its sign fixes the orientation.

        Formed at the axes alpha and beta vary along (grids._stored) and
        returned as a read-only view of grid shape: for the constant
        suspension forms, one value stored once.
        """
        a, b = _stored(self.alpha.data), _stored(self.beta.data)
        dens = a[..., 0] * b[..., 1, 2] + a[..., 1] * b[..., 2, 0] + a[..., 2] * b[..., 0, 1]
        return np.broadcast_to(dens, self.grid.shape)

    @property
    def orientation(self) -> float:
        dens = _stored(self.volume_density)
        if dens.max() > 0 > dens.min() or np.any(dens == 0):
            raise StructureError("alpha ^ beta is not a volume form on this chart")
        return 1.0 if dens.flat[0] > 0 else -1.0

    def integrate(self, scalar: np.ndarray) -> float:
        return integrate(scalar, self.volume_density, self.grid)

    def residuals(self) -> dict[str, float]:
        """Sup-norm residuals of the structure's defining identities.

        Formed on the t-columns where alpha, beta and R are constant over
        the torus (grids._columns): each is pointwise, each residual a
        maximum, so the bits are those of the full grid.
        """
        alpha, beta, reeb = _columns(self.alpha.data, self.beta.data, self.reeb.data)
        out = {
            "alpha_of_reeb": _sup(np.einsum("...i,...i->...", alpha, reeb) - 1.0),
            "reeb_in_kernel_of_beta": _sup(reeb[..., None, :] @ beta),
        }
        if self.flavor == "cosymplectic":
            out["d_alpha"] = _sup(exterior_derivative(self.alpha).data)
            out["d_beta"] = _sup(exterior_derivative(self.beta).data)
        else:
            out["lie_reeb_alpha"] = _sup(lie_derivative(self.alpha, self.reeb).data)
            out["lie_reeb_beta"] = _sup(lie_derivative(self.beta, self.reeb).data)
        return out


@dataclass
class CompatibleMetric:
    """A certified compatible metric: g, g^{-1} and the certificate.

    g^{-1} is the read-only inverse that certify_compatible formed; phi =
    g^{-1} beta, the one derived field kept, is formed from it on first
    use, on the t-column where g^{-1} and beta are constant over the
    torus.  g and g^{-1} are one snapshot: do not mutate g.data after
    certification.
    """

    structure: Structure
    g: TensorField
    certificate: dict[str, float]
    _ginv: np.ndarray = field(repr=False)

    @property
    def grid(self) -> Grid:
        return self.structure.grid

    @property
    def ginv(self) -> np.ndarray:
        return self._ginv

    @cached_property
    def phi(self) -> TensorField:
        ginv, beta = _columns(self.ginv, self.structure.beta.data)
        return TensorField(self.grid, ginv @ beta, "ud")

    def h_tensor(self) -> TensorField:
        """h = (1/2) L_R phi; symmetric, anticommutes with phi, kills R."""
        lphi, = _columns(lie_derivative(self.phi, self.structure.reeb).data)
        return TensorField(self.grid, 0.5 * lphi, "ud")

    def max_residual(self, keys=None) -> float:
        keys = keys or self.certificate.keys()
        return max(self.certificate[k] for k in keys)


# identities in the certificate that are pointwise algebra (no stencils)
ALGEBRAIC_CERT_KEYS = (
    "phi_squared", "beta_from_g_phi", "alpha_metric_dual", "reeb_unit_norm",
    "alpha_circ_phi", "phi_of_reeb", "hodge_alpha_beta", "metric_reconstruction",
)


def _column_of(data: np.ndarray) -> np.ndarray | None:
    """data's (M, 1, 1) t-column when each t-slab holds one value at every torus point, else None.

    A column by layout (see grids._columns) is returned as it is.  Otherwise the
    bits are compared (int64 views, so -0.0 and +0.0 differ), the first t-slab
    before the rest, so data varying over the torus is rejected after 1/M of the
    work, and a passing column is copied out.  The one bitwise scan: metrics of
    any layout enter here, and every other reader takes the layout as it is.
    """
    column = data[:, :1, :1]
    if _stored(data).shape[1:3] == (1, 1):
        return column
    bits, column_bits = data.view(np.int64), column.view(np.int64)
    if np.any(bits[:1] != column_bits[:1]) or np.any(bits != column_bits):
        return None
    return column.copy()


def certify_compatible(structure: Structure, g: TensorField) -> CompatibleMetric:
    """Derive phi from g and evaluate every compatibility identity.

    Returns the metric packaged with its g^{-1} (a read-only view) and a
    certificate mapping identity names to sup-norm residuals.  Raises
    only for structurally unusable input (g not symmetric positive
    definite); interpretation of the residuals is left to the caller.

    A g whose every t-slab holds the same bits at each torus point
    (_column_of: zero torus strides, or a bitwise comparison that
    rejects a varying metric after one t-slab) is stored as its t-column,
    a read-only view with zero torus strides.  Then, with a structure
    constant over the torus, the factor, g^{-1}, the star and every
    identity are formed on the column: each is pointwise and each
    residual a maximum, so the certificate has the bits of the full grid.
    """
    column = _column_of(g.data)
    if column is not None:
        g = TensorField(g.grid, column, "dd")
    gd, alpha, beta, reeb = _columns(g.data, structure.alpha.data, structure.beta.data,
                                     structure.reeb.data)
    chol = check_positive_definite(gd)
    if _sup(gd - np.swapaxes(gd, -1, -2)) > 1e-12 * max(1.0, _sup(gd)):
        raise StructureError("metric is not symmetric")
    # alpha as a row vector, R as a column vector
    alpha, reeb = alpha[..., None, :], reeb[..., :, None]
    ginv = inverse_metric(gd)
    # the star reads sqrt(det g) off the factor, which is dropped before
    # the other identities allocate
    star, = _columns(hodge_star(structure.alpha, chol, structure.orientation, ginv=ginv).data)
    hodge = _sup(star - beta)
    del chol, star
    phi = ginv @ beta
    phi_t = np.swapaxes(phi, -1, -2)
    r_low = (gd @ reeb)[..., 0]

    cert = {
        "phi_squared": _sup(phi @ phi + np.eye(3) - reeb * alpha),
        "beta_from_g_phi": _sup(beta - gd @ phi),
        "alpha_metric_dual": _sup(alpha[..., 0, :] - r_low),
        "reeb_unit_norm": _sup(np.sqrt(np.sum(r_low * reeb[..., 0], axis=-1)) - 1.0),
        "alpha_circ_phi": _sup(alpha @ phi),
        "phi_of_reeb": _sup(phi @ reeb),
        "metric_reconstruction": _sup(
            gd - phi_t @ gd @ phi - np.swapaxes(alpha, -1, -2) * alpha),
        "hodge_alpha_beta": hodge,
    }
    if structure.flavor != "cosymplectic":
        dalpha, phi, phi_t = _columns(exterior_derivative(structure.alpha).data, phi, phi_t)
        cert["d_alpha_phi_antisymmetry"] = _sup(phi_t @ dalpha + dalpha @ phi)
    return CompatibleMetric(structure, g, cert, np.broadcast_to(ginv, g.data.shape))


def d_alpha_plus(metric: CompatibleMetric) -> TensorField:
    """(1,1) metric dual of d alpha: g(., dalpha+ .) = d alpha.

    Vanishes on cosymplectic charts and equals phi on contact charts.
    Formed on the t-columns where g^-1 and d alpha are constant over the
    torus (grids._columns).
    """
    ginv, dalpha = _columns(metric.ginv, exterior_derivative(metric.structure.alpha).data)
    return TensorField(metric.grid, ginv @ dalpha, "ud")
