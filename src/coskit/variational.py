"""Torsion energy functional: diagnostics, deformations, and minimization.

The functional is E(g) = int |L_R g|^2 alpha ^ beta over compatible
metrics.  This module computes the torsion report and Euler-Lagrange
residual, projects onto the tangent space of compatible metrics, moves
along it with operator-exponential curves, verifies the first
variation, and implements the stable/unstable-coframe deformation
parametrization over a critical metric:

    g~ = alpha (x) alpha + q vp (x) vp + r (vp (x) vm + vm (x) vp)
         + p vm (x) vm,        p q - r^2 = 1,

with (vp, vm) the lowered bracket frame of the critical metric.  The
deformation is parametrized by (u = log p, r) so the constraint and
p > 0 hold unconditionally.  energy_gap evaluates the family's energy
gap from (u, r) alone, by the one formula that minimize_energy
descends, and energy_gap_direct the same gap through the full tensor
pipeline; the family's closed-form torsion is checked against
torsion_report in the test suite.  Every Reeb derivative here is a sum
along the Reeb field by the kernel of :mod:`coskit.grids`
(``_field_components``, ``_sum_along``), the one that the Lie and
covariant derivatives use.  A (u, r) of t alone is stored as its
t-column (a view with zero torus strides), and is evaluated and
descended on that column with every sum taken over the full grid, so it
gives the bits of the full-grid computation.  Likewise the energy, the
torsion report, the Euler-Lagrange residual and nabla_r_h_residual read
a certified metric constant over the torus on its t-column
(grids._columns), and so does the variation path: random_tangent builds
a suspension tangent as its t-column, and tangent_project,
exponential_curve, first_variation, deformation_chart and deform compute
on the columns when every input is one.  Mixed or torus-varying input
takes the full path, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cosymplectic import CompatibleMetric, Structure, certify_compatible, d_alpha_plus
from .grids import Grid, _as_field, _columns, _field_components, _grid_sum, _stored, \
    _sum_along, _sup, partial_derivative
from .models import HyperbolicModel, critical_frame
from .tensors import TensorField, check_positive_definite, covariant_derivative, \
    lie_derivative, tensor_norm2


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise outer product a_i b_j of two vector fields."""
    return a[..., :, None] * b[..., None, :]


def reeb_derivative(scalar: np.ndarray, structure: Structure) -> np.ndarray:
    """R(f) for a scalar field, by 4th-order differences along the Reeb field."""
    grid = structure.grid
    return _sum_along(_field_components(structure.reeb.data),
                      lambda c: partial_derivative(scalar, "", grid, c), scalar.shape)


# -- torsion and criticality diagnostics -------------------------------------


@dataclass
class TorsionReport:
    torsion_field: np.ndarray        # |L_R g|^2 pointwise
    energy: float
    first_integral_residual: float   # sup |R(torsion)|

    @property
    def constancy(self) -> float:
        """stddev/mean of the torsion field; ~0 for critical metrics, 0 for torsion-free ones."""
        mean = np.mean(self.torsion_field)
        return float(np.std(self.torsion_field) / mean) if mean > 0 else 0.0


def _norm2(data: np.ndarray, sig: str, metric: CompatibleMetric) -> np.ndarray:
    """tensor_norm2 of data in the metric, on the t-columns where all three are columns."""
    data, g, ginv = _columns(data, metric.g.data, metric.ginv)
    return tensor_norm2(data, sig, g, ginv)


def _torsion(metric: CompatibleMetric) -> np.ndarray:
    """|L_R g|^2 pointwise, unclamped; the (M, 1, 1) t-column on a metric constant over the torus."""
    return _norm2(lie_derivative(metric.g, metric.structure.reeb).data, "dd", metric)


def torsion_report(metric: CompatibleMetric) -> TorsionReport:
    """The torsion field, its energy and the sup of its Reeb derivative.

    The energy and the Reeb derivative are formed on the t-column where the
    torsion is one; the field is returned at grid shape, a contiguous
    array, as np.mean and np.std read it.
    """
    structure = metric.structure
    torsion = np.maximum(_torsion(metric), 0.0)
    return TorsionReport(
        torsion_field=np.broadcast_to(torsion, metric.grid.shape).copy(),
        energy=structure.integrate(torsion),
        first_integral_residual=_sup(reeb_derivative(torsion, structure)),
    )


def energy(metric: CompatibleMetric) -> float:
    return metric.structure.integrate(_torsion(metric))


def _reeb_connection(metric: CompatibleMetric):
    """T = L_R g, dalpha+ and nabla R = (g^-1 T - dalpha+) / 2; see euler_lagrange_residual.

    nabla R is formed on the t-columns where T, g^-1 and dalpha+ are
    constant over the torus (grids._columns).
    """
    t = lie_derivative(metric.g, metric.structure.reeb)
    dap = d_alpha_plus(metric).data
    ginv, td, dapc = _columns(metric.ginv, t.data, dap)
    return t, dap, 0.5 * (ginv @ td - dapc)


def euler_lagrange_residual(metric: CompatibleMetric) -> TensorField:
    """nabla_R L_R g - (L_R g)(., dalpha+ .), the Euler-Lagrange field of the energy.

    With T = L_R g, nabla_R S = L_R S + D(nabla R) S with nabla R =
    (1/2) (g^-1 T - dalpha+) and D the derivation of tensors._derivation:
    for a compatible metric (alpha = g(R, .)) the Koszul formula gives
    g(nabla_X R, Y) = (1/2) (T(X, Y) + d alpha(X, Y)), and no Christoffel
    symbols are formed.

    The first variation pairs it with tangent fields only, so a metric is
    critical iff its tangential part (tangent_project) vanishes; on the
    suspension's critical metrics the whole residual cancels to roundoff.
    It is no test of criticality on its own: on the contact_t3 testbed it
    is tangent, of sup norm sqrt(2), and the energy falls along it.  On
    cosymplectic charts dalpha+ vanishes and the residual reduces to
    nabla_R L_R g.  The cross term carries
    coefficient 1 here because this package uses the determinant
    convention for the exterior derivative ((da)(X,Y) = X a(Y) - Y a(X)
    on coordinate fields); almost-contact sources that normalize d with
    a 1/2 write the same term as 2 (L_R g)(., dalpha+ .).  The
    coefficient is pinned by a convergence fit: on closed charts
    -2 <EL, H> approaches first_variation, the exact derivative of the
    discrete energy, at 4th order.

    Formed on the t-columns where the metric and structure are constant
    over the torus, out of place (column results are read-only views).
    """
    lg, dap, nabla_r = _reeb_connection(metric)
    el, t, dap = _columns(covariant_derivative(lg, metric.structure.reeb, nabla_r).data,
                          lg.data, dap)
    return TensorField(metric.grid, el - t @ dap, "dd")


def euler_lagrange_supnorm(metric: CompatibleMetric) -> float:
    return float(np.sqrt(np.max(_norm2(euler_lagrange_residual(metric).data, "dd", metric))))


def nabla_r_h_residual(metric: CompatibleMetric) -> float:
    """sup |nabla_R h|; vanishes iff the metric is critical (cosymplectic case)."""
    nh = covariant_derivative(metric.h_tensor(), metric.structure.reeb,
                              _reeb_connection(metric)[2])
    return float(np.sqrt(np.max(_norm2(nh.data, "ud", metric))))


# -- tangent space of compatible metrics --------------------------------------


def tangent_project(h_raw: TensorField, metric: CompatibleMetric) -> TensorField:
    """Project a symmetric 2-tensor onto the tangent space at the metric.

    Removes the Reeb component, then the phi-antisymmetric part via
    H -> (H - H(phi., phi.)) / 2; tangent vectors are exactly the
    symmetric fields with iota_R H = 0 and H(phi., .) = H(., phi.).
    Idempotent on tangent input.  Formed on the t-columns where H, alpha,
    R and phi are constant over the torus (grids._columns); such a result
    is a read-only view with zero torus strides.
    """
    h, alpha, reeb, phi = _columns(h_raw.data, metric.structure.alpha.data,
                                   metric.structure.reeb.data, metric.phi.data)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    omega = (reeb[..., None, :] @ h)[..., 0, :]
    c = np.einsum("...i,...i->...", omega, reeb)
    h1 = (h - _outer(alpha, omega) - _outer(omega, alpha)
          + c[..., None, None] * _outer(alpha, alpha))
    h_phiphi = np.swapaxes(phi, -1, -2) @ h1 @ phi
    return TensorField(metric.grid, 0.5 * (h1 - h_phiphi), "dd")


_EXP_THETA_MAX = 200.0 * np.sqrt(3.0)
_UNIT_ROUNDOFF = 2.0 ** -53


def exponential_curve(metric: CompatibleMetric, h_field: TensorField,
                      s: float) -> CompatibleMetric:
    """g(s) = g0(e^{s H+} ., .) with H+ = g0^{-1} H, computed pointwise.

    Stays inside the compatible metrics for every s (H tangent); the
    returned metric carries a fresh certificate.  With the closed-form
    Cholesky factor g0 = C C^T, H+ is similar to the symmetric
    B = C^{-1} H C^{-T}, and g(s) = C e^{sB} C^T; C^{-1} = C^T g0^{-1}
    needs no second inversion.

    e^{sB} is a Taylor polynomial with scaling and squaring (Moler & Van
    Loan, SIAM Rev. 45, 2003; Higham, SIAM J. Matrix Anal. Appl. 26,
    2005): with theta the largest |sB|_F on the grid, sB is scaled by
    2^-j so that theta 2^-j <= 1/4, the polynomial of the smallest
    degree m with (theta 2^-j)^m / m! below roundoff is evaluated by
    Horner's rule, and the result is squared j times.  B is symmetric,
    so |sB|_2 <= theta <= sqrt(3) |sB|_2.

    A non-finite s or tangent field raises ValueError, and theta > 200
    sqrt(3) raises OverflowError.  The guard accepts every |sB|_2 <= 200,
    and an accepted curve stretches by at most e^{346} ~ 1e150, far from
    overflow.

    Where g0, g0^{-1} and H are constant over the torus, every step runs
    on their t-columns (grids._columns): each is pointwise and theta a
    maximum, so g(s) has the full grid's bits, and it is certified as
    its column with no bitwise scan.
    """
    if not np.isfinite(s):
        raise ValueError(f"curve parameter s is not finite: {s}")
    g, ginv, h = _columns(metric.g.data, metric.ginv, h_field.data)
    if not np.all(np.isfinite(h)):
        raise ValueError("tangent field is not finite")
    c = check_positive_definite(g)
    c_inv = np.swapaxes(c, -1, -2) @ ginv
    b = c_inv @ h @ np.swapaxes(c_inv, -1, -2)
    b = (0.5 * s) * (b + np.swapaxes(b, -1, -2))
    theta = float(np.sqrt(np.max(np.sum(b * b, axis=(-2, -1)))))
    if not theta <= _EXP_THETA_MAX:
        raise OverflowError("operator exponential overflow: |s| |H+| too large")
    exp_b = _expm_symmetric(b, theta)
    g_s = c @ exp_b @ np.swapaxes(c, -1, -2)
    g_s = 0.5 * (g_s + np.swapaxes(g_s, -1, -2))
    del c, c_inv, b, exp_b   # released before the certification allocates
    return certify_compatible(metric.structure, TensorField(metric.grid, g_s, "dd"))


def _expm_symmetric(b: np.ndarray, theta: float) -> np.ndarray:
    """e^b for a symmetric (..., 3, 3) field b with max |b|_F = theta.

    Overwrites b with its scaled copy; see exponential_curve.
    """
    j = max(0, math.ceil(math.log2(4.0 * theta))) if theta > 0.0 else 0
    theta = math.ldexp(theta, -j)
    b *= 2.0 ** -j
    m, term = 1, theta
    while term >= _UNIT_ROUNDOFF:
        m += 1
        term *= theta / m
    eye = np.eye(3)
    e = b / m
    e += eye
    for k in range(m - 1, 0, -1):
        e = b @ e
        e /= k
        e += eye
    for _ in range(j):
        e = e @ e
    return e


def first_variation(metric: CompatibleMetric, h_field: TensorField) -> float:
    """dE/ds at s = 0 along a curve of metrics with g' = H, for the discrete E.

    With T = L_R g and g^-1 the certified inverse,

        dE(H) = 2 int [tr(g^-1 T g^-1 L_R H) - tr(g^-1 H g^-1 T g^-1 T)] alpha ^ beta,

    the derivative of energy() as coskit computes it: the stencil Lie
    derivative is linear in its data, the derivative of g^-1 is
    -g^-1 H g^-1, and the quadrature weights are fixed by the structure.
    So it is exact to roundoff on every chart, the open Sol box
    included, with no integration by parts.  The continuum pairing
    -2 <EL residual, H> (see euler_lagrange_residual) agrees with it
    on closed charts up to the stencil error, O(h^4).  g^-1, T, L_R H and
    H are taken on their t-columns when all four are constant over the
    torus; the integral is one sum over the full grid, with its bits.
    """
    reeb = metric.structure.reeb
    ginv, t, m, h = _columns(metric.ginv, lie_derivative(metric.g, reeb).data,
                             lie_derivative(h_field, reeb).data, h_field.data)
    t_up = ginv @ t                                           # g^-1 T
    # L_R H - T g^-1 H, in place unless L_R H is a read-only t-column
    m = np.subtract(m, np.swapaxes(t_up, -1, -2) @ h, out=m if m.flags.writeable else None)
    return 2.0 * metric.structure.integrate(np.sum((t_up @ ginv) * m, axis=(-2, -1)))


# -- the stable/unstable-coframe deformation ----------------------------------


@dataclass
class Deformation:
    """Global scalar fields (u = log p, r) with p q - r^2 = 1 built in.

    Stored as TensorField stores its data (grids._as_field): a (u, r) of t
    alone is a read-only view with zero torus strides, read as its t-column.
    """

    grid: Grid
    u: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.u, self.r = (_as_field(f, self.grid.shape) for f in (self.u, self.r))

    @property
    def p(self) -> np.ndarray:
        return np.exp(self.u)

    @property
    def q(self) -> np.ndarray:
        return (1.0 + self.r ** 2) * np.exp(-self.u)


@dataclass
class DeformationChart:
    """A hyperbolic model's critical metric with its lowered bracket frame."""

    model: HyperbolicModel
    structure: Structure
    metric: CompatibleMetric
    vp_flat: np.ndarray
    vm_flat: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.structure.grid

    @property
    def mu(self) -> float:
        return self.model.mu


def deformation_chart(model: HyperbolicModel, grid: Grid) -> DeformationChart:
    """The critical metric and its lowered bracket frame, formed on the t-column.

    vp_flat and vm_flat are read-only views of grid shape with zero torus
    strides.
    """
    from .models import critical_metric
    structure, metric = critical_metric(model, grid)
    v_plus, v_minus, _, _ = critical_frame(model, grid)
    g, vp, vm = _columns(metric.g.data, v_plus.data, v_minus.data)
    lower = lambda v: np.broadcast_to((g @ v[..., None])[..., 0], grid.shape + (3,))
    return DeformationChart(model, structure, metric, lower(vp), lower(vm))


def deform(chart: DeformationChart, d: Deformation) -> CompatibleMetric:
    """Assemble and certify g~ from (u, r) over the critical metric.

    Assembled pointwise, on the t-column where the (u, r) state (see
    _state) and the frame are stored as columns: such a g~ has the full
    grid's bits and is certified as its column with no bitwise scan.
    """
    alpha, vp, vm, x = _columns(chart.structure.alpha.data, chart.vp_flat, chart.vm_flat,
                                _state(d))
    u, r = x[..., 0], x[..., 1]
    p, q = np.exp(u), (1.0 + r ** 2) * np.exp(-u)
    g = (_outer(alpha, alpha)
         + q[..., None, None] * _outer(vp, vp)
         + r[..., None, None] * (_outer(vp, vm) + _outer(vm, vp))
         + p[..., None, None] * _outer(vm, vm))
    return certify_compatible(chart.structure, TensorField(chart.grid, g, "dd"))


@dataclass
class GapReport:
    gap: float
    divergence_residual: float   # int 8 mu R(u) alpha^beta, zero by the divergence theorem


def energy_gap(d: Deformation, mu: float, structure: Structure) -> GapReport:
    """E(g~) - E(g) = int [2 (2 mu r + r R(u) - R(r))^2 + 2 R(u)^2] alpha ^ beta >= 0.

    The objective that minimize_energy descends (_gap_and_gradient), with
    its preconditions, on the same state: the (u, r) t-column where the
    deformation is stored as one (see _state), with the bits of
    the full-grid evaluation.  The discarded term 8 mu R(u) integrates to
    zero exactly on the twisted grid (stencil shifts are grid
    bijections); its quadrature residual is reported as a certificate of
    the discrete divergence theorem.
    """
    components, weight = _gap_setup(structure)
    gap, ru, _ = _gap_and_gradient(_state(d), mu, components,
                                   structure.grid, weight)
    return GapReport(gap=gap, divergence_residual=structure.integrate(8.0 * mu * ru))


def energy_gap_direct(chart: DeformationChart, d: Deformation) -> float:
    """E(deform(d)) - E(g_crit) through the full tensor pipeline."""
    return energy(deform(chart, d)) - energy(chart.metric)


# -- random test fields --------------------------------------------------------


# the random fields' Fourier coefficients of mode m fall off like m^-_DECAY;
# random_tangent's modes go up to _TANGENT_MAX_MODE
_DECAY = 4.0
_TANGENT_MAX_MODE = 2


def random_global_scalar(grid: Grid, rng: np.random.Generator, amplitude: float,
                         max_mode: int = 3) -> np.ndarray:
    """Random smooth scalar on the quotient: truncated Fourier series in t.

    Fields on a twisted chart must satisfy f(x, 1) = f(L x, 0); the
    t-only truncated series does so for any monodromy.  Coefficients
    fall off like m^{-4} so stencil truncation error stays resolvable;
    the sup norm is scaled to the requested amplitude.  The series is
    evaluated on the (M, 1, 1) t-column and returned as a read-only
    np.broadcast_to view of grid shape, with zero torus strides.
    """
    t = grid.t
    out = np.zeros(t.shape)
    for m in range(1, max_mode + 1):
        coeff = rng.standard_normal() * m ** (-_DECAY)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out = out + coeff * np.cos(2.0 * np.pi * m * t + phase)
    sup = np.max(np.abs(out))
    if sup != 0.0:
        out = out * (amplitude / sup)
    return np.broadcast_to(out, grid.shape)


def random_deformation(grid: Grid, seed: int, amplitude: float = 0.3) -> Deformation:
    rng = np.random.default_rng(seed)
    u = random_global_scalar(grid, rng, amplitude)
    r = random_global_scalar(grid, rng, amplitude)
    return Deformation(grid, u, r)


def random_tangent(metric: CompatibleMetric, rng: np.random.Generator,
                   amplitude: float, model: HyperbolicModel | None = None) -> TensorField:
    """Random tangent deformation at a compatible metric.

    On flat charts the raw field is a periodic random symmetric tensor;
    on twisted charts it is built from quadratics of the critical
    coframe (alpha, lowered frame covectors) with t-only random
    coefficients, which keeps it single-valued on the quotient.  The
    result is tangent-projected and scaled to the requested sup norm, out
    of place.  The twisted field depends on t alone, and at a metric
    constant over the torus it is returned as its t-column, a read-only
    view with zero torus strides; the flat field is a contiguous array.
    """
    grid = metric.grid
    if model is None:
        raw = np.zeros(grid.shape + (3, 3))
        t, x, y = grid.coordinates()
        for i in range(3):
            for j in range(i, 3):
                f = np.zeros(grid.shape)
                for _ in range(3):
                    k = rng.integers(-_TANGENT_MAX_MODE, _TANGENT_MAX_MODE + 1, size=3)
                    ph = rng.uniform(0, 2 * np.pi)
                    f = f + rng.standard_normal() * np.cos(
                        2 * np.pi * (k[0] * t + k[1] * x + k[2] * y) + ph)
                raw[..., i, j] = f
                raw[..., j, i] = f
    else:
        theta = model.dual_basis
        lamt = np.abs(model.lam) ** grid.t
        covs = [_columns(metric.structure.alpha.data)[0]]
        for vec, sign in ((theta[0] * 1.0, 1.0), (theta[1] * 1.0, -1.0)):
            c = np.zeros(grid.t.shape + (3,))
            c[..., 1:] = np.einsum("...,i->...i", lamt ** sign, vec)
            covs.append(c)
        raw = np.zeros(grid.t.shape + (3, 3))
        for a in range(3):
            for b in range(a, 3):
                s = _stored(random_global_scalar(grid, rng, 1.0, _TANGENT_MAX_MODE))
                term = _outer(covs[a], covs[b])
                raw = raw + s[..., None, None] * (term + np.swapaxes(term, -1, -2))
    h = tangent_project(TensorField(grid, raw, "dd"), metric)
    sup = _sup(h.data)
    if sup > 0:
        h = TensorField(grid, _stored(h.data) * (amplitude / sup), "dd")
    return h


# -- gradient-descent energy minimizer ----------------------------------------


@dataclass
class OptimizationResult:
    deformation: Deformation
    gap_history: list[float] = dc_field(default_factory=list)
    converged: bool = False
    steps_taken: int = 0
    final_sup_r: float = 0.0
    final_sup_ru: float = 0.0
    # one entry per accepted step: its step size, the halvings the line
    # search made before accepting it, and |grad|^2 at the point it left
    step_sizes: list[float] = dc_field(default_factory=list)
    backtracks: list[int] = dc_field(default_factory=list)
    grad_norm2: list[float] = dc_field(default_factory=list)


def _dot(a: np.ndarray, b: np.ndarray, shape: tuple) -> float:
    """Grid sum of a b over both stacked components, summed per component in order."""
    return float(_grid_sum(a[..., 0] * b[..., 0], shape)
                 + _grid_sum(a[..., 1] * b[..., 1], shape))


def _bb_step(dx: np.ndarray, dg: np.ndarray, step: float, shape: tuple) -> float:
    """Barzilai-Borwein step dx.dx / dx.dg; ``step`` unchanged unless dx.dg > 0."""
    denom = _dot(dx, dg, shape)
    return _dot(dx, dx, shape) / denom if denom > 0 else step


def _gap_setup(structure: Structure):
    """The Reeb components and the quadrature weight of the (u, r) gap.

    ValueError unless the chart is closed (no open t-axis) and the
    alpha^beta density and the Reeb components are constant.  Then the
    integral is a plain sum times one weight, and the Reeb derivative is
    a constant-coefficient sum of stencils, whose adjoint is its negative
    (shifts are grid bijections), which makes the gap's gradient exact.
    """
    dens = _stored(structure.volume_density)
    if structure.grid.open_t or np.max(dens) - np.min(dens) > 1e-12 * np.max(np.abs(dens)):
        raise ValueError("the energy gap assumes a closed chart and a constant alpha^beta density")
    components = _field_components(structure.reeb.data)
    if any(isinstance(c, np.ndarray) for _, c in components):
        raise ValueError("the energy gap assumes a Reeb field with constant components")
    ht, hx, hy = structure.grid.spacing
    return components, abs(float(dens.flat[0])) * ht * hx * hy


def _state(d: Deformation) -> np.ndarray:
    """The stacked state x = (u, r), as its (M, 1, 1, 2) t-column when u and r are columns.

    That is read off their layout (grids._columns): zero torus strides,
    as every random_deformation and every scalar (u, r) has.  _gap_setup
    requires constant Reeb components, and the stencils of a column give
    the full grid's bits along every axis, so R(x) on the column is the
    full-grid R(x).  Any other state is stacked at full shape.
    """
    return np.stack(_columns(d.u, d.r), axis=-1)


def _gap_and_gradient(x, mu, components, grid, weight):
    """Energy gap at the stacked state x = (u, r), R(u), and its deferred gradient.

    R acts on both stacked scalars at once.  x is the full grid or its
    t-column (see _state): every pointwise step is the same on both, and
    the gap is summed over the full grid (_grid_sum), so both give the
    same bits.  The gradient costs a second stencil call, so it is
    returned as a function that the descent calls only at the trials it
    accepts.
    """
    def reeb(f):
        return _sum_along(components, lambda c: partial_derivative(f, "", grid, c), f.shape)

    d = reeb(x)
    r, ru, rr = x[..., 1], d[..., 0], d[..., 1]
    a = 2.0 * mu * r + r * ru - rr
    gap = float(_grid_sum(2.0 * a ** 2 + 2.0 * ru ** 2, grid.shape) * weight)

    def gradient() -> np.ndarray:
        dy = reeb(np.stack((4.0 * a * r + 4.0 * ru, 4.0 * a), axis=-1))
        g = np.empty_like(x)
        g[..., 0] = -weight * dy[..., 0]
        g[..., 1] = weight * (4.0 * a * (2.0 * mu + ru) + dy[..., 1])
        return g

    return gap, ru, gradient


# the first step size; later steps are Barzilai-Borwein steps
_STEP0 = 1e-2


def minimize_energy(initial: Deformation, mu: float, structure: Structure,
                    steps: int = 1000) -> OptimizationResult:
    """Gradient descent on (u, r) against the energy-gap objective.

    Barzilai-Borwein steps with Armijo backtracking keep the gap
    monotonically non-increasing.  Preconditions, each a ValueError:
    ``initial`` lives on ``structure.grid``, and those of energy_gap
    (see _gap_setup), which make the gradient exact for the discrete
    objective.  The line search evaluates only the gap of each trial;
    the gradient is formed only at accepted points, when the next step
    needs it.  Returns converged status when the line search stops
    making progress: it finds no Armijo step, or its accepted step
    leaves the gap unchanged in floating point.  The result records, per
    accepted step, the step size, the backtrack count and the squared
    gradient norm.  A start stored as its t-column (see _state) descends
    on that column, every sum still taken over the full grid, so the
    result has the bits of the full-grid descent and is a t-column too.
    """
    grid = structure.grid
    if initial.grid != grid:
        raise ValueError("initial deformation lives on a different grid than the structure")
    components, weight = _gap_setup(structure)

    x = _state(initial)
    gap, ru, gradient = _gap_and_gradient(x, mu, components, grid, weight)
    history, step_sizes, backtracks, grad_norm2 = [gap], [], [], []
    step = _STEP0
    prev = None
    converged = False
    n_done = 0
    for n in range(steps):
        g, gradient = gradient(), None
        if prev is not None:
            step = _bb_step(x - prev[0], g - prev[1], step, grid.shape)
            prev = None
        gnorm2 = _dot(g, g, grid.shape)
        if gnorm2 == 0.0:
            converged = True
            break
        trial = step
        for halvings in range(60):
            gradient = None
            x_t = x - trial * g
            gap_t, ru_t, gradient = _gap_and_gradient(x_t, mu, components, grid, weight)
            if gap_t <= gap - 1e-4 * trial * gnorm2:
                break
            trial *= 0.5
        else:
            converged = True
            break
        stalled = gap - gap_t <= 0.0
        prev = (x, g)
        x, gap, ru = x_t, gap_t, ru_t
        history.append(gap)
        step_sizes.append(trial)
        backtracks.append(halvings)
        grad_norm2.append(gnorm2)
        n_done = n + 1
        if stalled:
            converged = True
            break
    return OptimizationResult(Deformation(grid, x[..., 0], x[..., 1]), history, converged,
                              n_done, _sup(x[..., 1]), _sup(ru), step_sizes, backtracks,
                              grad_norm2)
