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
p > 0 hold unconditionally; the closed-form torsion and the energy-gap
identity are evaluated against the full tensor pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .cosymplectic import CompatibleMetric, Structure, certify_compatible, d_alpha_plus
from .grids import Grid, partial_derivative
from .models import HyperbolicModel, critical_frame
from .tensors import TensorField, covariant_derivative, frame_matrix, \
    lie_derivative, tensor_norm2


def _sup(a) -> float:
    return float(np.max(np.abs(a)))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise outer product a_i b_j of two vector fields."""
    return a[..., :, None] * b[..., None, :]


def reeb_derivative(scalar: np.ndarray, structure: Structure) -> np.ndarray:
    """R(f) for a scalar field, by 4th-order differences along the Reeb field."""
    return _reeb_stacked(scalar, _reeb_coefficients(structure), structure.grid)


# -- torsion and criticality diagnostics -------------------------------------


@dataclass
class TorsionReport:
    torsion_field: np.ndarray        # |L_R g|^2 pointwise
    h: TensorField                   # (1/2) L_R phi
    mu_field: np.ndarray             # 2^{-3/2} |L_R g|
    energy: float
    first_integral_residual: float   # sup |R(torsion)|

    @property
    def mu(self) -> float:
        return float(np.mean(self.mu_field))

    @property
    def constancy(self) -> float:
        """stddev/mean of the torsion field; ~0 for critical metrics."""
        return float(np.std(self.torsion_field) / np.mean(self.torsion_field))


def torsion_report(metric: CompatibleMetric) -> TorsionReport:
    structure = metric.structure
    lg = lie_derivative(metric.g, structure.reeb)
    torsion = tensor_norm2(lg.data, "dd", metric.g.data, metric.ginv)
    torsion = np.maximum(torsion, 0.0)
    mu_field = np.sqrt(torsion) * 2.0 ** (-1.5)
    return TorsionReport(
        torsion_field=torsion,
        h=metric.h_tensor(),
        mu_field=mu_field,
        energy=structure.integrate(torsion),
        first_integral_residual=_sup(reeb_derivative(torsion, structure)),
    )


def energy(metric: CompatibleMetric) -> float:
    lg = lie_derivative(metric.g, metric.structure.reeb)
    torsion = tensor_norm2(lg.data, "dd", metric.g.data, metric.ginv)
    return metric.structure.integrate(torsion)


def euler_lagrange_residual(metric: CompatibleMetric) -> TensorField:
    """nabla_R L_R g - (L_R g)(., dalpha+ .), zero exactly at critical metrics.

    On cosymplectic charts dalpha+ vanishes (up to stencil error) and
    the residual reduces to nabla_R L_R g.  The cross term carries
    coefficient 1 here because this package uses the determinant
    convention for the exterior derivative ((da)(X,Y) = X a(Y) - Y a(X)
    on coordinate fields); almost-contact sources that normalize d with
    a 1/2 write the same term as 2 (L_R g)(., dalpha+ .).  The
    coefficient is pinned by matching centered differences of the
    energy along compatible curves (the first-variation tests).
    """
    structure = metric.structure
    lg = lie_derivative(metric.g, structure.reeb)
    nabla = covariant_derivative(lg, metric.connection, structure.reeb)
    dap = d_alpha_plus(metric)
    el = nabla.data
    el -= lg.data @ dap.data
    return TensorField(metric.grid, el, "dd", metric.g.frame)


def euler_lagrange_supnorm(metric: CompatibleMetric) -> float:
    el = euler_lagrange_residual(metric)
    return float(np.sqrt(np.max(tensor_norm2(el.data, "dd", metric.g.data, metric.ginv))))


def nabla_r_h_residual(metric: CompatibleMetric) -> float:
    """sup |nabla_R h|; vanishes iff the metric is critical (cosymplectic case)."""
    nh = covariant_derivative(metric.h_tensor(), metric.connection,
                              metric.structure.reeb)
    return float(np.sqrt(np.max(tensor_norm2(nh.data, "ud", metric.g.data, metric.ginv))))


# -- tangent space of compatible metrics --------------------------------------


def tangent_residuals(h_field: TensorField, metric: CompatibleMetric) -> dict[str, float]:
    reeb, phi = metric.structure.reeb.data, metric.phi.data
    h = h_field.data
    return {"iota_reeb": _sup(reeb[..., None, :] @ h),
            "phi_symmetry": _sup(np.swapaxes(phi, -1, -2) @ h - h @ phi)}


def tangent_project(h_raw: TensorField, metric: CompatibleMetric) -> TensorField:
    """Project a symmetric 2-tensor onto the tangent space at the metric.

    Removes the Reeb component, then the phi-antisymmetric part via
    H -> (H - H(phi., phi.)) / 2; tangent vectors are exactly the
    symmetric fields with iota_R H = 0 and H(phi., .) = H(., phi.).
    Idempotent on tangent input.
    """
    h = 0.5 * (h_raw.data + np.swapaxes(h_raw.data, -1, -2))
    alpha, reeb, phi = (metric.structure.alpha.data, metric.structure.reeb.data,
                        metric.phi.data)
    omega = (reeb[..., None, :] @ h)[..., 0, :]
    c = np.einsum("...i,...i->...", omega, reeb)
    h1 = (h - _outer(alpha, omega) - _outer(omega, alpha)
          + c[..., None, None] * _outer(alpha, alpha))
    h_phiphi = np.swapaxes(phi, -1, -2) @ h1 @ phi
    return TensorField(metric.grid, 0.5 * (h1 - h_phiphi), "dd", metric.g.frame)


def exponential_curve(metric: CompatibleMetric, h_field: TensorField,
                      s: float) -> CompatibleMetric:
    """g(s) = g0(e^{s H+} ., .) with H+ = g0^{-1} H, computed pointwise.

    Stays inside the compatible metrics for every s (H tangent); the
    returned metric carries a fresh certificate.  The exponential comes
    from one Cholesky-reduced symmetric eigendecomposition (Golub & Van
    Loan, Matrix Computations, sec. 8.7): with g0 = C C^T,
    B = C^{-1} H C^{-T} = V e^W V^T is similar to H+, and
    g(s) = (C V) e^{s W} (C V)^T.  C^{-1} = C^T g0^{-1} needs no second
    inversion.  Overflow for huge |s| |H+| raises.
    """
    c = np.linalg.cholesky(metric.g.data)
    c_inv = np.swapaxes(c, -1, -2) @ metric.ginv
    b = c_inv @ h_field.data @ np.swapaxes(c_inv, -1, -2)
    w, v = np.linalg.eigh(0.5 * (b + np.swapaxes(b, -1, -2)))
    if _sup(s * w) > 200.0:
        raise OverflowError("operator exponential overflow: |s| |H+| too large")
    cv = c @ v
    g_s = (cv * np.exp(s * w)[..., None, :]) @ np.swapaxes(cv, -1, -2)
    g_s = 0.5 * (g_s + np.swapaxes(g_s, -1, -2))
    del c, c_inv, b, v, cv   # released before the certification allocates
    return certify_compatible(metric.structure,
                              TensorField(metric.grid, g_s, "dd", metric.g.frame))


def first_variation(metric: CompatibleMetric, h_field: TensorField) -> float:
    """dE/ds along a curve of compatible metrics with g' = H:

    2 int g((L_R g)(., dalpha+ .) - nabla_R L_R g, H) alpha ^ beta,

    i.e. -2 <EL residual, H> in the L^2 pairing (steepest descent pairs
    negatively with the residual).  See euler_lagrange_residual for the
    cross-term coefficient convention.
    """
    el = euler_lagrange_residual(metric)
    ginv = metric.ginv
    pairing = np.sum((ginv @ el.data @ ginv) * h_field.data, axis=(-2, -1))
    return -2.0 * metric.structure.integrate(pairing)


# -- the stable/unstable-coframe deformation ----------------------------------


@dataclass
class Deformation:
    """Global scalar fields (u = log p, r) with p q - r^2 = 1 built in."""

    grid: Grid
    u: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.u = np.broadcast_to(np.asarray(self.u, dtype=float), self.grid.shape).copy()
        self.r = np.broadcast_to(np.asarray(self.r, dtype=float), self.grid.shape).copy()

    @property
    def p(self) -> np.ndarray:
        return np.exp(self.u)

    @property
    def q(self) -> np.ndarray:
        return (1.0 + self.r ** 2) * np.exp(-self.u)

    @classmethod
    def zero(cls, grid: Grid) -> "Deformation":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))


@dataclass
class DeformationChart:
    """A hyperbolic model's critical metric with its lowered bracket frame."""

    model: HyperbolicModel
    structure: Structure
    metric: CompatibleMetric
    v_plus: TensorField
    v_minus: TensorField
    vp_flat: np.ndarray
    vm_flat: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.structure.grid

    @property
    def mu(self) -> float:
        return self.model.mu


def deformation_chart(model: HyperbolicModel, grid: Grid) -> DeformationChart:
    from .models import critical_metric
    structure, metric = critical_metric(model, grid)
    v_plus, v_minus, _, _ = critical_frame(model, grid)
    lower = lambda v: (metric.g.data @ v.data[..., None])[..., 0]
    return DeformationChart(model, structure, metric, v_plus, v_minus,
                            lower(v_plus), lower(v_minus))


def deform(chart: DeformationChart, d: Deformation) -> CompatibleMetric:
    """Assemble and certify g~ from (u, r) over the critical metric."""
    p, q, r = d.p, d.q, d.r
    alpha = chart.structure.alpha.data
    vp, vm = chart.vp_flat, chart.vm_flat
    g = (_outer(alpha, alpha)
         + q[..., None, None] * _outer(vp, vp)
         + r[..., None, None] * (_outer(vp, vm) + _outer(vm, vp))
         + p[..., None, None] * _outer(vm, vm))
    return certify_compatible(chart.structure, TensorField(chart.grid, g, "dd"))


def lie_matrix_frame_check(chart: DeformationChart, d: Deformation) -> dict[str, float]:
    """Evaluate [L_R g~] in the frame (R, v-, v+) against the two closed forms.

    The direct Lie derivative fixes the lower-right entry: it matches
    R(q) - 2 mu q; the variant R(q) - 2 mu p printed in some sources is
    also evaluated so callers can record the discrepancy.
    """
    mu = chart.mu
    structure = chart.structure
    gt = deform(chart, d)
    lg = lie_derivative(gt.g, structure.reeb)
    frame = np.stack([structure.reeb.data, chart.v_minus.data, chart.v_plus.data],
                     axis=-1)
    m = frame_matrix(lg.data, frame)
    rp = reeb_derivative(d.p, structure)
    rq = reeb_derivative(d.q, structure)
    rr = reeb_derivative(d.r, structure)
    expected = np.zeros_like(m)
    expected[..., 1, 1] = rp + 2.0 * mu * d.p
    expected[..., 1, 2] = rr
    expected[..., 2, 1] = rr
    variant = expected.copy()
    expected[..., 2, 2] = rq - 2.0 * mu * d.q
    variant[..., 2, 2] = rq - 2.0 * mu * d.p
    return {"q_form": _sup(m - expected), "p_form": _sup(m - variant)}


def torsion_closed_form(d: Deformation, mu: float, structure: Structure) -> np.ndarray:
    """|L_R g~|^2 = 8 mu^2 + 2 (2 mu r + r R(u) - R(r))^2 + 2 R(u)^2 + 8 mu R(u)."""
    ru = reeb_derivative(d.u, structure)
    rr = reeb_derivative(d.r, structure)
    a = 2.0 * mu * d.r + d.r * ru - rr
    return 8.0 * mu ** 2 + 2.0 * a ** 2 + 2.0 * ru ** 2 + 8.0 * mu * ru


def torsion_first_expansion(d: Deformation, mu: float, structure: Structure) -> np.ndarray:
    """Intermediate expansion 8(1+r^2) mu^2 + 4 (q R(p) - p R(q)) mu + 2 (R(r)^2 - R(p) R(q))."""
    p, q = d.p, d.q
    rp = reeb_derivative(p, structure)
    rq = reeb_derivative(q, structure)
    rr = reeb_derivative(d.r, structure)
    return (8.0 * (1.0 + d.r ** 2) * mu ** 2 + 4.0 * (q * rp - p * rq) * mu
            + 2.0 * (rr ** 2 - rp * rq))


@dataclass
class GapReport:
    gap: float
    divergence_residual: float   # int 8 mu R(u) alpha^beta, zero by the divergence theorem


def energy_gap(d: Deformation, mu: float, structure: Structure) -> GapReport:
    """E(g~) - E(g) = int [2 (2 mu r + r R(u) - R(r))^2 + 2 R(u)^2] alpha ^ beta >= 0.

    The discarded term 8 mu R(u) integrates to zero exactly on the
    twisted grid (stencil shifts are grid bijections); its quadrature
    residual is reported as a certificate of the discrete divergence
    theorem.
    """
    ru = reeb_derivative(d.u, structure)
    rr = reeb_derivative(d.r, structure)
    a = 2.0 * mu * d.r + d.r * ru - rr
    gap = structure.integrate(2.0 * a ** 2 + 2.0 * ru ** 2)
    div = structure.integrate(8.0 * mu * ru)
    return GapReport(gap=gap, divergence_residual=div)


def energy_gap_direct(chart: DeformationChart, d: Deformation) -> float:
    """E(deform(d)) - E(g_crit) through the full tensor pipeline."""
    return energy(deform(chart, d)) - energy(chart.metric)


# -- random test fields --------------------------------------------------------


def random_global_scalar(grid: Grid, rng: np.random.Generator, amplitude: float,
                         max_mode: int = 3, decay: float = 4.0) -> np.ndarray:
    """Random smooth scalar on the quotient: truncated Fourier series in t.

    Fields on a twisted chart must satisfy f(x, 1) = f(L x, 0); the
    t-only truncated series does so for any monodromy.  Coefficients
    fall off like m^{-decay} so stencil truncation error stays
    resolvable; the sup norm is scaled to the requested amplitude.
    """
    t = grid.t
    out = np.zeros(grid.shape)
    for m in range(1, max_mode + 1):
        coeff = rng.standard_normal() * m ** (-decay)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out = out + coeff * np.cos(2.0 * np.pi * m * t + phase)
    sup = np.max(np.abs(out))
    if sup == 0.0:
        return out
    return out * (amplitude / sup)


def random_deformation(grid: Grid, seed: int, amplitude: float = 0.3,
                       max_mode: int = 3, decay: float = 4.0) -> Deformation:
    rng = np.random.default_rng(seed)
    u = random_global_scalar(grid, rng, amplitude, max_mode, decay)
    r = random_global_scalar(grid, rng, amplitude, max_mode, decay)
    return Deformation(grid, u, r)


def deck_bump_scalar(grid: Grid, mode, rng: np.random.Generator | None = None,
                     phase: float = 0.0) -> np.ndarray:
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
    if rng is not None:
        phase = rng.uniform(0.0, 2.0 * np.pi)
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


def random_tangent(metric: CompatibleMetric, rng: np.random.Generator,
                   amplitude: float, model: HyperbolicModel | None = None,
                   max_mode: int = 2) -> TensorField:
    """Random tangent deformation at a compatible metric.

    On flat charts the raw field is a periodic random symmetric tensor;
    on twisted charts it is built from quadratics of the critical
    coframe (alpha, lowered frame covectors) with t-only random
    coefficients, which keeps it single-valued on the quotient.  The
    result is tangent-projected and scaled to the requested sup norm.
    """
    grid = metric.grid
    if model is None:
        raw = np.zeros(grid.shape + (3, 3))
        t, x, y = grid.coordinates()
        for i in range(3):
            for j in range(i, 3):
                f = np.zeros(grid.shape)
                for _ in range(3):
                    k = rng.integers(-max_mode, max_mode + 1, size=3)
                    ph = rng.uniform(0, 2 * np.pi)
                    f = f + rng.standard_normal() * np.cos(
                        2 * np.pi * (k[0] * t + k[1] * x + k[2] * y) + ph)
                raw[..., i, j] = f
                raw[..., j, i] = f
    else:
        t = np.broadcast_to(grid.t, grid.shape)
        theta = model.dual_basis
        lamt = np.abs(model.lam) ** t
        covs = [metric.structure.alpha.data]
        for vec, sign in ((theta[0] * 1.0, 1.0), (theta[1] * 1.0, -1.0)):
            c = np.zeros(grid.shape + (3,))
            c[..., 1:] = np.einsum("...,i->...i", lamt ** sign, vec)
            covs.append(c)
        raw = np.zeros(grid.shape + (3, 3))
        for a in range(3):
            for b in range(a, 3):
                s = random_global_scalar(grid, rng, 1.0, max_mode)
                term = _outer(covs[a], covs[b])
                raw += s[..., None, None] * (term + np.swapaxes(term, -1, -2))
    h = tangent_project(TensorField(grid, raw, "dd"), metric)
    sup = _sup(h.data)
    if sup > 0:
        h.data *= amplitude / sup
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


def _reeb_coefficients(structure: Structure) -> tuple[tuple[int, float | np.ndarray], ...]:
    """(axis, coefficient) of each Reeb component that is not identically zero, in axis order.

    The coefficient is a float where the component is constant on the
    grid, and the component array where it is not.
    """
    coeffs = []
    for ax in range(3):
        comp = structure.reeb.data[..., ax]
        c = float(comp.flat[0])
        if np.any(comp != c):
            coeffs.append((ax, comp))
        elif c != 0.0:
            coeffs.append((ax, c))
    return tuple(coeffs)


def _reeb_stacked(x: np.ndarray, coeffs, grid: Grid) -> np.ndarray:
    """sum_ax c_ax d_ax f: R(f) for a scalar field f, or for each scalar stacked
    on the last axis of x when every coefficient is a float."""
    out = None
    for ax, c in coeffs:
        term = c * partial_derivative(x, "", grid, ax)
        out = term if out is None else out + term
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a b over both stacked components, summed per component in order."""
    return float(np.sum(a[..., 0] * b[..., 0]) + np.sum(a[..., 1] * b[..., 1]))


def _bb_step(dx: np.ndarray, dg: np.ndarray, step: float) -> float:
    """Barzilai-Borwein step dx.dx / dx.dg; ``step`` unchanged unless dx.dg > 0."""
    denom = _dot(dx, dg)
    return _dot(dx, dx) / denom if denom > 0 else step


def _gap_and_gradient(x, mu, coeffs, grid, weight):
    """Energy gap at the stacked state x = (u, r), R(u), and its deferred gradient.

    The gradient costs a second stencil call, so it is returned as a
    function that the descent calls only at the trials it accepts.
    """
    d = _reeb_stacked(x, coeffs, grid)
    r, ru, rr = x[..., 1], d[..., 0], d[..., 1]
    a = 2.0 * mu * r + r * ru - rr
    gap = float(np.sum(2.0 * a ** 2 + 2.0 * ru ** 2) * weight)

    def gradient() -> np.ndarray:
        dy = _reeb_stacked(np.stack((4.0 * a * r + 4.0 * ru, 4.0 * a), axis=-1),
                           coeffs, grid)
        g = np.empty_like(x)
        g[..., 0] = -weight * dy[..., 0]
        g[..., 1] = weight * (4.0 * a * (2.0 * mu + ru) + dy[..., 1])
        return g

    return gap, ru, gradient


def minimize_energy(initial: Deformation, mu: float, structure: Structure,
                    steps: int = 1000, tolerance: float = 0.0,
                    step0: float = 1e-2) -> OptimizationResult:
    """Gradient descent on (u, r) against the energy-gap objective.

    Barzilai-Borwein steps with Armijo backtracking keep the gap
    monotonically non-increasing.  Preconditions, each a ValueError:
    ``initial`` lives on ``structure.grid``, the alpha^beta density is
    constant and the Reeb field has constant components.  With constant
    components the Reeb derivative is a constant-coefficient sum of
    stencils, whose adjoint is its negative (shifts are grid
    bijections), which makes the gradient exact for the discrete
    objective.  The line search evaluates only the gap of each trial;
    the gradient is formed only at accepted points, when the next step
    needs it.  Returns converged status when the line search stops
    making progress above tolerance.  The result records, per accepted
    step, the step size, the backtrack count and the squared gradient
    norm.
    """
    grid = structure.grid
    if initial.grid != grid:
        raise ValueError("initial deformation lives on a different grid than the structure")
    # Array lifetimes are kept short on purpose: on 8x8x256 charts every array
    # sits on the malloc heap, and the result allocated after the descent's
    # temporaries, or temporaries kept alive into the line search, fragmented
    # it enough to raise the descent benchmark's peak RSS by 5 %.
    final = Deformation(grid, initial.u, initial.r)
    dens = structure.volume_density
    if np.max(dens) - np.min(dens) > 1e-12 * np.max(np.abs(dens)):
        raise ValueError("optimizer assumes a constant alpha^beta density")
    coeffs = _reeb_coefficients(structure)
    if any(isinstance(c, np.ndarray) for _, c in coeffs):
        raise ValueError("optimizer assumes a Reeb field with constant components")
    ht, hx, hy = grid.spacing
    weight = abs(float(dens.flat[0])) * ht * hx * hy
    del dens

    x = np.stack((initial.u, initial.r), axis=-1)
    gap, ru, gradient = _gap_and_gradient(x, mu, coeffs, grid, weight)
    history, step_sizes, backtracks, grad_norm2 = [gap], [], [], []
    step = step0
    prev = None
    converged = False
    n_done = 0
    for n in range(steps):
        g, gradient = gradient(), None
        if prev is not None:
            step = _bb_step(x - prev[0], g - prev[1], step)
            prev = None
        gnorm2 = _dot(g, g)
        if gnorm2 == 0.0:
            converged = True
            break
        trial = step
        for halvings in range(60):
            gradient = None
            x_t = x - trial * g
            gap_t, ru_t, gradient = _gap_and_gradient(x_t, mu, coeffs, grid, weight)
            if gap_t <= gap - 1e-4 * trial * gnorm2:
                break
            trial *= 0.5
        else:
            converged = True
            break
        stalled = gap - gap_t <= tolerance * max(gap, 1e-300)
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
    final.u[...] = x[..., 0]
    final.r[...] = x[..., 1]
    return OptimizationResult(final, history, converged, n_done, _sup(x[..., 1]), _sup(ru),
                              step_sizes, backtracks, grad_norm2)
