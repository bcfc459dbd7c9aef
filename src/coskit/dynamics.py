"""Reeb flow on mapping tori: exact cocycle, Lyapunov exponents, splitting.

The Reeb flow of the suspension structure is affine: time s advances
the fiber coordinate by s/tau, and every crossing of the t = 1 seam
applies the gluing matrix to the torus coordinate.  The differential in
chart coordinates is therefore the identity between crossings and
A = diag(1, L) at each crossing; no ODE integration is involved, so the
cocycle is exact (crossing counts and matrix powers are computed in
integer arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cosymplectic import CompatibleMetric
from .grids import Grid, _int_matmul, _int_matpow, _lift, _period_transport
from .models import HyperbolicModel
from .tensors import TensorField, sqrtm_spd, symmetric_eigen, tensor_norm2


class NotHyperbolicTorsionError(ValueError):
    """Torsion not bounded away from zero: no hyperbolic splitting."""


def reeb_flow(point, time: float, model: HyperbolicModel) -> np.ndarray:
    """Flow a chart point (t, x, y) for the given time, exactly.

    The quotient convention (p, t+1) ~ (Lp, t) puts the point reached
    after one period tau from (x, 0) at (L x mod 1, 0): the first-return
    map of the fiber is L itself.
    """
    return flow_transport(point, time, model)[0]


def flow_transport(point, time: float, model: HyperbolicModel):
    """(endpoint, chart differential of the flow map, crossing count).

    The differential is diag(1, L^n) with n the number of seam
    crossings; it has determinant one (the flow preserves alpha ^ beta).
    """
    p = np.asarray(point, dtype=float)
    total = p[0] + time / model.tau
    crossings = int(np.floor(total))
    ln = _int_matpow(model.matrix, crossings)
    xy = (np.array(ln, dtype=float) @ p[1:]) % 1.0
    return np.array([total - crossings, xy[0], xy[1]]), _lift(ln), crossings


@dataclass
class FlowCocycle:
    """Tangent transport along a Reeb orbit, sampled once per period.

    points[i] is the orbit point after i periods; torus_blocks[i] is
    the exact integer torus block L^i of the chart differential over
    [0, i tau].  All transports have determinant one (the flow
    preserves alpha ^ beta).
    """

    model: HyperbolicModel
    points: list
    torus_blocks: list

    @classmethod
    def along_orbit(cls, model: HyperbolicModel, point, n_periods: int) -> "FlowCocycle":
        pts = [np.asarray(point, dtype=float)]
        blocks = [[[1, 0], [0, 1]]]
        step = _int_matpow(model.matrix, 1)
        for _ in range(n_periods):
            pts.append(reeb_flow(pts[-1], model.tau, model))
            blocks.append(_int_matmul(step, blocks[-1]))
        return cls(model, pts, blocks)

    def transport(self, i: int) -> np.ndarray:
        return _lift(self.torus_blocks[i])

    def composition_residual(self) -> int:
        """Defect of transport(i+j) = transport(i -> i+j) transport(j); zero exactly.

        Computed in integer arithmetic: the largest absolute entry
        mismatch over all splittings of the horizon.
        """
        n = len(self.torus_blocks) - 1
        worst = 0
        for i in range(n + 1):
            rest = _int_matpow(self.model.matrix, n - i)
            recomposed = _int_matmul(rest, self.torus_blocks[i])
            worst = max(worst, max(abs(recomposed[a][b] - self.torus_blocks[n][a][b])
                                   for a in range(2) for b in range(2)))
        return worst

    def determinant_defect(self) -> int:
        return max(abs(b[0][0] * b[1][1] - b[0][1] * b[1][0] - 1)
                   for b in self.torus_blocks)


def lyapunov_exponents(model: HyperbolicModel, point=None, horizon: float | None = None,
                       metric_matrix=None, burn_in: int = 128) -> np.ndarray:
    """QR growth rates of the flow differential, measured in a metric.

    One QR step per period: the transport A = diag(1, L) conjugated into
    the metric-orthonormal frame at the orbit point (g depends only on
    t for the suspension models, so the frame map is the same at both
    endpoints of a period).  A burn-in aligns the QR frame with the
    invariant splitting before rates accumulate, after which each step
    is exact; returns the three exponents sorted descending.
    """
    if point is None:
        point = np.array([0.0, 0.1234, 0.7531])
    point = np.asarray(point, dtype=float)
    if horizon is None:
        horizon = 50.0 * model.tau
    n_steps = int(round(horizon / model.tau))
    if n_steps < 1:
        raise ValueError("horizon too short: need at least one period tau")
    if metric_matrix is None:
        metric_matrix = lambda p: model.metric_matrix(p[0])
    g = np.asarray(metric_matrix(point), dtype=float)
    gs, gis = sqrtm_spd(g[None, None, None])
    gs, gis = gs[0, 0, 0], gis[0, 0, 0]
    m = gs @ _lift(model.matrix) @ gis

    q = np.eye(3)
    for _ in range(burn_in):
        q, _ = np.linalg.qr(m @ q)
    sums = np.zeros(3)
    for _ in range(n_steps):
        q, r = np.linalg.qr(m @ q)
        sums += np.log(np.abs(np.diag(r)))
    return np.sort(sums / (n_steps * model.tau))[::-1]


def flat_lyapunov_exponents() -> np.ndarray:
    """Suspension by the identity: the differential is constant, all rates zero."""
    return np.zeros(3)


# -- Anosov splitting from the h-tensor ---------------------------------------


@dataclass
class SplittingFrame:
    """Unit fields spanning the flow-invariant splitting <R> + E+ + E-.

    e_unstable spans the forward-expanding line (E+, the strong
    unstable bundle), e_stable the forward-contracting one (E-).
    v_plus and v_minus are the bracket-normalized fields
    ([R, v_pm] = pm mu v_pm, so v_plus = e_stable up to sign); both are
    global only up to an overall sign flip of the pair.  hphi_stable_eig
    records the h.phi eigenvalue on the stable line (-mu: nabla R = h
    phi stretches unstable directions).
    """

    mu: float
    e_unstable: TensorField
    e_stable: TensorField
    v_plus: TensorField
    v_minus: TensorField
    u_plus: TensorField
    u_minus: TensorField
    hphi_stable_eig: float
    hphi_unstable_eig: float


def anosov_splitting(metric: CompatibleMetric, torsion_threshold: float = 1e-8) -> SplittingFrame:
    """Extract the hyperbolic splitting from h = (1/2) L_R phi.

    u_+ is the +mu eigenfield of h, u_- = phi u_+ the -mu one; the
    bracket frame is v_pm = (u_+ pm u_-)/sqrt(2).  Stability is
    assigned by measuring the one-period pushforward contraction of
    each candidate line in the metric, not assumed from a formula.
    """
    grid = metric.grid
    lg_norm2 = tensor_norm2(
        _lie_rg(metric), "dd", metric.g.data, metric.ginv)
    if float(np.min(lg_norm2)) < torsion_threshold:
        raise NotHyperbolicTorsionError(
            f"torsion minimum {float(np.min(lg_norm2)):.3e} below threshold")
    h = metric.h_tensor()
    evals, evecs, aligned = symmetric_eigen(h, metric.g.data)
    mu = float(np.mean(evals[..., 0]))
    u_plus = evecs[..., :, 0]
    u_minus = np.einsum("...ij,...j->...i", metric.phi.data, u_plus)
    v_plus = (u_plus + u_minus) / np.sqrt(2.0)
    v_minus = (u_plus - u_minus) / np.sqrt(2.0)

    # measure which bracket line contracts under the one-period pushforward
    a, (pi, pj) = _period_transport(grid, 1)
    g_img = metric.g.data[:, pi, pj]

    def growth(v):
        av = np.einsum("ij,...j->...i", a, v)
        n0 = np.einsum("...ij,...i,...j->...", metric.g.data, v, v)
        n1 = np.einsum("...ij,...i,...j->...", g_img, av, av)
        return float(np.mean(np.sqrt(n1 / n0)))

    tf = lambda d: TensorField(grid, d, "u")
    gp, gm = growth(v_plus), growth(v_minus)
    if gp < 1.0 < gm:
        stable, unstable = v_plus, v_minus
    elif gm < 1.0 < gp:
        stable, unstable = v_minus, v_plus
    else:
        raise NotHyperbolicTorsionError("no contracting/expanding pair found")
    heig_stable, heig_unstable = _hphi_eig(metric, stable), _hphi_eig(metric, unstable)
    return SplittingFrame(mu, tf(unstable), tf(stable), tf(v_plus), tf(v_minus),
                          tf(u_plus), tf(u_minus), heig_stable, heig_unstable)


def _lie_rg(metric: CompatibleMetric) -> np.ndarray:
    from .tensors import lie_derivative
    return lie_derivative(metric.g, metric.structure.reeb).data


def _hphi_eig(metric: CompatibleMetric, v: np.ndarray) -> float:
    hphi = np.einsum("...ik,...kj->...ij", metric.h_tensor().data, metric.phi.data)
    hv = np.einsum("...ij,...j->...i", hphi, v)
    num = np.einsum("...ij,...i,...j->...", metric.g.data, hv, v)
    den = np.einsum("...ij,...i,...j->...", metric.g.data, v, v)
    return float(np.mean(num / den))


def _sin_angle(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise sin of the angle between the lines of u and v, stable near 0.

    Splits u into components along and orthogonal to v in the metric g;
    resolves angles down to machine precision (a 1 - cos^2 formula
    floors near sqrt(eps)).
    """
    nv2 = np.einsum("...ij,...i,...j->...", g, v, v)
    dot = np.einsum("...ij,...i,...j->...", g, u, v)
    perp = u - (dot / nv2)[..., None] * v
    np2 = np.einsum("...ij,...i,...j->...", g, perp, perp)
    nu2 = np.einsum("...ij,...i,...j->...", g, u, u)
    return np.sqrt(np.maximum(np2, 0.0) / nu2)


def refine_splitting(frame: SplittingFrame, metric: CompatibleMetric,
                     iterations: int = 40) -> SplittingFrame:
    """Sharpen the splitting by the graph transform of the period map.

    The unstable line is the forward-invariant limit of pushforwards,
    the stable one of pullbacks; each sweep contracts the misalignment
    by the squared multiplier, so the h-eigenvector seed (accurate to
    stencil error) reaches machine precision in a few dozen rounds.
    Signs are re-aligned to the seed so the bracket normalization and
    the pair's global sign behavior are preserved.
    """
    grid = metric.grid
    a, (pi_f, pj_f) = _period_transport(grid, 1)
    a_inv, (pi_b, pj_b) = _period_transport(grid, -1)
    g = metric.g.data

    def normalize(v):
        n = np.sqrt(np.einsum("...ij,...i,...j->...", g, v, v))
        return v / n[..., None]

    unstable = frame.e_unstable.data.copy()
    stable = frame.e_stable.data.copy()
    for _ in range(iterations):
        # pushforward from the backward image point: v(p) <- A v(Phi^{-tau} p)
        unstable = normalize(np.einsum("ij,...j->...i", a, unstable[:, pi_b, pj_b]))
        stable = normalize(np.einsum("ij,...j->...i", a_inv, stable[:, pi_f, pj_f]))

    def resign(new, seed):
        dots = np.einsum("...ij,...i,...j->...", g, new, seed)
        return new * np.sign(dots)[..., None]

    unstable = resign(unstable, frame.e_unstable.data)
    stable = resign(stable, frame.e_stable.data)
    v_plus = resign(stable, frame.v_plus.data)
    v_minus = resign(unstable, frame.v_minus.data)
    u_plus = normalize((v_plus + v_minus) / np.sqrt(2.0))
    u_minus = normalize((v_plus - v_minus) / np.sqrt(2.0))
    tf = lambda d: TensorField(grid, d, "u")
    return SplittingFrame(frame.mu, tf(unstable), tf(stable), tf(v_plus), tf(v_minus),
                          tf(u_plus), tf(u_minus),
                          frame.hphi_stable_eig, frame.hphi_unstable_eig)


def splitting_invariance_residual(frame: SplittingFrame, metric: CompatibleMetric,
                                  n_periods: int = 10) -> float:
    """Largest misalignment angle (in sin) of dPhi^t(E_pm) against E_pm at the image.

    Each bundle is transported in its conditioned time direction (the
    unstable one forward, the stable one backward, |t| up to n_periods
    tau); the two directions are equivalent statements of invariance,
    but pushing a stable line forward n periods amplifies float
    roundoff by the squared multiplier to the n and would mask the
    actual misalignment.
    """
    grid = metric.grid
    worst = 0.0
    for n in range(1, n_periods + 1):
        for field, sgn in ((frame.e_unstable, 1), (frame.e_stable, -1)):
            a, (pin, pjn) = _period_transport(grid, sgn * n)
            g_img = metric.g.data[:, pin, pjn]
            v = field.data
            av = np.einsum("ij,...j->...i", a, v)
            v_img = v[:, pin, pjn]
            worst = max(worst, float(np.max(_sin_angle(g_img, av, v_img))))
    return worst


def contraction_law_residual(frame: SplittingFrame, metric: CompatibleMetric,
                             model: HyperbolicModel, n_periods: int = 10,
                             mu: float | None = None) -> float:
    """sup over |t| <= n_periods tau of | log |dPhi^t v_pm| - rate |.

    log |dPhi^t v_+| = -mu t and log |dPhi^t v_-| = +mu t; each field is
    transported in its conditioned time direction (see
    splitting_invariance_residual).  mu defaults to the model's exact
    log|lambda| / tau.
    """
    grid = metric.grid
    if mu is None:
        mu = model.mu
    worst = 0.0
    for n in range(1, n_periods + 1):
        # v_plus is stable (forward-contracting): push backward; v_minus forward.
        for field, sgn in ((frame.v_plus, -1), (frame.v_minus, 1)):
            a, (pin, pjn) = _period_transport(grid, sgn * n)
            g_img = metric.g.data[:, pin, pjn]
            v = field.data
            av = np.einsum("ij,...j->...i", a, v)
            n1 = np.sqrt(np.einsum("...ij,...i,...j->...", g_img, av, av))
            n0 = np.sqrt(np.einsum("...ij,...i,...j->...", metric.g.data, v, v))
            lognorm = np.log(n1 / n0)
            worst = max(worst, float(np.max(np.abs(lognorm - mu * n * model.tau))))
    return worst


# -- bracket relation checks ---------------------------------------------------


def bracket_residuals(metric: CompatibleMetric, frame: SplittingFrame) -> dict[str, float]:
    """Finite-difference residuals of the frame bracket relations.

    [R, v_pm] = pm mu v_pm, [v_+, v_-] = 0, and the h-eigenframe
    relations [R, u_pm] = mu u_mp; residuals in the metric norm.
    Refuses gluings with lambda < 0: there the pair v_pm flips sign
    across the seam, so their stencil derivatives are not defined.
    """
    from .tensors import lie_bracket
    if np.trace(metric.grid.monodromy) < 0:
        raise ValueError("out of scope: lambda < 0 flips the sign of v_pm across the seam; "
                         "bracket residuals need the double-cover gluing")
    structure = metric.structure
    g, ginv = metric.g.data, metric.ginv
    mu = frame.mu

    def norm_sup(data):
        return float(np.sqrt(np.max(tensor_norm2(data, "u", g, ginv))))

    r_vp = lie_bracket(structure.reeb, frame.v_plus).data - mu * frame.v_plus.data
    r_vm = lie_bracket(structure.reeb, frame.v_minus).data + mu * frame.v_minus.data
    r_comm = lie_bracket(frame.v_plus, frame.v_minus).data
    r_up = lie_bracket(structure.reeb, frame.u_plus).data - mu * frame.u_minus.data
    r_um = lie_bracket(structure.reeb, frame.u_minus).data - mu * frame.u_plus.data
    return {
        "reeb_v_plus": norm_sup(r_vp),
        "reeb_v_minus": norm_sup(r_vm),
        "v_plus_v_minus": norm_sup(r_comm),
        "reeb_u_plus": norm_sup(r_up),
        "reeb_u_minus": norm_sup(r_um),
    }


def sol_bracket_residuals(grid: Grid) -> dict[str, float]:
    """Residuals of the sol algebra relations for the left-invariant frame."""
    from .models import sol_frame
    from .tensors import lie_bracket
    y, xp, xm = sol_frame(grid)
    return {
        "y_x_plus": float(np.max(np.abs(lie_bracket(y, xp).data - xp.data))),
        "y_x_minus": float(np.max(np.abs(lie_bracket(y, xm).data + xm.data))),
        "x_plus_x_minus": float(np.max(np.abs(lie_bracket(xp, xm).data))),
    }
