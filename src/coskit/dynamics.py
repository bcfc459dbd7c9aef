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

import math
from dataclasses import dataclass

import numpy as np

from .cosymplectic import CompatibleMetric
from .grids import Grid, _int_det, _int_matmul, _int_matpow, _lift, _transported
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
        return max(abs(_int_det(b) - 1) for b in self.torus_blocks)


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
    grid, ginv = metric.grid, metric.ginv
    lg_norm2 = tensor_norm2(_lie_rg(metric), "dd", metric.g.data, ginv)
    if float(np.min(lg_norm2)) < torsion_threshold:
        raise NotHyperbolicTorsionError(
            f"torsion minimum {float(np.min(lg_norm2)):.3e} below threshold")
    h = metric.h_tensor()
    evals, evecs, aligned = symmetric_eigen(h, metric.g.data, ginv=ginv)
    mu = float(np.mean(evals[..., 0]))
    u_plus = evecs[..., :, 0]
    u_minus = np.einsum("...ij,...j->...i", metric.phi.data, u_plus)
    v_plus = (u_plus + u_minus) / np.sqrt(2.0)
    v_minus = (u_plus - u_minus) / np.sqrt(2.0)

    # measure which bracket line contracts under the one-period pushforward:
    # |A v(p)| in g(Lp) is |v(p)| in the pulled-back metric A^T g(Lp) A
    g = metric.g.data
    g_pulled = _transported(g, "dd", grid, -1)

    def growth(v):
        return float(np.mean(np.sqrt(_gdot(g_pulled, v, v) / _gdot(g, v, v))))

    tf = lambda d: TensorField(grid, d, "u")
    gp, gm = growth(v_plus), growth(v_minus)
    if gp < 1.0 < gm:
        stable, unstable = v_plus, v_minus
    elif gm < 1.0 < gp:
        stable, unstable = v_minus, v_plus
    else:
        raise NotHyperbolicTorsionError("no contracting/expanding pair found")
    heig_stable, heig_unstable = _hphi_eig(metric, h, stable), _hphi_eig(metric, h, unstable)
    return SplittingFrame(mu, tf(unstable), tf(stable), tf(v_plus), tf(v_minus),
                          tf(u_plus), tf(u_minus), heig_stable, heig_unstable)


def _lie_rg(metric: CompatibleMetric) -> np.ndarray:
    from .tensors import lie_derivative
    return lie_derivative(metric.g, metric.structure.reeb).data


def _gdot(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise g(u, v) of vector fields: two two-operand contractions,
    about twice as fast as the three-operand einsum."""
    return np.einsum("...i,...i->...", u, np.einsum("...ij,...j->...i", g, v))


def _hphi_eig(metric: CompatibleMetric, h: TensorField, v: np.ndarray) -> float:
    hphi = h.data @ metric.phi.data
    hv = np.einsum("...ij,...j->...i", hphi, v)
    g = metric.g.data
    return float(np.mean(_gdot(g, hv, v) / _gdot(g, v, v)))


def _sin_angle(g: np.ndarray, gv: np.ndarray, nv2: np.ndarray, v: np.ndarray,
               u: np.ndarray) -> np.ndarray:
    """Pointwise sin of the angle between the lines of u and v, stable near 0.

    gv is g v and nv2 is g(v, v).  Splits u into components along and
    orthogonal to v in the metric g, with g perp = g u - c g v; resolves
    angles down to machine precision (a 1 - cos^2 formula floors near
    sqrt(eps)).
    """
    gu = np.einsum("...ij,...j->...i", g, u)
    nu2 = np.einsum("...i,...i->...", gu, u)
    c = (np.einsum("...i,...i->...", gu, v) / nv2)[..., None]
    perp2 = np.einsum("...i,...i->...", gu - c * gv, u - c * v)
    return np.sqrt(np.maximum(perp2, 0.0) / nu2)


def refine_splitting(frame: SplittingFrame, metric: CompatibleMetric,
                     iterations: int = 40) -> SplittingFrame:
    """Sharpen the splitting by the graph transform of the period map.

    The unstable line is the forward-invariant limit of pushforwards,
    the stable one of pullbacks (Hirsch, Pugh & Shub, Invariant
    Manifolds, LNM 583); each sweep contracts the misalignment by the
    squared multiplier, so the h-eigenvector seed (accurate to stencil
    error) reaches machine precision in a few dozen rounds.  The
    ``iterations`` sweeps are composed: normalization only rescales by
    a positive factor, so k sweeps equal one pushforward by the exact
    k-period transport diag(1, L^k), gathered once and normalized once.
    Blocks of at most b periods, with |lambda|^b <= 2^256, keep every
    float entry of L^b far from overflow; b >= 40 while |lambda| <= 84,
    so there the default is a single block.  Signs are re-aligned to
    the seed so the bracket normalization and the pair's global sign
    behavior are preserved.
    """
    grid = metric.grid
    g = metric.g.data

    def normalize(v):
        return v / np.sqrt(_gdot(g, v, v))[..., None]

    trace = abs(int(np.trace(grid.monodromy)))
    lam = 0.5 * (trace + math.sqrt(max(trace * trace - 4, 0)))
    block = max(1, int(256 * math.log(2) / math.log(lam))) if lam > 1.0 else iterations
    unstable, stable = frame.e_unstable.data, frame.e_stable.data
    done = 0
    while done < iterations:
        k = min(block, iterations - done)
        unstable = normalize(_transported(unstable, "u", grid, k))
        stable = normalize(_transported(stable, "u", grid, -k))
        done += k

    def resign(new, seed):
        return new * np.sign(_gdot(g, new, seed))[..., None]

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
    grid, g = metric.grid, metric.g.data
    worst = 0.0
    for field, sgn in ((frame.e_unstable, 1), (frame.e_stable, -1)):
        # evaluated at the image points q: u(q) = A v(Phi^{-n tau} q) against
        # v(q) in g(q), so only v is gathered and g v is formed once
        v = field.data
        gv = np.einsum("...ij,...j->...i", g, v)
        nv2 = np.einsum("...i,...i->...", gv, v)
        for n in range(1, n_periods + 1):
            sin = _sin_angle(g, gv, nv2, v, _transported(v, "u", grid, sgn * n))
            worst = max(worst, float(np.max(sin)))
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
    grid, g = metric.grid, metric.g.data
    if mu is None:
        mu = model.mu
    worst = 0.0
    # v_plus is stable (forward-contracting): push backward; v_minus forward.
    for field, sgn in ((frame.v_plus, -1), (frame.v_minus, 1)):
        v = field.data
        n0 = np.sqrt(_gdot(g, v, v))
        for n in range(1, n_periods + 1):
            # at the image points q: |A^n v(Phi^{-n tau} q)|_g(q) / |v(Phi^{-n tau} q)|
            av = _transported(v, "u", grid, sgn * n)
            lognorm = np.log(np.sqrt(_gdot(g, av, av)) / _transported(n0, "", grid, sgn * n))
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
