"""Reeb flow on mapping tori: exact cocycle, Lyapunov exponents, splitting.

The Reeb flow of the suspension structure is affine: time s advances
the fiber coordinate by s/tau, and every crossing of the t = 1 seam
applies the gluing matrix to the torus coordinate.  The differential in
chart coordinates is therefore the identity between crossings and
A = diag(1, L) at each crossing; no ODE integration is involved, so the
cocycle is exact (crossing counts and matrix powers are computed in
integer arithmetic).

On a metric constant over the torus, certified as its t-column, the
splitting stages run their bodies on the (M, 1, 1) t-columns
(grids._columns) and on the full grid otherwise; maxima are exact on a
column and each mean is one full-grid sum (_grid_mean), so both give
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cosymplectic import CompatibleMetric
from .grids import Grid, _columns, _grid_sum, _int_det, _int_matmul, _int_matpow, _lift, \
    _transported
from .models import HyperbolicModel, sol_frame
from .tensors import TensorField, lie_bracket, sqrtm_spd, symmetric_eigen, tensor_norm2


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

    def composition_residual(self) -> int:
        """Defect of the cocycle law L^n = L^(n-i) L^i over the blocks; zero exactly.

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


# QR steps that align the frame with the invariant splitting before rates accumulate
_QR_BURN_IN = 128


def lyapunov_exponents(model: HyperbolicModel, point=None, *, horizon: float) -> np.ndarray:
    """QR growth rates of the flow differential over ``horizon``, in the critical metric.

    One QR step per period: the transport A = diag(1, L) conjugated into
    the orthonormal frame of the critical metric at the orbit point (g
    depends only on t, so the frame map is the same at both endpoints
    of a period).  _QR_BURN_IN steps align the QR frame with the
    invariant splitting before rates accumulate, after which each step
    is exact; returns the three exponents sorted descending.
    """
    if point is None:
        point = np.array([0.0, 0.1234, 0.7531])
    point = np.asarray(point, dtype=float)
    n_steps = int(round(horizon / model.tau))
    if n_steps < 1:
        raise ValueError("horizon too short: need at least one period tau")
    g = model.metric_matrix(point[0])
    gs, gis = sqrtm_spd(g[None, None, None])
    gs, gis = gs[0, 0, 0], gis[0, 0, 0]
    m = gs @ _lift(model.matrix) @ gis

    q = np.eye(3)
    for _ in range(_QR_BURN_IN):
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

    v_plus and v_minus are the bracket-normalized fields, [R, v_pm] =
    pm mu v_pm.  v_plus spans the forward-contracting (stable) line and
    v_minus the forward-expanding (unstable) one: h phi v_plus = -mu
    v_plus, and nabla R = h phi stretches unstable directions, which
    anosov_splitting's growth test checks.  The pair is global only up
    to an overall sign flip.  hphi_stable_eig and hphi_unstable_eig are
    the h.phi eigenvalues on v_plus and v_minus (-mu and mu).  On a metric
    certified as its t-column the four fields are t-column fields too
    (read-only views with zero torus strides), each backed by its own
    M x 3 array.
    """

    mu: float
    v_plus: TensorField
    v_minus: TensorField
    u_plus: TensorField
    u_minus: TensorField
    hphi_stable_eig: float
    hphi_unstable_eig: float


# the torsion |L_R g|^2 below which no hyperbolic splitting is sought
_TORSION_THRESHOLD = 1e-8


def _grid_mean(a: np.ndarray, grid: Grid) -> float:
    """Mean of a over the grid: np.mean of the full-grid array, bit for bit, also from a column."""
    return float(_grid_sum(a, grid.shape) / math.prod(grid.shape))


def anosov_splitting(metric: CompatibleMetric) -> SplittingFrame:
    """Extract the hyperbolic splitting from h = (1/2) L_R phi.

    u_+ is the +mu eigenfield of h, u_- = phi u_+ the -mu one; the
    bracket frame is v_pm = (u_+ pm u_-)/sqrt(2).  h has eigenvalues
    (w0, 0, -w0), so the torsion |L_R g|^2 = 4 tr h^2 is 8 w0^2 and is
    checked from the spectrum.  v_plus is stable by algebra (h phi v_+ =
    -mu v_+); the one-period pushforward growth of each line in the
    metric checks it, and a frame that fails raises.
    """
    grid = metric.grid
    h = metric.h_tensor()
    evals, evecs, _ = symmetric_eigen(h, metric.g.data, metric.ginv)
    evals, evecs, g, phi, h = _columns(evals, evecs, metric.g.data, metric.phi.data, h.data)
    torsion_min = 8.0 * float(np.min(evals[..., 0])) ** 2
    if torsion_min < _TORSION_THRESHOLD:
        raise NotHyperbolicTorsionError(f"torsion minimum {torsion_min:.3e} below threshold")
    mu = _grid_mean(evals[..., 0], grid)
    u_plus = np.ascontiguousarray(evecs[..., :, 0])   # not a view pinning all of evecs
    u_minus = np.einsum("...ij,...j->...i", phi, u_plus)
    v_plus = (u_plus + u_minus) / np.sqrt(2.0)
    v_minus = (u_plus - u_minus) / np.sqrt(2.0)

    # check that v_plus contracts and v_minus expands under the one-period
    # pushforward: |A v(p)| in g(Lp) is |v(p)| in the pulled-back metric A^T g(Lp) A
    g_pulled = _transported(g, "dd", grid, -1)

    def growth(v):
        return _grid_mean(np.sqrt(_gdot(g_pulled, v, v) / _gdot(g, v, v)), grid)

    gp, gm = growth(v_plus), growth(v_minus)
    if not gp < 1.0:
        raise NotHyperbolicTorsionError(f"v_plus does not contract (growth {gp:.6g})")
    if not gm > 1.0:
        raise NotHyperbolicTorsionError(f"v_minus does not expand (growth {gm:.6g})")
    hphi = h @ phi

    def hphi_eig(v):
        hv = np.einsum("...ij,...j->...i", hphi, v)
        return _grid_mean(_gdot(g, hv, v) / _gdot(g, v, v), grid)

    tf = lambda d: TensorField(grid, d, "u")
    return SplittingFrame(mu, tf(v_plus), tf(v_minus), tf(u_plus), tf(u_minus),
                          hphi_eig(v_plus), hphi_eig(v_minus))


def _gdot(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise g(u, v) of vector fields: two two-operand contractions,
    about twice as fast as the three-operand einsum."""
    return np.einsum("...i,...i->...", u, np.einsum("...ij,...j->...i", g, v))


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

    The unstable line v_minus is the forward-invariant limit of
    pushforwards, the stable line v_plus of pullbacks (Hirsch, Pugh &
    Shub, Invariant Manifolds, LNM 583); each sweep contracts the
    misalignment by the squared multiplier, so the h-eigenvector seed
    (accurate to stencil error) reaches machine precision in a few dozen
    rounds.  The ``iterations`` sweeps are composed: normalization only
    rescales by a positive factor, so k sweeps equal one pushforward by
    the exact k-period transport diag(1, L^k), gathered once and
    normalized once.
    Blocks of at most b periods, with |lambda|^b <= 2^256, keep every
    float entry of L^b far from overflow; b >= 40 while |lambda| <= 84,
    so there the default is a single block.  Signs are re-aligned to
    the seed so the bracket normalization and the pair's global sign
    behavior are preserved.
    """
    grid = metric.grid
    g, seed_plus, seed_minus = _columns(metric.g.data, frame.v_plus.data, frame.v_minus.data)

    def normalize(v):
        return v / np.sqrt(_gdot(g, v, v))[..., None]

    trace = abs(int(np.trace(grid.monodromy)))
    lam = 0.5 * (trace + math.sqrt(max(trace * trace - 4, 0)))
    block = max(1, int(256 * math.log(2) / math.log(lam))) if lam > 1.0 else iterations
    v_plus, v_minus = seed_plus, seed_minus
    done = 0
    while done < iterations:
        k = min(block, iterations - done)
        v_minus = normalize(_transported(v_minus, "u", grid, k))
        v_plus = normalize(_transported(v_plus, "u", grid, -k))
        done += k

    def resign(new, seed):
        return new * np.sign(_gdot(g, new, seed))[..., None]

    v_plus = resign(v_plus, seed_plus)
    v_minus = resign(v_minus, seed_minus)
    u_plus = normalize((v_plus + v_minus) / np.sqrt(2.0))
    u_minus = normalize((v_plus - v_minus) / np.sqrt(2.0))
    tf = lambda d: TensorField(grid, d, "u")
    return SplittingFrame(frame.mu, tf(v_plus), tf(v_minus), tf(u_plus), tf(u_minus),
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
    g, v_minus, v_plus = _columns(metric.g.data, frame.v_minus.data, frame.v_plus.data)
    worst = 0.0
    for v, sgn in ((v_minus, 1), (v_plus, -1)):
        # evaluated at the image points q: u(q) = A v(Phi^{-n tau} q) against
        # v(q) in g(q), so only v is gathered and g v is formed once
        gv = np.einsum("...ij,...j->...i", g, v)
        nv2 = np.einsum("...i,...i->...", gv, v)
        for n in range(1, n_periods + 1):
            sin = _sin_angle(g, gv, nv2, v, _transported(v, "u", grid, sgn * n))
            worst = max(worst, float(np.max(sin)))
    return worst


def contraction_law_residual(frame: SplittingFrame, metric: CompatibleMetric,
                             model: HyperbolicModel, n_periods: int = 10) -> float:
    """sup over |t| <= n_periods tau of | log |dPhi^t v_pm| - rate |.

    log |dPhi^t v_+| = -mu t and log |dPhi^t v_-| = +mu t, with mu the
    model's exact log|lambda| / tau; each field is transported in its
    conditioned time direction (see splitting_invariance_residual).
    """
    grid = metric.grid
    g, v_plus, v_minus = _columns(metric.g.data, frame.v_plus.data, frame.v_minus.data)
    mu = model.mu
    worst = 0.0
    # v_plus is stable (forward-contracting): push backward; v_minus forward.
    for v, sgn in ((v_plus, -1), (v_minus, 1)):
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
    if np.trace(metric.grid.monodromy) < 0:
        raise ValueError("out of scope: lambda < 0 flips the sign of v_pm across the seam; "
                         "bracket residuals need the double-cover gluing")
    reeb = metric.structure.reeb
    mu = frame.mu

    def norm_sup(x, y, rate=None, z=None):
        """sup norm of [x, y] - rate z, or of [x, y] without rate and z."""
        if z is None:
            r, g, ginv = _columns(lie_bracket(x, y).data, metric.g.data, metric.ginv)
        else:
            r, zd, g, ginv = _columns(lie_bracket(x, y).data, z.data, metric.g.data,
                                      metric.ginv)
            r = r - rate * zd
        return float(np.sqrt(np.max(tensor_norm2(r, "u", g, ginv))))

    return {
        "reeb_v_plus": norm_sup(reeb, frame.v_plus, mu, frame.v_plus),
        "reeb_v_minus": norm_sup(reeb, frame.v_minus, -mu, frame.v_minus),
        "v_plus_v_minus": norm_sup(frame.v_plus, frame.v_minus),
        "reeb_u_plus": norm_sup(reeb, frame.u_plus, mu, frame.u_minus),
        "reeb_u_minus": norm_sup(reeb, frame.u_minus, mu, frame.u_plus),
    }


def sol_bracket_residuals(grid: Grid) -> dict[str, float]:
    """Residuals of the sol algebra relations for the left-invariant frame."""
    y, xp, xm = sol_frame(grid)
    return {
        "y_x_plus": float(np.max(np.abs(lie_bracket(y, xp).data - xp.data))),
        "y_x_minus": float(np.max(np.abs(lie_bracket(y, xm).data + xm.data))),
        "x_plus_x_minus": float(np.max(np.abs(lie_bracket(xp, xm).data))),
    }
