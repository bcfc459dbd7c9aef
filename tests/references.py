"""Test-side references: closed forms and tensors that only the tests evaluate."""

import numpy as np

from coskit.grids import _on_slot, _torus_permutation, partial_derivative
from coskit.tensors import TensorField, _derivation, gradient
from coskit.variational import Deformation, random_deformation, reeb_derivative


def torsion_closed_forms(d, mu, structure):
    """|L_R g~|^2 of the deformation d = (u, r), in two closed forms.

    The first expansion reads 8 (1 + r^2) mu^2 + 4 (q R(p) - p R(q)) mu
    + 2 (R(r)^2 - R(p) R(q)); with p = e^u and p q - r^2 = 1 it becomes
    the closed form 8 mu^2 + 2 (2 mu r + r R(u) - R(r))^2 + 2 R(u)^2
    + 8 mu R(u).  Returns (closed form, first expansion).
    """
    p, q, r = d.p, d.q, d.r
    ru, rp, rq, rr = (reeb_derivative(f, structure) for f in (d.u, p, q, r))
    a = 2.0 * mu * r + r * ru - rr
    closed = 8.0 * mu ** 2 + 2.0 * a ** 2 + 2.0 * ru ** 2 + 8.0 * mu * ru
    first = (8.0 * (1.0 + r ** 2) * mu ** 2 + 4.0 * (q * rp - p * rq) * mu
             + 2.0 * (rr ** 2 - rp * rq))
    return closed, first


def nijenhuis(phi):
    """Nijenhuis bracket [phi, phi], a (1,2) tensor antisymmetric in its arguments."""
    grad = gradient(phi.data, phi.sig, phi.grid)    # [a, k, m] = d_a phi^k_m
    # [k, i, j]: phi^m_i d_m phi^k_j and phi^k_m d_i phi^m_j
    t1 = np.swapaxes(_on_slot(grad, 0, np.swapaxes(phi.data, -1, -2)), 3, 4)
    t3 = np.swapaxes(_on_slot(grad, 1, phi.data), 3, 4)
    n = t1 - np.swapaxes(t1, 4, 5) - t3 + np.swapaxes(t3, 4, 5)
    return TensorField(phi.grid, n, "udd")


def covariant_gradient(t, gamma):
    """nabla T with a new leading covariant slot: d_a T + D_m T per axis a, m = Gamma^k_{a j}.

    The Levi-Civita form that coskit's covariant_derivative, the Lie
    derivative plus the derivation of a given nabla X, is checked against.
    """
    out = np.empty(t.data.shape[:3] + (3,) + t.data.shape[3:])
    for a in range(3):
        out[:, :, :, a] = partial_derivative(t.data, t.sig, t.grid, a) \
            + _derivation(t.data, t.sig, gamma[..., :, a, :])
    return TensorField(t.grid, out, "d" + t.sig)


def covariant_reference(t, gamma, x):
    """nabla_X T from the Christoffel symbols gamma: covariant_gradient contracted with X."""
    out = covariant_gradient(t, gamma).data
    gax, slots = [0, 1, 2], list(range(4, 4 + len(t.sig)))
    return np.einsum(out, gax + [3] + slots, x.data, gax + [3], gax + slots)


def orbit_field(grid, rng: np.random.Generator) -> np.ndarray:
    """A random (N, N) torus field constant on each orbit of L.

    L permutes the N x N torus points, so a field f(p, t) plus this part
    still satisfies f(p, t + 1) = f(Lp, t) at every grid point.
    """
    n = grid.n_torus
    pi, pj = _torus_permutation(n, grid.monodromy)
    orbit = np.full((n, n), -1)
    for label, p in enumerate(np.ndindex(n, n)):
        while orbit[p] < 0:     # label the cycle of the permutation through p
            orbit[p] = label
            p = (pi[p], pj[p])
    assert len(np.unique(orbit)) > 1
    return rng.standard_normal(n * n)[orbit]


def torus_varying_deformation(grid, seed: int) -> Deformation:
    """random_deformation plus a torus part that is constant on each orbit of L.

    The seam identity still holds at every grid point, while no t-slab
    is constant.
    """
    rng = np.random.default_rng(seed)
    d = random_deformation(grid, seed, amplitude=0.3)
    u, r = (field + 0.05 * orbit_field(grid, rng) for field in (d.u, d.r))
    return Deformation(grid, u, r)
