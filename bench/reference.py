"""Reference kernels that measure the machine's speed during a run.

The benchmark machine is a shared VM whose speed changes in phases that
last from seconds to minutes: in slow phases a batched 3x3 inverse takes
up to 2x as long and a Python loop 1.4x, while a memory stream slows
only 1.15x.  The fastest repetition within a run cannot escape a phase
that lasts the whole run, so the harness also times a reference kernel
before every stage: fixed numpy work that copies the kind of work the
workload does at a smaller size, uses no coskit code, and so does not
change when coskit changes.  Timings are scaled by
``SECONDS[workload] / fastest reference time``, which expresses them in
seconds at the speed the reference had when these constants were
measured.

``SECONDS`` holds, per workload, about the fastest time its reference
took on the 2-core Xeon VM the benchmark was written on (numpy 2.4, one
OpenBLAS thread), so that scaled figures read close to the seconds of a
fast phase there.  Changing a kernel or a constant changes the scale of
every figure measured with it, so both stay fixed between the runs that
are compared.
"""

from __future__ import annotations

import numpy as np

SECONDS = {"descent": 0.0015, "variation": 0.0090, "sweep": 0.0150, "splitting": 0.0110}

# reference samples taken before each stage
REPEATS = {"descent": 1, "variation": 1, "sweep": 8, "splitting": 1}


def _spd_field(shape, rng) -> np.ndarray:
    a = rng.standard_normal(shape + (3, 3))
    return a @ np.swapaxes(a, -1, -2) + 3.0 * np.eye(3)


def _derivative(f: np.ndarray, axis: int) -> np.ndarray:
    """4th-order periodic centered difference by rolled copies."""
    d1 = np.roll(f, -1, axis) - np.roll(f, 1, axis)
    d2 = np.roll(f, -2, axis) - np.roll(f, 2, axis)
    return (8.0 * d1 - d2) / 12.0


def _descent():
    # two evaluations of the optimizer's objective and gradient on an
    # 8x8x256 twisted chart: t-derivatives whose wrapped slabs are fetched
    # at the monodromy-permuted torus points, as the seam stencil does
    rng = np.random.default_rng(0)
    u, r = rng.random((2, 256, 8, 8))
    mono = np.array([[2, 1], [1, 1]])
    mono_inv = np.array([[1, -1], [-1, 2]])
    i, j = np.arange(8).reshape(8, 1), np.arange(8).reshape(1, 8)

    def shift(f, s):
        out = np.roll(f, -s, axis=0)
        a = np.eye(3)
        a[1:, 1:] = mono if s > 0 else mono_inv
        np.linalg.inv(a)
        m = a[1:, 1:].astype(np.int64)
        pi, pj = (m[0, 0] * i + m[0, 1] * j) % 8, (m[1, 0] * i + m[1, 1] * j) % 8
        if s > 0:
            out[256 - s:] = f[:s][:, pi, pj]
        else:
            out[:-s] = f[s:][:, pi, pj]
        return out

    def reeb(f):
        return 1.4 * (8.0 * (shift(f, 1) - shift(f, -1))
                      - (shift(f, 2) - shift(f, -2))) / (12.0 / 256)

    def kernel():
        for _ in range(2):
            ru, rr = reeb(u), reeb(r)
            a = 2.0 * r + r * ru - rr
            float(np.sum(2.0 * a ** 2 + 2.0 * ru ** 2))
            reeb(4.0 * a * r + 4.0 * ru)
            4.0 * a * (2.0 + ru) + reeb(4.0 * a)

    return kernel


def _variation():
    # batched 3x3 inverse and eigendecomposition, a four-operand einsum
    # and a rank-2 stencil, on a 4x32x32 slab of a 32^3 field
    rng = np.random.default_rng(0)
    g = _spd_field((4, 32, 32), rng)
    h = rng.standard_normal((4, 32, 32, 3, 3))

    def kernel():
        ginv = np.linalg.inv(g)
        np.linalg.eigh(g)
        np.einsum("...ia,...jb,...ij,...ab->...", ginv, ginv, h, h)
        _derivative(h, 1)

    return kernel


def _sweep():
    # the convergence sweep mixes pointwise 3x3 algebra with stencils over
    # fields far larger than the caches: the cache-resident variation
    # kernel plus in-place differences over preallocated 48^3 rank-2
    # fields, which allocate nothing and so measure memory bandwidth alone
    algebra = _variation()
    rng = np.random.default_rng(0)
    f = rng.standard_normal((48, 48, 48, 3, 3))
    d = np.empty_like(f)

    def kernel():
        algebra()
        for axis in range(3):
            hi = [slice(None)] * 5
            lo = [slice(None)] * 5
            hi[axis], lo[axis] = slice(2, None), slice(None, -2)
            np.subtract(f[tuple(hi)], f[tuple(lo)], out=d[tuple(hi)])

    return kernel


def _splitting():
    # the splitting code's mix on 32^3 fields: gathers at permuted torus
    # points, pointwise metric norms, a rank-2 stencil and a slab of eigh
    rng = np.random.default_rng(0)
    g = _spd_field((32, 32, 32), rng)
    v = rng.standard_normal((32, 32, 32, 3))
    i, j = np.arange(32).reshape(32, 1), np.arange(32).reshape(1, 32)
    pi, pj = (2 * i + j) % 32, (i + j) % 32

    def kernel():
        np.linalg.eigh(g[:2])
        _derivative(g, 0)
        for _ in range(2):
            w = v[:, pi, pj]
            np.sqrt(np.einsum("...ij,...i,...j->...", g[:, pi, pj], w, w))

    return kernel


KERNELS = {"descent": _descent, "variation": _variation, "sweep": _sweep,
           "splitting": _splitting}
