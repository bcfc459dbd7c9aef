"""Betti numbers of torus mapping tori by exact integer linear algebra.

The Mayer-Vietoris (Wang) sequence of a mapping torus glued by
L in SL(2,Z) gives b1 = 1 + dim ker(1 - L) over the rationals, with
b0 = b3 = 1 and b2 = b1 by Poincare duality on the closed orientable
3-manifold.  Ranks and torsion come from a Smith normal form over Z;
everything here is exact integer arithmetic, no floating point and no
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grids import _int_det, _int_matpow


class TopologyError(ValueError):
    pass


def _as_int_matrix(mat) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in mat]
    if any(len(r) != len(rows[0]) for r in rows):
        raise TopologyError("ragged integer matrix")
    return rows


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """U A V = D with U, V unimodular and D diagonal, d_i | d_{i+1}.

    Row/column reduction by smallest pivot; all arithmetic on Python
    integers, so the result is exact for any size of entry.
    """
    a = _as_int_matrix(mat)
    n_rows, n_cols = len(a), len(a[0])
    u = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
    v = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(n_rows, n_cols):
        pivots = [(abs(a[i][j]), i, j) for i in range(t, n_rows)
                  for j in range(t, n_cols) if a[i][j] != 0]
        if not pivots:
            break
        _, pi, pj = min(pivots)
        swap_rows(t, pi)
        swap_cols(t, pj)
        clean = True
        for i in range(t + 1, n_rows):
            if a[i][t] != 0:
                add_row(i, t, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    clean = False
        for j in range(t + 1, n_cols):
            if a[t][j] != 0:
                add_col(j, t, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    clean = False
        if not clean:
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, n_rows):
            for j in range(t + 1, n_cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def invariant_factors(mat) -> list[int]:
    d, _, _ = smith_normal_form(mat)
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def _check_gluing(mat) -> list[list[int]]:
    m = _as_int_matrix(mat)
    if len(m) != 2 or len(m[0]) != 2:
        raise TopologyError("gluing matrix must be 2x2")
    det = _int_det(m)
    if det != 1:
        raise TopologyError(f"det L = {det}, need 1")
    return m


def betti_numbers_mapping_torus(mat) -> tuple[int, int, int, int]:
    """(b0, b1, b2, b3) of the mapping torus glued by L in SL(2,Z)."""
    m = _check_gluing(mat)
    one_minus = [[int(i == j) - m[i][j] for j in range(2)] for i in range(2)]
    rank = sum(1 for d in invariant_factors(one_minus) if d != 0)
    b1 = 1 + (2 - rank)
    return (1, b1, b1, 1)


def h1_torsion_invariants(mat) -> list[int]:
    """Invariant factors (>1) of the torsion of H_1: Z^2 / (1 - L) Z^2."""
    m = _check_gluing(mat)
    one_minus = [[int(i == j) - m[i][j] for j in range(2)] for i in range(2)]
    return [abs(d) for d in invariant_factors(one_minus) if abs(d) > 1]


@dataclass(frozen=True)
class ObstructionVerdict:
    # hyperbolic_candidate | finite_order_cokahler | b1_even_excludes_cokahler | nil_no_critical
    verdict: str
    betti: tuple[int, int, int, int]
    trace: int
    note: str


def critical_metric_obstruction(mat) -> ObstructionVerdict:
    """Classify the gluing by the critical-metric existence dichotomy, in exact integers.

    Hyperbolic gluings (|trace| > 2) are the candidates carrying the
    positive-torsion critical metrics.  A gluing of finite order (L^12 = I)
    gives a flat co-Kaehler manifold, whose flat metric is critical with
    zero torsion.  Every other gluing is parabolic of infinite order: a Nil
    manifold, neither co-Kaehler (not virtually abelian) nor a hyperbolic
    suspension, so no cosymplectic structure on it admits a critical
    compatible metric; an even b1 already shows it is not co-Kaehler.
    """
    m = _check_gluing(mat)
    trace = m[0][0] + m[1][1]
    betti = betti_numbers_mapping_torus(m)
    if abs(trace) > 2:
        return ObstructionVerdict(
            "hyperbolic_candidate", betti, trace,
            "hyperbolic gluing: suspension structure carries a critical metric")
    if _int_matpow(m, 12) == [[1, 0], [0, 1]]:
        return ObstructionVerdict(
            "finite_order_cokahler", betti, trace,
            "gluing of finite order: flat co-Kaehler, the flat metric is critical")
    if betti[1] % 2 == 0:
        return ObstructionVerdict(
            "b1_even_excludes_cokahler", betti, trace,
            f"b1 = {betti[1]} even: not co-Kaehler, and not a hyperbolic "
            "suspension; no critical compatible metric for any cosymplectic structure")
    return ObstructionVerdict(
        "nil_no_critical", betti, trace,
        f"b1 = {betti[1]} odd, parabolic gluing of infinite order: a Nil manifold, not "
        "co-Kaehler and not a hyperbolic suspension; no critical compatible metric")
