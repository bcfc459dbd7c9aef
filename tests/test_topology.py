import itertools
import random

import numpy as np
import pytest

from coskit import topology as tp
from coskit.grids import _int_matpow


def test_betti_hyperbolic_all_ones():
    assert tp.betti_numbers_mapping_torus([[2, 1], [1, 1]]) == (1, 1, 1, 1)


def test_betti_parabolic():
    assert tp.betti_numbers_mapping_torus([[1, 1], [0, 1]]) == (1, 2, 2, 1)


def test_betti_identity_is_three_torus():
    assert tp.betti_numbers_mapping_torus([[1, 0], [0, 1]]) == (1, 3, 3, 1)


def test_betti_poincare_duality_and_b0():
    for mat in ([[2, 1], [1, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 1]],
                [[5, 2], [2, 1]], [[0, -1], [1, 0]]):
        b = tp.betti_numbers_mapping_torus(mat)
        assert b[0] == b[3] == 1
        assert b[1] == b[2]


def test_betti_rejects_non_symplectic():
    with pytest.raises(tp.TopologyError):
        tp.betti_numbers_mapping_torus([[2, 0], [0, 1]])
    with pytest.raises(tp.TopologyError):
        tp.betti_numbers_mapping_torus([[0, 1], [1, 0]])


def test_b1_is_one_for_hyperbolic_traces():
    for tr in list(range(3, 11)) + [-t for t in range(3, 11)]:
        mat = [[tr - 1, 1], [tr - 2, 1]] if tr > 0 else [[tr + 1, -1], [tr + 2, -1]]
        assert mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] == 1
        assert mat[0][0] + mat[1][1] == tr
        assert tp.betti_numbers_mapping_torus(mat)[1] == 1


def test_h1_torsion():
    assert tp.h1_torsion_invariants([[2, 1], [1, 1]]) == []
    assert tp.h1_torsion_invariants([[1, 1], [0, 1]]) == []
    # 1 - L = [[-1,-3],[-1,-1]] has determinant -2: a Z/2 summand
    assert tp.h1_torsion_invariants([[2, 3], [1, 2]]) == [2]


def test_obstruction_verdicts():
    assert tp.critical_metric_obstruction([[2, 1], [1, 1]]).verdict == "hyperbolic_candidate"
    v = tp.critical_metric_obstruction([[1, 1], [0, 1]])
    assert v.verdict == "b1_even_excludes_cokahler"
    assert v.betti[1] == 2
    # finite order (L^12 = I): the identity, -I and the three elliptic
    # classes; infinite order with |trace| = 2 and odd b1: a Nil manifold
    for mat in ([[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]],
                [[0, -1], [1, -1]], [[1, -1], [1, 0]]):
        assert tp.critical_metric_obstruction(mat).verdict == "finite_order_cokahler"
    v = tp.critical_metric_obstruction([[-1, 1], [0, -1]])
    assert (v.verdict, v.betti[1]) == ("nil_no_critical", 1)


def test_every_gluing_gets_a_decisive_verdict():
    # over SL(2,Z) with entries in [-4, 4] the verdict follows the trace
    # and the exact order, and none is "inconclusive"
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        if a * d - b * c != 1:
            continue
        v = tp.critical_metric_obstruction([[a, b], [c, d]])
        finite = _int_matpow([[a, b], [c, d]], 12) == [[1, 0], [0, 1]]
        if abs(a + d) > 2:
            expected = "hyperbolic_candidate"
        elif finite:
            expected = "finite_order_cokahler"
        else:
            expected = "b1_even_excludes_cokahler" if a + d == 2 else "nil_no_critical"
        assert v.verdict == expected, (a, b, c, d)
        assert finite == (abs(a + d) < 2 or (b, c) == (0, 0)), (a, b, c, d)


def test_smith_normal_form_properties():
    rng = random.Random(7)
    for size in ((2, 2), (3, 3), (2, 3), (3, 2)):
        for _ in range(100):
            a = [[rng.randint(-9, 9) for _ in range(size[1])] for _ in range(size[0])]
            d, u, v = tp.smith_normal_form(a)
            assert (np.array(u) @ np.array(a) @ np.array(v) == np.array(d)).all()
            # diagonal, nonnegative, divisibility chain
            for i in range(size[0]):
                for j in range(size[1]):
                    if i != j:
                        assert d[i][j] == 0
            diag = [d[i][i] for i in range(min(size))]
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                if x != 0 and y != 0:
                    assert y % x == 0
                if x == 0:
                    assert y == 0
            # unimodular transforms
            assert abs(round(np.linalg.det(np.array(u, dtype=float)))) == 1
            assert abs(round(np.linalg.det(np.array(v, dtype=float)))) == 1


def test_smith_normal_form_large_entries_exact():
    # arbitrary-precision integers: no float anywhere
    big = [[10 ** 18 + 9, 10 ** 17], [3, 10 ** 15 + 1]]
    d, u, v = tp.smith_normal_form(big)
    lhs = [[sum(u[i][k] * big[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    lhs = [[sum(lhs[i][k] * v[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert lhs == d


def test_results_are_plain_ints():
    b = tp.betti_numbers_mapping_torus([[2, 1], [1, 1]])
    assert all(isinstance(x, int) for x in b)
