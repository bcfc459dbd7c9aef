import numpy as np
import pytest

import coskit as ck
from coskit import variational as va

CAT = [[2, 1], [1, 1]]
# both trace signs and larger multipliers, for the splitting and eigen checks
HYPERBOLIC_GLUINGS = ([[2, 1], [1, 1]], [[-2, 1], [1, -1]], [[3, 1], [2, 1]], [[5, 2], [2, 1]])


@pytest.fixture(scope="session")
def model():
    return ck.build_hyperbolic_model(CAT, tau=1.0, area=1.0)


@pytest.fixture(scope="session")
def grid32(model):
    return ck.Grid(32, 32, model.matrix)


@pytest.fixture(scope="session")
def grid64(model):
    return ck.Grid(64, 64, model.matrix)


@pytest.fixture(scope="session")
def crit32(model, grid32):
    return ck.critical_metric(model, grid32)


@pytest.fixture(scope="session")
def crit64(model, grid64):
    return ck.critical_metric(model, grid64)


@pytest.fixture(scope="session", params=HYPERBOLIC_GLUINGS,
                ids=lambda m: ",".join(str(v) for row in m for v in row))
def crit16_gluing(request):
    """(model, critical metric) at 16^3 for each gluing in HYPERBOLIC_GLUINGS."""
    model = ck.build_hyperbolic_model(request.param)
    return model, ck.critical_metric(model, ck.Grid(16, 16, model.matrix))[1]


@pytest.fixture(scope="session")
def flat16():
    return ck.flat_cokahler(ck.Grid(16, 16))


@pytest.fixture(scope="session")
def flat8():
    return ck.flat_cokahler(ck.Grid(8, 8))


@pytest.fixture(scope="session")
def chart32(model, grid32):
    return va.deformation_chart(model, grid32)


@pytest.fixture(scope="session")
def fiber_chart(model):
    """Anisotropic chart for the t-only deformation identities."""
    return va.deformation_chart(model, ck.Grid(8, 256, model.matrix))


def sup(a):
    return float(np.max(np.abs(a)))
