import pytest

from malsde.models import (
    BrownianModel,
    DoubleWell1DModel,
    DoubleWell2DModel,
    OrnsteinUhlenbeckModel,
)


@pytest.fixture
def bm():
    return BrownianModel(dim=1, x0=[0.0], sigma0=1.0)


@pytest.fixture
def ou():
    return OrnsteinUhlenbeckModel(dim=1, x0=[0.5],
                                  kappa=1.0, mu=[0.0], sigma0=1.0)


@pytest.fixture
def dw1():
    return DoubleWell1DModel(x0=[0.3], sigma0=0.8)


@pytest.fixture
def dw2():
    return DoubleWell2DModel(x0=[0.1, -0.2])


@pytest.fixture
def zoo(bm, ou, dw1, dw2):
    return {"bm": bm, "ou": ou, "double-well-1d": dw1, "double-well-2d": dw2}
