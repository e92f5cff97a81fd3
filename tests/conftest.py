import pytest

from flbreuil.ambient import AmbientParams


@pytest.fixture(scope="session")
def amb3():
    return AmbientParams(3, 2)


@pytest.fixture(scope="session")
def amb5():
    return AmbientParams(5, 4)


@pytest.fixture(scope="session")
def amb9():
    # residue degree two keeps the semilinear code paths honest
    return AmbientParams(3, 2, f=2)


@pytest.fixture(scope="session")
def amb27():
    # residue degree three: the packed products use three T-planes
    return AmbientParams(3, 2, f=3)
