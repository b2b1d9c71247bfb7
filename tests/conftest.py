import random

import pytest

from hilb4n.borel import borel_catalog, enumerate_borel_ideals
from hilb4n.poly import variables
from hilb4n.strata import FOUR_N


@pytest.fixture(scope="session")
def catalog():
    return borel_catalog()


@pytest.fixture(scope="session")
def four_n_borel():
    """The Borel-fixed ideals with Hilbert polynomial 4n, enumerated once."""
    return tuple(enumerate_borel_ideals(FOUR_N))


@pytest.fixture(scope="session")
def xyzt():
    return variables()


@pytest.fixture
def rng():
    return random.Random(20260810)
