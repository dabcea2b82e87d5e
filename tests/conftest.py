"""Shared fixtures: the four benchmark Sobolev products, built once."""

import pytest
from mpmath import mp

from jacobisobolev import (
    JacobiParams,
    MassPoint,
    SobolevProduct,
    build_family,
)


@pytest.fixture(scope="session", autouse=True)
def _default_precision():
    """The tests run at 256 bits, the CLI's default; importing the package
    leaves mp.prec at mpmath's 53."""
    mp.prec = 256


@pytest.fixture(scope="session")
def intro_product():
    """Legendre measure with first-derivative masses at +/-2."""
    return SobolevProduct(
        JacobiParams(0, 0), [MassPoint(-2, [(1, 1)]), MassPoint(2, [(1, 1)])]
    )


@pytest.fixture(scope="session")
def intro_family(intro_product):
    return build_family(intro_product, 8)


@pytest.fixture(scope="session")
def ex1_product():
    """(1+x)^100 measure with a first-derivative mass at 2."""
    return SobolevProduct(JacobiParams(0, 100), [MassPoint(2, [(1, 1)])])


@pytest.fixture(scope="session")
def ex1_family(ex1_product):
    return build_family(ex1_product, 12)


@pytest.fixture(scope="session")
def ex2_product():
    """(1+x)^110 measure, first-derivative mass at 1, second-derivative at 2."""
    return SobolevProduct(
        JacobiParams(0, 110), [MassPoint(1, [(1, 1)]), MassPoint(2, [(2, 1)])]
    )


@pytest.fixture(scope="session")
def ex2_family(ex2_product):
    return build_family(ex2_product, 12)


@pytest.fixture(scope="session")
def ex3_product():
    """Legendre measure with a first-derivative mass at 2 (saddle case)."""
    return SobolevProduct(JacobiParams(0, 0), [MassPoint(2, [(1, 1)])])


@pytest.fixture(scope="session")
def ex3_family(ex3_product):
    return build_family(ex3_product, 12)


@pytest.fixture(scope="session")
def all_products(intro_product, ex1_product, ex2_product, ex3_product):
    return [intro_product, ex1_product, ex2_product, ex3_product]


@pytest.fixture(scope="session")
def all_families(intro_family, ex1_family, ex2_family, ex3_family):
    return [intro_family, ex1_family, ex2_family, ex3_family]
