"""Shared fixtures: kernel tables and convolution powers are expensive at
N=4096, so they are built once per session and reused.  The Monte Carlo
layer's kept draw is cleared before every test, so that no test reads the
paths another test drew."""

import math

import numpy as np
import pytest

from genfrac import (
    BernsteinFunction,
    Grid,
    build_kernel_table,
    convolution_powers,
)
from genfrac.mc import _inverse_values

# High-precision reference values (50-digit offline series evaluation),
# frozen here so the tests need no arbitrary-precision dependency.
ML_ORACLE = {
    (0.3, -2.0): 0.29023222616787535504,
    (0.3, -1.0): 0.45659440832969067062,
    (0.3, 1.0): 8.0406755969670582905,
    (0.5, -2.0): 0.25539567631050574387,
    (0.5, -1.0): 0.42758357615580700441,
    (0.5, 1.0): 5.0089800807622834663,
    (0.5, 2.0): 108.94090438997797241,
    (0.7, -2.0): 0.21378672701529727534,
    (0.7, -1.0): 0.39961197811559939027,
    (0.7, 1.0): 3.7041461454375862416,
}
ML_PRIME_HALF_AT_2 = 436.89199672700740222
GAMMA_1_5 = 0.88622692545275801365
INV_GAMMA_1_5 = 1.1283791670955125739
INV_GAMMA_0_5 = 0.56418958354775628695
INV_GAMMA_2_5 = 0.75225277806367504926


def fsum_series(cp, lam):
    """math.fsum of the terms lam^k u_k(t_i), k = 0..k_max, at every node,
    each term formed in log space; also the sum of the |terms|."""
    k = np.arange(cp.k_max + 1)[:, None]
    with np.errstate(divide="ignore"):
        log_u = np.log(cp.u_star)
    terms = np.where(cp.u_star > 0.0, np.exp(k * math.log(abs(lam)) + log_u), 0.0)
    terms *= math.copysign(1.0, lam) ** k
    total = np.array([math.fsum(col) for col in terms.T])
    gross = np.array([math.fsum(col) for col in np.abs(terms).T])
    return total, gross


@pytest.fixture(autouse=True)
def fresh_mc_draw():
    _inverse_values.cache_clear()


@pytest.fixture(scope="session")
def stable_half():
    return BernsteinFunction.stable(0.5)


@pytest.fixture(scope="session")
def tempered_half():
    return BernsteinFunction.tempered(0.5, 1.0)


@pytest.fixture(scope="session")
def mixture_phi():
    return BernsteinFunction.mixture([0.3, 0.7], [0.4, 0.8])


@pytest.fixture(scope="session")
def catalog_phis(stable_half, tempered_half, mixture_phi):
    return [stable_half, tempered_half, mixture_phi]


@pytest.fixture(scope="session")
def kt_stable_4096(stable_half):
    return build_kernel_table(stable_half, Grid(1.0, 4096))


@pytest.fixture(scope="session")
def kt_stable_512(stable_half):
    return build_kernel_table(stable_half, Grid(1.0, 512))


@pytest.fixture(scope="session")
def kt_stable_1024(stable_half):
    return build_kernel_table(stable_half, Grid(1.0, 1024))


@pytest.fixture(scope="session")
def kt_tempered_512(tempered_half):
    return build_kernel_table(tempered_half, Grid(1.0, 512))


@pytest.fixture(scope="session")
def kt_mixture_512(mixture_phi):
    return build_kernel_table(mixture_phi, Grid(1.0, 512))


@pytest.fixture(scope="session")
def cp_stable_4096(kt_stable_4096):
    return convolution_powers(kt_stable_4096, 72)


@pytest.fixture(scope="session")
def cp_stable_512(kt_stable_512):
    return convolution_powers(kt_stable_512, 72)
