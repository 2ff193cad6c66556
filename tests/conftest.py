from fractions import Fraction

import numpy as np
import pytest

from latticedex import preset_code
from latticedex.analysis import _pairs

# pass/fail lines recorded by tests/test_acceptance.py, echoed after the run
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def ex1_code():
    return preset_code("example1")


@pytest.fixture(scope="session")
def ex2_code():
    return preset_code("example2")


@pytest.fixture(scope="session")
def ex3_code():
    return preset_code("example3")


@pytest.fixture(scope="session")
def cyclo_code():
    return preset_code("cyclo-K4")


@pytest.fixture(scope="session")
def maxreal_code():
    return preset_code("maxreal-K3")


def pair_scan_min_distance(code, s, fixed=None):
    """Oracle of min_distance: the exact min squared distance over every pair
    of subcode_points(code, s, fixed), w_S defaulting to zero."""
    idx = code.subcode_indices(s, fixed)
    X = code.coords_matrix[idx]
    G = code.gram2
    q = np.einsum("ij,jk,ik->i", X, G, X)
    XG = X @ G
    best = []
    for lo, hi, i, j in _pairs(X.shape[0]):
        d2 = q[lo:hi, None] + q[None, :] - 2 * (XG[lo:hi] @ X.T)  # int64 exact
        best.append(int(d2[i, j].min()))
    return Fraction(min(best), 2)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
