import json
from fractions import Fraction

import numpy as np
import pytest

from latticedex import (build_index_code, load_code, preset_code, prime_ideals_above,
                        quadratic_field)

# pass/fail lines recorded by tests/test_acceptance.py, echoed after the run
ACCEPTANCE_LINES = []
_PAIR_CHUNK = 512


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


@pytest.fixture
def load_doc(tmp_path):
    """load_code on a file that holds json.dumps(doc): the route of any JSON but save_code's."""
    path = tmp_path / "doc.json"

    def load(doc):
        path.write_text(json.dumps(doc))
        return load_code(path)

    return load


@pytest.fixture(scope="session")
def zi_primes():
    field = quadratic_field(-1)
    return field, [prime_ideals_above(field, 5)[0], prime_ideals_above(field, 13)[0]]


@pytest.fixture(scope="session")
def zi_m2(zi_primes):
    field, primes = zi_primes
    return build_index_code(field, primes[:1], [[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def zi_m2k2(zi_primes):
    field, primes = zi_primes
    return build_index_code(field, primes, [[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def zi_1105(zi_primes):
    """The 5*13*17-point m = 1 code over Z[i] with generator 1 + i."""
    field, primes = zi_primes
    return build_index_code(field, primes + [prime_ideals_above(field, 17)[0]],
                            [[field.element((1, 1))]])


@pytest.fixture(scope="session")
def module_codes(zi_primes, zi_m2, zi_m2k2):
    """The Z[i] module codes of acceptance criterion 8, by label."""
    field, (p5, p13) = zi_primes
    one, shear = field.one, field.element((1, 1))
    return {
        "m=1 identity": build_index_code(field, [p5, p13], [[one]]),
        "m=1 scaled": build_index_code(field, [p5, p13], [[shear]]),
        "m=2 identity": zi_m2,
        "m=2 shear": build_index_code(field, [p5], [[one, shear], [field.zero, one]]),
        "m=2 two primes": zi_m2k2,
    }


def _pairs(count):
    """Every pair a < b of count points, _PAIR_CHUNK rows a at a time.

    Yields (lo, hi, i, j) for each chunk with a pair: rows lo..hi-1 pair
    up as (lo + i, j), so block[i, j] picks them from a rows-by-count block.
    """
    for lo in range(0, count, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, count)
        iu = np.triu_indices(hi - lo, k=1, m=count)
        mask = iu[1] > iu[0] + lo  # strict upper triangle in global indices
        if mask.any():
            yield lo, hi, iu[0][mask], iu[1][mask]


def _pair_scan(code, idx):
    """(diversity, min product distance) of the subcode idx over every pair.

    Each difference is embedded from the exact difference of the integer
    points G~ u, slot by slot, so no cancellation between large embeddings
    enters its place sizes (field.place_sizes).  A nonzero algebraic integer
    has no zero embedding, so every place of a slot where that exact
    difference is nonzero differs, and none of a zero slot; the product runs
    over the differing places of each pair.
    """
    field = code.field
    # integer points, exact in float64 like the embedding built from them
    P = (code.coords_matrix[idx] @ code.basis.T).astype(np.float64)
    diversity, pmin = [], []
    for lo, _, i, j in _pairs(P.shape[0]):
        diff = (P[lo + i] - P[j]).reshape(-1, field.n)  # one row per slot of each pair
        slots = diff.any(axis=1).reshape(-1, code.m)
        g = field.place_sizes(diff @ field.embed_matrix.T).reshape(*slots.shape, -1)
        diversity.append(int(slots.sum(axis=1).min()) * g.shape[2])
        pmin.append(float(np.where(slots[:, :, None], g, 1.0).prod(axis=(1, 2)).min()))
    return min(diversity), min(pmin)


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


def points_csv_oracle(code):
    """The text `design` writes to a points CSV, from one %-template per row:
    index, label "(w_1)|...|(w_K)", coordinates, and each embedding float
    printed by %r."""
    k, n = code.labels.shape[1:]
    row = ("%d," + "|".join(["(" + " ".join(["%d"] * n) + ")"] * k)
           + ",%d" * n + ",%r" * n + "\n")
    head = ",".join(["index", "label"] + [f"c{i}" for i in range(n)]
                    + [f"x{i}" for i in range(n)]) + "\n"
    return head + "".join(row % (i, *w, *c, *x) for i, (w, c, x) in enumerate(zip(
        code.labels.reshape(code.size, k * n).tolist(), code.coords_matrix.tolist(),
        code.embedded.tolist())))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
