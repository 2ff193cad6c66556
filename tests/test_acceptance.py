"""Numbered end-to-end criteria, one PASS/FAIL summary line each.

Every test here checks one headline guarantee at its stated tolerance and
appends a line to the terminal summary (see conftest).  Monte-Carlo criteria
run at frozen budgets with seed 11; the SNR grids bracket the SER 1e-4
crossing of every curve so gap measurements interpolate, never extrapolate.
"""

import functools
import math
import time
from itertools import combinations

import numpy as np
import sympy

import conftest
from latticedex import (
    SimConfig,
    build_index_code,
    classify_prime,
    min_distance,
    prime_ideals_above,
    quadratic_field,
    run_sim,
    side_info_gain,
    si_gain_from_curves,
    diversity_slope,
    write_curve_csv,
    curve_filename,
)
from latticedex.analysis import SIX_DB
from latticedex.numberfield.linalg import reduce_mod_hnf_batch
from test_numberfield import BRUTE_ORACLES


def _record(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _criterion(num):
    """Guarantee a summary line even when an assert fires before _record."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                tag = f"criterion {num}:"
                if not any(tag in line for line in conftest.ACCEPTANCE_LINES):
                    conftest.ACCEPTANCE_LINES.append(
                        f"FAIL criterion {num}: {type(e).__name__}: {e}"[:240])
                raise
        return run
    return wrap


def _two_prime_code(d, prime_bound=50):
    """Quadratic field Q(sqrt(d)) with its first two split primes below the bound."""
    field = quadratic_field(d)
    splits = []
    for p in sympy.primerange(3, prime_bound):
        if classify_prime(field, int(p)).kind == "split":
            splits.append(int(p))
            if len(splits) == 2:
                break
    assert len(splits) == 2, f"fewer than two split primes below {prime_bound} for d={d}"
    return build_index_code(field, [prime_ideals_above(field, splits[0])[0],
                                    prime_ideals_above(field, splits[1])[0]])


# 20 squarefree d on either side of zero; every one has two split primes < 50
REAL_BATTERY_DS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15,
                   17, 19, 21, 22, 23, 26, 29, 30, 31, 33)
CPLX_BATTERY_DS = (-1, -2, -3, -5, -6, -7, -10, -11, -13, -14,
                   -15, -17, -19, -21, -22, -23, -26, -29, -30, -31)


# ---- 1: exact gains for imaginary-quadratic PID codes ----

@_criterion(1)
def test_criterion_1_pid_codes_hit_six_db_exactly(ex3_code):
    t0 = time.perf_counter()
    codes = [ex3_code]
    for d, (pa, pb) in ((-1, (5, 13)), (-2, (3, 11)), (-11, (3, 5))):
        field = quadratic_field(d)
        codes.append(build_index_code(
            field, [prime_ideals_above(field, pa)[0],
                    prime_ideals_above(field, pb)[0]]))
    worst = 0.0
    gains = 0
    for code in codes:
        d0 = min_distance(code, ())
        assert d0 == conftest.pair_scan_min_distance(code, ()), code.field.name
        for s in ((1,), (2,), (1, 2)):
            rep = side_info_gain(code, s)       # exact lattice path
            assert rep.d0_sq == d0, (code.field.name, s)
            if len(s) < len(code.primes):
                # full reveal pins the subcode to one point, nothing to brute force
                assert (rep.ds_sq == min_distance(code, s)
                        == conftest.pair_scan_min_distance(code, s)), (code.field.name, s)
            gamma = 10.0 * math.log10(rep.ds_sq / d0) / rep.rate_bits
            worst = max(worst, abs(gamma - SIX_DB), abs(rep.gamma_db - SIX_DB))
            gains += 1
    elapsed = time.perf_counter() - t0
    _record(1, worst < 1e-9 and elapsed < 1.0,
            f"{gains} brute-forced gains across 4 imaginary-quadratic PID codes all "
            f"equal {SIX_DB:.4f} dB/bit/dim (max deviation {worst:.1e}, {elapsed:.2f}s)")


# ---- 2: totally real sandwich ----

@_criterion(2)
def test_criterion_2_totally_real_sandwich(ex1_code, maxreal_code):
    t0 = time.perf_counter()
    g1 = side_info_gain(ex1_code, (1,)).gamma_db
    g2 = side_info_gain(ex1_code, (2,)).gamma_db
    assert 6.0 - 1e-9 <= g1 <= 9.01
    assert 6.0 - 1e-9 <= g2 <= 8.02
    checked = 0
    margin = math.inf
    for d in REAL_BATTERY_DS:
        code = _two_prime_code(d)
        for s in ((1,), (2,), (1, 2)):
            rep = side_info_gain(code, s)
            assert rep.bounds_ok, (d, s, rep.gamma_db, rep.upper_bound_db)
            margin = min(margin, rep.upper_bound_db - rep.gamma_db)
            checked += 1
    for k in (1, 2, 3):
        for s in combinations((1, 2, 3), k):
            assert side_info_gain(maxreal_code, s).bounds_ok, s
            checked += 1
    elapsed = time.perf_counter() - t0
    _record(2, elapsed < 10.0,
            f"example1 gains {g1:.4f}/{g2:.4f} dB inside [6, 9.01]/[6, 8.02]; "
            f"{checked} totally-real battery gains inside bounds "
            f"(tightest upper margin {margin:.4f} dB, {elapsed:.1f}s)")


# ---- 3: totally complex sandwich ----

@_criterion(3)
def test_criterion_3_totally_complex_sandwich(ex2_code, cyclo_code):
    t0 = time.perf_counter()
    ex2_gains = []
    for s in ((1,), (2,), (1, 2)):
        g = side_info_gain(ex2_code, s).gamma_db
        assert 6.0 - 1e-9 <= g <= 9.237 + 1e-3, (s, g)
        ex2_gains.append(g)
    checked = 0
    for d in CPLX_BATTERY_DS:
        code = _two_prime_code(d)
        for s in ((1,), (2,), (1, 2)):
            rep = side_info_gain(code, s)
            assert rep.bounds_ok, (d, s, rep.gamma_db, rep.upper_bound_db)
            checked += 1
    for k in (1, 2, 3, 4):
        for s in combinations((1, 2, 3, 4), k):
            assert side_info_gain(cyclo_code, s).bounds_ok, s
            checked += 1
    elapsed = time.perf_counter() - t0
    _record(3, True,
            f"example2 gains {'/'.join(f'{g:.4f}' for g in ex2_gains)} dB inside "
            f"[6, 9.237]; {checked} totally-complex battery gains inside bounds "
            f"({elapsed:.1f}s)")


# ---- 4: CRT ring isomorphism on the constellations ----

def _mul_tensor(field):
    n = field.n
    T = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        ea = tuple(1 if i == a else 0 for i in range(n))
        for b in range(n):
            eb = tuple(1 if i == b else 0 for i in range(n))
            T[a, b] = field.mul_coords(ea, eb)
    return T


def _residue_array(prime):
    """Residues ordered by their index (coordinate 0 the least significant digit), plus the
    index strides."""
    n = prime.field.n
    strides = np.ones(n, dtype=np.int64)
    for i in range(1, n):
        strides[i] = strides[i - 1] * prime.hnf[i - 1][i - 1]
    R = np.zeros((prime.norm, n), dtype=np.int64)
    for r in prime.residues():
        R[np.dot(r, strides)] = r
    return R, strides


def _prime_op_tables(prime, T):
    """(add, mul) tables mapping residue-index pairs to the result's index."""
    R, strides = _residue_array(prime)
    nk = R.shape[0]
    sums = (R[:, None, :] + R[None, :, :]).reshape(nk * nk, -1)
    add = (reduce_mod_hnf_batch(sums, prime.hnf) @ strides).reshape(nk, nk)
    prods = np.einsum("ia,jb,abr->ijr", R, R, T).reshape(nk * nk, -1)
    mul = (reduce_mod_hnf_batch(prods, prime.hnf) @ strides).reshape(nk, nk)
    return add, mul


def _message_strides(code):
    k = len(code.primes)
    mstr = np.ones(k, dtype=np.int64)
    for i in range(k - 2, -1, -1):
        mstr[i] = mstr[i + 1] * code.primes[i + 1].norm
    return mstr


def _check_pair_block(code, X, RI, tables, mstr, T, rows, cols):
    """Additive and multiplicative identity on the rows x cols pair block."""
    n = code.field.n
    hmod = code.modulus.hnf
    sums = (X[rows][:, None, :] + X[cols][None, :, :]).reshape(-1, n)
    add_idx = sum(tables[k][0][RI[rows, k][:, None], RI[cols, k][None, :]] * mstr[k]
                  for k in range(len(tables))).reshape(-1)
    assert not reduce_mod_hnf_batch(sums - X[add_idx], hmod).any()
    prods = np.einsum("ia,jb,abr->ijr", X[rows], X[cols], T).reshape(-1, n)
    mul_idx = sum(tables[k][1][RI[rows, k][:, None], RI[cols, k][None, :]] * mstr[k]
                  for k in range(len(tables))).reshape(-1)
    assert not reduce_mod_hnf_batch(prods - X[mul_idx], hmod).any()
    return len(sums)


@_criterion(4)
def test_criterion_4_crt_isomorphism_suite(ex1_code, ex2_code, ex3_code,
                                           cyclo_code, maxreal_code):
    t0 = time.perf_counter()
    pair_count = 0
    exhaustive_cap = 10 ** 4
    for code in (ex1_code, ex2_code, ex3_code, cyclo_code, maxreal_code):
        X = np.asarray(code.coords_matrix, dtype=np.int64)
        # each point's index per prime, from its coordinates reduced modulo the prime
        RI = np.stack([reduce_mod_hnf_batch(X, p.hnf) @ _residue_array(p)[1]
                       for p in code.primes], axis=1)
        N = X.shape[0]
        T = _mul_tensor(code.field)
        tables = [_prime_op_tables(p, T) for p in code.primes]
        mstr = _message_strides(code)

        # labels biject onto 0..N-1 in constellation order
        assert np.array_equal(RI @ mstr, np.arange(N))

        # revealing message k pins the point modulo the k-th ideal
        for k, p in enumerate(code.primes):
            _, first = np.unique(RI[:, k], return_index=True)
            ref = X[first[RI[:, k]]]
            assert not reduce_mod_hnf_batch(X - ref, p.hnf).any()

        if N <= exhaustive_cap:
            all_rows = np.arange(N)
            for lo in range(0, N, 128):
                rows = all_rows[lo:lo + 128]
                pair_count += _check_pair_block(code, X, RI, tables, mstr, T,
                                                rows, all_rows)
        else:
            rng = np.random.default_rng(7)
            rows = rng.integers(0, N, 40)
            cols = rng.integers(0, N, 40)
            pair_count += _check_pair_block(code, X, RI, tables, mstr, T,
                                            rows, cols)
    elapsed = time.perf_counter() - t0
    _record(4, elapsed < 30.0,
            f"encode(a+b) = encode(a)+encode(b) and encode(a*b) = encode(a)*encode(b) "
            f"mod the modulus on {pair_count} message pairs (exhaustive up to "
            f"10^4 points), labels bijective, side-info cosets respected, all 5 "
            f"presets ({elapsed:.1f}s)")


# ---- 5: AWGN side-information gaps at SER 1e-4 ----

AWGN_BUDGET = dict(min_errors=400, max_trials=4_000_000, seed=11, workers=1)
AWGN_GRIDS = {
    "example1": {(): (23.0, 24.0, 25.0, 26.0),
                 (1,): (16.0, 17.0, 18.0, 19.0),
                 (2,): (12.0, 13.0, 14.0, 15.0)},
    "example2": {(): (26.0, 27.0, 28.0, 29.0, 30.0),
                 (1,): (15.0, 16.0, 17.0, 18.0),
                 (2,): (15.0, 16.0, 17.0, 18.0)},
    "example3": {(): (25.0, 26.0, 27.0, 28.0),
                 (1,): (17.0, 18.0, 19.0, 20.0),
                 (2,): (15.0, 16.0, 17.0, 18.0)},
}
AWGN_TARGETS = {"example1": (7.0, 11.0), "example2": (12.0, 12.0),
                "example3": (8.5, 10.5)}


def _sweep(code, label, channel, grid, s, **kw):
    cfg = SimConfig(code=code, channel=channel, snr_db=tuple(grid),
                    side_info=tuple(s), label=label, **kw)
    return run_sim(cfg)


@_criterion(5)
def test_criterion_5_awgn_gaps(ex1_code, ex2_code, ex3_code):
    t0 = time.perf_counter()
    codes = {"example1": ex1_code, "example2": ex2_code, "example3": ex3_code}
    parts = []
    ok = True
    for name, code in codes.items():
        grids = AWGN_GRIDS[name]
        base = _sweep(code, name, "awgn", grids[()], (), **AWGN_BUDGET)
        gaps = []
        for s in ((1,), (2,)):
            res = _sweep(code, name, "awgn", grids[s], s, **AWGN_BUDGET)
            gaps.append(si_gain_from_curves(base, res, 1e-4))
        t1, t2 = AWGN_TARGETS[name]
        ok &= abs(gaps[0] - t1) <= 1.0 and abs(gaps[1] - t2) <= 1.0
        parts.append(f"{name} {gaps[0]:.2f}/{gaps[1]:.2f} dB (expect ~{t1:g}/{t2:g})")
    elapsed = time.perf_counter() - t0
    _record(5, ok,
            f"AWGN gaps at SER 1e-4, tolerance +-1 dB: {'; '.join(parts)} "
            f"({elapsed:.0f}s)")


# ---- 6: Rayleigh diversity and gap growth ----

RAYLEIGH_EX1 = {(): ((32.0, 36.0, 40.0, 44.0), (30.0, 46.0)),
                (1,): ((24.0, 28.0, 32.0, 36.0), (22.0, 38.0)),
                (2,): ((20.0, 24.0, 28.0, 32.0), (18.0, 34.0))}


@_criterion(6)
def test_criterion_6_rayleigh_diversity_and_gaps(ex1_code, ex2_code):
    t0 = time.perf_counter()
    results = {}
    slopes = {}
    for s, (grid, window) in RAYLEIGH_EX1.items():
        res = _sweep(ex1_code, "example1", "rayleigh", grid, s,
                     min_errors=300, max_trials=10_000_000, seed=11, workers=1)
        results[s] = res
        slopes[s] = diversity_slope(res, window)
    ok = all(abs(sl - 2.0) <= 0.3 for sl in slopes.values())
    gap1 = si_gain_from_curves(results[()], results[(1,)], 1e-4)
    gap2 = si_gain_from_curves(results[()], results[(2,)], 1e-4)
    ok &= abs(gap1 - 8.5) <= 1.5 and abs(gap2 - 13.0) <= 1.5

    res2 = _sweep(ex2_code, "example2", "rayleigh",
                  (44.0, 48.0, 52.0, 56.0, 60.0), (),
                  min_errors=300, max_trials=4_000_000, seed=11, workers=1)
    slope2 = diversity_slope(res2, (42.0, 62.0))
    ok &= abs(slope2 - 1.0) <= 0.3
    elapsed = time.perf_counter() - t0
    _record(6, ok,
            f"example1 Rayleigh slopes "
            f"{'/'.join(f'{slopes[s]:.2f}' for s in ((), (1,), (2,)))} (expect 2+-0.3), "
            f"gaps {gap1:.2f}/{gap2:.2f} dB (expect 8.5/13 +-1.5); "
            f"example2 slope {slope2:.2f} (expect 1+-0.3) ({elapsed:.0f}s)")


# ---- 7: prime splitting vs an independent oracle ----

@_criterion(7)
def test_criterion_7_splitting_matches_brute_oracle(ex1_code, ex2_code, ex3_code,
                                                    cyclo_code, maxreal_code):
    t0 = time.perf_counter()
    fields = [c.field for c in (ex1_code, ex2_code, ex3_code, cyclo_code,
                                maxreal_code)]
    checked = 0
    for field in fields:
        brute = BRUTE_ORACLES[field.family]
        conductor = field.param if field.family != "quadratic" else None
        for p in sympy.primerange(2, 200):
            p = int(p)
            info = classify_prime(field, p)
            want = brute(field, p)
            assert (info.kind, info.e, info.f, info.h) == want, (field.name, p)
            assert info.e * info.f * info.h == field.n, (field.name, p)
            if conductor is None or conductor % p:
                ideals = prime_ideals_above(field, p)
                assert sum(q.ramification * q.inertia for q in ideals) == field.n
                assert all(q.norm == p ** q.inertia for q in ideals)
                assert all((q.ramification, q.inertia, len(ideals)) == want[1:]
                           for q in ideals), (field.name, p)
            checked += 1
    elapsed = time.perf_counter() - t0
    _record(7, elapsed < 5.0,
            f"splitting type of every prime below 200 in all 5 preset fields "
            f"matches the residue/order oracle, as do the prime ideals above it; "
            f"sum(e_i*f_i) = n throughout "
            f"({checked} primes, {elapsed:.1f}s)")


# ---- 8: stacked-module codes keep the exact gain ----

@_criterion(8)
def test_criterion_8_module_codes_hit_six_db():
    t0 = time.perf_counter()
    field = quadratic_field(-1)
    p5 = prime_ideals_above(field, 5)[0]
    p13 = prime_ideals_above(field, 13)[0]
    one = field.one
    shear = field.element((1, 1))
    cases = [
        ("m=1 identity", build_index_code(field, [p5, p13], [[one]])),
        ("m=1 scaled", build_index_code(field, [p5, p13], [[shear]])),
        ("m=2 identity", build_index_code(field, [p5], [[1, 0], [0, 1]])),
        ("m=2 shear", build_index_code(field, [p5], [[one, shear], [field.zero, one]])),
        ("m=2 two primes", build_index_code(field, [p5, p13], [[1, 0], [0, 1]])),
    ]
    worst = 0.0
    gains = 0
    for label, okc in cases:
        sets = [s for k in (1, 2) for s in combinations(range(1, len(okc.primes) + 1), k)]
        for s in sets:
            rep = side_info_gain(okc, s)
            worst = max(worst, abs(rep.gamma_db - SIX_DB))
            gains += 1
    # finite cross-checks where the constellation is small enough
    oracle = conftest.pair_scan_min_distance
    ok1 = cases[0][1]
    assert (min_distance(ok1, ()) == side_info_gain(ok1, (1,)).d0_sq
            == oracle(ok1, ()))
    for s in ((1,), (2,)):
        assert (min_distance(ok1, s) == side_info_gain(ok1, s).ds_sq
                == oracle(ok1, s))
    for _, okc in cases[2:4]:
        assert (min_distance(okc, ()) == side_info_gain(okc, (1,)).d0_sq
                == oracle(okc, ()))
    elapsed = time.perf_counter() - t0
    _record(8, worst < 1e-9,
            f"{gains} gains across Z[i] module codes (m=1 and m=2, mixed and "
            f"unmixed generators) all equal {SIX_DB:.4f} dB/bit/dim "
            f"(max deviation {worst:.1e}, {elapsed:.1f}s)")


# ---- 9: worker count never changes the data ----

@_criterion(9)
def test_criterion_9_worker_count_determinism(ex1_code, tmp_path):
    t0 = time.perf_counter()
    matched = []
    for channel, grid, s in (("awgn", (12.0, 16.0), (2,)),
                             ("rayleigh", (20.0, 28.0), ())):
        files = []
        for workers in (1, 3):
            res = _sweep(ex1_code, "det", channel, grid, s,
                         min_errors=150, max_trials=200_000, seed=11,
                         workers=workers)
            path = tmp_path / f"w{workers}_{curve_filename('det', channel, tuple(s))}"
            write_curve_csv(path, res)
            files.append(path.read_bytes())
        assert files[0] == files[1], channel
        matched.append(channel)
    elapsed = time.perf_counter() - t0
    _record(9, True,
            f"byte-identical CSVs from 1-worker and 3-worker runs "
            f"({' and '.join(matched)}, same seed, {elapsed:.0f}s)")
