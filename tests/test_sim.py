import itertools
import math
import tracemalloc

import numpy as np
import pytest

from latticedex import (
    InvalidArgument,
    SimConfig,
    confidence_interval,
    curve_filename,
    diversity_slope,
    ml_detect,
    read_curve_csv,
    run_sim,
    si_gain_from_curves,
    write_curve_csv,
)
from latticedex import sim
from latticedex.sim import SimPoint, _draw_fades, resolve_workers, side_info_tag


def _cfg(code, **kw):
    base = dict(code=code, channel="awgn", snr_db=(12.0,), side_info=(),
                min_errors=200, max_trials=50_000, seed=7, workers=1)
    base.update(kw)
    return SimConfig(**base)


# ---- configuration validation ----

def test_config_validation(ex1_code):
    with pytest.raises(InvalidArgument):
        _cfg(ex1_code, channel="bsc")
    with pytest.raises(InvalidArgument):
        _cfg(ex1_code, snr_db=())
    with pytest.raises(InvalidArgument):
        _cfg(ex1_code, snr_db=(10.0, 10.0))
    with pytest.raises(InvalidArgument):
        _cfg(ex1_code, snr_db=(12.0, 10.0))
    with pytest.raises(InvalidArgument):
        _cfg(ex1_code, min_errors=0)
    with pytest.raises(InvalidArgument):
        _cfg(ex1_code, max_trials=0)
    with pytest.raises(InvalidArgument):
        _cfg(ex1_code, workers=0)
    with pytest.raises(InvalidArgument):
        _cfg(ex1_code, side_info=(3,))
    for grid in ((math.nan,), (math.inf,), (-math.inf,), (8.0, math.nan, 12.0),
                 (8.0, math.inf)):
        with pytest.raises(InvalidArgument):
            _cfg(ex1_code, snr_db=grid)
    # ["a"] raised a bare ValueError and [True, 2] ran at 1 and 2 dB
    for grid in (("a",), (True, 2), (None,), ("10",), (8.0, [9.0])):
        with pytest.raises(InvalidArgument, match="snr values must be numbers"):
            _cfg(ex1_code, snr_db=grid)
    assert _cfg(ex1_code, snr_db=(8, np.float32(9.5), np.int64(11))).snr_db == (8.0, 9.5, 11.0)
    # a negative seed failed in numpy's generator, after the code was built
    for seed in (-1, True, 1.5, "3", None):
        with pytest.raises(InvalidArgument, match="seed"):
            _cfg(ex1_code, seed=seed)
    assert type(_cfg(ex1_code, seed=np.int64(3)).seed) is int


def test_config_digest_tracks_inputs(ex1_code, ex2_code):
    a = _cfg(ex1_code).digest()
    assert a == _cfg(ex1_code).digest()
    assert a != _cfg(ex1_code, seed=8).digest()
    assert a != _cfg(ex2_code).digest()
    # worker count must not enter the digest
    assert a == _cfg(ex1_code, workers=3).digest()


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("LATTICEDEX_THREADS", raising=False)
    assert resolve_workers(4) == 4
    assert resolve_workers(None) >= 1
    monkeypatch.setenv("LATTICEDEX_THREADS", "2")
    assert resolve_workers(8) == 2
    assert resolve_workers(1) == 1
    assert resolve_workers(None) <= 2
    for cap in ("0", "-2", "abc", "1.5"):
        monkeypatch.setenv("LATTICEDEX_THREADS", cap)
        with pytest.raises(InvalidArgument, match="LATTICEDEX_THREADS"):
            resolve_workers(4)


# ---- determinism ----

def test_rerun_is_bit_identical(ex1_code):
    r1 = run_sim(_cfg(ex1_code, snr_db=(10.0, 14.0)))
    r2 = run_sim(_cfg(ex1_code, snr_db=(10.0, 14.0)))
    assert r1 == r2


def test_worker_count_does_not_change_results(ex1_code, tmp_path):
    r1 = run_sim(_cfg(ex1_code, snr_db=(10.0, 14.0), workers=1))
    r3 = run_sim(_cfg(ex1_code, snr_db=(10.0, 14.0), workers=3))
    assert r1.points == r3.points
    p1, p3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    write_curve_csv(p1, r1)
    write_curve_csv(p3, r3)
    assert p1.read_bytes() == p3.read_bytes()


# ---- statistical sanity ----

def test_full_side_information_gives_zero_errors(ex1_code):
    cfg = _cfg(ex1_code, side_info=(1, 2), snr_db=(0.0,), min_errors=1,
               max_trials=20_000)
    res = run_sim(cfg)
    assert res.points[0].errors == 0
    assert res.points[0].trials == 20_480  # runs to the trial cap, chunked


def test_high_snr_is_error_free(ex1_code):
    res = run_sim(_cfg(ex1_code, snr_db=(40.0,), min_errors=1, max_trials=8192))
    assert res.points[0].errors == 0


def test_side_information_reduces_error_rate(ex1_code):
    base = run_sim(_cfg(ex1_code, snr_db=(14.0,), min_errors=500, max_trials=200_000))
    s2 = run_sim(_cfg(ex1_code, side_info=(2,), snr_db=(14.0,), min_errors=500,
                      max_trials=200_000))
    assert s2.points[0].ser < base.points[0].ser


def test_ser_decreases_with_snr(ex1_code):
    res = run_sim(_cfg(ex1_code, snr_db=(6.0, 12.0, 18.0), min_errors=400,
                       max_trials=400_000))
    sers = [p.ser for p in res.points]
    assert sers[0] > sers[1] > sers[2]


def test_rayleigh_runs_and_is_deterministic(ex1_code):
    cfg = _cfg(ex1_code, channel="rayleigh", snr_db=(16.0,), min_errors=300)
    a, b = run_sim(cfg), run_sim(cfg)
    assert a.points == b.points
    assert a.points[0].errors >= 300


def test_fade_draws_unit_power_and_pairing(ex1_code, ex2_code, cyclo_code, maxreal_code):
    # the place of each coordinate on Q(sqrt5), Q(sqrt-5), Q(zeta5) and Q(zeta7+)
    for code, places in ((ex1_code, [0, 1]), (ex2_code, [0, 0]), (cyclo_code, [0, 0, 1, 1]),
                         (maxreal_code, [0, 1, 2])):
        n = code.field.n
        for seed, per_complex in ((1, False), (2, True)):
            ctx = sim._build_ctx(_cfg(code, channel="rayleigh", fade_per_complex=per_complex))
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            h = _draw_fades(ctx, rng)
            assert h.shape == (sim.CHUNK, n)
            assert abs((h * h).mean() - 1.0) < 0.05
            # per coordinate no two columns share a draw; per complex place
            # the (Re, Im) columns of a place do, and only they
            for i, j in itertools.combinations(range(n), 2):
                shared = per_complex and places[i] == places[j]
                assert np.array_equal(h[:, i], h[:, j]) == shared, (code.field, per_complex, i, j)


def test_fade_per_complex_changes_results(ex2_code):
    plain = run_sim(_cfg(ex2_code, channel="rayleigh", snr_db=(20.0,), min_errors=300))
    paired = run_sim(_cfg(ex2_code, channel="rayleigh", snr_db=(20.0,),
                          min_errors=300, fade_per_complex=True))
    assert plain.points != paired.points


@pytest.mark.parametrize("fixture, errors", [("ex2_code", (2255, 1510)),
                                             ("cyclo_code", (3573, 2703))])
def test_fade_per_complex_results_are_pinned(request, fixture, errors):
    # one fade per complex place, at a fixed seed: a wrong place map moves these counts
    res = run_sim(_cfg(request.getfixturevalue(fixture), channel="rayleigh", snr_db=(14.0, 18.0),
                       min_errors=50, max_trials=8192, seed=3, fade_per_complex=True))
    assert [(p.errors, p.trials) for p in res.points] == [(e, 4096) for e in errors]


# ---- chunk detection kernel ----

def _untiled_detect(code, s, a, raw, y, h):
    """Reference: one trials x candidates score matrix per side-information group."""
    enorm = code.gamma * code.embedded
    res = code.residue_indices[:, [k - 1 for k in s]]
    det = np.full(raw.shape[0], -1, dtype=np.int64)
    for key in {tuple(r) for r in res[raw]}:
        rows = np.flatnonzero((res[raw] == key).all(axis=1))
        cand = np.flatnonzero((res == key).all(axis=1))
        P = enorm[cand]
        if h is None:
            score = a * a * (P * P).sum(axis=1)[None, :] - 2.0 * a * (y[rows] @ P.T)
        else:
            hr = h[rows]
            score = a * a * ((hr * hr) @ (P * P).T) - 2.0 * a * ((y[rows] * hr) @ P.T)
        det[rows] = cand[np.argmin(score, axis=1)]
    return det


@pytest.mark.parametrize("tile_bytes", [sim._TILE_BYTES, 4096])
@pytest.mark.parametrize("fixture", ["ex1_code", "ex2_code", "ex3_code", "maxreal_code"])
def test_tiled_detection_matches_untiled_reference(request, monkeypatch, fixture, tile_bytes):
    # 4096 bytes forces several tiles per group, ragged last tiles and one-row tiles
    monkeypatch.setattr(sim, "_TILE_BYTES", tile_bytes)
    code = request.getfixturevalue(fixture)
    k = len(code.primes)
    sets = [s for r in range(k + 1) for s in itertools.combinations(range(1, k + 1), r)]
    for channel in ("awgn", "rayleigh"):
        for s in sets:
            ctx = sim._build_ctx(_cfg(code, channel=channel, side_info=s, snr_db=(14.0,)))
            raw, y, h = sim._draw_chunk(ctx, 0, 0)
            a = ctx["amps"][0]
            det = sim._detect(ctx, a, y, h, ctx["pid"][raw])
            assert np.array_equal(det, _untiled_detect(code, s, a, raw, y, h)), (channel, s)
            if not s:
                assert np.count_nonzero(det != raw) > 0  # the check sees real decisions


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_chunk_memory_does_not_grow_with_the_code(maxreal_code, channel):
    ctx = sim._build_ctx(_cfg(maxreal_code, channel=channel, snr_db=(14.0,)))
    tracemalloc.start()
    try:
        sim._run_chunk(ctx, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# ---- single-shot detection ----

def test_ml_detect_recovers_clean_codewords(ex1_code):
    for pt in ex1_code.points:
        y = ex1_code.gamma * ex1_code.embedded[pt.index]
        assert ml_detect(ex1_code, y, ()) == pt.message


def test_ml_detect_uses_side_information(ex1_code):
    pt = ex1_code.points[23]
    y = ex1_code.gamma * ex1_code.embedded[pt.index]
    got = ml_detect(ex1_code, y, (1,), fixed=pt.message)
    assert got == pt.message


def test_ml_detect_validates_shape(ex1_code):
    with pytest.raises(InvalidArgument):
        ml_detect(ex1_code, np.zeros(3), ())
    for h in (np.ones(1), np.ones(3), np.ones((2, 2)), 1.0):
        with pytest.raises(InvalidArgument):
            ml_detect(ex1_code, np.zeros(2), (), h=h)
    assert ml_detect(ex1_code, np.zeros(2), (), h=[1.0, 0.5]) == ex1_code.zero_message()
    for snr in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument):
            ml_detect(ex1_code, np.zeros(2), (), snr=snr)


@pytest.mark.parametrize("fixture", ["ex1_code", "ex2_code", "ex3_code", "maxreal_code"])
def test_ml_detect_matches_untiled_reference(request, fixture):
    # each trial's own sent message is the fixed side information, so w_S is mostly nonzero
    code = request.getfixturevalue(fixture)
    k = len(code.primes)
    snr = 10.0 ** (14.0 / 10.0)
    trials = 96
    for channel in ("awgn", "rayleigh"):
        for s in [s for r in range(k + 1) for s in itertools.combinations(range(1, k + 1), r)]:
            ctx = sim._build_ctx(_cfg(code, channel=channel, side_info=s, snr_db=(14.0,)))
            raw, y, h = sim._draw_chunk(ctx, 0, 0)
            raw, y = raw[:trials], y[:trials]
            h = None if h is None else h[:trials]
            want = _untiled_detect(code, s, math.sqrt(snr), raw, y, h)
            got = [code.message_index(ml_detect(code, y[t], s, fixed=code.message_from_index(raw[t]),
                                                snr=snr, h=None if h is None else h[t]))
                   for t in range(trials)]
            assert got == want.tolist(), (channel, s)
            if not s:
                assert np.count_nonzero(want != raw) > 0  # the check sees real decisions


# ---- intervals ----

def test_confidence_interval_contains_point_estimate():
    for errors, trials in ((0, 100), (3, 1000), (40, 1000), (500, 2000)):
        lo, hi = confidence_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0
    lo, hi = confidence_interval(0, 1000)
    assert lo == 0.0
    assert hi > 0.0  # Wilson keeps a nonzero upper bound at zero errors


def test_confidence_interval_shrinks_with_trials():
    lo1, hi1 = confidence_interval(50, 1000)
    lo2, hi2 = confidence_interval(500, 10_000)
    assert (hi2 - lo2) < (hi1 - lo1)


# ---- curve files and figures of merit ----

def test_curve_filename_tags():
    assert side_info_tag(()) == "none"
    assert side_info_tag((1, 3)) == "1-3"
    assert curve_filename("run", "awgn", ()) == "run_awgn_Snone.csv"
    assert curve_filename("ex", "rayleigh", (2,)) == "ex_rayleigh_S2.csv"


def test_curve_csv_round_trip(tmp_path, ex1_code):
    res = run_sim(_cfg(ex1_code, snr_db=(10.0, 12.0)))
    path = tmp_path / "curve.csv"
    write_curve_csv(path, res)
    pts = read_curve_csv(path)
    assert pts == res.points  # repr round-trip keeps floats exact
    header = path.read_text().splitlines()[0]
    assert header == "snr_db,side_info_set,errors,trials,ser,ci_low,ci_high,seed"


def _synthetic_curve(offset_db, slope):
    pts = []
    for snr in (10.0, 14.0, 18.0, 22.0, 26.0):
        ser = 10.0 ** (-slope * (snr - offset_db) / 10.0)
        pts.append(SimPoint(snr_db=snr, errors=1000, trials=int(1000 / ser),
                            ser=ser, ci_low=ser, ci_high=ser))
    return pts


def test_gain_from_synthetic_curves():
    base = _synthetic_curve(0.0, slope=1.0)
    shifted = _synthetic_curve(-6.0, slope=1.0)
    gain = si_gain_from_curves(base, shifted, 1e-2)
    assert math.isclose(gain, 6.0, abs_tol=1e-9)
    with pytest.raises(InvalidArgument):
        si_gain_from_curves(base, shifted, 1e-9)  # not bracketed
    with pytest.raises(InvalidArgument):
        si_gain_from_curves(base, shifted, 1.5)  # outside (0, 1)


def test_diversity_slope_recovers_synthetic_slope():
    curve = _synthetic_curve(0.0, slope=2.0)
    assert math.isclose(diversity_slope(curve, (10.0, 26.0)), 2.0, abs_tol=1e-9)


def test_diversity_slope_needs_three_big_points():
    curve = _synthetic_curve(0.0, slope=2.0)
    starved = [SimPoint(p.snr_db, 50, p.trials, p.ser, p.ci_low, p.ci_high)
               for p in curve]
    with pytest.raises(InvalidArgument):
        diversity_slope(starved, (10.0, 26.0))
    with pytest.raises(InvalidArgument):
        diversity_slope(curve, (10.0, 14.0))  # window holds only two points
