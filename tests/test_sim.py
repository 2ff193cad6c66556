import itertools
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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
from conftest import residue_indices_by_reduction
from latticedex import codec, sim
from latticedex.cli import main as cli_main
from latticedex.errors import Infeasible
from latticedex.numberfield import linalg
from latticedex.presets import preset_code, preset_snr_grid
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
    # 10 ** (4000 / 10) is past the largest float: the sweep's amplitude raised OverflowError
    for grid in ((math.nan,), (math.inf,), (-math.inf,), (8.0, math.nan, 12.0),
                 (8.0, math.inf), (4000.0,), (1e308,), (10.0, 4000.0)):
        with pytest.raises(InvalidArgument, match="must be finite"):
            _cfg(ex1_code, snr_db=grid)
    assert _cfg(ex1_code, snr_db=(-4000.0, 3000.0)).snr_db == (-4000.0, 3000.0)
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
    # workers=1.5 failed in run_sim, workers=True ran as 1 worker, min_errors="5"
    # failed on "<"; min_errors=True and max_trials=2.5 were accepted
    for key, bad in (("workers", 1.5), ("workers", 2.0), ("workers", True), ("workers", "2"),
                     ("min_errors", True), ("min_errors", "5"), ("min_errors", 5.0),
                     ("max_trials", 2.5), ("max_trials", None), ("max_trials", False)):
        with pytest.raises(InvalidArgument, match=key):
            _cfg(ex1_code, **{key: bad})
    cfg = _cfg(ex1_code, workers=np.int64(2), min_errors=np.int32(5), max_trials=np.uint16(9))
    assert (cfg.workers, cfg.min_errors, cfg.max_trials) == (2, 5, 9)
    assert all(type(v) is int for v in (cfg.workers, cfg.min_errors, cfg.max_trials))
    assert _cfg(ex1_code, workers=None).workers is None


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


def test_worker_count_does_not_change_results(ex1_code, ex2_code, maxreal_code, cyclo_code,
                                             tmp_path):
    # calls with 1, 2, 3 and again 2 workers, interleaved over codes of 49 to 14641 points and
    # both channels: one pool serves every code and is replaced when the count changes.  The
    # sphere search decides maxreal-K3 on S = {} and cyclo-K4 on S = {1} (1331 points a group),
    # brute force maxreal-K3 on S = {1} (169 points a group).  Each grid has a point that stops
    # on its first chunk and one whose chunks span more than one task.
    small = {"awgn": (10.0, 22.0, 24.0, 26.0), "rayleigh": (10.0, 32.0, 36.0, 40.0, 44.0)}
    large = {"awgn": (10.0, 20.0, 28.0), "rayleigh": (10.0, 28.0, 36.0)}
    cases = [(ex1_code, (), small), (ex2_code, (), small), (maxreal_code, (), large),
             (maxreal_code, (1,), large), (cyclo_code, (1,), large)]
    want = {}
    for workers in (1, 2, 3, 2):
        for code, s, grids in cases:
            for channel, grid in grids.items():
                res = run_sim(_cfg(code, channel=channel, side_info=s, snr_db=grid,
                                   min_errors=60, max_trials=10 * sim.CHUNK, workers=workers))
                path = tmp_path / f"w{workers}.csv"
                write_curve_csv(path, res)
                key = (code.content_hash(), s, channel)
                if workers == 1:
                    trials = [p.trials for p in res.points]
                    assert trials[0] == sim.CHUNK and max(trials) > sim._TASK_CHUNKS * sim.CHUNK
                    want[key] = path.read_bytes()
                else:
                    assert path.read_bytes() == want[key], (workers, key)


def _alive(pid):
    """Whether pid names a process that has not ended (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _pids():
    """Pids of this process's live children; reaps the ended ones."""
    return {p.pid for p in multiprocessing.active_children()}


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_pool_workers_end_with_the_interpreter():
    script = ("import multiprocessing as mp; from latticedex import preset_code, sim; "
              "sim.run_sim(sim.SimConfig(code=preset_code('example1'), channel='awgn', "
              "snr_db=(10.0, 20.0), max_trials=8192, workers=2)); "
              "print(*[p.pid for p in mp.active_children()])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(sim.__file__)), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    pids = [int(v) for v in out.split()]
    assert len(pids) == 2
    assert [pid for pid in pids if _alive(pid)] == []


def test_a_dead_worker_is_replaced_with_a_fresh_pool(ex1_code):
    cfg = _cfg(ex1_code, snr_db=(10.0, 22.0, 24.0), min_errors=60, max_trials=10 * sim.CHUNK,
               workers=2)
    first = run_sim(cfg)
    old = _pids()
    assert len(old) == 2
    victim = min(old)
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while victim in _pids():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert run_sim(cfg).points == first.points
    new = _pids()
    assert len(new) == 2 and not new & old


def test_calls_from_several_threads(ex1_code):
    # the kept pool serves one call at a time; a call with another worker count waits
    # for it instead of shutting it down under the other call
    cfgs = [_cfg(ex1_code, snr_db=(10.0, 22.0, 24.0), min_errors=60, max_trials=10 * sim.CHUNK,
                 workers=w) for w in (1, 2, 3)]
    want = run_sim(cfgs[0]).points
    with ThreadPoolExecutor(max_workers=4) as threads:
        assert [r.points for r in threads.map(run_sim, cfgs[1:] * 4)] == [want] * 8


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must see the patched _run_chunk")
def test_a_worker_death_mid_call_reruns_the_sweep_once(maxreal_code, monkeypatch, tmp_path):
    # a worker killed mid-call breaks the kept pool: the sweep reruns once, on a new pool, to
    # the same result.  A second death raises.  Neither leaves a worker behind, nor the call's
    # context file, which lives in TMPDIR while the call runs.
    tmp, kills = tmp_path / "tmp", tmp_path / "kills"
    tmp.mkdir()
    kills.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    cfg = dict(snr_db=(10.0, 24.0), min_errors=2000, max_trials=10 * sim.CHUNK)
    want = run_sim(_cfg(maxreal_code, workers=1, **cfg)).points
    assert want[1].trials > 5 * sim.CHUNK  # chunk 5 of point 1 is read
    before, me, run_chunk, sweep, listed = _pids(), os.getpid(), sim._run_chunk, sim._sweep, []

    def die(ctx, point_idx, chunk_idx):  # one death per file in kills
        if os.getpid() != me and (point_idx, chunk_idx) == (1, 5):
            try:
                os.remove(next(kills.iterdir()))
            except (StopIteration, FileNotFoundError):
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return run_chunk(ctx, point_idx, chunk_idx)

    def listing(*args):
        listed.append([p.name for p in tmp.iterdir()])
        return sweep(*args)

    monkeypatch.setattr(sim, "_run_chunk", die)
    monkeypatch.setattr(sim, "_sweep", listing)
    workers = 3 if sim._KEPT[1] == 2 else 2  # a pool started after the patch
    (kills / "0").touch()
    assert run_sim(_cfg(maxreal_code, workers=workers, **cfg)).points == want
    (kills / "1").touch()
    (kills / "2").touch()
    with pytest.raises(BrokenProcessPool):
        run_sim(_cfg(maxreal_code, workers=workers, **cfg))
    assert list(kills.iterdir()) == [] and len(listed) == 4
    assert all(len(names) == 1 and names[0].startswith("latticedex-") for names in listed)
    assert list(tmp.iterdir()) == [] and not _pids() - before


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must see the patched pickle.load")
def test_each_worker_gets_a_call_context_once(ex1_code, monkeypatch, tmp_path):
    # workers forked during a call start with its context; a worker kept from an earlier
    # call loads the context from the call's file once, however many tasks it runs
    log, load = tmp_path / "loads", pickle.load

    def logged(fh):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return load(fh)

    monkeypatch.setattr(pickle, "load", logged)
    workers = 3 if sim._KEPT[1] == 2 else 2  # a pool started after the patch
    cfg = dict(snr_db=(10.0, 22.0, 24.0), min_errors=60, max_trials=10 * sim.CHUNK,
               workers=workers)
    want = run_sim(_cfg(ex1_code, **cfg)).points
    assert not log.exists()
    for seed in (8, 7):
        res = run_sim(_cfg(ex1_code, seed=seed, **cfg)).points
        pids = log.read_text().split()
        log.unlink()
        assert len(pids) == len(set(pids)) and 1 <= len(pids) <= workers, pids
    assert res == want


class _Trap:
    """Unpickling it makes the file at path: what a planted pickle could run instead."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def _blocks(fn, *args):
    """Whether fn(*args) is still running after 10 s, in a daemon thread."""
    done = threading.Event()

    def run():
        try:
            fn(*args)
        except OSError:
            pass
        done.set()

    threading.Thread(target=run, daemon=True).start()
    return not done.wait(10)


def test_a_worker_unpickles_only_its_call_s_own_file(ex1_code, monkeypatch, tmp_path):
    # a task still queued when its call ends finds the context file gone, and anyone may make
    # a file at that path: a worker unpickles only the file the call made
    monkeypatch.setattr(sim, "_CALL", (None, None))
    marker, path, held = tmp_path / "unpickled", tmp_path / "latticedex-ctx", tmp_path / "held"
    ctx = sim._build_ctx(_cfg(ex1_code, snr_db=(10.0,)))
    path.write_bytes(pickle.dumps(ctx))
    st = os.stat(path)
    ident, task = (st.st_dev, st.st_ino), (0, 0, 1, 1)
    os.rename(path, held)  # the call's file, alive under another name: its inode is not reused
    path.write_bytes(pickle.dumps(_Trap(marker)))
    with pytest.raises(FileNotFoundError, match="gone"):
        sim._pool_chunks(next(sim._KEYS), str(path), ident, *task)
    path.unlink()
    path.symlink_to(held)  # the call's own file, reached through a symlink
    with pytest.raises(OSError):
        sim._pool_chunks(next(sim._KEYS), str(path), ident, *task)
    path.unlink()
    os.mkfifo(path)  # a worker that waited for its writer would serve no call again
    blocked = _blocks(sim._pool_chunks, next(sim._KEYS), str(path), ident, *task)
    if blocked:
        os.close(os.open(path, os.O_WRONLY))  # lets the blocked reader go
    assert not blocked
    path.unlink()
    os.rename(held, path)
    real = os.geteuid()
    monkeypatch.setattr(os, "geteuid", lambda: real + 1)  # the file of another user
    with pytest.raises(FileNotFoundError, match="gone"):
        sim._pool_chunks(next(sim._KEYS), str(path), ident, *task)
    monkeypatch.undo()
    monkeypatch.setattr(sim, "_CALL", (None, None))
    assert sim._pool_chunks(next(sim._KEYS), str(path), ident, *task) == \
        sim._run_chunks(ctx, *task)
    assert not marker.exists()


def test_a_file_remade_at_the_path_after_a_call_is_never_unpickled(ex1_code, monkeypatch,
                                                                     tmp_path):
    # on the kept pool: a task of a call that has returned, replayed under a key no worker
    # holds, fails in the worker before it unpickles the file now at the call's path, and
    # leaves the worker able to serve the next call
    tmp, marker, held, calls = tmp_path / "tmp", tmp_path / "unpickled", tmp_path / "held", []
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    kept_sweep = sim._kept_sweep

    def hold(config, ctx, call, workers):  # keeps the file's inode from being reused
        calls.append(call)
        os.link(call[1], held)
        return kept_sweep(config, ctx, call, workers)

    monkeypatch.setattr(sim, "_kept_sweep", hold)
    cfg = dict(snr_db=(10.0, 22.0, 24.0), min_errors=60, max_trials=10 * sim.CHUNK)
    want = run_sim(_cfg(ex1_code, workers=1, **cfg)).points
    assert run_sim(_cfg(ex1_code, workers=2, **cfg)).points == want
    (key, path, ident), = calls
    assert not os.path.exists(path)
    with open(path, "xb") as fh:
        pickle.dump(_Trap(marker), fh)
    for _ in range(4):  # more tasks than workers: every worker gets one, or runs two
        err = sim._KEPT[2].submit(sim._pool_chunks, next(sim._KEYS), path, ident,
                                  0, 0, 1, 1).exception(timeout=120)
        assert isinstance(err, FileNotFoundError)
    assert not marker.exists()
    os.remove(path)
    monkeypatch.setattr(sim, "_kept_sweep", kept_sweep)
    assert run_sim(_cfg(ex1_code, workers=2, **cfg)).points == want


def test_a_sweep_reduces_its_side_sublattice_once(monkeypatch):
    # the exit's lambda and the sphere search read the code's one record of the side sublattice
    # (IndexCode.side_lattice): the first context on a code and S makes it, reducing its Gram
    # with LLL once, and a second context on the same code and S makes nothing.  Fresh codes:
    # the session fixtures may hold records already
    assert not hasattr(sim, "lll_gram")  # sim reduces no lattice itself
    cyclo, ex1 = preset_code("cyclo-K4"), preset_code("example1")
    calls, lll_gram = [], linalg.lll_gram

    def counted(gram):
        calls.append(1)
        return lll_gram(gram)

    monkeypatch.setattr(linalg, "lll_gram", counted)
    monkeypatch.setattr(codec, "lll_gram", counted)
    for code, s, searched in ((cyclo, (), True), (cyclo, (1,), True), (ex1, (), False),
                              (cyclo, (1, 2, 3, 4), False)):
        calls.clear()
        ctx = sim._build_ctx(_cfg(code, side_info=s))
        once = int(ctx["cand"].shape[1] > 1)
        assert len(calls) == once, (code, s)
        assert (ctx["lattice"] is not None) == searched
        again = sim._build_ctx(_cfg(code, side_info=s))
        assert len(calls) == once and again["ball"] == ctx["ball"], (code, s)
        if once:  # d from lambda as before, less its rounding
            lam = linalg.shortest_nonzero(code.side_lattice(s).gram)[0]
            want = code.gamma * math.sqrt(lam / 2)
            assert want * (1 - 1e-9) < ctx["ball"][1] < want, (code, s)


def test_the_search_context_holds_no_code(cyclo_code):
    # what a pool worker loads per call: the point lookup, not the IndexCode behind it
    ctx = sim._build_ctx(_cfg(cyclo_code, channel="rayleigh", snr_db=(20.0,)))
    assert ctx["lattice"]["lookup"] is cyclo_code.point_index
    assert b"IndexCode" not in pickle.dumps(ctx, pickle.HIGHEST_PROTOCOL)


def _groups_by_scan(code, s):
    """Oracle of the group table: the points of each w_S, found by one scan of the residue
    digits of every point (residue_indices_by_reduction), w_S in row-major order (w_1 most
    significant), each group's points ascending."""
    ks = [k - 1 for k in s]
    found = {}
    for i, digits in enumerate(map(tuple, residue_indices_by_reduction(code)[:, ks].tolist())):
        found.setdefault(digits, []).append(i)
    return np.array([found[w] for w in itertools.product(*(
        range(code.alphabet_sizes[k]) for k in ks))])


def _check_groups(code, s):
    """side_groups on S is the scan's table; so are a sweep's cand and pid on a plain code."""
    want = _groups_by_scan(code, s)
    assert np.array_equal(code.side_groups(s), want), s
    if code.is_plain:
        ctx = sim._build_ctx(_cfg(code, side_info=s))
        assert np.array_equal(ctx["cand"], want), s
        assert (ctx["pid"][want] == np.arange(want.shape[0])[:, None]).all(), s
        assert ctx["pid"].shape == (code.size,)


@pytest.mark.parametrize("s", [(), (1,), (1, 2), (1, 2, 3, 4)])
def test_side_information_groups_match_a_scan_per_group(cyclo_code, s):
    # the rows of the group table, the message grid with S's axes first, are what a scan of
    # every point's residue digits gives: every group, in order, its points ascending
    _check_groups(cyclo_code, s)


@pytest.mark.parametrize("fixture", ["maxreal_code", "zi_m2k2"])
def test_side_information_groups_match_a_scan_on_every_set(request, fixture):
    # three axes of 13 on maxreal-K3; two axes of N(p)^m = 25 and 169 on the m = 2 module
    # code, where only side_groups is checked, as run_sim takes plain codes alone
    code = request.getfixturevalue(fixture)
    for s in _sets(code):
        _check_groups(code, s)


@pytest.mark.parametrize("fixture", ["maxreal_code", "cyclo_code", "zi_m2k2"])
def test_subcode_indices_match_a_scan(request, fixture):
    # the group of a fixed w_S is the message grid at its digits on S: the scan's row of it,
    # on S = {}, each single message and the full set, for seeded random messages
    code = request.getfixturevalue(fixture)
    k = len(code.primes)
    rng = np.random.default_rng(11)
    for s in [(), *((j,) for j in range(1, k + 1)), tuple(range(1, k + 1))]:
        want = _groups_by_scan(code, s)
        assert np.array_equal(code.subcode_indices(s), want[0]), s
        for i in rng.integers(0, code.size, size=3).tolist():
            fixed = code.message_from_index(i)
            got = code.subcode_indices(s, fixed)
            assert np.array_equal(got, next(row for row in want if i in row)), (s, i)
            assert code.message_index(fixed) == i


def test_the_group_table_pickles_alike_for_any_group_count(cyclo_code):
    # each group is a row of one (G, size) table, so the context a pooled call pickles holds
    # the same arrays for 121 groups of 121 points and for 14641 groups of one point; one
    # dict of array slices per group made the second 3.46 MB against 1.77 MB.  pid takes the
    # smallest integer type that holds the group count, uint8 against uint16 here, so the
    # sizes are compared without it
    sizes = []
    for s in ((1, 2), (1, 2, 3, 4)):
        ctx = sim._build_ctx(_cfg(cyclo_code, side_info=s))
        G = math.prod(cyclo_code.alphabet_sizes[k - 1] for k in s)
        assert ctx["cand"].shape == (G, cyclo_code.size // G)
        assert ctx["W"].shape == (G, 2 * cyclo_code.dimension + 1, cyclo_code.size // G)
        assert ctx["cand"].size == cyclo_code.size
        P = (cyclo_code.gamma * cyclo_code.embedded)[ctx["cand"]].transpose(0, 2, 1)
        assert np.array_equal(ctx["W"], np.concatenate([P * P, P, (P * P).sum(axis=1)[:, None]],
                                                       axis=1))  # W[g] = [P*P; P; |P|^2]
        sizes.append(len(pickle.dumps(ctx, pickle.HIGHEST_PROTOCOL)) - ctx["pid"].nbytes)
    assert abs(sizes[1] - sizes[0]) <= 0.01 * sizes[0], sizes


@pytest.mark.parametrize("s, counts", [
    ((1, 2, 3, 4), {"awgn": [(0, 8192)] * 2, "rayleigh": [(0, 8192)] * 2}),
    ((1, 2), {"awgn": [(2789, 4096), (1453, 4096)], "rayleigh": [(2117, 4096), (912, 4096)]})])
def test_grouped_sweeps_are_pinned(cyclo_code, s, counts):
    # fixed-seed curves on 14641 groups of one point and on 121 groups of 121 points
    for channel, snr in (("awgn", (4.0, 8.0)), ("rayleigh", (8.0, 12.0))):
        res = run_sim(_cfg(cyclo_code, channel=channel, snr_db=snr, side_info=s, min_errors=50,
                           max_trials=8192, seed=11))
        assert [(p.errors, p.trials) for p in res.points] == counts[channel], channel


_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def test_sweeps_replay_the_benchmark_reference_counts(ex1_code, ex2_code, ex3_code,
                                                      maxreal_code):
    # the benchmark's sweep calls (bench/workloads.py SWEEPS) for one seed, on one worker:
    # every call of sweep-small, and sweep-large's maxreal-K3 S = {1}, which brute force
    # decides, give the reference (snr, errors, trials) the benchmark checks
    seed = 1
    ref = json.loads(_REFERENCE.read_text())["sims"]
    codes = {"example1": ex1_code, "example2": ex2_code, "example3": ex3_code}
    calls = [("sweep-small", name, channel, s, tuple(preset_snr_grid(name, channel)), 200, 4)
             for name in codes for channel in ("awgn", "rayleigh") for s in ((), (1,), (2,))]
    codes["maxreal-K3"] = maxreal_code
    calls += [("sweep-large", "maxreal-K3", "awgn", (1,), (14.0, 20.0, 28.0), 100, 2),
              ("sweep-large", "maxreal-K3", "rayleigh", (1,), (16.0, 28.0, 36.0), 100, 2)]
    small = {f"{name}/{channel}/S{side_info_tag(s)}"
             for group, name, channel, s, *_ in calls if group == "sweep-small"}
    assert small == set(ref["sweep-small"][str(seed)])
    for group, name, channel, s, snr, min_errors, chunks in calls:
        res = run_sim(_cfg(codes[name], channel=channel, snr_db=snr, side_info=s,
                           min_errors=min_errors, max_trials=chunks * sim.CHUNK, seed=seed))
        key = f"{name}/{channel}/S{side_info_tag(s)}"
        want = ref[group][str(seed)][key]
        assert [[p.snr_db, p.errors, p.trials] for p in res.points] == want, (group, key)


def test_a_worker_count_above_the_bound_starts_no_pool(ex1_code, monkeypatch, tmp_path):
    # a pool starts all its workers at the first task: 100000 would fork 100000 interpreters
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.delenv("LATTICEDEX_THREADS", raising=False)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", refuse)
    top = sim._CPU_WORKERS * (os.cpu_count() or 1)
    assert resolve_workers(top) == top
    for n in (top + 1, 100_000):
        with pytest.raises(Infeasible, match="workers"):
            resolve_workers(n)
        with pytest.raises(Infeasible):
            run_sim(_cfg(ex1_code, workers=n))
    assert cli_main(["simulate", "--preset", "example1", "--snr", "10", "--trials", "4096",
                     "--workers", "100000", "--out-dir", str(tmp_path)]) == 3
    monkeypatch.setenv("LATTICEDEX_THREADS", "2")  # the bound applies after the cap
    assert resolve_workers(100_000) == 2


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
    res = residue_indices_by_reduction(code)[:, [k - 1 for k in s]]
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


def _sets(code):
    k = len(code.primes)
    return [s for r in range(k + 1) for s in itertools.combinations(range(1, k + 1), r)]


_PRESETS = {"ex1_code": "example1", "ex2_code": "example2", "ex3_code": "example3",
            "maxreal_code": "maxreal-K3", "cyclo_code": "cyclo-K4"}


@pytest.fixture(scope="module")
def untiled_decisions():
    """_untiled_detect of each (preset, channel, fade layout, S, SNR point), computed once
    for both tile sizes of test_tiled_detection_matches_untiled_reference."""
    return {}


@pytest.mark.parametrize("tile_bytes", [sim._TILE_BYTES, 4096])
@pytest.mark.parametrize("fixture", list(_PRESETS))
def test_tiled_detection_matches_untiled_reference(request, monkeypatch, untiled_decisions,
                                                    fixture, tile_bytes):
    # 4096 bytes forces several tiles per group, ragged last tiles and one-row tiles.  Each
    # chunk is decided twice: searching the groups from the crossover up (brute force below
    # it and for the trials the search leaves), and searching every group.  On cyclo-K4 the
    # first 512 trials are checked: the untiled reference holds trials x 14641 scores.
    monkeypatch.setattr(sim, "_TILE_BYTES", tile_bytes)
    code = request.getfixturevalue(fixture)
    keep = 512 if code.size > 4096 else sim.CHUNK
    for channel, per_complex in (("awgn", False), ("rayleigh", False), ("rayleigh", True)):
        grid = preset_snr_grid(_PRESETS[fixture], channel)
        for s in _sets(code):
            ctx = sim._build_ctx(_cfg(code, channel=channel, side_info=s,
                                      snr_db=(grid[0], grid[-1]), fade_per_complex=per_complex))
            with monkeypatch.context() as m:
                m.setattr(sim, "_SEARCH_MIN", 1)
                searched = dict(ctx, lattice=sim._search_lattice(code, s, ctx["cand"]))
            for point in (0, 1):
                raw, y, h = sim._draw_chunk(ctx, point, 0)
                a = ctx["amps"][point]
                key = (fixture, channel, per_complex, s, point)
                if key not in untiled_decisions:
                    untiled_decisions[key] = _untiled_detect(code, s, a, raw[:keep], y[:keep],
                                                             None if h is None else h[:keep])
                want = untiled_decisions[key]
                for c in (ctx, searched):
                    det = sim._detect(c, a, y, h, ctx["pid"][raw])[:keep]
                    assert np.array_equal(det, want), (channel, per_complex, s, point)
                if not s and point == 0:
                    assert np.count_nonzero(want != raw[:keep]) > 0  # real decisions


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_one_point_groups_are_decided_without_scoring(cyclo_code, monkeypatch, channel):
    # on S = {1,2,3,4} each of the 14641 groups is one point, the sent one's: brute force
    # returns it with no score product, and agrees with the untiled reference
    ctx = sim._build_ctx(_cfg(cyclo_code, channel=channel, side_info=(1, 2, 3, 4),
                              snr_db=(8.0,)))
    assert ctx["cand"].shape == (cyclo_code.size, 1)
    raw, y, h = sim._draw_chunk(ctx, 0, 0)
    a = ctx["amps"][0]
    products, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kw: products.append(args) or
                        matmul(*args, **kw))
    det = sim._detect(ctx, a, y, h, ctx["pid"][raw])
    monkeypatch.undo()
    assert products == []
    assert np.array_equal(det, raw)
    keep = 512
    want = _untiled_detect(cyclo_code, (1, 2, 3, 4), a, raw[:keep], y[:keep],
                           None if h is None else h[:keep])
    assert np.array_equal(det[:keep], want)


def test_unsettled_trials_fall_back_to_brute_force(maxreal_code, monkeypatch):
    # the search leaves a trial to brute force when y lies so far past the shaping region
    # that no stored point is inside its Babai radius, when its tile passes the row cap, and
    # when a zero fade makes its basis singular
    brute, ran = sim._brute, []

    def recorded(ctx, a, y, h, pids):
        ran.append(y.copy())
        return brute(ctx, a, y, h, pids)

    monkeypatch.setattr(sim, "_brute", recorded)
    for channel in ("awgn", "rayleigh"):
        ctx = sim._build_ctx(_cfg(maxreal_code, channel=channel, snr_db=(20.0,)))
        assert ctx["lattice"] is not None  # 2197 points: above the crossover
        raw, y, h = sim._draw_chunk(ctx, 0, 0)
        a = ctx["amps"][0]
        # (y, h, row cap, trials the search must leave); unforced, it leaves 168 and 397
        cases = [(3.0 * y, h, sim._SEARCH_ROWS, sim.CHUNK // 2), (y, h, 64, sim.CHUNK // 2)]
        if h is not None:
            dead = h.copy()
            dead[:64, 0] = 0.0
            cases.append((y, dead, sim._SEARCH_ROWS, 64))
        for yy, hh, rows, forced in cases:
            monkeypatch.setattr(sim, "_SEARCH_ROWS", rows)
            ran.clear()
            det = sim._detect(ctx, a, yy, hh, ctx["pid"][raw])
            assert np.array_equal(det, _untiled_detect(maxreal_code, (), a, raw, yy, hh))
            brute_rows = np.concatenate(ran)
            assert forced <= brute_rows.shape[0] < sim.CHUNK, (channel, rows, brute_rows.shape)
            if hh is not h:  # every trial with a zero fade
                assert {tuple(r) for r in yy[:64]} <= {tuple(r) for r in brute_rows}


def test_search_points_are_proven_in_int64_once(maxreal_code, monkeypatch):
    # _search forms first point + V @ basis.T with |v_i| <= bound[i]: the exact
    # bound max|coordinate| + sum |basis| * bound, in Python ints, is the proof's
    cand = np.arange(maxreal_code.size)[None]
    lat = sim._search_lattice(maxreal_code, (), cand)
    top = np.abs(maxreal_code.coords_matrix).max(axis=0).tolist()
    proof = max(c + sum(abs(b) * int(v) for b, v in zip(row, lat["bound"].tolist()))
                for c, row in zip(top, lat["basis"].tolist()))
    monkeypatch.setattr(linalg, "INT64_MAX", proof)
    assert sim._search_lattice(maxreal_code, (), cand) is not None
    monkeypatch.setattr(linalg, "INT64_MAX", proof - 1)
    with pytest.raises(Infeasible, match="^a point of the sphere search leaves the int64"):
        sim._search_lattice(maxreal_code, (), cand)


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_chunk_memory_does_not_grow_with_the_code(maxreal_code, cyclo_code, channel):
    for code in (maxreal_code, cyclo_code):
        ctx = sim._build_ctx(_cfg(code, channel=channel, snr_db=(14.0,)))
        tracemalloc.start()
        try:
            sim._run_chunk(ctx, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (code, peak)



# ---- the packing-ball exit ----

@pytest.mark.parametrize("fixture", list(_PRESETS))
def test_the_exit_skips_only_trials_decided_as_sent(request, monkeypatch, fixture):
    # at the first and last grid points, on S = {} and every single S, both channels and both
    # fade layouts: every trial _open passes over is decided as sent by the untiled reference
    # (the first 512 on cyclo-K4, whose reference holds trials x 14641 scores), the open ones
    # are received as in the whole chunk, and _run_chunk counts what _detect counts on it all
    code = request.getfixturevalue(fixture)
    keep = 512 if code.size > 4096 else sim.CHUNK
    for channel, per_complex in (("awgn", False), ("rayleigh", False), ("rayleigh", True)):
        grid = preset_snr_grid(_PRESETS[fixture], channel)
        for s in [(), *((k,) for k in range(1, len(code.primes) + 1))]:
            ctx = sim._build_ctx(_cfg(code, channel=channel, side_info=s,
                                      snr_db=(grid[0], grid[-1]), fade_per_complex=per_complex))
            for point in (0, 1):
                verdicts, real = [], sim._open
                with monkeypatch.context() as m:
                    m.setattr(sim, "_open", lambda *args: verdicts.append(real(*args)) or
                              verdicts[-1])
                    opened = sim._draw_chunk(ctx, point, 0, open_only=True)
                raw, y, h = sim._draw_chunk(ctx, point, 0)
                for part, whole in zip(opened, (raw, y, h)):
                    assert part is whole is None or np.array_equal(part, whole[verdicts[0]])
                a, skip = ctx["amps"][point], np.flatnonzero(~verdicts[0][:keep])
                want = _untiled_detect(code, s, a, raw[skip], y[skip],
                                       None if h is None else h[skip])
                assert np.array_equal(want, raw[skip]), (channel, per_complex, s, point)
                det = sim._detect(ctx, a, y, h, ctx["pid"][raw])
                assert sim._run_chunk(ctx, point, 0) == np.count_nonzero(det != raw)
                if point == 1:  # the top of the grid: most trials need no decision
                    assert skip.shape[0] > keep // 2, (channel, per_complex, s)


@pytest.mark.parametrize("fixture", list(_PRESETS))
def test_the_exit_boundary_is_half_the_packing_distance(request, fixture):
    # noise of (1 - 1e-12) a*hmin*d/2 toward a nearest neighbour of the sent point is passed
    # over, and decided as sent; (1 + 1e-12) a*hmin*d/2 is kept open, and so is (1 - 1e-14)
    # a*hmin*d/2, whose margin is within the rounding of its scores.  d is a lower bound on
    # the distance of two points of a group, within 1e-9 of the nearest pair found
    code = request.getfixturevalue(fixture)
    for s in [(), *((k,) for k in range(1, len(code.primes) + 1))]:
        for channel, fade in (("awgn", 1.0), ("rayleigh", 1.0), ("rayleigh", 0.25)):
            ctx = sim._build_ctx(_cfg(code, channel=channel, side_info=s, snr_db=(20.0,)))
            a, d, group = ctx["amps"][0], ctx["ball"][1], ctx["cand"][0]
            P = code.gamma * code.embedded[group]
            dist = np.linalg.norm(P[:64, None] - P[None], axis=2)
            dist[np.arange(dist.shape[0]), np.arange(dist.shape[0])] = np.inf
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            assert d < dist[i, j] < d * (1 + 1e-9), (s, dist[i, j], d)
            toward = (P[j] - P[i]) / dist[i, j]
            z = np.array([[1 - 1e-12], [1 + 1e-12], [1 - 1e-14]]) * (a * fade * d / 2) * toward
            h = None if channel == "awgn" else np.full_like(z, fade)
            assert sim._open(ctx, a, z, h).tolist() == [False, True, True], (s, channel, fade)
            y = a * (P[i] if h is None else h * P[i]) + z
            want = _untiled_detect(code, s, a, group[[i]], y[:1], None if h is None else h[:1])
            assert want.tolist() == [group[i]]


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_one_point_groups_skip_every_trial(ex1_code, cyclo_code, monkeypatch, channel):
    # a group of one point is decided as sent whatever the noise: d is infinite, so not one
    # trial of a chunk reaches the detector, at -10 dB as at 10 dB
    sizes, detect = [], sim._detect
    monkeypatch.setattr(sim, "_detect", lambda ctx, a, y, h, pids: sizes.append(y.shape[0]) or
                        detect(ctx, a, y, h, pids))
    for code, s in ((ex1_code, (1, 2)), (cyclo_code, (1, 2, 3, 4))):
        ctx = sim._build_ctx(_cfg(code, channel=channel, side_info=s, snr_db=(-10.0, 10.0)))
        assert ctx["cand"].shape[1] == 1 and ctx["ball"][1] == math.inf
        for point in (0, 1):
            assert sim._draw_chunk(ctx, point, 0, open_only=True)[0].shape == (0,)
            assert sim._run_chunk(ctx, point, 0) == 0
    assert set(sizes) <= {0}


def test_an_snr_whose_scores_could_overflow_is_refused(ex1_code, maxreal_code, tmp_path):
    # 3080 dB ran, and example1's scores overflowed: 3,129 errors in 4,096 AWGN trials.  The
    # largest SNR admitted, found by bisection, gives finite scores on both channels, on
    # brute force (example1) and the sphere search (maxreal-K3), and no error
    for grid in ((3080.0,), (10.0, 3080.0)):
        with pytest.raises(InvalidArgument, match="detector scores could overflow"):
            _cfg(ex1_code, snr_db=grid)
    assert cli_main(["simulate", "--preset", "example1", "--snr", "3080", "--trials", "4096",
                     "--workers", "1", "--sets", "[[]]", "--out-dir", str(tmp_path)]) == 1
    for code in (ex1_code, maxreal_code):
        lo, hi = 3000.0, 3080.0  # admitted, refused
        while hi - lo > 1e-9:
            try:
                lo = _cfg(code, snr_db=((lo + hi) / 2,)).snr_db[0]
            except InvalidArgument:
                hi = (lo + hi) / 2
        for channel in ("awgn", "rayleigh"):
            ctx = sim._build_ctx(_cfg(code, channel=channel, snr_db=(lo,)))
            a = ctx["amps"][0]
            with np.errstate(over="raise", invalid="raise"):
                raw, y, h = sim._draw_chunk(ctx, 0, 0)
                X, rows = sim._features(a, y[:512], None if h is None else h[:512])
                assert np.isfinite(X @ ctx["W"][0][rows]).all()
                assert np.array_equal(sim._detect(ctx, a, y, h, ctx["pid"][raw]), raw)
                assert sim._run_chunk(ctx, 0, 0) == 0

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


def test_ml_detect_refuses_non_finite_input(ex1_code):
    # scored as they are, a NaN y decodes to message 0 and an infinite y or h to a warning
    for y, h in (((math.nan, 0.0), None), ((math.inf, 0.0), None), ((0.0, 0.0), (math.inf, 1.0))):
        with pytest.raises(InvalidArgument, match="finite"):
            ml_detect(ex1_code, y, (), h=h)


def test_ml_detect_refuses_input_whose_scores_could_overflow(ex1_code, maxreal_code):
    # with only a RuntimeWarning, the first case decoded 42 of example1's 55 noiseless points
    # wrongly and y = [1e308, -1e308] at snr 1 gave the zero message; at snr 1e300 every
    # noiseless point still decodes, its scores finite, on brute force (example1) and the
    # sphere search (maxreal-K3, S = {})
    for code in (ex1_code, maxreal_code):
        y = code.gamma * code.embedded[5]
        for snr, h, scale in ((1e308, None, 1e154), (1.0, None, 1e300), (1.0, [1e300] * 3, 1.0),
                              (0.0, [1e160] * 3, 1e160)):
            with pytest.raises(InvalidArgument, match="not to overflow"):
                ml_detect(code, y * scale, (), snr=snr, h=None if h is None else h[:len(y)])
        with np.errstate(over="raise", invalid="raise"):
            for i in range(0, code.size, 1 + code.size // 60):
                pt = code.points[i]
                got = ml_detect(code, 1e150 * code.gamma * code.embedded[i], (), snr=1e300)
                assert got == pt.message, i
    with pytest.raises(InvalidArgument, match="not to overflow"):
        ml_detect(ex1_code, [1e308, -1e308], ())


@pytest.mark.parametrize("fixture", ["ex1_code", "ex2_code", "ex3_code", "maxreal_code",
                                     "cyclo_code"])
def test_ml_detect_matches_untiled_reference(request, fixture):
    # each trial's own sent message is the fixed side information, so w_S is mostly nonzero;
    # ml_detect builds only that message's group, one row of 121, 11 or 1 points where
    # run_sim's cyclo-K4 table holds 121, 1331 or 14641 rows
    code = request.getfixturevalue(fixture)
    sets = [(1, 2), (1, 2, 3), (1, 2, 3, 4)] if fixture == "cyclo_code" else _sets(code)
    snr = 10.0 ** (14.0 / 10.0)
    trials = 96
    for channel in ("awgn", "rayleigh"):
        for s in sets:
            ctx = sim._build_ctx(_cfg(code, channel=channel, side_info=s, snr_db=(14.0,)))
            raw, y, h = sim._draw_chunk(ctx, 0, 0)
            raw, y = raw[:trials], y[:trials]
            h = None if h is None else h[:trials]
            want = _untiled_detect(code, s, math.sqrt(snr), raw, y, h)
            got = [code.message_index(ml_detect(code, y[t], s, fixed=code.message_from_index(raw[t]),
                                                snr=snr, h=None if h is None else h[t]))
                   for t in range(trials)]
            assert got == want.tolist(), (channel, s)
            if s == sets[0]:  # the check sees real decisions
                assert np.count_nonzero(want != raw) > 0


def test_ml_detect_matches_untiled_reference_on_module_codes(zi_m2k2, zi_1105):
    # a module code over Z[i] (m = 2, 65^2 points) and an m = 1 code with a non-identity
    # generator (5*13*17 points) are searched like the plain code: the trials the search
    # settles agree with the untiled reference, and ml_detect does on every trial
    codes = [zi_m2k2, zi_1105]
    rng = np.random.default_rng(7)
    trials = 64
    for code in codes:
        assert code.size >= sim._SEARCH_MIN and not code.is_plain
        ctx = sim._groups(code, (), np.arange(code.size)[None])
        assert ctx["lattice"] is not None
        enorm = code.gamma * code.embedded
        dim = code.embedded.shape[1]
        raw = rng.integers(code.size, size=trials)
        tx = enorm[raw]
        for snr_db, h in ((14.0, None), (20.0, rng.rayleigh(1.0 / math.sqrt(2.0), (trials, dim)))):
            a = 10.0 ** (snr_db / 20.0)
            z = rng.standard_normal((trials, dim)) / math.sqrt(dim)
            y = a * (tx if h is None else h * tx) + z
            want = _untiled_detect(code, (), a, raw, y, h)
            searched = sim._search(ctx, a, y, h, np.zeros(trials, dtype=np.int64))
            settled = searched >= 0
            assert settled.any(), (code.size, snr_db)
            assert np.array_equal(searched[settled], want[settled]), (code.size, snr_db)
            got = [code.message_index(ml_detect(code, y[t], (), snr=a * a,
                                                h=None if h is None else h[t]))
                   for t in range(trials)]
            assert got == want.tolist(), (code.size, snr_db)
            assert np.count_nonzero(want != raw) > 0  # the check sees real decisions


def test_ml_detect_refuses_bad_input_types(ex1_code):
    # a bool or a string SNR, and y or h holding bools, strings or complex numbers; numpy
    # reads [True, 1.0] as two floats, so a bool mixed with numbers is checked for too
    y = np.zeros(2)
    for snr in ("3", None, True, np.True_, 1.0 + 0j):
        with pytest.raises(InvalidArgument, match="snr"):
            ml_detect(ex1_code, y, (), snr=snr)
    for bad in (["a", "b"], [True, False], [1.0 + 0j, 0.0], [[1.0], [2.0, 3.0]], [True, 1.0],
                [True, 0.0], (0, False), [1.0, np.True_], [np.array(True), 1.0]):
        with pytest.raises(InvalidArgument, match="^y "):
            ml_detect(ex1_code, bad, ())
        with pytest.raises(InvalidArgument, match="^h "):
            ml_detect(ex1_code, y, (), h=bad)
    assert ml_detect(ex1_code, [0, 0], (), snr=np.float64(2.0)) == ex1_code.zero_message()
    for good in ([1, 2], [1.0, 2], np.array([1.0, 2.0]), [np.float64(1.0), np.int32(2)]):
        ml_detect(ex1_code, good, (), h=good)


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
