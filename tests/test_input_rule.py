"""The one input rule at every integer and real array boundary of codec and sim, and the
command line's inputs: config files and the --snr and --sets strings.

Each boundary takes an int64 or float64 array, or anything that is one entry for entry: a
list of Python or numpy numbers of the right shape.  A bool is never an int or a real, even
inside a list, where numpy reads [True, 1] as two ints.  The plain tests pin inputs that were
accepted or crashed before; the properties mutate one entry of a valid input on example1 and
check that the call refuses it with InvalidArgument or gives what the clean array gives.  The
command-line properties check that every run ends in exit 0, 1 or 3, never in 2 or a traceback.
"""

import contextlib
import copy
import io
import json
import math
import operator
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedex import cli, load_code, ml_detect, side_info_gain, sim
from latticedex.cli import main, spec_from_preset
from latticedex.codec import IndexCode, Message
from latticedex.errors import InvalidArgument
from latticedex.sim import SimConfig, SimResult

_BIG = 10 ** 400  # past the float range, as JSON may hold it


def _cfg(code, snr_db):
    return SimConfig(code=code, channel="awgn", snr_db=snr_db, workers=1)


# ---- the inputs that were accepted or crashed ----

def test_a_bool_among_the_coordinates_is_refused(ex1_code):
    rows = ex1_code.coords_matrix.tolist()
    i, j = next((i, j) for i, r in enumerate(rows) for j, v in enumerate(r) if v == 1)
    rows[i][j] = True  # the same coset as 1: the code hashed like the built one
    with pytest.raises(InvalidArgument, match="integer array of shape"):
        IndexCode(ex1_code.field, ex1_code.primes, rows)


def test_a_bool_among_the_point_indices_is_refused(ex1_code):
    for bad in ([True, 1], [1, np.True_]):
        with pytest.raises(InvalidArgument, match=r"integers in \[0, 55\)"):
            ex1_code.message_residues(bad)


def test_point_index_takes_integer_rows_as_a_list(ex1_code):
    rows = ex1_code.coords_matrix
    assert np.array_equal(ex1_code.point_index(rows.tolist()), np.arange(ex1_code.size))
    assert np.array_equal(ex1_code.point_index(rows.astype(np.int32)), np.arange(ex1_code.size))
    assert ex1_code.point_index(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    bad = rows.tolist()
    bad[3][0] = True
    with pytest.raises(InvalidArgument, match="integer array of shape"):
        ex1_code.point_index(bad)


def test_point_index_refuses_bool_and_float_rows(ex1_code):
    # bool rows were matched to points ([0, 49, 49]); float rows gave -1
    rows = ex1_code.coords_matrix
    for bad in (rows[:3].astype(bool), rows.astype(np.float64), rows + 0.5):
        with pytest.raises(InvalidArgument, match="integer array of shape"):
            ex1_code.point_index(bad)


def test_point_index_refuses_other_shapes(ex1_code):
    # a 1-D row raised IndexError and three columns a numpy ValueError
    rows = ex1_code.coords_matrix
    for bad in (rows[0], rows[0].tolist(), np.hstack([rows, rows[:, :1]]), rows[:, :, None], 7,
                None, "ab", [[1, 2], [3]]):
        with pytest.raises(InvalidArgument, match="integer array of shape"):
            ex1_code.point_index(bad)


def test_an_snr_past_the_float_range_is_refused(ex1_code):
    # float(10**400) raised OverflowError in SimConfig and in ml_detect
    with pytest.raises(InvalidArgument, match="snr values must be numbers"):
        _cfg(ex1_code, (_BIG,))
    with pytest.raises(InvalidArgument, match="snr values must be numbers"):
        _cfg(ex1_code, (10.0, -_BIG))
    with pytest.raises(InvalidArgument, match="snr"):
        ml_detect(ex1_code, np.zeros(2), (), snr=_BIG)
    # an int is a real number: Python or numpy, in a tuple or an array
    assert _cfg(ex1_code, (10, np.int64(12))).snr_db == (10.0, 12.0)
    assert _cfg(ex1_code, np.array([10, 12])).snr_db == (10.0, 12.0)
    assert ml_detect(ex1_code, [0, 0], (), snr=2**70) == ex1_code.zero_message()


def test_simulate_refuses_a_config_snr_past_the_float_range(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"field": {"family": "quadratic", "param": 5}, "primes": ['
                   '{"generator": [-1, 2]}, {"generator": [3, 2]}], '
                   f'"snr_db": [{_BIG}]}}')
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert "snr values must be numbers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---- one property per boundary: one entry of a valid input mutated ----

_MUTANTS = {"True": True, "np.True_": np.True_, "fraction": 1.5, "string": "3", "None": None,
            "2**70": 2**70, "nested": None, "dropped": None}
_REAL_MUTANTS = {**_MUTANTS, "nan": math.nan, "inf": -math.inf}


def _mutated(data, value, real):
    """value (a number, or a list of numbers or of lists of numbers) with one entry mutated."""
    kind = data.draw(st.sampled_from(sorted(_REAL_MUTANTS if real else _MUTANTS)))
    if not isinstance(value, list):
        return {"nested": [value], "dropped": []}.get(kind, _REAL_MUTANTS[kind])
    value = row = copy.deepcopy(value)
    while isinstance(row[0], list):
        row = row[data.draw(st.integers(0, len(row) - 1))]
    j = data.draw(st.integers(0, len(row) - 1))
    if kind == "dropped":
        del row[j]
    else:
        row[j] = [row[j]] if kind == "nested" else _REAL_MUTANTS[kind]
    return value


def _clean(value, integer):
    """value as an int64 or float64 array when every entry is such a number (no bool), else
    None: then a boundary must refuse it."""
    obj = np.array(value, dtype=object)
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if any(isinstance(v, (bool, np.bool_)) or not isinstance(v, kinds) for v in obj.flat):
        return None
    if integer and not all(-2**63 <= v < 2**63 for v in obj.flat):
        return None
    return obj.astype(np.int64 if integer else np.float64)


def _outcome(call, value):
    try:
        return call(value)
    except InvalidArgument:
        return InvalidArgument


def _agrees(call, value, integer, same=np.array_equal):
    """call(value) refuses with InvalidArgument, or gives what the clean array gives; a value
    with no clean array is refused.  Any other exception fails the test."""
    got, clean = _outcome(call, value), _clean(value, integer)
    if clean is None:
        assert got is InvalidArgument, value
        return
    want = _outcome(call, clean)
    assert (got is InvalidArgument) == (want is InvalidArgument), value
    assert got is InvalidArgument or same(got, want), value


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_index_code_coordinates_property(ex1_code, data):
    code = ex1_code
    rows = _mutated(data, code.coords_matrix.tolist(), real=False)
    _agrees(lambda x: IndexCode(code.field, code.primes, x).coords_matrix, rows, True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_point_index_rows_property(ex1_code, data):
    rows = ex1_code.coords_matrix.tolist()
    picked = data.draw(st.lists(st.sampled_from(rows + [[1, 0], [7, -3]]), min_size=1,
                                max_size=6))
    _agrees(ex1_code.point_index, _mutated(data, picked, real=False), True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_point_indices_property(ex1_code, data):
    code = ex1_code
    idx = data.draw(st.lists(st.integers(0, code.size - 1), min_size=1, max_size=6))
    _agrees(code.message_residues, _mutated(data, idx, real=False), True)
    i = _mutated(data, data.draw(st.integers(0, code.size - 1)), real=False)
    _agrees(code.message_from_index, i, True, same=operator.eq)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_side_information_residues_property(ex1_code, data):
    code = ex1_code
    good = code.message_from_index(data.draw(st.integers(0, code.size - 1)))
    k = data.draw(st.sampled_from([1, 2]))
    res = _mutated(data, list(good.residues[k - 1]), real=False)

    def group(r):
        residues = list(good.residues)
        residues[k - 1] = r
        return code.subcode_indices((k,), Message(tuple(residues)))
    _agrees(group, res, True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ml_detect_property(ex1_code, data):
    code = ex1_code
    i = data.draw(st.integers(0, code.size - 1))
    y = (code.gamma * code.embedded[i] + data.draw(st.sampled_from([0.0, 0.3]))).tolist()
    h = data.draw(st.sampled_from([[1.0, 0.5], [2, 1]]))
    eq = operator.eq
    _agrees(lambda v: ml_detect(code, v, (), snr=4.0), _mutated(data, y, real=True), False, eq)
    _agrees(lambda v: ml_detect(code, y, (), h=v), _mutated(data, h, real=True), False, eq)
    snr = _mutated(data, data.draw(st.sampled_from([0.5, 4, 10.0])), real=True)
    _agrees(lambda v: ml_detect(code, y, (), snr=v), snr, False, eq)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sim_config_snr_grid_property(ex1_code, data):
    grid = data.draw(st.lists(st.sampled_from([-4, 0, 2.5, 8, 12.0, 20]), min_size=1,
                              max_size=4, unique=True))
    grid = _mutated(data, sorted(grid), real=True)
    _agrees(lambda g: _cfg(ex1_code, g).snr_db, grid, False, same=operator.eq)


_SET_MUTANTS = {"True": True, "np.True_": np.True_, "fraction": 1.5, "string": "1", "None": None,
                "2**70": 2**70, "zero": 0, "K+1": None, "nested": None}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_side_information_set_property(ex1_code, data):
    """One entry of a side-information set mutated, or the whole set given as an int, None or a
    string (an int used to raise TypeError, and "" read as S = {}): refused with InvalidArgument
    by every call that takes S, or the clean set's result."""
    code, k = ex1_code, len(ex1_code.primes)
    s = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=3))
    kind = data.draw(st.sampled_from(sorted(_SET_MUTANTS) + ["whole set"]))
    if kind == "whole set":
        bad = data.draw(st.sampled_from([5, None, "", "1", "12"]))
    else:
        bad, j = list(s), data.draw(st.integers(0, len(s) - 1))
        bad[j] = {"K+1": k + 1, "nested": [s[j]]}.get(kind, _SET_MUTANTS[kind])
    eq = operator.eq
    for call, same in ((lambda v: side_info_gain(code, v), eq),
                       (code.subcode_indices, np.array_equal),
                       (lambda v: ml_detect(code, [0.0, 0.0], v), eq),
                       (lambda v: SimConfig(code, "awgn", (10.0,), side_info=v).side_info, eq)):
        got = _outcome(call, bad)
        assert got is InvalidArgument or same(got, _outcome(call, s)), (kind, bad)


# ---- the command line: a config file, --snr and --sets, each mutated ----

_CONFIG = {**spec_from_preset("example1").to_dict(), "label": "ex", "out_dir": "out",
           "side_info_sets": [[], [1]], "snr_db": [10.0]}
_TINY = ["--trials", "4096", "--workers", "1"]  # one chunk per point, in this process
_KEY_MUTANTS = {"bool": True, "float": 1.5, "string": "x", "None": None, "2**70": 2**70}


def _run(argv, where):
    """main(argv) run in the directory where, which must end in exit 0, 1 or 3 with no traceback
    on stderr; any exception but SystemExit escapes, as the command would end in a traceback."""
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
    finally:
        os.chdir(cwd)
    assert status in (0, 1, 3) and "Traceback" not in err.getvalue(), (argv, status, err)
    return status


def _no_sweep(config):
    """run_sim with no trial run: a --snr grid of 10^4 points must not take a chunk each."""
    return SimResult(config.label, config.channel, config.side_info, config.seed, "", "", ())


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_config_file_property(ex1_code, data):
    doc = copy.deepcopy(_CONFIG)
    key = data.draw(st.sampled_from(sorted(doc) + ["unknown"]))
    kind = data.draw(st.sampled_from(sorted(_KEY_MUTANTS) + ["nested", "dropped"]))
    if key == "unknown":
        doc["snr"] = [10.0]
    elif kind == "dropped":
        del doc[key]
    else:
        doc[key] = [doc[key]] if kind == "nested" else _KEY_MUTANTS[kind]
    with tempfile.TemporaryDirectory() as where:
        with open(os.path.join(where, "cfg.json"), "w") as fh:
            json.dump(doc, fh)
        for argv in (["design", "--config", "cfg.json"], ["analyze", "--config", "cfg.json"],
                     ["simulate", "--config", "cfg.json"] + _TINY):
            status = _run(argv, where)
            if argv[0] == "design" and status == 0 and key not in ("field", "primes"):
                spec = cli.ExperimentSpec.from_dict(doc)  # a sweep key: the code is the same
                path = os.path.join(where, spec.out_dir, f"{spec.label}_code.json")
                assert load_code(path).content_hash() == ex1_code.content_hash(), (key, kind)


@settings(max_examples=100, deadline=None)
@given(text=st.text(alphabet="0123456789.,:-eEinfa ", max_size=16))
def test_snr_flag_property(text):
    with tempfile.TemporaryDirectory() as where, mock.patch.object(sim, "run_sim", _no_sweep):
        _run(["simulate", "--preset", "example1", f"--snr={text}", "--sets", "[[]]"] + _TINY,
             where)


@settings(max_examples=80, deadline=None)
@given(text=st.one_of(st.text(alphabet='[]0123456789,-. "al', max_size=16), st.just("all"),
                      st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=4).map(
                          json.dumps)))
def test_sets_flag_property(text):
    with tempfile.TemporaryDirectory() as where:
        _run(["analyze", "--preset", "example1", f"--sets={text}"], where)
        _run(["simulate", "--preset", "example1", f"--sets={text}", "--snr", "10"] + _TINY, where)
