import json
import os
import subprocess
import sys
import time

import pytest

import latticedex
from conftest import points_csv_oracle
from latticedex import (InvariantViolation, SimConfig, build_index_code, codec, load_code,
                        quadratic_field, run_sim, write_curve_csv)
from latticedex.cli import (
    ExperimentSpec,
    _parse_sets,
    _parse_snr,
    build_from_spec,
    main,
    resolve_primes,
    spec_from_preset,
)
from latticedex.errors import Infeasible, InvalidArgument
from latticedex.presets import PRESETS, preset_field_and_primes, preset_names


# ---- spec plumbing ----

def test_experiment_spec_round_trip():
    spec = spec_from_preset("example1")
    again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec


def test_experiment_spec_rejects_unknown_keys():
    with pytest.raises(InvalidArgument):
        ExperimentSpec.from_dict({"label": "x", "snr": [10]})


def test_experiment_spec_checks_types():
    # a string snr grid was read one character at a time, "19" as 1 and 9 dB
    good = spec_from_preset("example1").to_dict()
    for key, value in (("snr_db", "19"), ("min_errors", "10"), ("seed", "x"),
                       ("seed", True), ("workers", 1.5), ("field", 5), ("primes", {}),
                       ("side_info_sets", "[[1]]"), ("fade_per_complex", 1),
                       ("label", None), ("enumeration_cap", 1e6)):
        with pytest.raises(InvalidArgument, match=key):
            ExperimentSpec.from_dict({**good, key: value})
    with pytest.raises(InvalidArgument):
        ExperimentSpec.from_dict([good])
    assert ExperimentSpec.from_dict({**good, "workers": None}).workers is None


def test_preset_is_its_config():
    for name in preset_names():
        spec = spec_from_preset(name)
        assert spec.field == PRESETS[name]["field"] and spec.primes == PRESETS[name]["primes"]
        spec.primes[0]["extra"] = 1  # a spec owns its copy of the preset data
        assert "extra" not in PRESETS[name]["primes"][0]


def test_build_from_spec_matches_preset(ex3_code):
    spec = spec_from_preset("example3")
    code = build_from_spec(spec)
    assert code.content_hash() == ex3_code.content_hash()


def test_resolve_primes_errors():
    field, _ = preset_field_and_primes("example2")
    with pytest.raises(InvalidArgument) as e:
        resolve_primes(field, [{"split_completely": 11}])  # 11 is inert
    assert "inert" in str(e.value)
    with pytest.raises(InvalidArgument) as e:
        resolve_primes(field, [{"above": 7, "index": 2}])
    assert "h=2" in str(e.value)
    with pytest.raises(InvalidArgument):
        resolve_primes(field, [{"nonsense": 3}])
    with pytest.raises(InvalidArgument):
        resolve_primes(field, ["7"])
    for selector in ({"above": "7"}, {"above": 7, "index": 1.0}, {"split_completely": None},
                     {"generator": [1]}, {"generator": [1, "2"]}, {"generator": 7}):
        with pytest.raises(InvalidArgument):
            resolve_primes(field, [selector])


def test_split_completely_combines_with_other_selectors():
    field = quadratic_field(5)
    primes = resolve_primes(field, [{"split_completely": 11}, {"above": 19}])
    code = build_index_code(field, primes)
    assert len(code.primes) == 3 and code.size == 11 * 11 * 19


def test_parse_snr():
    assert _parse_snr("10,12,14") == [10.0, 12.0, 14.0]
    assert _parse_snr("10:20:5") == [10.0, 15.0, 20.0]
    assert _parse_snr("10:11:0.5") == [10.0, 10.5, 11.0]
    with pytest.raises(InvalidArgument):
        _parse_snr("10:20")
    with pytest.raises(InvalidArgument):
        _parse_snr("10:20:-2")
    # "0:inf:1" last: it never returns where the range bounds go unchecked
    for text in ("10:20:inf", "nan:20:1", "0:inf:1"):
        with pytest.raises(InvalidArgument):
            _parse_snr(text)
    # these ended in a ValueError traceback
    for text in ("a", "10,x", "1:a:2"):
        with pytest.raises(InvalidArgument, match="not a number"):
            _parse_snr(text)


def _range_until_it_ends(start, stop, step):
    """The range loop before its bounds, for ranges that end."""
    grid, v = [], start
    while v <= stop + 1e-9:
        grid.append(round(v, 9))
        v += step
    return grid


def test_snr_ranges_are_bounded_and_keep_their_values(tmp_path):
    for a, b, c in [PRESETS[name]["snr"][ch] for name in PRESETS for ch in PRESETS[name]["snr"]]:
        assert _parse_snr(f"{a}:{b - 1}:{c}") == [float(v) for v in range(a, b, c)]
    for text, args in (("10:20:2", (10.0, 20.0, 2.0)), ("0:30:0.1", (0.0, 30.0, 0.1)),
                       ("-5:5:0.25", (-5.0, 5.0, 0.25)), ("0:9999:1", (0.0, 9999.0, 1.0))):
        assert repr(_parse_snr(text)) == repr(_range_until_it_ends(*args))
    assert len(_parse_snr("0:9999:1")) == 10_000
    # past 2**53 v += 1 stopped moving v: the grid grew until memory ran out
    for text in ("0:10000:1", "0:1e300:1", "1e20:1e20:1", "0:1:1e-300"):
        with pytest.raises(Infeasible, match="snr"):
            _parse_snr(text)
    t = time.perf_counter()
    assert main(["simulate", "--preset", "example1", "--snr", "0:1e300:1",
                 "--out-dir", str(tmp_path)]) == 3
    assert time.perf_counter() - t < 10 and not os.listdir(tmp_path)


def test_parse_sets():
    assert _parse_sets("[[],[1],[1,2]]", 2) == [[], [1], [1, 2]]
    assert _parse_sets("all", 2) == [[1], [2], [1, 2]]
    with pytest.raises(InvalidArgument):
        _parse_sets("not json", 2)
    with pytest.raises(InvalidArgument):
        _parse_sets("[1,2]", 2)


def test_a_side_information_set_named_twice_is_refused(tmp_path, capsys, monkeypatch):
    # [1,2] and [2,1] are one set: simulate ran its sweep twice and wrote its CSV twice, and
    # analyze printed its row twice.  Both refuse the list (exit 1), naming the set; simulate
    # before any sweep, from --sets or the config's side_info_sets alike
    import latticedex.cli as cli_mod

    def no_sweep(config):
        raise AssertionError("a sweep ran before the sets were checked")

    monkeypatch.setattr(cli_mod, "run_sim", no_sweep)
    out = tmp_path / "out"
    cases = (("[[1,2],[2,1]]", "[1, 2]"), ("[[1],[2],[1]]", "[1]"), ("[[],[2],[]]", "[]"),
             ("[[2,2],[2]]", "[2]"))
    simulate = ["simulate", "--preset", "example1", "--snr", "10", "--trials", "4096",
                "--workers", "1", "--out-dir", str(out)]
    for sets, named in cases:
        for argv in (simulate + ["--sets", sets], ["analyze", "--preset", "example1",
                                                   "--sets", sets]):
            capsys.readouterr()
            assert main(argv) == 1, argv
            got = capsys.readouterr()
            assert got.out == "", argv
            assert got.err == f"error: side-information set {named} is named twice\n", argv
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**spec_from_preset("example1").to_dict(), "snr_db": [10.0],
                                "max_trials": 4096, "workers": 1, "out_dir": str(out),
                                "side_info_sets": [[1], [], [1]]}))
    assert main(["simulate", "--config", str(path)]) == 1
    assert "side-information set [1] is named twice" in capsys.readouterr().err
    assert not out.exists()


# ---- exit codes ----

def test_missing_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_design_without_source_exits_1(capsys):
    assert main(["design"]) == 1
    assert "preset" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["design", "--config", str(tmp_path / "absent.json")]) == 1


def test_malformed_config_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["design", "--config", str(path)]) == 1
    path.write_text(json.dumps({"label": "x", "unknown_key": 1}))
    assert main(["design", "--config", str(path)]) == 1
    # a removed option is an unknown key like any other
    doc = spec_from_preset("example1").to_dict()
    doc["energy_radius_factor"] = 1.0
    path.write_text(json.dumps(doc))
    assert main(["design", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    # an int of 4301 digits, nesting past the recursion limit and a file that is not UTF-8
    # ended in ValueError, RecursionError and UnicodeDecodeError tracebacks
    for blob in (b'{"seed": ' + b"9" * 4301 + b"}", b"[" * 10**5 + b"]" * 10**5,
                 b"\xff\xfe{}"):
        path.write_bytes(blob)
        capsys.readouterr()
        assert main(["design", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (blob[:20], err)


def test_infeasible_design_exits_3(tmp_path, capsys):
    spec = spec_from_preset("example1")
    spec.enumeration_cap = 10
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert main(["design", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_oversized_enumeration_exits_3(monkeypatch, tmp_path, capsys):
    from latticedex.numberfield import linalg

    monkeypatch.setattr(linalg, "_ENUM_LIMIT", 20)
    assert main(["design", "--preset", "example1", "--out-dir", str(tmp_path)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_invariant_violation_exits_2(monkeypatch, capsys):
    import latticedex.cli as cli_mod

    def boom(args):
        raise InvariantViolation("made up for the exit-code path")

    # main() rebuilds the parser each call, so the stub is picked up
    monkeypatch.setattr(cli_mod, "cmd_presets", boom)
    assert cli_mod.main(["presets"]) == 2
    assert "invariant" in capsys.readouterr().err


def test_bad_simulate_arguments_exit_1(tmp_path, capsys):
    assert main(["simulate", "--preset", "example1", "--trials", "0",
                 "--out-dir", str(tmp_path)]) == 1
    assert main(["simulate", "--preset", "example1", "--min-errors", "0",
                 "--out-dir", str(tmp_path)]) == 1
    assert main(["simulate", "--preset", "example1", "--snr", "10:20",
                 "--out-dir", str(tmp_path)]) == 1
    assert main(["simulate", "--preset", "example1", "--snr", "1,2",
                 "--sets", "oops", "--out-dir", str(tmp_path)]) == 1
    for snr in ("nan", "8,nan,12", "inf"):
        assert main(["simulate", "--preset", "example1", "--snr", snr,
                     "--out-dir", str(tmp_path)]) == 1


def test_bad_seed_and_thread_cap_exit_1(tmp_path, capsys, monkeypatch):
    # both ended in a numpy or int() ValueError traceback after the build
    run = ["simulate", "--preset", "example1", "--snr", "10", "--trials", "4096",
           "--workers", "1", "--out-dir", str(tmp_path)]
    spec = spec_from_preset("example1").to_dict()
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({**spec, "seed": -1, "snr_db": [10.0]}))
    for argv in (run + ["--seed", "-1"], ["simulate", "--config", str(config), "--trials",
                                          "4096", "--out-dir", str(tmp_path)]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and "Traceback" not in err, err
    for cap in ("abc", "1.5"):
        monkeypatch.setenv("LATTICEDEX_THREADS", cap)
        assert main(run) == 1
        assert "LATTICEDEX_THREADS" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_bad_worker_settings_are_refused_before_the_build(tmp_path, capsys, monkeypatch):
    # a worker count or LATTICEDEX_THREADS that run_sim would refuse is refused before the
    # code is built: on a near-cap config the build costs seconds and hundreds of MB
    import latticedex.cli as cli_mod

    def no_build(spec):
        raise AssertionError("the code was built before the worker settings were checked")

    monkeypatch.setattr(cli_mod, "build_from_spec", no_build)
    run = ["simulate", "--preset", "example1", "--snr", "10", "--trials", "4096",
           "--out-dir", str(tmp_path)]
    assert main(run + ["--workers", "100000"]) == 3
    assert "infeasible" in capsys.readouterr().err
    monkeypatch.setenv("LATTICEDEX_THREADS", "abc")
    assert main(run) == 1
    assert "LATTICEDEX_THREADS" in capsys.readouterr().err


# ---- design ----

def test_design_writes_code_and_points(tmp_path, capsys, ex1_code):
    rc = main(["design", "--preset", "example1", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "55 points" in out
    code_path = tmp_path / "example1_code.json"
    points_path = tmp_path / "example1_points.csv"
    assert code_path.exists() and points_path.exists()
    code = load_code(code_path)
    assert code.content_hash() == ex1_code.content_hash()
    lines = points_path.read_text().splitlines()
    assert lines[0] == "index,label,c0,c1,x0,x1"
    assert len(lines) == 56


def test_design_regeneration_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["design", "--preset", "example2", "--out-dir", str(a)]) == 0
    assert main(["design", "--preset", "example2", "--out-dir", str(b)]) == 0
    assert (a / "example2_code.json").read_bytes() == (b / "example2_code.json").read_bytes()
    assert (a / "example2_points.csv").read_bytes() == (b / "example2_points.csv").read_bytes()


def test_design_from_config_matches_preset(tmp_path):
    spec = spec_from_preset("example3")
    cfg = tmp_path / "ex3.json"
    cfg.write_text(json.dumps(spec.to_dict()))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["design", "--config", str(cfg), "--out-dir", str(a)]) == 0
    assert main(["design", "--preset", "example3", "--out-dir", str(b)]) == 0
    assert (a / "example3_code.json").read_bytes() == (b / "example3_code.json").read_bytes()


_PRESET_FIXTURES = {"example1": "ex1_code", "example2": "ex2_code", "example3": "ex3_code",
                    "cyclo-K4": "cyclo_code", "maxreal-K3": "maxreal_code"}


_ONE_PRIME = {"label": "one-prime", "field": {"family": "quadratic", "param": -7},
              "primes": [{"above": 11, "index": 0}]}


@pytest.mark.parametrize("preset", sorted(_PRESET_FIXTURES) + ["one-prime"])
def test_design_points_csv_matches_the_template(preset, request, tmp_path):
    # the embedding text comes from the codec's float formatting, each float as %r prints it;
    # a one-prime code (K = 1) has one label per point and no "|"
    assert set(_PRESET_FIXTURES) == set(preset_names())
    if preset in _PRESET_FIXTURES:
        source = ["--preset", preset]
        code = request.getfixturevalue(_PRESET_FIXTURES[preset])
    else:
        config = tmp_path / "one.json"
        config.write_text(json.dumps(_ONE_PRIME))
        source = ["--config", str(config)]
        code = build_from_spec(ExperimentSpec.from_dict(_ONE_PRIME))
        assert code.num_messages == 1 and code.size == 11
    assert main(["design", *source, "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / f"{preset}_points.csv").read_text()
    assert text == points_csv_oracle(code)
    assert ("|" in text) == (code.num_messages > 1)


def test_design_formats_each_point_once(tmp_path, monkeypatch):
    # the code file and the points CSV come from one pass of point blocks, so each float's
    # and each label's text is made once
    passes = dict.fromkeys(("_point_blocks", "_float_rows"), 0)
    for name in passes:
        def counted(*args, _name=name, _real=getattr(codec, name)):
            passes[_name] += 1
            return _real(*args)
        monkeypatch.setattr(codec, name, counted)
    assert main(["design", "--preset", "maxreal-K3", "--out-dir", str(tmp_path)]) == 0
    assert passes == {"_point_blocks": 1, "_float_rows": 1}
    assert (tmp_path / "maxreal-K3_points.csv").stat().st_size > 0


# ---- analyze ----

def test_analyze_preset_table(capsys):
    rc = main(["analyze", "--preset", "example1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Gamma(C) = 6.0206" in out
    assert "{1,2}" in out
    assert "d0^2 = 2" in out


def test_analyze_json_payload(tmp_path, capsys):
    payload_path = tmp_path / "report.json"
    rc = main(["analyze", "--preset", "example3", "--json", str(payload_path)])
    assert rc == 0
    payload = json.loads(payload_path.read_text())
    assert len(payload["reports"]) == 3
    assert all(r["bounds_ok"] for r in payload["reports"])
    assert abs(payload["overall_gamma_db"] - 6.0206) < 1e-3


def test_analyze_saved_code_file(tmp_path, capsys):
    assert main(["design", "--preset", "example1", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(["analyze", "--code", str(tmp_path / "example1_code.json"),
               "--sets", "[[1]]"])
    assert rc == 0
    assert "Gamma(C)" in capsys.readouterr().out


def test_analyze_rejects_oversized_code_file(tmp_path, capsys):
    assert main(["design", "--preset", "example1", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "example1_code.json"
    doc = json.loads(path.read_text())
    # moved within its coset by 2^31 modulus columns: coordinates fit int64, energies do not
    column = [row[0] for row in doc["modulus_hnf"]]
    doc["points"][5]["coords"] = [c + 2**31 * v
                                  for c, v in zip(doc["points"][5]["coords"], column)]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["analyze", "--code", str(path)]) == 1
    err = capsys.readouterr().err
    assert "int64" in err and "Traceback" not in err


def test_a_huge_quadratic_code_is_never_bad_input(tmp_path, capsys):
    # d = 2^62 + 1: the trace form [[4, 2], [2, d + 1]] fits int64, and the two points
    # 0 and 1 use only its first column, so the per-column bounds admit the code; a
    # too-big design exits 3, never 1
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"field": {"family": "quadratic", "param": 2**62 + 1},
                                "primes": [{"above": 2, "index": 0}]}))
    capsys.readouterr()
    assert main(["analyze", "--config", str(path)]) == 0
    assert main(["design", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    assert main(["analyze", "--code", str(tmp_path / "run_code.json")]) == 0
    out, err = capsys.readouterr()
    assert out.count("Gamma(C) = 12.0412") == 2 and err == ""


def test_analyze_rejects_malformed_code_files(tmp_path, capsys):
    assert main(["design", "--preset", "example1", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "example1_code.json"
    good = path.read_text()

    def tampered(edit):
        doc = json.loads(good)
        return edit(doc) or doc

    cases = [
        lambda d: d["points"].pop(5) and None,  # a point deleted
        lambda d: d["points"].__setitem__(5, d["points"][6]),  # two points in one coset
        lambda d: d.__setitem__("points", {}),
        lambda d: [d],  # a list at the top level
        lambda d: d.pop("field") and None,
        lambda d: d["points"][0].pop("coords") and None,
        lambda d: d.__setitem__("gamma", "x"),
    ]
    files = [json.dumps(tampered(edit)).encode() for edit in cases] + [
        b"\xff\xfe{}",  # not UTF-8
        b"1" * 4301,  # an int json refuses to convert
        b"[" * 10**5 + b"]" * 10**5,  # nested past the recursion limit
        # the same in the header of a file laid out as save_code writes one
        b'{\n "a": ' + b"[" * 10**5 + b"]" * 10**5 + b',\n "points": [\n ],\n "z": 0\n}\n',
    ]
    for i, data in enumerate(files):
        bad = tmp_path / f"bad{i}.json"
        bad.write_bytes(data)
        capsys.readouterr()
        assert main(["analyze", "--code", str(bad)]) == 1, i
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (i, err)

    # the same through a fresh interpreter: exit 1, one error line, no traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(latticedex.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "latticedex.cli", "analyze", "--code",
                           str(tmp_path / "bad0.json")], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_analyze_refuses_small_edits_of_a_saved_file(tmp_path, capsys, monkeypatch):
    # edits that keep a saved file's layout around them: json decides, and refuses each, at
    # every size of the blocks the file is read in; and a file cut at a block boundary
    assert main(["design", "--preset", "example1", "--out-dir", str(tmp_path)]) == 0
    good = (tmp_path / "example1_code.json").read_text()
    doc = json.loads(good)
    last = doc["points"][-1]
    j = next(j for j, v in enumerate(last["coords"]) if 0 <= v < 9)
    k, i = next((k, i) for k, w in enumerate(last["label"]) for i, v in enumerate(w) if 0 < v < 9)

    def edited(edit):
        bad = json.loads(good)
        edit(bad["points"][-1])
        return json.dumps(bad, indent=1, sort_keys=True) + "\n"

    cases = {
        "coordinate digit": edited(lambda pt: pt["coords"].__setitem__(j, pt["coords"][j] + 1)),
        "label digit": edited(lambda pt: pt["label"][k].__setitem__(i, pt["label"][k][i] + 1)),
        "true for a label": edited(lambda pt: pt["label"][k].__setitem__(i, True)),
        "a byte after the end": good + "x",
        "its end repeated": good + good[good.rindex("\n ],\n"):],  # the header stays canonical
    }
    for read in (1, 7, 64, 4096, len(good) - 1, len(good)):
        monkeypatch.setattr(codec, "_READ", read)
        cases["cut at a block boundary"] = good[:len(good) // 2 // read * read]
        for name, text in cases.items():
            changed = [a != b for a, b in zip(text, good)]
            assert name not in ("coordinate digit", "label digit") or (
                len(text) == len(good) and sum(changed) == 1)
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            capsys.readouterr()
            assert main(["analyze", "--code", str(bad)]) == 1, (name, read)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, (name, read, err)


def test_analyze_reports_a_bound_violation(monkeypatch, capsys):
    import dataclasses

    import latticedex.cli as cli_mod

    real = cli_mod.side_info_gain
    monkeypatch.setattr(cli_mod, "side_info_gain",
                        lambda code, s: dataclasses.replace(real(code, s), gamma_db=99.0))
    assert main(["analyze", "--preset", "example1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        "BOUND VIOLATION at S=(1,)", "BOUND VIOLATION at S=(2,)", "BOUND VIOLATION at S=(1, 2)"]
    assert all("gamma 99.000000 outside [6.000000, " in line for line in err), err


def test_analyze_k_cap_exits_3(capsys):
    assert main(["analyze", "--preset", "example1", "--k-cap", "1"]) == 3
    assert main(["analyze", "--preset", "example1", "--k-cap", "1", "--sets", "all"]) == 3
    assert main(["analyze", "--preset", "example1", "--k-cap", "1", "--sets", "[[1]]"]) == 0


def test_analyze_rejects_bad_sets(capsys, tmp_path):
    # [[1.5],[2.9]] was truncated to {1} and {2}; the others ended in tracebacks, the last two
    # (an int of 4301 digits, nesting past the recursion limit) in analyze and simulate alike
    simulate = ["simulate", "--preset", "example1", "--snr", "10", "--trials", "4096",
                "--workers", "1", "--out-dir", str(tmp_path)]
    huge, deep = "[[" + "9" * 4301 + "]]", "[" * 5000 + "]" * 5000
    runs = [["analyze", "--preset", "example1", "--sets", sets] for sets in (
        "[[1.5],[2.9]]", "[]", "[[]]", '[["a"]]', "[[null]]", "[[true]]", "[[3]]", huge, deep)]
    for argv in runs + [simulate + ["--sets", huge], simulate + ["--sets", deep]]:
        capsys.readouterr()
        assert main(argv) == 1, argv[-1][:20]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (argv[-1][:20], err)
    assert "like [[1],[2]]" in err
    assert not list(tmp_path.iterdir())


def test_analyze_explicit_sets(capsys):
    rc = main(["analyze", "--preset", "example1", "--sets", "[[2],[1,2]]"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "{2}" in out and "{1,2}" in out
    assert not any(line.startswith("{1}") for line in out.splitlines())


# ---- simulate ----

def test_simulate_writes_curves_and_gaps(tmp_path, capsys):
    rc = main(["simulate", "--preset", "example1", "--snr", "8,12,16,20",
               "--trials", "40000", "--min-errors", "100", "--seed", "3",
               "--workers", "1", "--sets", "[[],[2]]", "--gap-at", "0.05",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    base = tmp_path / "example1_awgn_Snone.csv"
    s2 = tmp_path / "example1_awgn_S2.csv"
    assert base.exists() and s2.exists()
    assert "gap at SER 0.05 for S=[2]" in out
    assert len(base.read_text().splitlines()) == 5


def test_simulate_without_an_snr_grid_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**spec_from_preset("example1").to_dict(), "snr_db": [],
                                "out_dir": str(tmp_path)}))
    assert main(["simulate", "--config", str(path), "--trials", "4096"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no snr grid") and "Traceback" not in err, err
    assert not list(tmp_path.glob("*.csv"))


def test_gap_at_warns_without_a_base_curve_or_a_crossing(tmp_path, capsys):
    common = ["simulate", "--preset", "example1", "--snr", "8,12", "--trials", "4096",
              "--seed", "3", "--workers", "1", "--out-dir", str(tmp_path)]
    assert main(common + ["--sets", "[[2]]", "--gap-at", "0.05"]) == 0
    out, err = capsys.readouterr()
    assert "warning: no S=[] sweep" in err and "gap at" not in out
    # an SER no curve reaches: the S = {2} gap is skipped with a warning, not an error
    assert main(common + ["--sets", "[[],[2]]", "--gap-at", "1e-9"]) == 0
    out, err = capsys.readouterr()
    assert err.startswith("warning: S=[2]: ") and "gap at" not in out, err
    assert "Traceback" not in err


def test_fade_per_complex_flag_reaches_the_sweep(tmp_path, ex2_code):
    assert main(["simulate", "--preset", "example2", "--channel", "rayleigh",
                 "--fade-per-complex", "--snr", "14,18", "--sets", "[[]]", "--trials", "8192",
                 "--min-errors", "50", "--seed", "3", "--workers", "1",
                 "--out-dir", str(tmp_path)]) == 0
    cfg = dict(code=ex2_code, channel="rayleigh", snr_db=(14.0, 18.0), min_errors=50,
               max_trials=8192, seed=3, workers=1, label="example2")
    paired = run_sim(SimConfig(**cfg, fade_per_complex=True))
    assert paired.points != run_sim(SimConfig(**cfg)).points  # the flag changes the curve
    write_curve_csv(tmp_path / "want.csv", paired)
    got = tmp_path / "example2_rayleigh_Snone.csv"
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_simulate_refuses_an_empty_set_list(tmp_path, capsys):
    assert main(["simulate", "--preset", "example1", "--sets", "[]", "--snr", "10",
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))
    # one empty set is S = {}
    assert main(["simulate", "--preset", "example1", "--sets", "[[]]", "--snr", "10",
                 "--trials", "4096", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "example1_awgn_Snone.csv").exists()


def test_simulate_refuses_non_numeric_snr(tmp_path, capsys):
    doc = spec_from_preset("example1").to_dict()
    path = tmp_path / "cfg.json"
    for grid in (["a"], [True, 2], [None], [10, "12"]):
        path.write_text(json.dumps({**doc, "snr_db": grid, "out_dir": str(tmp_path)}))
        capsys.readouterr()
        assert main(["simulate", "--config", str(path), "--trials", "100"]) == 1, grid
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (grid, err)
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_respects_config_sets(tmp_path):
    spec = spec_from_preset("example1")
    spec.side_info_sets = [[1]]
    spec.snr_db = [6.0, 10.0]
    spec.min_errors = 50
    spec.max_trials = 20_000
    spec.out_dir = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec.to_dict()))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "example1_awgn_S1.csv").exists()
    assert not (tmp_path / "example1_awgn_Snone.csv").exists()


def test_code_independent_sweep_settings_are_refused_before_the_build(tmp_path, capsys,
                                                                       monkeypatch):
    # each of these built the code first (seconds and hundreds of MB near the cap) and only
    # then exited 1; an snr of 4000 dB ended in an OverflowError traceback after the build
    import latticedex.cli as cli_mod

    def no_build(*args, **kwargs):
        raise AssertionError("the code was built before the sweep settings were checked")

    monkeypatch.setattr(cli_mod, "build_index_code", no_build)
    run = ["simulate", "--preset", "example1", "--snr", "10", "--trials", "4096",
           "--workers", "1", "--out-dir", str(tmp_path)]
    flags = (("--workers", "0"), ("--workers", "-3"), ("--seed", "-1"), ("--trials", "0"),
             ("--min-errors", "0"), ("--snr", "4000"), ("--snr", "1e308"), ("--snr", "12,10"),
             ("--gap-at", "2"), ("--gap-at", "0"), ("--gap-at", "-0.5"), ("--gap-at", "nan"),
             ("--gap-at", "inf"))
    for flag in flags:
        capsys.readouterr()
        assert main(run + list(flag)) == 1, flag
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (flag, err)
    doc = {**spec_from_preset("example1").to_dict(), "snr_db": [10.0], "max_trials": 4096,
           "workers": 1, "out_dir": str(tmp_path)}
    path = tmp_path / "cfg.json"
    for key, value in (("workers", 0), ("workers", -3), ("seed", -1), ("min_errors", 0),
                       ("max_trials", 0), ("channel", "bsc"), ("snr_db", [4000]),
                       ("snr_db", [1e308]), ("snr_db", [10, "12"]), ("snr_db", [12, 10])):
        path.write_text(json.dumps({**doc, key: value}))
        capsys.readouterr()
        assert main(["simulate", "--config", str(path)]) == 1, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (key, err)
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_rejects_bad_config_sets(tmp_path, capsys):
    spec = spec_from_preset("example1")
    spec.snr_db, spec.max_trials, spec.out_dir = [6.0], 1000, str(tmp_path)
    cfg = tmp_path / "cfg.json"
    for sets in ([[1], [1.5]], [1], [["1"]]):
        spec.side_info_sets = sets
        cfg.write_text(json.dumps(spec.to_dict()))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 1, sets
        assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))  # every set is checked before any sweep


def test_mistyped_config_exits_1(tmp_path, capsys):
    doc = spec_from_preset("example1").to_dict()
    path = tmp_path / "cfg.json"
    for key, value in (("snr_db", "19"), ("min_errors", "10"), ("workers", 1.5),
                       ("field", 5), ("field", {"family": "quadratic"})):
        path.write_text(json.dumps({**doc, key: value, "out_dir": str(tmp_path)}))
        capsys.readouterr()
        assert main(["simulate", "--config", str(path), "--trials", "100"]) == 1, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (key, err)
    assert not list(tmp_path.glob("*.csv"))


def test_oversized_field_exits_3(tmp_path, capsys):
    doc = spec_from_preset("example1").to_dict()
    path = tmp_path / "cfg.json"
    for field in ({"family": "maximal_real", "param": 67},
                  {"family": "cyclotomic", "param": 1009}):
        path.write_text(json.dumps({**doc, "field": field}))
        capsys.readouterr()
        assert main(["design", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        assert "infeasible" in capsys.readouterr().err


def test_readme_config_designs_example1(ex1_code):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Experiment files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    spec = ExperimentSpec.from_dict(json.loads(block))
    assert spec.field == PRESETS["example1"]["field"]
    assert spec.primes == PRESETS["example1"]["primes"]
    assert build_from_spec(spec).content_hash() == ex1_code.content_hash()


def test_simulate_worker_flag_keeps_bytes(tmp_path):
    common = ["simulate", "--preset", "example2", "--snr", "6,10",
              "--trials", "25000", "--min-errors", "80", "--seed", "5",
              "--sets", "[[1]]"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(common + ["--workers", "1", "--out-dir", str(a)]) == 0
    assert main(common + ["--workers", "3", "--out-dir", str(b)]) == 0
    fa = a / "example2_awgn_S1.csv"
    fb = b / "example2_awgn_S1.csv"
    assert fa.read_bytes() == fb.read_bytes()


def test_simulate_label_override(tmp_path):
    rc = main(["simulate", "--preset", "example1", "--snr", "8", "--trials",
               "5000", "--min-errors", "10", "--label", "mylabel",
               "--sets", "[[]]", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "mylabel_awgn_Snone.csv").exists()


# ---- presets ----

def test_commands_run_without_sympy(tmp_path):
    # numpy is the only runtime dependency; sympy serves the tests as an oracle
    out = str(tmp_path)
    script = ("import sys, latticedex.cli as c; "
              "assert c.main(['presets']) == 0; "
              "assert c.main(['analyze', '--preset', 'example1']) == 0; "
              f"assert c.main(['design', '--preset', 'maxreal-K3', '--out-dir', {out!r}]) == 0; "
              "assert c.main(['simulate', '--preset', 'example1', '--snr', '10', '--trials', "
              f"'4096', '--workers', '1', '--out-dir', {out!r}]) == 0; "
              "assert 'sympy' not in sys.modules, 'sympy was imported'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(latticedex.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_presets_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out
    assert "55 points" in out
