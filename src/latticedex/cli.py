"""Config-driven command line: design codes, print gain tables, run sweeps.

Subcommands: design | analyze | simulate | presets.  Experiments are
described by a JSON document (see ExperimentSpec); command-line flags
override individual fields.  Exit codes: 0 ok, 1 usage or invalid argument,
2 invariant violation (analyze uses this for bound violations), 3 infeasible
or unsupported design.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field as dc_field

from . import presets as preset_lib
from .analysis import (diversity_and_product_distance, side_info_gain,
                       side_info_sets)
from .codec import build_index_code, load_code, save_code
from .errors import (Infeasible, InvalidArgument, InvariantViolation,
                     LatticedexError, Unsupported)
from .numberfield import field_from_dict
from .presets import resolve_primes
from .sim import (SimConfig, check_sweep, curve_filename, resolve_workers, run_sim,
                  si_gain_from_curves, write_curve_csv)

_SNR_POINTS = 10_000  # points an --snr range may hold: each costs a chunk at least


@dataclass
class ExperimentSpec:
    """One archivable experiment: code construction plus sweep parameters."""

    label: str = "run"
    field: dict = dc_field(default_factory=dict)
    primes: list = dc_field(default_factory=list)
    side_info_sets: list | None = None
    channel: str = "awgn"
    snr_db: list = dc_field(default_factory=list)
    min_errors: int = 10_000
    max_trials: int = 100_000_000
    seed: int = 0
    workers: int | None = None
    fade_per_complex: bool = False
    enumeration_cap: int = 10 ** 6
    out_dir: str = "."

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """The spec of a config object, each key checked against its declared
        type (a bool is no int)."""
        if not isinstance(data, dict):
            raise InvalidArgument("an experiment config must be a JSON object")
        types = typing.get_type_hints(cls)
        unknown = set(data) - set(types)
        if unknown:
            raise InvalidArgument(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            allowed = typing.get_args(types[key]) or (types[key],)
            if not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed:
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise InvalidArgument(f"config key {key!r} must be {names}, got {value!r}")
        return cls(**data)


def spec_from_preset(name, channel="awgn"):
    """The config a preset stands for, with its SNR grid for the channel."""
    return ExperimentSpec(label=name, **preset_lib.preset_config(name), channel=channel,
                          snr_db=list(preset_lib.preset_snr_grid(name, channel)))


def build_from_spec(spec):
    field = field_from_dict(spec.field)
    primes = resolve_primes(field, spec.primes)
    return build_index_code(field, primes, enumeration_cap=spec.enumeration_cap)


# ============================================================
# Argument plumbing
# ============================================================


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _snr_value(text):
    try:
        return float(text)
    except ValueError:
        raise InvalidArgument(f"snr value {text!r} is not a number") from None


def _parse_snr(text):
    """Either 'a,b,c' or 'start:stop:step' (stop inclusive)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidArgument("snr range must be start:stop:step")
        start, stop, step = (_snr_value(v) for v in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise InvalidArgument("snr range bounds and step must be finite")
        if step <= 0:
            raise InvalidArgument("snr step must be positive")
        if (stop + 1e-9 - start) // step >= _SNR_POINTS:
            raise Infeasible(f"snr range {text!r} holds more than {_SNR_POINTS} points")
        grid, v = [], start
        while v <= stop + 1e-9:
            if v + step == v:
                raise Infeasible(f"snr step {step!r} does not advance past {v!r}")
            grid.append(round(v, 9))
            v += step
        return grid
    return [_snr_value(v) for v in text.split(",") if v.strip()]


def _decode(load, source, what):
    """load(source); what json cannot decode (not UTF-8, too deep, a huge int) is bad input."""
    try:
        return load(source)
    except (ValueError, RecursionError) as e:
        raise InvalidArgument(f"{what}: {e}") from None


def _parse_sets(text, k, k_cap=20):
    if text == "all":
        return [list(s) for s in side_info_sets(k, k_cap)]
    return _check_sets(_decode(json.loads, text, "side-info sets must be JSON like [[1],[2]]"))


def _check_sets(sets):
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise InvalidArgument("side-info sets must be a list of lists")
    return sets


def _side_info_sets(code, sets):
    sets = [code.check_side_info(s) for s in sets]
    if twice := [a for a, b in zip(sorted(sets), sorted(sets)[1:]) if a == b]:
        raise InvalidArgument(f"side-information set {list(twice[0])} is named twice")
    return sets


def _load_spec(args):
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            spec = ExperimentSpec.from_dict(_decode(json.load, fh, "config is not UTF-8 JSON"))
    elif getattr(args, "preset", None):
        channel = getattr(args, "channel", None) or "awgn"
        spec = spec_from_preset(args.preset, channel)
    else:
        raise InvalidArgument("need --preset or --config")
    # flag overrides
    for attr, key in [("label", "label"), ("out_dir", "out_dir"),
                      ("channel", "channel"), ("seed", "seed"),
                      ("workers", "workers"), ("min_errors", "min_errors"),
                      ("trials", "max_trials")]:
        v = getattr(args, attr, None)
        if v is not None:
            setattr(spec, key, v)
    if getattr(args, "snr", None):
        spec.snr_db = _parse_snr(args.snr)
    if getattr(args, "fade_per_complex", False):
        spec.fade_per_complex = True
    return spec


# ============================================================
# Subcommands
# ============================================================


def cmd_design(args):
    spec = _load_spec(args)
    code = build_from_spec(spec)
    os.makedirs(spec.out_dir, exist_ok=True)
    code_path = os.path.join(spec.out_dir, f"{spec.label}_code.json")
    points_path = os.path.join(spec.out_dir, f"{spec.label}_points.csv")
    save_code(code, code_path, points_path)  # both files from one pass over the points
    print(f"{code.field.describe()}; K={len(code.primes)}; {code.size} points")
    print(f"wrote {code_path}")
    print(f"wrote {points_path}")
    return 0


def _format_row(cells, widths):
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))


def cmd_analyze(args):
    code = load_code(args.code) if args.code else build_from_spec(_load_spec(args))
    k = len(code.primes)
    if args.sets:
        sets = [s for s in _side_info_sets(code, _parse_sets(args.sets, k, args.k_cap)) if s]
        if not sets:
            raise InvalidArgument("--sets names no nonempty side-information set")
    else:
        sets = side_info_sets(k, args.k_cap)

    reports = [side_info_gain(code, s) for s in sets]
    fading = {}
    for s in sets:
        if code.subcode_indices(s).shape[0] >= 2:
            fading[s] = diversity_and_product_distance(code, s)

    d0 = reports[0].d0_sq
    print(f"{code.field.describe()}; K={k}; {code.size} points; "
          f"alphabet {'x'.join(str(v) for v in code.alphabet_sizes)}")
    print(f"d0^2 = {d0}")
    header = ["S", "R_S", "dS^2", "Gamma_dB", "lower", "upper", "mink_d", "D", "d_pmin"]
    rows = []
    for r in reports:
        f = fading.get(r.s)
        rows.append([
            "{" + ",".join(str(v) for v in r.s) + "}",
            f"{r.rate_bits:.4f}",
            str(r.ds_sq),
            f"{r.gamma_db:.4f}",
            "-" if r.lower_bound_db is None else f"{r.lower_bound_db:.4f}",
            "-" if r.upper_bound_db is None else f"{r.upper_bound_db:.4f}",
            f"{r.minkowski_upper:.4f}",
            "-" if f is None else str(f.diversity),
            "-" if f is None else f"{f.product_distance:.6g}",
        ])
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    print(_format_row(header, widths))
    for row in rows:
        print(_format_row(row, widths))
    worst = min(reports, key=lambda r: r.gamma_db)
    print(f"Gamma(C) = {worst.gamma_db:.4f} dB/bit/dim "
          f"(worst S = {{{','.join(str(v) for v in worst.s)}}})")

    if args.json:
        payload = {
            "field": code.field.to_dict(),
            "code_hash": code.content_hash(),
            "d0_sq": [d0.numerator, d0.denominator],
            "reports": [r.to_dict() for r in reports],
            "fading": [f.to_dict() for f in fading.values()],
            "overall_gamma_db": worst.gamma_db,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    bad = [r for r in reports if not r.bounds_ok]
    if bad:
        for r in bad:
            print(f"BOUND VIOLATION at S={r.s}: gamma {r.gamma_db:.6f} outside "
                  f"[{r.lower_bound_db:.6f}, {r.upper_bound_db:.6f}]", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args):
    spec = _load_spec(args)
    if not spec.snr_db:
        raise InvalidArgument("no snr grid: set snr_db in the config or pass --snr")
    check_sweep(spec)  # every setting that needs no code, before the build
    resolve_workers(spec.workers)  # and LATTICEDEX_THREADS
    if args.gap_at is not None and not 0.0 < args.gap_at < 1.0:  # nan too
        raise InvalidArgument(f"--gap-at must be a target SER in (0, 1), got {args.gap_at!r}")
    code = build_from_spec(spec)
    k = len(code.primes)
    if args.sets:
        sets = _parse_sets(args.sets, k)
    elif spec.side_info_sets is not None:
        sets = _check_sets(spec.side_info_sets)
    else:
        sets = [[]] + [[i + 1] for i in range(k)]
    sets = _side_info_sets(code, sets)  # all of them before any sweep
    if not sets:
        raise InvalidArgument("the side-information set list is empty; [[]] simulates S = {}")

    os.makedirs(spec.out_dir, exist_ok=True)
    results = {}
    for s in sets:
        cfg = SimConfig(code=code, channel=spec.channel, snr_db=tuple(spec.snr_db),
                        side_info=s, min_errors=spec.min_errors,
                        max_trials=spec.max_trials, seed=spec.seed,
                        workers=spec.workers, fade_per_complex=spec.fade_per_complex,
                        label=spec.label)
        res = run_sim(cfg)
        results[res.side_info] = res
        path = os.path.join(spec.out_dir,
                            curve_filename(spec.label, spec.channel, res.side_info))
        write_curve_csv(path, res)
        total = sum(p.trials for p in res.points)
        print(f"wrote {path} ({len(res.points)} points, {total} trials)")

    if args.gap_at is not None:
        base = results.get(())
        if base is None:
            print("warning: no S=[] sweep, cannot measure gaps", file=sys.stderr)
        else:
            for s, res in results.items():
                if not s:
                    continue
                try:
                    gain = si_gain_from_curves(base, res, args.gap_at)
                    print(f"gap at SER {args.gap_at:g} for S={list(s)}: {gain:.2f} dB")
                except InvalidArgument as e:
                    print(f"warning: S={list(s)}: {e}", file=sys.stderr)
    return 0


def cmd_presets(args):
    for name in preset_lib.preset_names():
        print(preset_lib.preset_summary(name))
    return 0


# ============================================================
# Parser and entry point
# ============================================================


def build_parser():
    p = _Parser(prog="latticedex",
                description="Design and analyze lattice index codes; "
                            "simulate them over AWGN and Rayleigh channels.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(sp, with_code=False):
        sp.add_argument("--preset", choices=preset_lib.preset_names(),
                        help="built-in design")
        sp.add_argument("--config", help="JSON experiment file")
        if with_code:
            sp.add_argument("--code", help="previously written code JSON")
        sp.add_argument("--label", help="output name stem")
        sp.add_argument("--out-dir", dest="out_dir", help="output directory")

    d = sub.add_parser("design", help="build a code; write JSON + points CSV")
    add_common(d)
    d.set_defaults(func=cmd_design)

    a = sub.add_parser("analyze", help="gain/bound/fading table")
    add_common(a, with_code=True)
    a.add_argument("--sets", help='JSON list of side-info sets, or "all"')
    a.add_argument("--json", help="also write the table as JSON")
    a.add_argument("--k-cap", dest="k_cap", type=int, default=20,
                   help="refuse full scans beyond this many messages")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("simulate", help="Monte-Carlo SER sweeps, one CSV per S")
    add_common(s)
    s.add_argument("--channel", choices=("awgn", "rayleigh"))
    s.add_argument("--snr", help='grid: "10,12,14" or "10:20:2"')
    s.add_argument("--sets", help="JSON list of side-info sets")
    s.add_argument("--trials", type=int, help="max trials per point")
    s.add_argument("--min-errors", dest="min_errors", type=int,
                   help="stop a point after this many errors")
    s.add_argument("--seed", type=int)
    s.add_argument("--workers", type=int)
    s.add_argument("--fade-per-complex", dest="fade_per_complex",
                   action="store_true", default=False,
                   help="one Rayleigh fade per place of the field instead of per coordinate")
    s.add_argument("--gap-at", dest="gap_at", type=float,
                   help="print horizontal curve gaps at this SER")
    s.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("presets", help="list built-in designs")
    pr.set_defaults(func=cmd_presets)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args) or 0
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    except (Infeasible, Unsupported) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except (OSError, LatticedexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
