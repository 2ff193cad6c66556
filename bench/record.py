"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record.py [--out bench/reference.json]

Run it only on a commit whose outputs are known to be right: it writes what
the current tree computes.  It records the preset content hashes, every
gain and fading figure of the catalog tables, the Z[i] module-code gains,
the `latticedex presets` output, and the per-point (snr, errors, trials) of
every sweep call for each of the SEED_POOL simulator seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402


def gain_record(rep):
    return {"d0_sq": [rep.d0_sq.numerator, rep.d0_sq.denominator],
            "dS_sq": [rep.ds_sq.numerator, rep.ds_sq.denominator], "gamma_db": rep.gamma_db}


def main(argv=None):
    ap = argparse.ArgumentParser(description="record bench/reference.json")
    ap.add_argument("--out", default=str(BENCH / "reference.json"))
    args = ap.parse_args(argv)

    from latticedex import analysis, codec, sim

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=BENCH.parent).stdout.strip() or "unknown"
    ref = {"commit": commit, "seed_pool": wl.SEED_POOL, "hashes": {}, "gains": {},
           "fading": {}, "module": {}, "sims": {}}
    inputs = wl.setup_inputs("catalog")
    codes = {}
    for name, (field, primes) in inputs["presets"].items():
        code = codec.build_index_code(field, primes)
        codes[name] = code
        ref["hashes"][name] = code.content_hash()
        ref["gains"][name] = {}
        ref["fading"][name] = {}
        for s in wl.nonempty_sets(len(primes)):
            key = wl.set_key(s)
            ref["gains"][name][key] = gain_record(analysis.side_info_gain(code, s))
            if code.subcode_indices(s).shape[0] >= 2:
                fr = analysis.diversity_and_product_distance(code, s)
                ref["fading"][name][key] = {"diversity": fr.diversity,
                                            "product_distance": fr.product_distance}
        print(f"recorded {name}", flush=True)

    zi, p5, p13 = inputs["zi"]
    for case in wl.MODULE_CASES:
        primes, gmat = wl.module_case(case, zi, p5, p13)
        okc = analysis.build_oklattice_code(zi, primes, gmat)
        ref["module"][case] = {
            wl.set_key(s): gain_record(analysis.oklattice_side_info_gain(okc, s))
            for s in wl.module_sets(len(primes))}
        print(f"recorded module code {case}", flush=True)

    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    ref["presets_cli"] = subprocess.run(
        [sys.executable, "-m", "latticedex.cli", "presets"], capture_output=True,
        text=True, check=True, env=env).stdout

    for workload in wl.SWEEPS:
        workers = wl.resolved_workers(workload)
        per_seed = ref["sims"][workload] = {}
        calls = wl.sweep_calls(workload)
        for seed in range(wl.SEED_POOL):
            rec = per_seed[str(seed)] = {}
            for name, channel, s, snr in calls:
                cfg = wl.sim_config(workload, codes[name], name, channel, s, snr, seed, workers)
                res = sim.run_sim(cfg)
                rec[wl.sim_key(name, channel, s)] = [[p.snr_db, p.errors, p.trials]
                                                     for p in res.points]
            print(f"recorded {workload} seed {seed}", flush=True)
    Path(args.out).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
