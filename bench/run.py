"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {catalog,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory.  Set-up is timed in fresh interpreters (one warm-up, then
SETUP_REPEATS, median reported).  The workload itself runs in one child
process (bench/workloads.py) with BLAS pinned to one thread; its stage
times are sums over operations of each one's fastest repeat.  With
--trace 0 the last line of output is a JSON object holding every end-to-end
metric of BENCHMARK.json; with --trace 1 it holds every per-layer metric.
The lines before it print the same figures, and more, for people.  A
results file with the environment stamp goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, stage_times  # noqa: E402  (stdlib only at import)

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, deadline):
    """(stdout, stderr) of a child that must succeed before the deadline.

    The child gets its own process group, so a timeout also stops any pool
    workers it started.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"timed out: {' '.join(cmd)}") from None
    finally:
        try:  # whatever is left of the child's process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"exit {proc.returncode}: {' '.join(cmd)}\n{err[-2000:]}")
    return out, err


def commit():
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_metric_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def setup_probes(workload, traced, deadline):
    """One discarded warm-up (it may compile bytecode), then SETUP_REPEATS."""
    cmd = [sys.executable, str(BENCH / "probe.py"), "setup", workload]
    if traced:
        cmd.append("--trace")
    runs = []
    for i in range(SETUP_REPEATS + 1):
        out, _ = run_child(cmd, deadline)
        if i:
            runs.append(json.loads(out.strip().splitlines()[-1]))
    return runs


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one latticedex benchmark workload")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference", default=str(BENCH / "reference.json"),
                    help="reference outputs to check against")
    ap.add_argument("--out-dir", default=str(BENCH / "out"), help="where results files go")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that run_child stops the child's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "latticedex" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'latticedex'}; run from a source checkout",
              file=sys.stderr)
        return 2
    e2e_spec, layer_spec = load_metric_spec()
    deadline = time.monotonic() + RUN_LIMIT_S
    traced = bool(args.trace)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    try:
        probes = setup_probes(args.workload, traced, deadline)
        child_out = out_dir / f"{stem}.child.json"
        run_child([sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(child_out),
                   "--reference", args.reference], deadline)
        child = json.loads(child_out.read_text())
        child_out.unlink()
    except (RunError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = child["attempted"] + len(probes)
    failures = list(child["failures"])
    passes = child["passes"]
    untraced = [p for p in passes if p["kind"] == "untraced"]
    stages = stage_times([p["ops"] for p in untraced] + child["design_extra"])
    measured = {"setup_s": median([p["setup_s"] for p in probes]),
                "peak_rss_mb": child["peak_rss_mb"], **stages}
    if traced:
        tr = child["trace"]
        layers = dict(tr["layers"])
        for name in ("cli.import", "field.construct", "ideals.primes"):
            layers[f"{name}_s"] = median([p["layers"].get(name, 0.0) for p in probes])
        layers["trace.overhead_s"] = (median([p["wall_s"] for p in passes if p["kind"] == "traced"])
                                      - median([p["wall_s"] for p in untraced]))
        violations = tr["nesting_violations"] + sum(p["nesting_violations"] for p in probes)
        attempted += 1
        if violations:
            failures.append(f"trace: {violations} spans exceed their parent")
        measured.update(layers)
    spec = layer_spec if traced else e2e_spec
    missing = [m["name"] for m in spec if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    env = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        **child["env"],
        "commit": commit(),
        "workers": child["workers"],
        "LATTICEDEX_THREADS": os.environ.get("LATTICEDEX_THREADS"),
        "blas_pin": BLAS_PIN,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "sim_seed": child["sim_seed"],
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "metrics": measured, "failed_ops_frac": len(failures) / attempted,
        "attempted": attempted, "failures": failures,
        "setup_samples": [p["setup_s"] for p in probes], "passes": passes,
        "design_extra": child["design_extra"],
        "peak_rss_self_mb": child["peak_rss_self_mb"],
        "peak_rss_children_mb": child["peak_rss_children_mb"],
    }
    if traced:
        record["spans_table"] = tr["spans_table"]
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(
            {"spans": tr["spans"], "presets_spans": tr["presets_spans"]}))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed} (simulator seed {child['sim_seed']})  "
          f"passes {len(untraced)} untraced, "
          f"{sum(p['kind'] == 'traced' for p in passes)} traced  "
          f"workers {child['workers']}  commit {env['commit'][:12]}")
    for f in failures:
        print(f"FAILED {f}")
    if traced:
        print(f"  {'span':34} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(tr["spans_table"].items()):
            print(f"  {name:34} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    units = {m["name"]: m["unit"] for m in e2e_spec + layer_spec}
    shown = [m["name"] for m in spec]
    if not traced:
        shown += [k for k in stages if k not in shown]
    for name in shown:
        print(f"  {name:34} {measured[name]:14.6g} {units.get(name, 's')}")
    print(f"  {'failed_ops_frac':34} {len(failures) / attempted:14.6g} "
          f"({len(failures)} of {attempted} operations)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
