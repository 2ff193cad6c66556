"""Run one workload at several seeds and summarize the run-to-run spread.

    python3 bench/spread.py --workload sweep --seeds 1-10 [--trace 0] [--out F]

For each metric: the values, their median and quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread, which is the
distance between the quartiles as a share of the median.  For end-to-end
metrics the spread is compared with a third of the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values, bound=None):
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else float("nan"))
    if bound is not None:
        out["bound"] = bound
        out["steady"] = out.get("spread", 0.0) < bound / 3
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="run-to-run spread of one workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((BENCH / "out" / f"{args.workload}_seed{seed}"
                             f"_trace{args.trace}.json").read_text())
        steal = [p["steal_s"] for p in record["passes"] if p["steal_s"] is not None]
        runs.append({"seed": seed, "env": record["env"], "passes": len(record["passes"]),
                     "steal_s": sum(steal), **result})
        line = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                         if k in bounds or args.trace)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}  steal={sum(steal):.2f}s  "
              f"{line[:300]}", flush=True)

    names = list(runs[0]["metrics"])
    summary = {
        "workload": args.workload, "trace": args.trace, "seconds": seconds,
        "env": runs[0]["env"],
        "seeds": [r["seed"] for r in runs],
        "passes": [r["passes"] for r in runs],
        "steal_s": [r["steal_s"] for r in runs],
        "all_correct": all(r["correct"] for r in runs),
        "metrics": {n: summarize([r["metrics"][n]["value"] for r in runs], bounds.get(n))
                    for n in names},
    }
    for n, s in summary["metrics"].items():
        if n in bounds:
            print(f"{n:20} median {s['median']:.5g}  spread {s.get('spread', 0):.4f}  "
                  f"bound/3 {bounds[n] / 3:.4f}  {'ok' if s['steady'] else 'NOT STEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
