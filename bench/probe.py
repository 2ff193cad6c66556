"""Fresh-interpreter probes started by the benchmark.

    python3 bench/probe.py setup <workload> [--trace]
        Times `import latticedex.cli` plus the construction of the workload's
        fields and prime ideals, and prints one JSON line.
    python3 bench/probe.py presets --out spans.json
        Runs `latticedex presets` with a span around each preset summary and
        writes the spans to the given file.

Nothing of the package is imported before the clock starts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (stdlib only until its functions run)
from tracer import NullTracer, Tracer  # noqa: E402


def setup(workload, traced):
    tr = Tracer(f"setup:{workload}") if traced else NullTracer()
    t0 = time.perf_counter()
    with tr.span("cli.import"):
        import latticedex.cli  # noqa: F401
    from latticedex import presets

    if traced:
        for attr in ("quadratic_field", "cyclotomic_field", "maximal_real_field"):
            tr.wrap(presets, attr, "field.construct")
        for attr in ("prime_ideals_above", "principal_ideal"):
            tr.wrap(presets, attr, "ideals.primes")
    workloads.setup_inputs(workload, tr)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if traced:
        tr.uninstall()
        out["layers"] = {name: row["total_s"] for name, row in tr.table().items()}
        out["nesting_violations"] = tr.nesting_violations()
    print(json.dumps(out))


def presets_traced(out_path):
    tr = Tracer("presets")
    from latticedex import cli, presets

    tr.wrap(presets, "preset_summary", "presets.summary")
    code = cli.main(["presets"])
    tr.uninstall()
    Path(out_path).write_text(json.dumps(tr.to_records()))
    return code


def main(argv):
    if len(argv) >= 2 and argv[0] == "setup":
        setup(argv[1], "--trace" in argv[2:])
        return 0
    if len(argv) == 3 and argv[0] == "presets" and argv[1] == "--out":
        return presets_traced(argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
