"""The benchmark's workloads, run in a child process started by run.py.

    python3 bench/workloads.py --workload catalog --seed 1 --seconds 30 \
        --trace 0 --out result.json [--reference bench/reference.json]

The child builds its inputs once, then runs as many whole passes of the
workload as fit in --seconds at the pass times of PASS_S (at least one),
and repeats the design stage alone to give it more samples.  Every
operation of a pass is timed on its own, after a garbage collection; the
stage times are sums over operations of each one's fastest repeat (see
stage_times).  With --trace 1 it runs an untraced warm-up pass, a traced
pass and an untraced pass; tracing overhead is the difference of the last
two.  Every operation's output is checked against the reference file;
mismatches and exceptions are counted as failed operations.  The package
is driven only through the public functions of its modules.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracer import NullTracer, Tracer  # noqa: E402

WORKLOADS = ("catalog", "sweep")
ALL_PRESETS = ("example1", "example2", "example3", "cyclo-K4", "maxreal-K3")
CHANNELS = ("awgn", "rayleigh")
# --seed picks one of this many simulator seeds; reference.json holds the
# per-point (errors, trials) of every one of them.  Nothing else depends on
# the seed: the catalog's inputs are fixed designs.
SEED_POOL = 32
SIX_DB = 20.0 * math.log10(2.0)

# The sweep workload runs both groups, sweep-large then sweep-small.  The SNR
# points of sweep-large are taken from the preset grids so that every point
# stops after a number of chunks that does not depend on the seed: either the
# first chunk alone has far more than min_errors errors, or two chunks
# together have far fewer (see README.md).
SWEEPS = {
    "sweep-large": {
        "presets": ("cyclo-K4", "maxreal-K3"),
        "sets": ((), (1,)),
        "snr": {
            ("cyclo-K4", "awgn"): (14.0, 20.0, 26.0),
            ("cyclo-K4", "rayleigh"): (16.0, 28.0, 36.0),
            ("maxreal-K3", "awgn"): (14.0, 20.0, 28.0),
            ("maxreal-K3", "rayleigh"): (16.0, 28.0, 36.0),
        },
        "min_errors": 100,
        "max_trials": 2 * 4096,  # two chunks of latticedex.sim.CHUNK trials
        "workers": 1,
    },
    "sweep-small": {
        "presets": ("example1", "example2", "example3"),
        "sets": ((), (1,), (2,)),
        "snr": None,  # the whole preset grid
        "min_errors": 200,
        "max_trials": 4 * 4096,
        "workers": 2,
    },
}

# Wall time of one pass at the commit the benchmark was defined on (2-vCPU
# machine).  A run makes max(1, seconds // PASS_S) passes, so the work of a
# run does not depend on how fast the machine happens to be, and two commits
# are measured on the same work.
PASS_S = {"catalog": 20.0, "sweep": 14.0}
# After its passes a run repeats the design stage alone until the design
# operations have MIN_DESIGN_SAMPLES samples, and then, as long as the run
# stays within TIME_CAP times --seconds, until they have MAX_DESIGN_SAMPLES.
MIN_DESIGN_SAMPLES = 3
MAX_DESIGN_SAMPLES = 5
TIME_CAP = 1.1
# Stage of an operation key (its first path component) -> stage metric.
STAGE_METRICS = {"design": "design_s", "analyze": "analyze_s", "module": "module_s",
                 "presets_cli": "presets_cli_s", "sweep-large": "sweep_large_s",
                 "sweep-small": "sweep_small_s"}

MODULE_CASES = ("m=1 identity", "m=1 scaled", "m=2 identity", "m=2 shear",
                "m=2 two primes")


def planned_passes(workload, seconds):
    return max(1, int(seconds // PASS_S[workload]))


def sim_seed(seed):
    return seed % SEED_POOL


def set_key(s):
    return "-".join(str(k) for k in s) if s else "none"


def stage_times(samples):
    """Stage metrics from the operation times of a run.

    samples is a list of {operation key: seconds}, one per pass or design
    repeat.  Each operation counts with its fastest repeat: the host only
    ever slows an operation down (its neighbours take cache, memory
    bandwidth and core time), so the fastest repeat is the steadiest
    estimate of the operation's own cost.  A stage is the sum of its
    operations; total_s is the sum of all of them, and sweep_s that of both
    sweep groups.
    """
    best = {}
    for ops in samples:
        for key, secs in ops.items():
            best[key] = min(secs, best.get(key, secs))
    out = {}
    for key, secs in best.items():
        name = STAGE_METRICS[key.split("/", 1)[0]]
        out[name] = out.get(name, 0.0) + secs
    if "sweep_large_s" in out or "sweep_small_s" in out:
        out["sweep_s"] = out.get("sweep_large_s", 0.0) + out.get("sweep_small_s", 0.0)
    out["total_s"] = sum(best.values())
    return out


# ============================================================
# Inputs
# ============================================================


def setup_inputs(workload, tr=None):
    """Fields and prime ideals of the workload (the set-up that setup_s times).

    Preset fields come from latticedex.presets; spans for them come from
    wrappers the caller installs there.  The Z[i] data of the module codes
    is built here and spanned here.
    """
    from latticedex import presets
    from latticedex.numberfield import field as nf_field, ideals as nf_ideals

    tr = tr or NullTracer()
    out = {"presets": {}, "zi": None}
    for name in ALL_PRESETS:
        out["presets"][name] = presets.preset_field_and_primes(name)
    if workload == "catalog":
        with tr.span("field.construct"):
            zi = nf_field.quadratic_field(-1)
        with tr.span("ideals.primes"):
            p5 = nf_ideals.prime_ideals_above(zi, 5)[0]
            p13 = nf_ideals.prime_ideals_above(zi, 13)[0]
        out["zi"] = (zi, p5, p13)
    return out


def module_case(name, zi, p5, p13):
    """(primes, generator matrix) of one Z[i] module code of criterion 8."""
    one, zero, shear = zi.one, zi.zero, zi.element((1, 1))
    return {
        "m=1 identity": ([p5, p13], [[one]]),
        "m=1 scaled": ([p5, p13], [[shear]]),
        "m=2 identity": ([p5], [[1, 0], [0, 1]]),
        "m=2 shear": ([p5], [[one, shear], [zero, one]]),
        "m=2 two primes": ([p5, p13], [[1, 0], [0, 1]]),
    }[name]


def module_sets(num_primes):
    return [s for k in (1, 2) for s in itertools.combinations(range(1, num_primes + 1), k)]


def nonempty_sets(k):
    return [tuple(i + 1 for i in range(k) if mask >> i & 1) for mask in range(1, 1 << k)]


def sweep_calls(group):
    """(preset, channel, S, snr points) of every run_sim call of a sweep group."""
    from latticedex.presets import preset_snr_grid

    spec = SWEEPS[group]
    calls = []
    for name in spec["presets"]:
        for channel in CHANNELS:
            grid = preset_snr_grid(name, channel)
            snr = grid if spec["snr"] is None else spec["snr"][(name, channel)]
            if not set(snr) <= set(grid):
                raise ValueError(f"{name}/{channel}: {snr} not on the preset grid")
            for s in spec["sets"]:
                calls.append((name, channel, s, tuple(snr)))
    return calls


def sim_key(name, channel, s):
    return f"{name}/{channel}/S{set_key(s)}"


def resolved_workers(group):
    from latticedex.sim import resolve_workers

    requested = min(SWEEPS[group]["workers"], os.cpu_count() or 1)
    return resolve_workers(requested)


def sim_config(group, code, name, channel, s, snr, seed, workers):
    from latticedex.sim import SimConfig

    spec = SWEEPS[group]
    return SimConfig(code=code, channel=channel, snr_db=snr, side_info=s,
                     min_errors=spec["min_errors"], max_trials=spec["max_trials"],
                     seed=sim_seed(seed), workers=workers, label=name)


# ============================================================
# Checking
# ============================================================


class Mismatch(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Checker:
    """Counts operations and the ones that raised or disagreed with the reference."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @contextmanager
    def op(self, what):
        self.attempted += 1
        try:
            yield
        except Mismatch as e:
            self.failures.append(f"{what}: mismatch: {e}")
        except Exception as e:  # an operation failed; record it and go on
            self.failures.append(f"{what}: {type(e).__name__}: {e}\n"
                                 + traceback.format_exc(limit=3))


def check_gain(rep, ref, what):
    expect(Fraction(*ref["d0_sq"]) == rep.d0_sq, f"{what} d0^2 {rep.d0_sq}")
    expect(Fraction(*ref["dS_sq"]) == rep.ds_sq, f"{what} dS^2 {rep.ds_sq}")
    expect(math.isclose(rep.gamma_db, ref["gamma_db"], rel_tol=1e-12, abs_tol=1e-12),
           f"{what} gain {rep.gamma_db!r} != {ref['gamma_db']!r}")


# ============================================================
# One pass
# ============================================================


class Pass:
    """State shared by the stages of one workload run."""

    def __init__(self, workload, seed, inputs, reference, checker, tmpdir):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.ref = reference
        self.ck = checker
        self.tmpdir = tmpdir
        self.workers = ({g: resolved_workers(g) for g in SWEEPS} if workload == "sweep"
                        else None)
        self.ops = {}  # operation key -> seconds, of the stage running now

    @contextmanager
    def timed(self, key, collect=False):
        """Time one operation; collect=True first clears earlier garbage."""
        if collect:
            gc.collect()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ops[key] = time.perf_counter() - t0

    def design(self, tr):
        from latticedex import codec

        codes = {}
        for name in ALL_PRESETS:
            with self.ck.op(f"design {name}"):
                field, primes = self.inputs["presets"][name]
                with self.timed(f"design/{name}/build", collect=True), tr.span("codec.build"):
                    code = codec.build_index_code(field, primes)
                with self.timed(f"design/{name}/hash"):
                    h = code.content_hash()
                expect(h == self.ref["hashes"][name], f"content hash {h}")
                path = self.tmpdir / f"{name}.json"
                with self.timed(f"design/{name}/save"), tr.span("codec.save"):
                    codec.save_code(code, path)
                tr.count("codec.json_bytes", path.stat().st_size)
                with self.timed(f"design/{name}/load"), tr.span("codec.load"):
                    loaded = codec.load_code(path)
                expect(loaded.content_hash() == h, "hash changed through save/load")
                codes[name] = code
        return codes

    def analyze(self, tr, codes):
        from latticedex import analysis

        for name in ALL_PRESETS:
            for i, s in enumerate(nonempty_sets(len(self.inputs["presets"][name][1]))):
                key = set_key(s)
                with self.ck.op(f"analyze {name} S={key}"):
                    code = codes.get(name)
                    expect(code is not None, "no code")
                    with self.timed(f"analyze/{name}/S{key}/gain", collect=i == 0), \
                            tr.span("analysis.gain"):
                        rep = analysis.side_info_gain(code, s)
                    check_gain(rep, self.ref["gains"][name][key], f"{name} S={key}")
                    size = code.subcode_indices(s).shape[0]
                    if size >= 2:
                        tr.count("analysis.fading_pairs", size * (size - 1) // 2)
                        with self.timed(f"analyze/{name}/S{key}/fading"), \
                                tr.span("analysis.fading"):
                            fr = analysis.diversity_and_product_distance(code, s)
                        want = self.ref["fading"][name][key]
                        expect(fr.diversity == want["diversity"], f"diversity {fr.diversity}")
                        expect(math.isclose(fr.product_distance, want["product_distance"],
                                            rel_tol=1e-9),
                               f"product distance {fr.product_distance!r}")

    def module(self, tr):
        from latticedex import analysis

        zi, p5, p13 = self.inputs["zi"]
        for case in MODULE_CASES:
            primes, gmat = module_case(case, zi, p5, p13)
            okc = None
            with self.ck.op(f"module build {case}"):
                with self.timed(f"module/{case}/build", collect=True), \
                        tr.span("analysis.module_build"):
                    okc = analysis.build_oklattice_code(zi, primes, gmat)
            for s in module_sets(len(primes)):
                key = set_key(s)
                with self.ck.op(f"module gain {case} S={key}"):
                    expect(okc is not None, "no module code")
                    with self.timed(f"module/{case}/S{key}"), tr.span("analysis.module_gain"):
                        rep = analysis.oklattice_side_info_gain(okc, s)
                    expect(abs(rep.gamma_db - SIX_DB) <= 1e-9, f"gain {rep.gamma_db!r}")
                    check_gain(rep, self.ref["module"][case][key], f"{case} S={key}")

    def presets_cli(self, traced):
        """Wall time of `latticedex presets` in a fresh interpreter."""
        if traced:
            span_file = self.tmpdir / "presets_spans.json"
            cmd = [sys.executable, str(BENCH / "probe.py"), "presets", "--out", str(span_file)]
        else:
            cmd = [sys.executable, "-m", "latticedex.cli", "presets"]
        spans = None
        with self.ck.op("presets cli"):
            with self.timed("presets_cli", collect=True):
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-500:]}")
            expect(proc.stdout == self.ref["presets_cli"], f"output {proc.stdout!r}")
            if traced:
                spans = json.loads(span_file.read_text())
        return spans

    def sweep(self, tr, codes):
        from latticedex import sim

        for group in SWEEPS:
            for name, channel, s, snr in sweep_calls(group):
                self.sim_call(tr, sim, codes, group, name, channel, s, snr)

    def sim_call(self, tr, sim, codes, group, name, channel, s, snr):
        key = sim_key(name, channel, s)
        with self.ck.op(f"run_sim {key}"):
            code = codes.get(name)
            expect(code is not None, "no code")
            cfg = sim_config(group, code, name, channel, s, snr, self.seed, self.workers[group])
            with self.timed(f"{group}/{key}", collect=True), \
                    tr.span(f"sim.run_sim.{name}.{channel}"):
                res = sim.run_sim(cfg)
            tr.count("sim.calls")
            tr.count(f"sim.trials.{name}.{channel}", sum(p.trials for p in res.points))
            tr.count("sim.errors", sum(p.errors for p in res.points))
            got = [[p.snr_db, p.errors, p.trials] for p in res.points]
            want = self.ref["sims"][group][str(sim_seed(self.seed))][key]
            expect(got == want, f"(snr, errors, trials) {got} != {want}")
            expect(res.code_hash == self.ref["hashes"][name], "code hash in result")

    def run(self, tr, traced):
        """One pass: its operation times, and its wall time, CPU time and the
        machine's steal time during it, in seconds."""
        self.ops = {}
        info = {}
        cpu0 = cpu_seconds()
        steal0 = steal_seconds()
        with tr.span("pass"):
            t0 = time.perf_counter()
            with tr.span("stage.design"):
                codes = self.design(tr)
            if self.workload == "catalog":
                with tr.span("stage.analyze"):
                    self.analyze(tr, codes)
                with tr.span("stage.module"):
                    self.module(tr)
                with tr.span("stage.presets_cli"):
                    info["presets_spans"] = self.presets_cli(traced)
            else:
                with tr.span("stage.sweep"):
                    self.sweep(tr, codes)
            info["wall_s"] = time.perf_counter() - t0
        info["cpu_s"] = cpu_seconds() - cpu0
        steal1 = steal_seconds()
        info["steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
        return self.ops, info

    def design_only(self):
        """Operation times of one design stage run alone."""
        self.ops = {}
        self.design(NullTracer())
        return self.ops


def cpu_seconds():
    """User plus system time of this process and of its children that ended."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def steal_seconds():
    """Time the host took from this machine's CPUs (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# ============================================================
# Tracing: wrappers at the attributes the package calls through
# ============================================================


def install_wrappers(tr):
    from latticedex import analysis, codec, sim

    def rows(t, out, args):
        t.count("linalg.short_vectors_rows", int(out[0].shape[0]))

    def chunk(t, out, args):
        t.count("sim.chunks_run")

    tr.wrap(codec, "short_vectors", "linalg.short_vectors", rows)
    tr.wrap(analysis, "short_vectors", "linalg.short_vectors", rows)
    tr.wrap(analysis, "shortest_nonzero", "linalg.shortest_nonzero")
    tr.wrap(codec.IndexCode, "content_hash", "codec.hash")
    tr.wrap(sim, "_run_chunk", "sim.chunk", chunk)

    base = sim.ProcessPoolExecutor

    class CountingPool(base):
        """Counts the chunks handed to pool workers, barrier waste included."""

        def map(self, fn, *iterables, **kwargs):
            items = list(iterables[0])
            tr.count("sim.chunks_run", len(items))
            return super().map(fn, items, *iterables[1:], **kwargs)

    tr.replace(sim, "ProcessPoolExecutor", CountingPool)


def layer_metrics(tr, npass, presets_spans):
    """Per-layer figures of the traced passes, averaged per pass."""
    from latticedex.sim import CHUNK

    table = tr.table()

    def tot(name, field="total_s"):
        return table.get(name, {}).get(field, 0) / npass

    c = {k: v / npass for k, v in tr.counts.items()}
    m = {
        "linalg.short_vectors_s": tot("linalg.short_vectors"),
        "linalg.short_vectors_calls": tot("linalg.short_vectors", "calls"),
        "linalg.short_vectors_rows": c.get("linalg.short_vectors_rows", 0),
        "linalg.shortest_nonzero_s": tot("linalg.shortest_nonzero"),
        "linalg.shortest_nonzero_calls": tot("linalg.shortest_nonzero", "calls"),
        "codec.build_s": tot("codec.build"),
        "codec.build_self_s": tot("codec.build", "self_s"),
        "codec.hash_s": tot("codec.hash"),
        "codec.hash_calls": tot("codec.hash", "calls"),
        "codec.save_s": tot("codec.save"),
        "codec.load_s": tot("codec.load"),
        "codec.json_bytes": c.get("codec.json_bytes", 0),
        "analysis.gains_s": tot("analysis.gain"),
        "analysis.gain_calls": tot("analysis.gain", "calls"),
        "analysis.fading_s": tot("analysis.fading"),
        "analysis.fading_pairs": c.get("analysis.fading_pairs", 0),
        "analysis.module_build_s": tot("analysis.module_build"),
        "analysis.module_gains_s": tot("analysis.module_gain"),
    }
    sim_self = 0.0
    trials = 0.0
    for name in ALL_PRESETS:
        for channel in CHANNELS:
            span = f"sim.run_sim.{name}.{channel}"
            secs = tot(span)
            n = c.get(f"sim.trials.{name}.{channel}", 0)
            m[f"sim.run_sim_s.{name}.{channel}"] = secs
            m[f"sim.trials_per_s.{name}.{channel}"] = n / secs if secs > 0 else 0.0
            sim_self += tot(span, "self_s")
            trials += n
    m.update({
        "sim.self_s": sim_self,
        "sim.calls": c.get("sim.calls", 0),
        "sim.trials": trials,
        "sim.errors": c.get("sim.errors", 0),
        "sim.chunks": trials / CHUNK,
        "sim.chunks_run": c.get("sim.chunks_run", 0),
    })
    summary = 0.0
    for spans in presets_spans:
        summary += sum(s["end"] - s["start"] for s in spans if s["name"] == "presets.summary")
    m["presets.summary_s"] = summary / npass
    return m


# ============================================================
# Child entry point
# ============================================================


def environment():
    import numpy
    import sympy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--reference", default=str(BENCH / "reference.json"))
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import latticedex

    if Path(latticedex.__file__).resolve().parent != SRC / "latticedex":
        raise SystemExit(f"imported latticedex from {latticedex.__file__}, not {SRC}")
    with open(args.reference) as fh:
        reference = json.load(fh)

    inputs = setup_inputs(args.workload)
    checker = Checker()
    tmpdir = BENCH / "out" / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    bench_pass = Pass(args.workload, args.seed, inputs, reference, checker, tmpdir)
    tracer = Tracer()
    passes = []
    design_extra = []
    presets_spans = []
    t_start = time.perf_counter()

    def fits(last_s):
        """Whether one more step as long as the last one ends within the cap."""
        return time.perf_counter() - t_start + last_s <= TIME_CAP * args.seconds

    try:
        # With --trace 1: an untraced warm-up pass (the first pass in a process
        # pays one-time costs), then one traced and one untraced pass.
        plan = (["warmup", "traced", "untraced"] if args.trace
                else ["untraced"] * planned_passes(args.workload, args.seconds))
        for kind in plan:
            if kind == "traced":
                tracer.run_id = f"{args.workload}:{args.seed}:pass{len(passes)}"
                install_wrappers(tracer)
                try:
                    ops, info = bench_pass.run(tracer, True)
                finally:
                    tracer.uninstall()
                if info.get("presets_spans") is not None:
                    presets_spans.append(info["presets_spans"])
            else:
                ops, info = bench_pass.run(NullTracer(), False)
            info.pop("presets_spans", None)
            passes.append({"kind": kind, **info, "ops": ops})
        # a design stage is short next to a whole pass, so repeat it alone to
        # give each design operation more samples
        last = 0.0
        while not args.trace and (
                len(passes) + len(design_extra) < MIN_DESIGN_SAMPLES
                or len(passes) + len(design_extra) < MAX_DESIGN_SAMPLES and fits(last)):
            t = time.perf_counter()
            design_extra.append(bench_pass.design_only())
            last = time.perf_counter() - t
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "passes": passes,
        "design_extra": design_extra,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "peak_rss_self_mb": self_kb / 1024.0,
        "peak_rss_children_mb": child_kb / 1024.0,
        "sim_seed": sim_seed(args.seed),
        "workers": bench_pass.workers,
        "env": environment(),
        "trace": None,
    }
    if args.trace:
        ntraced = sum(1 for p in passes if p["kind"] == "traced")
        result["trace"] = {
            "layers": layer_metrics(tracer, ntraced, presets_spans),
            "spans_table": tracer.table(),
            "nesting_violations": tracer.nesting_violations(),
            "spans": tracer.to_records(),
            "presets_spans": presets_spans,
        }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
