#!/usr/bin/env python3
"""Benchmark for the twcm package in ``src/``.

    python3 perfbench/run.py --workload {protein,buoy,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` runs the workload in a closed
loop for S seconds with no instrumentation and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of cycles twice, first plain
and then with tracing wrappers installed, and reports the per-layer
metrics and the tracing overhead.  Either way the outputs are checked;
the last line of standard output is one JSON object, and the exit code
is 1 when a correctness gate failed.  README.md describes every metric.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS/OpenMP thread: set before numpy loads, inherited by every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

SETUP_REPS = 9
IMPORT_REPS = 3  # cli only
MIN_CYCLES = {"protein": 1, "buoy": 1, "cli": 2}  # cli: two pipelines to compare
TRACE_CYCLES = {"protein": 2, "buoy": 3, "cli": 1}
CLI_COMMANDS = ("synth", "fit", "sample", "loglik", "grid", "mixture", "bootstrap", "ar2")

# (metric, unit, workloads it applies to, op kinds it is computed from)
ALL = ("protein", "buoy", "cli")
END_TO_END = (
    ("setup_s", "s", ALL, ()),
    ("import_s", "s", ("cli",), ()),
    ("peak_rss_mb", "MB", ALL, ()),
    ("fail_share", "share", ALL, ()),
    ("sample_rows_per_s", "rows/s", ALL, ("sample",)),
    ("loglik_rows_per_s", "rows/s", ALL, ("loglik",)),
    ("ifm_fits_per_s", "fits/s", ALL, ("fit_ifm", "fit")),
    ("boot_reps_per_s", "replicates/s", ("protein", "cli"), ("bootstrap",)),
    ("em_fits_per_s", "fits/s", ("buoy", "cli"), ("em_fit", "mixture")),
    ("ar2_steps_per_s", "steps/s", ALL, ("ar2",)),
    ("cli_rows_per_s", "rows/s", ALL, ("cli_loglik", "loglik")),
    ("fit_loglik_per_row", "nats", ALL, ()),
    ("em_loglik_per_row", "nats", ("buoy", "cli"), ()),
    ("cli_cmd_s.p50", "s", ("cli",), ()),
    ("cli_pipeline_s", "s", ("cli",), ()),
)
# The metrics in the final JSON line, as BENCHMARK.json lists them; every
# workload reports them.
GATED = ("setup_s", "peak_rss_mb", "sample_rows_per_s", "loglik_rows_per_s",
         "ifm_fits_per_s", "ar2_steps_per_s", "cli_rows_per_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=ALL, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only import the package and build the inputs (set-up probe)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def wall_of(cmd) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(args) -> dict:
    """Median wall time of fresh set-up probes; for cli also of a bare
    import.  Not rescaled: the reference kernel run here does not track a
    child process's speed."""
    probe = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"]
    setups = [wall_of(probe) for _ in range(SETUP_REPS)]
    imports = ([wall_of([sys.executable, "-c", "import twcm"]) for _ in range(IMPORT_REPS)]
               if args.workload == "cli" else [])
    return {"setup_s": (statistics.median(setups), len(setups)),
            "import_s": (median_or_zero(imports), len(imports))}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "git_sha": sha,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
    }


def end_to_end(workload: str, run, setup: dict) -> dict:
    """metric -> (value, unit, sample count) for the metrics of ``workload``.

    Times of in-process operations are rescaled to the nominal machine
    speed (see ``workloads.REF_NOMINAL_S``); rates also appear unscaled as
    ``<metric>.wall``.
    """
    by_kind: dict[str, list[tuple[float, float, float]]] = {}
    for kind, seconds, units, scaled in run.records:
        by_kind.setdefault(kind, []).append((scaled, seconds, units))
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    values = {
        "setup_s": setup["setup_s"],
        "import_s": setup["import_s"],
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, 1),
        "fail_share": (run.failed / max(run.attempted, 1), run.attempted),
        "cli_cmd_s.p50": (median_or_zero(run.cmd_walls), len(run.cmd_walls)),
        "cli_pipeline_s": (median_or_zero(run.cycles), len(run.cycles)),
    }
    for name in ("fit_loglik_per_row", "em_loglik_per_row"):
        vals = run.quality[name]
        values[name] = (median_or_zero(vals), len(vals))
    out = {}
    for name, unit, applies, kinds in END_TO_END:
        if workload not in applies:
            continue
        if kinds:
            ops = next((by_kind[k] for k in kinds if k in by_kind), [])
            values[name] = (median_or_zero([u / s for s, _, u in ops]), len(ops))
            out[f"{name}.wall"] = (median_or_zero([u / w for _, w, u in ops]), unit, len(ops))
        value, n = values[name]
        out[name] = (value, unit, n)
    for kernel, refs in run.refs.items():
        if refs:  # cli times nothing in-process
            out[f"machine_speed.{kernel}"] = (run.speed(kernel), "share", len(refs))
    return out


def run_timed(wl, seconds: int):
    import workloads

    run = workloads.Run(cli_prefix=workloads.CliPrefix("launcher"), call_bound=wl.CALL_BOUND)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        wl.cycle(run, i)
        i += 1
        if i >= MIN_CYCLES[wl.name] and time.perf_counter() >= deadline:
            return run


def run_traced(wl):
    """Fixed cycles plain, then the same cycles traced; per-layer metrics."""
    import tracer
    import workloads

    cycles = TRACE_CYCLES[wl.name]
    is_cli = wl.name == "cli"
    tr = None if is_cli else tracer.Tracer()
    plain = workloads.Run(cli_prefix=workloads.CliPrefix("launcher"), call_bound=wl.CALL_BOUND)
    traced = workloads.Run(tracer=tr, cli_prefix=workloads.CliPrefix("traced"),
                           call_bound=wl.CALL_BOUND)
    # each cycle runs plain and traced back to back, alternating which
    # goes first, so warm-up costs fall on both sides
    for i in range(cycles):
        for side in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            restore = tracer.install(tr) if side is traced and not is_cli else []
            try:
                wl.cycle(side, i)
            finally:
                tracer.uninstall(restore)
    traced.check(plain.results == traced.results,
                 "traced pass results differ from the untraced pass")

    # (wall, rescaled) seconds of each operation; for cli the launcher's
    # own time inside each process, not rescaled
    def walls(run):
        if is_cli:
            return [(rec["wall_s"], rec["wall_s"]) for _, _, rec in run.cli_prefix.records]
        return [(op[1], op[3]) for op in run.records]

    traced_wall = sum(w for w, _ in walls(traced))
    plain_scaled = sum(s for _, s in walls(plain))
    overhead = sum(s for _, s in walls(traced)) - plain_scaled

    calls, self_s, counts, spans = {}, {}, {}, []
    if is_cli:
        records = traced.cli_prefix.records
        for proc, (name, _, rec) in enumerate(records):
            for src, dst in (("calls", calls), ("self_s", self_s), ("counts", counts)):
                for key, val in rec[src].items():
                    dst[key] = dst.get(key, 0) + val
            spans.extend([proc, *span] for span in rec["spans"])
    else:
        records = []
        calls, self_s, counts = tr.calls, tr.self_s, tr.counts
        spans = [[0, *span] for span in tr.spans]

    layer = tracer.layer_metrics(calls, self_s, counts)
    layer["cli.import_s"] = median_or_zero([rec["import_s"] for _, _, rec in records])
    for cmd in CLI_COMMANDS:
        layer[f"cli.{cmd}_s"] = sum(s for name, s, _ in records if name == cmd)
    for name in ("fit_loglik_per_row", "em_loglik_per_row"):
        layer[name] = median_or_zero(traced.quality[name])
    self_sum = float(sum(self_s.values()))
    layer["bench.self_s"] = float(sum(v for k, v in self_s.items() if k.startswith("bench.")))
    layer["trace.spans"] = len(spans)
    layer["trace.wall_s"] = traced_wall
    layer["trace.self_sum_s"] = self_sum
    layer["trace.untraced_s"] = plain_scaled
    layer["trace.overhead_s"] = overhead
    layer["trace.overhead_share"] = overhead / plain_scaled
    return layer, spans, plain, traced


def unit_of(metric: str) -> str:
    if metric.endswith("_share"):
        return "share"
    if metric.endswith("loglik_per_row"):
        return "nats"
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twcm" / "__init__.py").is_file():
        print(f"error: no twcm package at {SRC / 'twcm'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    import workloads

    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as wd:
            workloads.make(args.workload, args.seed, Path(wd))
        return 0

    # warm the bytecode cache so every run imports from compiled files
    compileall.compile_dir(str(SRC / "twcm"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{tag}-") as wd:
        wl = workloads.make(args.workload, args.seed, Path(wd))
        if args.trace:
            layer, spans, plain, run = run_traced(wl)
            metrics = {k: (v, unit_of(k), 1) for k, v in layer.items()}
            attempted, failed = plain.attempted + run.attempted, plain.failed + run.failed
            checks = plain.checks + run.checks
            gate_failures = plain.gate_failures + run.gate_failures
            notes = plain.notes + run.notes
            with open(OUT / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
                json.dump({"columns": ["process", "name", "start", "end", "parent"],
                           "spans": spans}, fh)
        else:
            setup = measure_setup(args)
            run = run_timed(wl, args.seconds)
            metrics = end_to_end(args.workload, run, setup)
            attempted, failed = run.attempted, run.failed
            checks, gate_failures, notes = run.checks, run.gate_failures, run.notes

    correct = not gate_failures
    print(f"# twcm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit:14s} n={n}")
    print(f"# gates: {checks - len(gate_failures)}/{checks} passed; "
          f"ops failed {failed}/{attempted}")
    for msg in gate_failures[:20] + notes[:20]:
        print(f"#   {msg}")
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "correct": correct, "attempted": attempted, "failed": failed,
                   "gate_failures": gate_failures, "notes": notes,
                   "ops": run.records, "refs": run.refs,
                   "metrics": {k: {"value": v, "unit": u, "n": n}
                               for k, (v, u, n) in metrics.items()}}, fh, indent=1)
    shown = metrics if args.trace else {k: metrics[k] for k in GATED if k in metrics}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
