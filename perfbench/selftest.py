#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that

1. BENCHMARK.json lists exactly the metrics run.py prints in each mode,
   on every workload;
2. the tracer's self times add up on a synthetic call tree, and a gate
   that sees bad output records a failure;
3. run.py exits nonzero, printing no result, where there is no package;
4. for each workload, two traced runs with the same seed repeat every
   count metric and both loglik-per-row metrics exactly;
5. in each traced run the summed self times account for the traced wall
   time within the reported tracing overhead.

Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

SEED = 7
WORKLOADS = ("protein", "buoy", "cli")
COUNT_SUFFIXES = (".calls", ".values", ".rows", ".nfev", ".starts", ".steps",
                  ".iterations", ".loglik_decreases", ".failed_reps",
                  ".useful_start_share", "_loglik_per_row", "trace.spans")

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches(workload: str, traced: dict) -> None:
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    check(e2e == list(run.GATED), "BENCHMARK.json end_to_end equals run.GATED")
    layer = [m["name"] for m in spec["per_layer"]]
    check(layer == list(traced["metrics"]),
          f"BENCHMARK.json per_layer equals the traced {workload} metrics")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(all(units[k] == v["unit"] for k, v in traced["metrics"].items()),
          "per_layer units match the traced output")


def test_untraced_line(workload: str) -> None:
    """The result line of a --trace 0 run holds every end_to_end metric of
    BENCHMARK.json, in its unit and never 0, on every workload."""
    proc = run_bench(workload, SEED, 0)
    check(proc.returncode == 0, f"{workload} untraced run exits 0")
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:])
        return
    result = result_of(proc)
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{workload}: result line keys")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{workload}: untraced metrics and units equal BENCHMARK.json end_to_end")
    check(all(v["value"] > 0 for v in result["metrics"].values()),
          f"{workload}: every end-to-end value is above 0")


def test_tracer_and_gates() -> None:
    import numpy as np

    import tracer
    import workloads

    tr = tracer.Tracer()

    def leaf(n):
        return sum(i * i for i in range(n))

    def node(n):
        return tr.span("leaf", leaf, n) + tr.span("leaf", leaf, n)

    for _ in range(3):
        tr.span("root", lambda: tr.span("node", node, 20000))
    roots = sum(end - start for _, start, end, parent in tr.spans if parent == -1)
    check(abs(tr.self_sum() - roots) < 1e-9, "self times sum to the root spans' duration")
    check(min(tr.self_s.values()) >= 0.0, "self times are nonnegative")
    check(dict(tr.calls) == {"leaf": 6, "node": 3, "root": 3}, "span call counts")

    run = workloads.Run()
    run.gate(workloads.gate_chain, np.array([0.5, float("nan")]))
    check(bool(run.gate_failures), "a non-finite AR(2) chain fails its gate")


def test_no_package_fails() -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("protein", 1, 0, cwd=Path(tmp))
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without src/ run.py exits nonzero and prints no result")


def test_traced_repeat(workload: str, seed: int) -> dict:
    runs = [run_bench(workload, seed, 1) for _ in range(2)]
    for proc in runs:
        check(proc.returncode == 0, f"{workload} traced run exits 0")
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:])
            return {}
    a, b = (result_of(p)["metrics"] for p in runs)
    counts = [k for k in a if k.endswith(COUNT_SUFFIXES)]
    differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
    check(not differ, f"{workload}: {len(counts)} count metrics repeat exactly {differ}")
    for m in (a, b):
        wall, self_sum = m["trace.wall_s"]["value"], m["trace.self_sum_s"]["value"]
        overhead = m["trace.overhead_s"]["value"]
        check(math.isfinite(wall) and abs(wall - self_sum) <= abs(overhead),
              f"{workload}: self times {self_sum:.4f} s account for wall {wall:.4f} s "
              f"within overhead {overhead:.4f} s")
    return result_of(runs[0])


def main() -> int:
    test_tracer_and_gates()
    test_no_package_fails()
    for wl in WORKLOADS:
        test_untraced_line(wl)
        traced = test_traced_repeat(wl, SEED)
        if traced:
            test_spec_matches(wl, traced)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
