"""The three benchmark workloads and their correctness gates.

Every workload is a closed loop with one client in one process: a cycle
of operations runs, each operation starting when the previous one has
returned.  All inputs derive from the workload seed.  See README.md for
why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import twcm
import twcm.cli
import twcm.presets
from twcm.errors import ComponentCollapseError, FitFailureError

HERE = Path(__file__).resolve().parent
TWO_PI = 2.0 * math.pi
ID_TOL = 1e-9  # loglik identities
ROUND_TRIP_TOL = 1e-8  # quantile(cdf(theta)), circular distance
ROUND_TRIP_ROWS = 100

# Lowest fitted log-likelihood per row accepted, by workload and fit: about
# six standard deviations below the median over 30 seeds at the seed commit
# (see BASELINE.md), so a correct fitter does not trip them.
LOGLIK_FLOORS = {
    ("protein", "fit_ifm"): 0.85,
    ("buoy", "fit_ifm"): -4.70,
    ("buoy", "em_fit"): -4.30,
    ("cli", "fit"): 0.60,
    ("cli", "mixture"): -4.80,
}

PROTEIN_N = 2000
PROTEIN_IFM_REPS = 3  # fit_ifm of the draws with three config seeds per cycle
PROTEIN_LOGLIK_REPS = 50  # loglik rows = 50 copies of the cycle's draws
PROTEIN_CLI_REPS = 4  # in-process `twcm loglik` calls per cycle
PROTEIN_BOOT_B = 6
PROTEIN_AR2_N = 120
PROTEIN_AR2_CHAINS = 8
PROTEIN_AR2_REPS = 3  # more samples of a short, noisy operation per cycle
VM3 = ("von_mises",) * 3

BUOY_SAMPLE_N = 100_000
BUOY_SAMPLE_REPS = 5  # sample and loglik five 10^5-row sets per cycle
BUOY_FIT_N = 1000
BUOY_EM_RESTARTS = 1
BUOY_IFM_BLOCKS = 8  # fit_ifm on the EM rows and the next seven 1000-row blocks
BUOY_AR2_N = 10_000
BUOY_AR2_REPS = 6  # one chain takes about 1 s; six per cycle steady the median
BUOY_CLI_REPS = 2  # in-process `twcm loglik` calls per sample set
BUOY_FAMS = ("wrapped_cauchy", "wrapped_cauchy", "weibull")
README_AR2 = (2.0, 0.25, 2.0)

CLI_PROTEIN_N = 250
CLI_SAMPLE_N = 200
CLI_GRID_RES = 32
CLI_BUOY_N = 200
CLI_BOOT_B = 4
CLI_AR2_N = 1000

# Rows scored per in-process ``twcm loglik`` call on protein and buoy.
CLI_LOGLIK_N = 20_000

OP_FAILURES = (FitFailureError, ComponentCollapseError)

# The sandbox's speed drifts by up to 1.5x, within seconds and over minutes,
# whatever runs.  So a fixed reference kernel runs right before and after
# every operation, and the operation's wall time is rescaled by the kernel's
# nominal time (its median on a 2-core sandbox) over the
# mean of those two kernel times.  Two kernels, because the speed changes
# hit large vectorized numpy work and many small numpy calls differently:
# each operation is rescaled by the one its own work resembles (the
# workload's CALL_BOUND kinds by "calls", the rest by "array").
REF_NOMINAL_S = {"array": 0.008, "calls": 0.0028}
_REF_K = np.arange(1, 120)
_REF_Y = 6.0 * np.random.default_rng(1).random(400)
_REF_SMALL = np.linspace(0.0, 1.0, 16)


def reference_kernel() -> float:
    """Fixed numpy and interpreter work that does not touch twcm."""
    total = 0.0
    for _ in range(4):
        total += float(np.sin(np.outer(_REF_K, _REF_Y)).sum())
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return total + acc


def call_kernel() -> float:
    """Many small numpy calls, as in a Nelder-Mead objective or a step loop."""
    total = 0.0
    for i in range(600):
        total += float(np.cos(_REF_SMALL * i).sum()) * 0.5 + i
    return total


KERNELS = {"array": reference_kernel, "calls": call_kernel}


def ref_seconds(kernel: str) -> float:
    start = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - start


def cycle_seeds(seed: int, cycle: int, k: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([seed, cycle]).generate_state(k)]


class Run:
    """Operation records, failure counts and gate results of one pass."""

    def __init__(self, tracer=None, cli_prefix=None, call_bound=frozenset()):
        self.tracer = tracer
        self.cli_prefix = cli_prefix  # how a CLI command is started (CliPrefix)
        self.call_bound = call_bound  # kinds rescaled by the "calls" kernel
        # kind, wall seconds, units, seconds rescaled to nominal machine speed
        self.records: list[tuple[str, float, float, float]] = []
        # every reference-kernel time of the pass, by kernel
        self.refs: dict[str, list[float]] = {k: [] for k in KERNELS}
        self.quality: defaultdict = defaultdict(list)
        self.results: list = []  # op outputs summarised for pass-to-pass comparison
        self.cycles: list[float] = []  # seconds of each complete cycle
        self.cmd_walls: list[float] = []  # wall seconds of each CLI subprocess
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.gate_failures: list[str] = []
        self.notes: list[str] = []

    def timed(self, kind: str, units: float, fn, *args, attempts: int = 1, **kwargs):
        """Run one operation; a twcm fit failure is counted, not raised."""
        self.attempted += attempts
        kernel = "calls" if kind in self.call_bound else "array"
        refs = self.refs[kernel]
        refs.append(ref_seconds(kernel))
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                out = self.tracer.span(f"bench.{kind}", fn, *args, **kwargs)
        except OP_FAILURES as exc:
            refs.append(ref_seconds(kernel))
            self.failed += attempts
            self.notes.append(f"{kind} failed: {exc}")
            return None
        seconds = time.perf_counter() - start
        refs.append(ref_seconds(kernel))
        scaled = seconds * REF_NOMINAL_S[kernel] * 2.0 / (refs[-2] + refs[-1])
        self.records.append((kind, seconds, units, scaled))
        return out

    def store(self, kind: str, seconds: float, units: float) -> None:
        """Store an operation that ran in a child process, not rescaled: the
        reference kernel run here does not track the child's speed."""
        self.records.append((kind, seconds, units, seconds))

    def speed(self, kernel: str) -> float:
        """Machine speed during the pass relative to the nominal one, as
        ``kernel`` sees it."""
        refs = self.refs[kernel]
        return REF_NOMINAL_S[kernel] / float(np.median(refs)) if refs else 1.0

    def check(self, ok, message: str) -> None:
        self.checks += 1
        if not ok:
            self.gate_failures.append(message)

    def gate(self, fn, *args) -> None:
        """Run a gate function with tracing paused."""
        if self.tracer is None:
            fn(self, *args)
        else:
            with self.tracer.paused():
                fn(self, *args)


# ---------------------------------------------------------------- gates


def _circ_dist(a, b):
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


def gate_draws(run: Run, marginals, draws) -> None:
    draws = np.asarray(draws)
    run.check(draws.ndim == 2 and draws.shape[1] == 3, f"draws shape {draws.shape}")
    run.check(np.isfinite(draws).all(), "non-finite draws")
    for i, m in enumerate(marginals):
        col = draws[:, i]
        if m.domain == "circular":
            run.check(((col >= 0.0) & (col < TWO_PI)).all(), f"draw column {i} off [0, 2pi)")
            x = col[:ROUND_TRIP_ROWS]
            back = m.quantile(np.mod(m.cdf(x), 1.0))
            err = float(np.max(_circ_dist(back, x)))
            run.check(err <= ROUND_TRIP_TOL, f"quantile(cdf) round trip off by {err:.2e}")
        else:
            run.check((col > 0.0).all(), f"draw column {i} not positive")


def gate_chain(run: Run, chain) -> None:
    chain = np.asarray(chain)
    run.check(np.isfinite(chain).all(), "non-finite AR(2) chain")
    run.check(((chain >= 0.0) & (chain < TWO_PI)).all(), "AR(2) chain off [0, 2pi)")


def gate_rho(run: Run, rho) -> None:
    run.check(twcm.validate_rho(rho).valid, f"invalid fitted rho {rho}")
    run.check(rho.identifiable, f"fitted rho {rho} not identifiable")


def gate_fit_loglik(run: Run, key, loglik: float, n: int) -> None:
    per_row = loglik / n
    run.check(math.isfinite(per_row), f"{key} loglik not finite")
    run.check(per_row >= LOGLIK_FLOORS[key], f"{key} loglik/row {per_row:.4f} below floor")


def gate_model_loglik(run: Run, model, rows, loglik: float, copies: int = 1) -> None:
    """loglik == copies * sum(log_density(rows)), and log_density equals the
    copula log density on the pseudo-observations plus the marginal logpdfs."""
    ld = model.log_density(rows)
    total = copies * float(np.sum(ld))
    run.check(math.isfinite(loglik), "loglik not finite")
    run.check(abs(loglik - total) <= ID_TOL * max(1.0, abs(total)),
              f"loglik {loglik!r} != sum of log_density {total!r}")
    u = model.pseudo_observations(rows)
    composed = twcm.copula_log_density(u, model.rho) + 3.0 * math.log(TWO_PI)
    for i, m in enumerate(model.marginals):
        composed = composed + m.logpdf(rows[:, i])
    err = float(np.max(np.abs(ld - composed) / np.maximum(1.0, np.abs(ld))))
    run.check(err <= ID_TOL, f"log_density differs from the composed form by {err:.2e}")


def gate_mixture(run: Run, mixture, report, n: int) -> None:
    run.check(abs(sum(mixture.weights) - 1.0) <= 1e-12, "EM weights do not sum to 1")
    for comp in mixture.components:
        gate_rho(run, comp.rho)
    gate_fit_loglik(run, ("buoy", "em_fit"), report.loglik, n)


def gate_mixture_loglik(run: Run, mixture, rows, loglik: float) -> None:
    total = float(np.sum(mixture.log_density(rows)))
    run.check(abs(loglik - total) <= ID_TOL * max(1.0, abs(total)),
              f"mixture loglik {loglik!r} != sum of log_density {total!r}")
    head = rows[:PROTEIN_N]
    for comp in mixture.components:
        gate_model_loglik(run, comp, head, comp.loglik(head))


def cli_loglik(run: Run, workdir: Path, model, rows) -> None:
    """Score ``rows`` through the CLI layer in this process: ``twcm.cli.main``
    runs ``loglik`` on a CSV of the rows and a JSON of the model, and the
    total it writes must equal ``model.loglik(rows)``."""
    model_path, data_path, out_path = (workdir / f for f in ("cli_model.json", "cli_rows.csv",
                                                            "cli_loglik.csv"))
    model.save(model_path)
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write("c1,c2,c3\n")
        fh.writelines(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows.tolist())
    argv = ["loglik", "--model", str(model_path), "--data", str(data_path),
            "--out", str(out_path)]
    code = run.timed("cli_loglik", rows.shape[0], lambda: twcm.cli.main(argv))
    if code != 0:
        run.failed += 1
        run.notes.append(f"cli loglik exited {code}")
        return
    run.gate(gate_cli_loglik, model, rows, out_path)
    run.results.append(("cli_loglik", out_path.read_text()))


def gate_cli_loglik(run: Run, model, rows, out_path: Path) -> None:
    written = float(_csv_rows(out_path.read_bytes())[0]["loglik"])
    expected = model.loglik(rows)
    run.check(abs(written - expected) <= ID_TOL * max(1.0, abs(expected)),
              f"cli loglik {written!r} != model loglik {expected!r}")


# ---------------------------------------------------------------- workloads


class Protein:
    """Torus preset with three von Mises marginals."""

    name = "protein"
    CALL_BOUND = frozenset(("ar2", "cli_loglik"))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.model = twcm.presets.protein_model()
        mu = float(np.random.default_rng([seed, 2**31]).uniform(0.0, TWO_PI))
        self.ar2 = twcm.Ar2Params(*README_AR2, marginal=twcm.VonMises(mu, 5.0))

    def cycle(self, run: Run, i: int) -> None:
        s = cycle_seeds(self.seed, i, 4)
        draws = run.timed("sample", PROTEIN_N, self.model.sample, PROTEIN_N, seed=s[0])
        run.gate(gate_draws, self.model.marginals, draws)
        fits = [run.timed("fit_ifm", 1, twcm.fit_ifm, draws, VM3, twcm.FitConfig(seed=s[1] + r))
                for r in range(PROTEIN_IFM_REPS)]
        for fit in fits:
            if fit is not None:
                run.gate(gate_rho, fit.model.rho)
                run.gate(gate_fit_loglik, ("protein", "fit_ifm"), fit.loglik, PROTEIN_N)
                run.quality["fit_loglik_per_row"].append(fit.loglik / PROTEIN_N)
                run.results.append(("fit_ifm", fit.loglik))
        fit = fits[0]
        if fit is not None:
            rows = np.tile(draws, (PROTEIN_LOGLIK_REPS, 1))
            ll = run.timed("loglik", rows.shape[0], fit.model.loglik, rows)
            run.gate(gate_model_loglik, fit.model, draws, ll, PROTEIN_LOGLIK_REPS)
            run.results.append(("loglik", ll))
            for r in range(PROTEIN_CLI_REPS):
                cli_loglik(run, self.workdir, fit.model,
                           rows[r * CLI_LOGLIK_N:(r + 1) * CLI_LOGLIK_N])
        cfg = twcm.FitConfig(seed=s[2], bootstrap_b=PROTEIN_BOOT_B)
        boot = run.timed("bootstrap", PROTEIN_BOOT_B, twcm.bootstrap_se, draws, VM3, cfg,
                         attempts=PROTEIN_BOOT_B)
        if boot is not None:
            run.failed += boot.b_failed
            if boot.b_failed < PROTEIN_BOOT_B - 1:
                run.check(all(math.isfinite(v) for v in boot.se.values()),
                          "non-finite bootstrap SE")
            run.results.append(("bootstrap", sorted(boot.se.items())))
        for c in range(PROTEIN_AR2_REPS):
            chains = run.timed("ar2", PROTEIN_AR2_N * PROTEIN_AR2_CHAINS, twcm.simulate,
                               self.ar2, PROTEIN_AR2_N, seed=s[3] + c,
                               n_chains=PROTEIN_AR2_CHAINS)
            run.gate(gate_chain, chains)
            run.results.append(("ar2", float(np.sum(chains))))


class Buoy:
    """Cylinder preset: wrapped Cauchy, wrapped Cauchy and Weibull marginals."""

    name = "buoy"
    CALL_BOUND = frozenset(("em_fit", "fit_ifm", "ar2", "cli_loglik"))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.truth = twcm.presets.buoy_mixture()
        self.ar2 = twcm.Ar2Params(*README_AR2, marginal=twcm.WrappedCauchy(3.0, 0.5))

    def cycle(self, run: Run, i: int) -> None:
        s = cycle_seeds(self.seed, i, 4)
        sets = []
        for r in range(BUOY_SAMPLE_REPS):
            sets.append(run.timed("sample", BUOY_SAMPLE_N, self.truth.sample, BUOY_SAMPLE_N,
                                  seed=s[0] + r))
            run.gate(gate_draws, self.truth.components[0].marginals, sets[-1])
        rows = sets[0]
        data = rows[:BUOY_FIT_N]
        em = run.timed("em_fit", 1, twcm.em_fit, data, 2, BUOY_FAMS,
                       twcm.FitConfig(seed=s[1]), restarts=BUOY_EM_RESTARTS)
        if em is not None:
            mixture, report = em
            run.gate(gate_mixture, mixture, report, BUOY_FIT_N)
            run.quality["em_loglik_per_row"].append(report.loglik / BUOY_FIT_N)
            run.results.append(("em_fit", report.loglik, report.n_iter))
            for rows_r in sets:
                ll = run.timed("loglik", BUOY_SAMPLE_N, mixture.loglik, rows_r)
                run.gate(gate_mixture_loglik, mixture, rows_r, ll)
                run.results.append(("loglik", ll))
        for b in range(BUOY_IFM_BLOCKS):
            block = rows[b * BUOY_FIT_N:(b + 1) * BUOY_FIT_N]
            fit = run.timed("fit_ifm", 1, twcm.fit_ifm, block, BUOY_FAMS,
                            twcm.FitConfig(seed=s[2] + b))
            if fit is not None:
                run.gate(gate_rho, fit.model.rho)
                run.gate(gate_fit_loglik, ("buoy", "fit_ifm"), fit.loglik, BUOY_FIT_N)
                run.quality["fit_loglik_per_row"].append(fit.loglik / BUOY_FIT_N)
                run.results.append(("fit_ifm", fit.loglik))
                if b == 0:
                    for rows_r in sets:
                        for r in range(BUOY_CLI_REPS):
                            cli_loglik(run, self.workdir, fit.model,
                                       rows_r[r * CLI_LOGLIK_N:(r + 1) * CLI_LOGLIK_N])
        for c in range(BUOY_AR2_REPS):
            chain = run.timed("ar2", BUOY_AR2_N, twcm.simulate, self.ar2, BUOY_AR2_N,
                              seed=s[3] + c)
            run.gate(gate_chain, chain)
            run.results.append(("ar2", float(np.sum(chain))))


class Cli:
    """The README pipeline as one subprocess per command, on small inputs."""

    name = "cli"
    CALL_BOUND = frozenset()  # times nothing in-process

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        # every pipeline repeats the same commands, so outputs must match
        self.seeds = [str(x) for x in cycle_seeds(seed, 0, 7)]
        self.reference: dict[str, bytes] | None = None

    def commands(self):
        s = self.seeds
        vm3 = ",".join(VM3)
        return (
            ("synth", CLI_PROTEIN_N, ["synth", "--preset", "protein", "--n", str(CLI_PROTEIN_N),
                                      "--seed", s[0], "--out", "data.csv"]),
            ("fit", 1, ["fit", "--data", "data.csv", "--marginals", vm3, "--seed", s[1],
                        "--out", "model.json"]),
            ("sample", CLI_SAMPLE_N, ["sample", "--model", "model.json", "--n",
                                      str(CLI_SAMPLE_N), "--seed", s[2], "--out", "draws.csv"]),
            ("loglik", CLI_PROTEIN_N, ["loglik", "--model", "model.json", "--data", "data.csv",
                                       "--out", "loglik.csv"]),
            ("grid", CLI_GRID_RES**2, ["grid", "--model", "model.json", "--pair", "1,2",
                                       "--res", str(CLI_GRID_RES), "--out", "grid.csv"]),
            ("grid", CLI_GRID_RES**2, ["grid", "--model", "model.json", "--pair", "1,2",
                                       "--given", "3=6.23", "--res", str(CLI_GRID_RES),
                                       "--out", "grid_given.csv"]),
            ("synth", CLI_BUOY_N, ["synth", "--preset", "buoy", "--n", str(CLI_BUOY_N),
                                   "--seed", s[3], "--out", "buoy.csv"]),
            ("mixture", 2, ["mixture", "--data", "buoy.csv", "--marginals", ",".join(BUOY_FAMS),
                            "--k", "1..2", "--restarts", "1", "--seed", s[4],
                            "--out-prefix", "mixture"]),
            ("bootstrap", CLI_BOOT_B, ["bootstrap", "--data", "data.csv", "--marginals", vm3,
                                       "--B", str(CLI_BOOT_B), "--seed", s[5],
                                       "--out", "bootstrap.csv"]),
            ("ar2", CLI_AR2_N, ["ar2", "--rho", ",".join(map(str, README_AR2)), "--marginal",
                                "wrapped_cauchy:mu=3.0,xi=0.5", "--n", str(CLI_AR2_N),
                                "--seed", s[6], "--out", "chain.csv"]),
        )

    def cycle(self, run: Run, i: int) -> None:
        pdir = self.workdir / f"{run.cli_prefix.name}-{i}"
        tdir = self.workdir / f"{run.cli_prefix.name}-{i}-records"
        pdir.mkdir()
        tdir.mkdir()
        total = 0.0
        complete = True
        for j, (name, units, argv) in enumerate(self.commands()):
            record = tdir / f"{j:02d}_{name}.json"
            cmd = run.cli_prefix.argv(record) + argv
            run.attempted += 1
            start = time.perf_counter()
            with open(pdir / f"{j:02d}_{name}.stdout", "wb") as out:
                proc = subprocess.run(cmd, cwd=pdir, stdout=out, stderr=subprocess.PIPE)
            seconds = time.perf_counter() - start
            if proc.returncode != 0:
                run.failed += 1
                complete = False
                run.notes.append(f"cli {name} exited {proc.returncode}: "
                                 f"{proc.stderr.decode(errors='replace')[-300:]}")
                continue
            # the rates use the launcher's time of the ``main`` call: argparse,
            # ingest, compute and writing, without start-up and import
            rec = json.loads(record.read_text())
            run.store(name, rec["main_s"], units)
            run.cmd_walls.append(seconds)
            total += seconds
            run.cli_prefix.records.append((name, seconds, rec))
        if complete:
            run.cycles.append(total)
        run.gate(self.gate_outputs, pdir, complete)
        shutil.rmtree(pdir)
        shutil.rmtree(tdir)

    def gate_outputs(self, run: Run, pdir: Path, complete: bool) -> None:
        """Byte-compare with the first pipeline; check a complete one's outputs."""
        files = {p.name: p.read_bytes() for p in sorted(pdir.iterdir())}
        if self.reference is None:
            self.reference = files
        differ = sorted(k for k in files.keys() | self.reference.keys()
                        if files.get(k) != self.reference.get(k))
        run.check(not differ, f"cli pipeline outputs differ between runs: {differ}")
        if complete and not differ:
            model = json.loads(files["model.json"])
            rho = twcm.RhoVector(*model["rho"])
            gate_rho(run, rho)
            gate_fit_loglik(run, ("cli", "fit"), model["fit"]["loglik"], model["fit"]["n"])
            run.quality["fit_loglik_per_row"].append(model["fit"]["loglik"] / model["fit"]["n"])
            mix = json.loads(files["mixture_model.json"])
            run.check(abs(sum(mix["weights"]) - 1.0) <= 1e-12, "mixture weights do not sum to 1")
            table = _csv_rows(files["07_mixture.stdout"])
            selected = min(table, key=lambda r: float(r["bic"]))
            em_ll = float(selected["loglik"]) / CLI_BUOY_N
            gate_fit_loglik(run, ("cli", "mixture"), float(selected["loglik"]), CLI_BUOY_N)
            run.quality["em_loglik_per_row"].append(em_ll)
            draws = np.array([[float(v) for v in r.values()]
                              for r in _csv_rows(files["draws.csv"])])
            marginals = twcm.TwcmModel.from_dict(model).marginals
            gate_draws(run, marginals, draws)
            chain = np.array([float(r["theta"]) for r in _csv_rows(files["chain.csv"])])
            gate_chain(run, chain)


def _csv_rows(data: bytes) -> list[dict]:
    lines = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


class CliPrefix:
    """How a CLI command is started: through the benchmark's launcher, with
    or without tracing wrappers."""

    def __init__(self, name: str):
        self.name = name  # launcher | traced
        self.records: list[tuple[str, float, dict]] = []  # command, seconds, launcher record

    def argv(self, record: Path) -> list[str]:
        flag = ["--trace"] if self.name == "traced" else []
        return [sys.executable, str(HERE / "launch.py"), *flag, str(record), "--"]


WORKLOADS = {"protein": Protein, "buoy": Buoy, "cli": Cli}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)
