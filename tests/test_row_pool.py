"""The thread pool that scores and draws blocks of rows: results bit for bit
those of one thread at any thread count, draws bit for bit those of the
one-thread sampler that draws each component's uniforms as it goes, errors
and NumPy's error state carried over from the caller, fork safety, and no
pool where one block or one CPU is all there is."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import twcm
from twcm import RhoVector, _util, cli, copula_sample, em_fit, responsibilities
from twcm._util import _ROW_BLOCK, TWO_PI, as_rng, for_row_blocks, wc_kernel_sample
from twcm.copula import conditional_phi, pairwise_phi
from twcm.marginals import FAMILIES
from twcm.presets import buoy_mixture, independence_like_model, protein_model

WORKER_COUNTS = (1, 2, 4)
BUOY_FAMS = ("wrapped_cauchy", "wrapped_cauchy", "weibull")
# one row, one whole block, one block and a row, many blocks
DRAW_SIZES = (1, _ROW_BLOCK, _ROW_BLOCK + 1, 5 * _ROW_BLOCK + 3)
SAMPLER_RHOS = {
    "protein": protein_model().rho,
    "independence_like": independence_like_model().rho,
    **{f"buoy{j}": comp.rho for j, comp in enumerate(buoy_mixture().components)},
    "edge": RhoVector(-1e3, 1e-3, -1.0),
}


@pytest.fixture
def workers(monkeypatch):
    """Set the thread count, on a pool of this test's own; the pool is shut
    down after the test."""
    monkeypatch.setattr(_util, "_pool", None)

    def use(count):
        monkeypatch.setattr(_util, "_worker_count", lambda: count)

    yield use
    if _util._pool is not None:
        _util._pool[1].shutdown()


def at_each_count(workers, fn):
    """``fn()`` at every count of WORKER_COUNTS."""
    results = []
    for count in WORKER_COUNTS:
        workers(count)
        results.append(fn())
    return results


def assert_all_equal(results):
    for got in results[1:]:
        np.testing.assert_array_equal(got, results[0], strict=True)


def reference_copula_sample(n, rho, rng):
    """The sampler drawing as it goes, one thread: u1, then u2 | u1 and
    u3 | u1, u2, each a kernel draw from a fresh uniform."""
    u1 = TWO_PI * rng.random(n)
    u2 = wc_kernel_sample(u1, pairwise_phi(rho, (1, 2)), rng)
    ph = conditional_phi(rho, 3, u1, u2)
    u3 = wc_kernel_sample(np.angle(ph), np.abs(ph), rng)
    return np.column_stack([u1, u2, u3])


def reference_model_sample(model, n, rng):
    u = reference_copula_sample(n, model.rho, rng)
    return np.column_stack([m.quantile(u[:, i] / TWO_PI) for i, m in enumerate(model.marginals)])


def reference_mixture_sample(mix, n, seed):
    """Labels first, then each component's rows in turn, set by a mask."""
    rng = as_rng(seed)
    labels = rng.choice(mix.k, size=n, p=np.asarray(mix.weights))
    out = np.empty((n, 3))
    for j, comp in enumerate(mix.components):
        mask = labels == j
        if mask.any():
            out[mask] = reference_model_sample(comp, int(mask.sum()), rng)
    return out, labels


def assert_bytes_equal(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_protein_sample_at_every_thread_count(workers, n):
    model = protein_model()
    expected = reference_model_sample(model, n, np.random.default_rng(n))
    for got in at_each_count(workers, lambda: model.sample(n, seed=n)):
        assert_bytes_equal(got, expected)


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_buoy_mixture_sample_at_every_thread_count(workers, n):
    mix = buoy_mixture()
    expected, labels = reference_mixture_sample(mix, n, n)
    for got in at_each_count(workers, lambda: mix.sample(n, seed=n)):
        assert_bytes_equal(got, expected)
    for got, got_labels in at_each_count(
            workers, lambda: mix.sample(n, seed=n, return_labels=True)):
        assert_bytes_equal(got, expected)
        assert_bytes_equal(got_labels, labels)


@pytest.mark.parametrize("n", DRAW_SIZES)
@pytest.mark.parametrize("rho", sorted(SAMPLER_RHOS))
def test_copula_sample_at_every_thread_count(workers, rho, n):
    expected = reference_copula_sample(n, SAMPLER_RHOS[rho], np.random.default_rng(n))
    for got in at_each_count(workers, lambda: copula_sample(n, SAMPLER_RHOS[rho], seed=n)):
        assert_bytes_equal(got, expected)


def test_a_mixture_draws_no_rows_of_an_unlabelled_component(workers):
    # a component that no label picks draws no uniforms, as in the reference
    mix = buoy_mixture()
    mix = twcm.MixtureModel(weights=(1.0 - 1e-12, 1e-12), components=mix.components[:2])
    n = 2 * _ROW_BLOCK
    expected, labels = reference_mixture_sample(mix, n, 3)
    assert not labels.any()
    for got in at_each_count(workers, lambda: mix.sample(n, seed=3)):
        assert_bytes_equal(got, expected)
    assert mix.sample(0, seed=3).shape == (0, 3)


def test_protein_log_density_at_every_thread_count(workers):
    # seven blocks, the last of one row
    model = protein_model()
    data = model.sample(100_001, seed=3)
    assert_all_equal(at_each_count(workers, lambda: model.log_density(data)))
    assert len(set(at_each_count(workers, lambda: model.loglik(data)))) == 1


@pytest.mark.parametrize("score", ["log_density", "loglik", "responsibilities",
                                   "component_log_densities"])
def test_buoy_mixture_at_every_thread_count(workers, score):
    mix = buoy_mixture()
    data = mix.sample(3 * _ROW_BLOCK + 5, seed=4)
    fn = {
        "log_density": lambda: mix.log_density(data),
        "loglik": lambda: np.array(mix.loglik(data)),
        "responsibilities": lambda: responsibilities(mix, data),
        "component_log_densities": lambda: mix.component_log_densities(data),
    }[score]
    assert_all_equal(at_each_count(workers, fn))


def test_cli_loglik_and_grid_at_every_thread_count(workers, tmp_path):
    model = protein_model()
    model_path = tmp_path / "model.json"
    model.save(model_path)
    data_path = tmp_path / "data.csv"
    rows = model.sample(2 * _ROW_BLOCK + 100, seed=5)
    data_path.write_text("a,b,c\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows.tolist()))

    def outputs():
        assert cli.main(["loglik", "--model", str(model_path), "--data", str(data_path),
                         "--out", str(tmp_path / "loglik.csv")]) == 0
        # 200^2 rows, three blocks
        assert cli.main(["grid", "--model", str(model_path), "--pair", "1,2", "--res", "200",
                         "--given", "3=6.23", "--out", str(tmp_path / "grid.csv")]) == 0
        return (tmp_path / "loglik.csv").read_bytes(), (tmp_path / "grid.csv").read_bytes()

    results = at_each_count(workers, outputs)
    assert results[1:] == results[:1] * (len(results) - 1)


def test_no_family_calls_cdf_or_quantile_from_a_pool_thread(workers, monkeypatch):
    # the benchmark's tracer rebinds them, and the copula functions below
    # in every twcm namespace that holds them, and keeps one stack of
    # spans, so the rows scored or drawn on a pool thread must call none
    off_main = []

    def on_main_only(orig, name):
        def traced(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return orig(*args, **kwargs)
        return traced

    for cls in FAMILIES.values():
        for name in ("cdf", "quantile"):
            monkeypatch.setattr(cls, name, on_main_only(getattr(cls, name),
                                                        f"{cls.__name__}.{name}"))
    for name in ("copula_sample", "conditional_phi", "constants"):
        orig = getattr(twcm.copula, name)
        traced = on_main_only(orig, name)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "twcm"]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, traced)
    workers(4)
    models = [protein_model(), *buoy_mixture().components,
              twcm.TwcmModel(rho=twcm.RhoVector(9.18, -1.17, -0.09),
                             marginals=(twcm.CircularUniform(), twcm.Cardioid(1.0, 0.3),
                                        twcm.VonMises(2.0, 0.5)))]
    for model in models:
        model.log_density(model.sample(4 * _ROW_BLOCK, seed=6))
    mix = buoy_mixture()
    mix.log_density(mix.sample(4 * _ROW_BLOCK, seed=6))
    twcm.copula_sample(4 * _ROW_BLOCK, protein_model().rho, seed=6)
    assert off_main == []


def test_an_error_in_a_late_block_propagates_unchanged(workers):
    workers(4)
    n = 6 * _ROW_BLOCK
    error = ValueError("last block")
    done = np.zeros(n, dtype=bool)

    def fn(rows):
        if rows.stop == n:
            raise error
        done[rows] = True

    with pytest.raises(ValueError) as info:
        for_row_blocks(n, fn)
    assert info.value is error
    last = np.flatnonzero(~done)
    assert last[-1] == n - 1 and np.all(np.diff(last) == 1) and last.size <= _ROW_BLOCK


@pytest.mark.parametrize("n, count", [(20_000, 4), (100_000, 4), (_ROW_BLOCK, 4),
                                      (3 * _ROW_BLOCK + 1, 2), (1, 4)])
def test_blocks_are_equal_and_fill_whole_rounds(workers, n, count):
    workers(count)
    seen = []
    for_row_blocks(n, lambda rows: seen.append((rows.start, rows.stop)))
    seen.sort()
    sizes = [stop - start for start, stop in seen]
    assert seen[0][0] == 0 and seen[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    assert max(sizes) <= _ROW_BLOCK and max(sizes) - min(sizes) <= 1
    threads = min(count, -(-n // _ROW_BLOCK))
    assert len(seen) % threads == 0


def test_the_first_failing_block_in_row_order_is_raised(workers):
    workers(4)

    def fn(rows):
        raise KeyError(rows.start)

    with pytest.raises(KeyError) as info:
        for_row_blocks(6 * _ROW_BLOCK, fn)
    assert info.value.args == (0,)


def test_errstate_applies_in_every_block(workers):
    workers(4)
    zeros = np.zeros(8 * _ROW_BLOCK)
    out = np.empty_like(zeros)
    seen = []

    def fn(rows):
        time.sleep(0.01)  # so that the pool threads take some blocks
        seen.append((np.geterr()["divide"], threading.current_thread().name))
        out[rows] = np.log(zeros[rows])

    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            for_row_blocks(zeros.size, fn)
    assert len(seen) == 8
    assert {state for state, _ in seen} == {"raise"}
    assert {name for _, name in seen} - {threading.main_thread().name}
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for_row_blocks(zeros.size, fn)
    assert (out == -np.inf).all()


def test_many_threads_take_every_block_once(workers):
    # more threads than CPUs, switching often enough to interleave their
    # queue operations; a block lost or taken twice breaks the counts, and
    # a hang fails at the join
    workers(8)
    counts = np.zeros(64 * _ROW_BLOCK, dtype=int)

    def fn(rows):
        counts[rows] += 1

    def score_often():
        for _ in range(20):
            for_row_blocks(counts.size, fn)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=score_often)
        runner.start()
        runner.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert (counts == 20).all()


def _score_in_child(model, data, conn):
    conn.send(model.loglik(data))
    conn.close()


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_scores_rows_after_the_parent_used_the_pool(workers):
    # the child inherits no pool threads, so it must build its own pool
    # rather than wait on the inherited one
    workers(2)
    model = protein_model()
    data = model.sample(3 * _ROW_BLOCK, seed=7)
    expected = model.loglik(data)
    assert _util._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_score_in_child, args=(model, data, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child hung"
        assert receive.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_em_fit_on_one_block_creates_no_pool(workers):
    workers(4)
    data = buoy_mixture().sample(1000, seed=8)
    em_fit(data, 2, BUOY_FAMS, twcm.FitConfig(seed=8), restarts=1)
    assert _util._pool is None


def test_the_pool_has_a_thread_per_usable_cpu_but_one(workers):
    # the calling thread is the other one; under ``taskset -c 0`` one CPU
    # runs every block on the calling thread, and no pool is built
    cpus = len(os.sched_getaffinity(0))
    assert _util._worker_count() == cpus
    model = protein_model()
    model.log_density(model.sample(2 * _ROW_BLOCK, seed=9))
    assert (_util._pool is None) == (cpus == 1)
    if cpus > 1:
        assert _util._pool[0] == cpus - 1


def test_import_leaves_concurrent_futures_unloaded():
    code = ("import sys, twcm, twcm.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
