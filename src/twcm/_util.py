"""Shared numerical helpers: angle wrapping (exact, with a fast path for
long float64 arrays within one turn of [0, 2 pi)), the wrapped Cauchy law (one
log density, one CDF and one Moebius draw: the log density and the CDF
both read the sin and cos of one :class:`HalfOffset`, so that the marginal
computes that pair once for both, and the log density serves every copula
kernel too), the scalar-in, float-out return contract, the zero-density
check, the row-weight check and the thread pool that scores and draws
blocks of rows."""

from __future__ import annotations

import contextvars
import functools
import os
import threading

import numpy as np

from .errors import DegenerateDataError, DomainError, SingularKernelError

TWO_PI = 2.0 * np.pi

# |concentration| closer to 1 than this is treated as singular.
_UNIT_CONC_TOL = 1e-12

# float64 arrays of at least this many angles may take wrap_angle's fast path
_FAST_WRAP_MIN = 1024

# The most rows in one task of for_row_blocks, whose callers score rows
# (model._score_rows) and draw them (model._draw_rows, copula.copula_sample):
# a block's temporaries take about 2.1 MiB (tracemalloc, scoring protein
# rows on one thread, less the result), whatever the number of rows.  The
# von Mises tables are read a whole block at a time too.
_ROW_BLOCK = 16384


def wrap_angle(x):
    """Reduce angles to [0, 2*pi). Accepts scalars or arrays.

    A float64 array of at least _FAST_WRAP_MIN values, all in
    [-2 pi, 4 pi), is reduced by one subtraction and one addition of 2 pi,
    which give ``np.mod``'s result bit for bit: x - 2 pi is exact on
    [2 pi, 4 pi) (Sterbenz), as fmod is; ``np.mod`` adds 2 pi to a negative
    x with the same rounding; and where ``np.mod`` gives +0.0 (x = +-0,
    +-2 pi) this gives 2 pi or +0.0, and :func:`_below_full_turn` sets
    2 pi to +0.0.  Everything else, NaN and inf included, goes through
    ``np.mod``, which costs several times as much."""
    if (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.size >= _FAST_WRAP_MIN
            and x.min() >= -TWO_PI and x.max() < 2.0 * TWO_PI):  # NaN fails both
        r = x - TWO_PI * (x >= TWO_PI)
        r += TWO_PI * (r <= 0.0)
        return _below_full_turn(r)
    return _below_full_turn(np.mod(x, TWO_PI))


def _below_full_turn(r, turn=TWO_PI):
    """``r`` reduced by ``np.mod`` or ``%`` by 2 pi (or lifted into one
    ``turn``), with the full turn itself set to 0: both round an angle just
    below a multiple of the turn, such as -1e-17, up to the turn.  One
    comparison; an array is changed in place."""
    if isinstance(r, float):  # a Python float or a NumPy float64 scalar
        return 0.0 if r == turn else r
    r[r == turn] = 0.0
    return r


def float_if_scalar(out):
    """Return a 0-d result as a Python ``float`` and an array unchanged, so
    that every density, CDF and quantile maps a scalar to a float."""
    return float(out) if np.ndim(out) == 0 else out


def float_if_triple(theta, out):
    """Return ``out[0]`` as a Python ``float`` when ``theta`` is a single
    1-D triple and ``out`` unchanged otherwise: one triple in, float out."""
    return float(out[0]) if np.ndim(theta) == 1 else out


def require_positive_density(log_values) -> None:
    """Raise :class:`DegenerateDataError` naming the rows whose log density
    is not finite."""
    finite = np.isfinite(log_values)
    if not finite.all():
        rows = np.flatnonzero(~finite)
        raise DegenerateDataError(
            f"zero density at rows {rows.tolist()[:20]}", rows=rows
        )


def row_weights(weights, n: int) -> np.ndarray:
    """Every fitter's weights: one finite, nonnegative float per row of
    ``n`` with a positive sum (ones for ``None``), else :class:`DomainError`."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DomainError("weights must match data length")
    if np.any(w < 0.0) or not 0.0 < w.sum() < np.inf:  # NaN or inf: so is the sum
        raise DomainError("weights must be nonnegative with positive sum")
    return w


def as_rng(seed_or_rng) -> np.random.Generator:
    """Coerce ``None``, an integer seed, or a Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def require_nonsingular(conc) -> None:
    """Raise :class:`SingularKernelError` if any concentration is within
    ``_UNIT_CONC_TOL`` of modulus 1."""
    if np.any(np.abs(np.abs(conc) - 1.0) <= _UNIT_CONC_TOL):
        raise SingularKernelError(
            "wrapped Cauchy kernel is singular at unit concentration"
        )


def reflect_concentration(a):
    """``a`` or ``1/a``, whichever has modulus at most 1; unchecked."""
    return np.divide(1.0, a, out=a.copy(), where=np.abs(a) > 1.0)


def effective_concentration(conc):
    """Map a kernel concentration to its representative in (-1, 1).

    The kernel ``|1 - a^2| / (1 + a^2 - 2 a cos(x - c))`` defines the same
    density for ``a`` and ``1/a``, so any ``|a| != 1`` has an equivalent
    representative inside the unit interval.
    """
    a = np.asarray(conc, dtype=float)
    require_nonsingular(a)
    return float_if_scalar(reflect_concentration(a))


class HalfOffset:
    """The unwrapped half offset h = (x - center) / 2 of the wrapped Cauchy
    law, with ``sin`` and ``cos`` of h each computed once, when first read:
    :func:`wc_half_log_density` reads one of them, :func:`wc_half_cdf` both.
    No reduction mod 2 pi is needed, as both are 2 pi-periodic in x."""

    def __init__(self, x, center):
        self.h = 0.5 * (x - center)

    @functools.cached_property
    def sin(self):
        return np.sin(self.h)

    @functools.cached_property
    def cos(self):
        return np.cos(self.h)


def wc_log_density(x, center, a):
    """Log density of the wrapped Cauchy law at ``center`` with
    concentration ``a`` in (-1, 1); unchecked.  Takes arrays or scalars.
    It is :func:`wc_half_log_density` at the :class:`HalfOffset` of ``x``;
    the marginal :class:`~twcm.marginals.WrappedCauchy` and every copula
    kernel call it."""
    return wc_half_log_density(HalfOffset(x, center), a)


def wc_half_log_density(half: HalfOffset, a):
    """Wrapped Cauchy log density at the half offset ``half``.

    ``(1/2pi) (1 - a^2) / (1 + a^2 - 2 a cos(x - center))``, with the
    numerator's log as ``log1p(-a) + log1p(a)``, which rounds no ``a^2``.
    The denominator is a sum of two nonnegative terms, so that no digits
    cancel: ``(1 - a)^2 + 4 a sin^2(h)`` for ``a >= 0`` and
    ``(1 + a)^2 - 4 a cos^2(h)`` for ``a < 0``.  A scalar ``a`` picks its
    form by a branch, an array one per element only if some element is
    negative.
    """
    def positive():
        return (1.0 - a) ** 2 + 4.0 * a * half.sin ** 2

    def negative():
        return (1.0 + a) ** 2 - 4.0 * a * half.cos ** 2

    if np.ndim(a) == 0:
        denom = negative() if a < 0.0 else positive()
    elif np.any(a < 0.0):
        denom = np.where(a < 0.0, negative(), positive())
    else:
        denom = positive()
    return np.log1p(-a) + np.log1p(a) - np.log(TWO_PI) - np.log(denom)


def wc_half_cdf(half: HalfOffset, xi):
    """Wrapped Cauchy CDF, from the origin ``center``, at the half offset
    ``half``, for a scalar ``xi`` in (-1, 1); unchecked.

    The inverse of :func:`moebius_map` (McCullagh 1996): with
    A = (1 + xi) / (1 - xi), arg(cos h + i A sin h) / pi, which is
    (1/pi) arctan(A tan h) continued across h = pi/2.  That lies in
    [-1, 1]; 1 is added where it is negative, and a value that rounds up
    to 1 (x just below ``center``) is set to 0, so the CDF is in [0, 1).
    """
    a = (1.0 + xi) / (1.0 - xi)
    out = np.arctan2(a * half.sin, half.cos) / np.pi
    out += out < 0.0  # adds 0 elsewhere, which also turns -0.0 into 0.0
    return _below_full_turn(out, 1.0)


def wc_kernel_log_density(x, center, conc):
    """Log of the wrapped Cauchy kernel with arbitrary concentration: the
    law of :func:`wc_log_density` at :func:`effective_concentration`, a
    proper circular density for every ``|conc| != 1``."""
    a = np.asarray(effective_concentration(conc), dtype=float)
    return float_if_scalar(wc_log_density(np.asarray(x), center, a))


def wc_kernel_sample(center, conc, rng: np.random.Generator):
    """Draw from the wrapped Cauchy kernel by the Moebius transform of a
    fresh uniform angle, one draw per element of ``center`` broadcast
    against ``conc``.  The samplers draw their uniforms first and call
    :func:`moebius_map` in blocks; the tests compare them with this."""
    xi = np.asarray(effective_concentration(conc), dtype=float)
    size = np.broadcast(np.asarray(center), xi).shape
    return moebius_map(center, xi, *half_angle_sincos(rng.random(size)))


def half_angle_sincos(v):
    """sin and cos of half the uniform angle 2*pi*v, the input of
    :func:`moebius_map`."""
    half = TWO_PI * v / 2.0
    return np.sin(half), np.cos(half)


def moebius_map(center, xi, sin_half, cos_half):
    """Wrapped Cauchy draw at ``center`` with concentration ``xi`` in
    (-1, 1) (unchecked) from a uniform angle's :func:`half_angle_sincos`.
    Takes arrays or scalars."""
    b = (1.0 - xi) / (1.0 + xi)
    # atan2 form of mu + 2*arctan(b*tan(u/2)), continuous across u = pi;
    # `%` is np.mod on arrays and skips a ufunc call on a NumPy scalar
    return _below_full_turn((center + 2.0 * np.arctan2(b * sin_half, cos_half)) % TWO_PI)


def periodic_grid(n):
    """Midpoint grid for spectrally-accurate quadrature on [0, 2*pi)."""
    return TWO_PI * (np.arange(n) + 0.5) / n


# The helper threads of for_row_blocks: (count, executor), built on first use.
_pool = None
_pool_lock = threading.Lock()
_in_pool = threading.local()  # ``active`` is set in the pool's own threads


def _forget_pool():
    """After a fork: the child has none of the parent's pool threads, and a
    submit to the inherited pool would wait for them forever."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _worker_count() -> int:
    """Threads that score or draw rows: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _other_cpus():
    """The CPUs the calling thread may run on, but for the one it runs on
    now; None where the system does not tell."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            # the processor is field 39, the 37th after the name's ")"
            here = int(fh.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {here}
    except (OSError, AttributeError, ValueError, IndexError):
        return None


def _mark_pool_thread():
    _in_pool.active = True


def _helper_pool(helpers: int):
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != helpers:
            # imported here, so that importing twcm does not pay for it
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool[1].shutdown()
            _pool = helpers, ThreadPoolExecutor(
                helpers, thread_name_prefix="twcm-rows", initializer=_mark_pool_thread)
        return _pool[1]


def for_row_blocks(n: int, fn) -> None:
    """Call ``fn(rows)`` on each slice ``rows`` of a split of ``n`` rows
    into blocks of at most _ROW_BLOCK: the calling thread and up to
    :func:`_worker_count` - 1 pool threads take the blocks in turn, and
    NumPy's ufuncs release the GIL, so they overlap.  The blocks are of
    equal size and fill whole rounds of the threads, so that none waits
    on a longer block (20 000 rows on 2 threads are 2 blocks of 10 000,
    10^5 rows 8 blocks of 12 500).

    ``fn`` must write only its own rows and read nothing that another block
    writes; then the result does not depend on the thread count.  It must
    not call a marginal's public ``cdf`` or ``quantile``, nor any function
    that a tracer may wrap (``copula_sample``, ``conditional_phi``,
    ``constants``, ...): a tracer keeps one stack of spans, which a pool
    thread would corrupt.  So it reads a marginal through ``_cdf``,
    ``_logpdf_and_u`` and ``_quantile`` alone, and takes whatever needs a
    check or a per-model constant from its caller.  Pool
    threads run in a copy of the caller's context, under the caller's
    ``np.errstate``, on the CPUs but the caller's: a woken thread is
    otherwise often put on the waker's CPU, and the scheduler takes longer
    to move it than a call lasts.  The call returns once every block has
    ended, without waiting for a pool thread that found none left, and
    then raises the exception of the first failing block in row order.
    One block, one CPU, or a call from a pool thread itself (whose tasks
    could wait on each other) runs the blocks in order on the calling
    thread alone; no rows make no block and no call."""
    if n < 1:
        return
    count = -(-n // _ROW_BLOCK)
    cpus = 1 if count < 2 or getattr(_in_pool, "active", False) else _worker_count()
    workers = min(cpus, count)
    count = -(-count // workers) * workers
    edges = [n * k // count for k in range(count + 1)]
    blocks = [slice(start, stop) for start, stop in zip(edges, edges[1:])]
    if workers < 2:
        for rows in blocks:
            fn(rows)
        return
    from queue import Empty, SimpleQueue

    todo, ended = SimpleQueue(), SimpleQueue()
    for item in enumerate(blocks):
        todo.put(item)
    failed = {}

    def drain():
        while True:
            try:
                i, rows = todo.get_nowait()
            except Empty:
                return
            try:
                fn(rows)
            except BaseException as exc:  # raised below, in row order
                failed[i] = exc
            ended.put(i)

    def helper(err, cpus):
        if cpus:
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:  # a CPU went offline, say: run anywhere
                pass
        # NumPy 1 keeps the error state per thread, NumPy 2 in the context
        with np.errstate(**err):
            drain()

    pool = _helper_pool(cpus - 1)
    args = np.geterr(), _other_cpus()
    # a helper raises nothing, so its future is not read: the call waits
    # for the blocks, not for a helper that starts after they have ended
    for _ in range(workers - 1):
        pool.submit(contextvars.copy_context().run, helper, *args)
    drain()
    for _ in blocks:
        ended.get()
    if failed:
        raise failed[min(failed)]
