"""Shared numerical helpers: angle wrapping, the wrapped Cauchy law (one
log density and one Moebius draw, used by the marginal and by every copula
kernel), the scalar-in, float-out return contract, the zero-density check
and the row-weight check."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDataError, DomainError, SingularKernelError

TWO_PI = 2.0 * np.pi

# |concentration| closer to 1 than this is treated as singular.
_UNIT_CONC_TOL = 1e-12


def wrap_angle(x):
    """Reduce angles to [0, 2*pi). Accepts scalars or arrays."""
    return _below_full_turn(np.mod(x, TWO_PI))


def _below_full_turn(r):
    """``r`` reduced by ``np.mod`` or ``%`` by 2 pi, with 2 pi itself set to
    0: both round an angle just below a multiple of 2 pi, such as -1e-17,
    up to 2 pi.  One comparison; an array is changed in place."""
    if isinstance(r, float):  # a Python float or a NumPy float64 scalar
        return 0.0 if r == TWO_PI else r
    r[r == TWO_PI] = 0.0
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


def wc_log_density(x, center, a):
    """Log density of the wrapped Cauchy law at ``center`` with
    concentration ``a`` in (-1, 1); unchecked.  Takes arrays or scalars.

    ``(1/2pi) (1 - a^2) / (1 + a^2 - 2 a cos(x - center))``, with the
    numerator's log as ``log1p(-a) + log1p(a)``, which rounds no ``a^2``.
    The denominator is a sum of two nonnegative terms, so that no digits
    cancel: ``(1 - a)^2 + 4 a sin^2(d/2)`` for ``a >= 0`` and
    ``(1 + a)^2 - 4 a cos^2(d/2)`` for ``a < 0``, with d = x - center.  A
    scalar ``a`` picks its form by a branch, an array one per element
    only if some element is negative.  The marginal
    :class:`~twcm.marginals.WrappedCauchy` and every copula kernel call it.
    """
    half = 0.5 * (x - center)

    def positive():
        return (1.0 - a) ** 2 + 4.0 * a * np.sin(half) ** 2

    def negative():
        return (1.0 + a) ** 2 - 4.0 * a * np.cos(half) ** 2

    if np.ndim(a) == 0:
        denom = negative() if a < 0.0 else positive()
    elif np.any(a < 0.0):
        denom = np.where(a < 0.0, negative(), positive())
    else:
        denom = positive()
    return np.log1p(-a) + np.log1p(a) - np.log(TWO_PI) - np.log(denom)


def wc_kernel_log_density(x, center, conc):
    """Log of the wrapped Cauchy kernel with arbitrary concentration: the
    law of :func:`wc_log_density` at :func:`effective_concentration`, a
    proper circular density for every ``|conc| != 1``."""
    a = np.asarray(effective_concentration(conc), dtype=float)
    return float_if_scalar(wc_log_density(np.asarray(x), center, a))


def wc_kernel_sample(center, conc, rng: np.random.Generator):
    """Draw from the wrapped Cauchy kernel by the Moebius transform of a
    fresh uniform angle, one draw per element of ``center`` broadcast
    against ``conc``."""
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
