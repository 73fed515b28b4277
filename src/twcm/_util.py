"""Shared numerical helpers: angle wrapping, the wrapped Cauchy kernel,
and the scalar-in, float-out return contract."""

from __future__ import annotations

import numpy as np

from .errors import SingularKernelError

TWO_PI = 2.0 * np.pi

# |concentration| closer to 1 than this is treated as singular.
_UNIT_CONC_TOL = 1e-12


def wrap_angle(x):
    """Reduce angles to [0, 2*pi). Accepts scalars or arrays."""
    return np.mod(x, TWO_PI)


def float_if_scalar(out):
    """Return a 0-d result as a Python ``float`` and an array unchanged, so
    that every density, CDF and quantile maps a scalar to a float."""
    return float(out) if np.ndim(out) == 0 else out


def as_rng(seed_or_rng) -> np.random.Generator:
    """Coerce ``None``, an integer seed, or a Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def effective_concentration(conc):
    """Map a kernel concentration to its representative in (-1, 1).

    The kernel ``|1 - a^2| / (1 + a^2 - 2 a cos(x - c))`` defines the same
    density for ``a`` and ``1/a``, so any ``|a| != 1`` has an equivalent
    representative inside the unit interval.
    """
    a = np.asarray(conc, dtype=float)
    if np.any(np.abs(np.abs(a) - 1.0) <= _UNIT_CONC_TOL):
        raise SingularKernelError(
            "wrapped Cauchy kernel is singular at unit concentration"
        )
    big = np.abs(a) > 1.0
    out = np.where(big, np.divide(1.0, a, out=np.zeros_like(a), where=big), a)
    return float_if_scalar(out)


def wc_kernel_log_density(x, center, conc):
    """Log of the wrapped Cauchy kernel with arbitrary concentration.

    ``(1/2pi) |1 - a^2| / (1 + a^2 - 2 a cos(x - center))``, a proper
    circular density for every ``|a| != 1``.
    """
    a = effective_concentration(conc)
    a = np.asarray(a, dtype=float)
    num = np.log1p(-a * a)  # a in (-1, 1) after canonicalization
    den = np.log((1.0 + a * a) - 2.0 * a * np.cos(np.asarray(x) - center))
    out = num - den - np.log(TWO_PI)
    return float_if_scalar(out)


def wc_kernel_density(x, center, conc):
    return float_if_scalar(np.exp(wc_kernel_log_density(x, center, conc)))


def wc_kernel_sample(center, conc, rng: np.random.Generator, size=None):
    """Draw from the wrapped Cauchy kernel by the Moebius transform of a
    fresh uniform angle.  ``center``/``conc`` broadcast against ``size``."""
    xi = np.asarray(effective_concentration(conc), dtype=float)
    if size is None:
        size = np.broadcast(np.asarray(center), xi).shape
    u = TWO_PI * rng.random(size)
    b = (1.0 - xi) / (1.0 + xi)
    # atan2 form of mu + 2*arctan(b*tan(u/2)), continuous across u = pi
    draw = center + 2.0 * np.arctan2(b * np.sin(u / 2.0), np.cos(u / 2.0))
    return wrap_angle(draw)


def periodic_grid(n):
    """Midpoint grid for spectrally-accurate quadrature on [0, 2*pi)."""
    return TWO_PI * (np.arange(n) + 0.5) / n
