"""Modified Bessel functions of the first kind, from math alone.

The von Mises law needs them for two things: its log normaliser
log(2 pi I0(kappa)) and the ratio A1 = I1 / I0 that its fit inverts; its
CDF integrates the density and needs neither.  Below x = _SERIES_MAX the
scalars e^-x I0(x) and e^-x I1(x) are power series and A1 is Gauss's
continued fraction; from there on all three come from Hankel's asymptotic
series, whose terms fall below 2^-56 by the 19th.  Each scalar is one
pass of one loop in Python floats.
"""

from __future__ import annotations

import functools
import math

_SERIES_MAX = 25.0
_EPS = 2.0**-56  # a term below this share of the sum changes no digit

# Hankel's series for e^-x sqrt(2 pi x) I_nu(x) is sum_k c_k(nu) / x^k with
# c_k / c_{k-1} = ((2k - 1)^2 - 4 nu^2) / 8k; the two factors for nu = 0, 1.
# At x = _SERIES_MAX the I0 terms fall below _EPS at k = 19, and sooner
# beyond.
_HANKEL = tuple(((2 * k - 1) ** 2 / (8.0 * k), ((2 * k - 1) ** 2 - 4) / (8.0 * k))
                for k in range(1, 21))
# 2k for the continued fraction of a1, highest order first
_TWO_K = tuple(2.0 * k for k in range(int(8.0 + 6.0 * math.sqrt(_SERIES_MAX)), 0, -1))


def _hankel_tails(x: float) -> tuple[float, float]:
    """e^-x sqrt(2 pi x) I_nu(x) - 1 for nu = 0, 1 and x >= _SERIES_MAX:
    the sums less their leading 1, which is added once, outside.  The I0
    terms are positive and bound the I1 terms, which are negative, so both
    sums stop with the first I0 term below _EPS."""
    inv = 1.0 / x
    t = u = 1.0
    s0 = s1 = 0.0
    for a, b in _HANKEL:
        t *= a * inv
        u *= b * inv
        s0 += t
        s1 += u
        if t < _EPS:
            break
    return s0, s1


def i0e_i1e(x: float) -> tuple[float, float]:
    """e^-x I0(x) and e^-x I1(x) for x >= 0, each within 5.2 eps relative
    of mpmath at 3 500 x from 1e-8 to 1e6.

    Below _SERIES_MAX both come from one pass of the power series
    I0 = sum_k q^k / k!^2 and I1 = h sum_k q^k / (k! (k + 1)!), h = x / 2,
    q = h^2, whose terms are all positive.  The rounding dq of q would
    reach term k as k dq, up to 7.8 eps at x near 25, so it is taken out
    to first order: the exact error of h * h (Veltkamp's split of h) times
    sum_k k t_k is added back.  From there on both come from
    :func:`_hankel_tails`."""
    if x >= _SERIES_MAX:
        s0, s1 = _hankel_tails(x)
        scale = 1.0 / math.sqrt(2.0 * math.pi * x)
        return scale * (1.0 + s0), scale * (1.0 + s1)
    h = 0.5 * x
    q = h * h
    split = 134217729.0 * h  # 2^27 + 1
    hi = split - (split - h)
    lo = h - hi
    dq = ((hi * hi - q) + 2.0 * hi * lo + lo * lo) / q if q else 0.0
    t = s0 = s1 = 1.0
    m0 = m1 = 0.0
    k = 0
    while t > _EPS * s0:
        k += 1
        t *= q / (k * k)
        s0 += t
        s1 += t / (k + 1)
        m0 += k * t
        m1 += k * t / (k + 1)
    scale = math.exp(-x)
    return scale * (s0 + dq * m0), scale * h * (s1 + dq * m1)


def a1(x: float) -> float:
    """A1(x) = I1(x) / I0(x) for x >= 0 in one pass, within 1.6 eps
    relative of mpmath at 3 500 x from 1e-8 to 1e6.

    Below _SERIES_MAX it is Gauss's continued fraction, the backward
    recurrence r_k = x / (2k + x r_{k+1}) from r_n = 0 with
    n = 8 + 6 sqrt(x): starting at order n leaves r_1 off by about
    (I_n / I_0)^2 < e^-36 relative, since I_n / I_0 ~ e^(-n^2 / 2x); a
    shorter start such as 20 + 2 sqrt(x) leaves 4e-8 at x = 84.4.  From
    there on it is 1 + (T1 - T0) / (1 + T0) from :func:`_hankel_tails`."""
    if x >= _SERIES_MAX:
        s0, s1 = _hankel_tails(x)
        return 1.0 + (s1 - s0) / (1.0 + s0)
    r = 0.0
    for two_k in _TWO_K[-int(8.0 + 6.0 * math.sqrt(x)):]:
        r = x / (two_k + x * r)
    return r


@functools.lru_cache(maxsize=256)
def log_two_pi_i0e(kappa: float) -> float:
    """log(2 pi I0(kappa)) - kappa, the von Mises log normaliser less
    kappa, cached per kappa."""
    return math.log(2.0 * math.pi * i0e_i1e(kappa)[0])

