"""A1 = I1 / I0, the ratio of modified Bessel functions that the von Mises
fit inverts, from math alone.

The von Mises law needs no other Bessel function: its log normaliser is
the log of the total of its CDF table (see
:func:`twcm.marginals._vonmises_cdf_table`).  Below x = _HANKEL_MIN A1 is
Gauss's continued fraction; from there on it comes from Hankel's
asymptotic series, whose terms fall below 2^-56 by the 19th.  It is one
pass of one loop in Python floats.
"""

from __future__ import annotations

import math

_HANKEL_MIN = 25.0
_EPS = 2.0**-56  # a term below this share of the sum changes no digit

# Hankel's series for e^-x sqrt(2 pi x) I_nu(x) is sum_k c_k(nu) / x^k with
# c_k / c_{k-1} = ((2k - 1)^2 - 4 nu^2) / 8k; the two factors for nu = 0, 1.
# At x = _HANKEL_MIN the I0 terms fall below _EPS at k = 19, and sooner
# beyond.
_HANKEL = tuple(((2 * k - 1) ** 2 / (8.0 * k), ((2 * k - 1) ** 2 - 4) / (8.0 * k))
                for k in range(1, 21))
# 2k for the continued fraction of a1, highest order first
_TWO_K = tuple(2.0 * k for k in range(int(8.0 + 6.0 * math.sqrt(_HANKEL_MIN)), 0, -1))


def a1(x: float) -> float:
    """A1(x) = I1(x) / I0(x) for x >= 0 in one pass, within 1.6 eps
    relative of mpmath at 3 500 x from 1e-8 to 1e6.

    Below _HANKEL_MIN it is Gauss's continued fraction, the backward
    recurrence r_k = x / (2k + x r_{k+1}) from r_n = 0 with
    n = 8 + 6 sqrt(x): starting at order n leaves r_1 off by about
    (I_n / I_0)^2 < e^-36 relative, since I_n / I_0 ~ e^(-n^2 / 2x); a
    shorter start such as 20 + 2 sqrt(x) leaves 4e-8 at x = 84.4.  From
    there on it is (1 + T1) / (1 + T0), with T_nu the sum of Hankel's
    series for I_nu less its leading 1, computed as 1 + (T1 - T0) / (1 + T0).
    The I0 terms are positive and bound the I1 terms, which are negative,
    so both sums stop with the first I0 term below _EPS."""
    if x >= _HANKEL_MIN:
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
        return 1.0 + (s1 - s0) / (1.0 + s0)
    r = 0.0
    for two_k in _TWO_K[-int(8.0 + 6.0 * math.sqrt(x)):]:
        r = x / (two_k + x * r)
    return r
