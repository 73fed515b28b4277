"""Univariate marginal families: circular uniform, wrapped Cauchy,
von Mises, cardioid (all on [0, 2*pi)) and Weibull (on (0, inf)).

Every family exposes pdf, cdf (with an explicit circular origin),
quantile, sampling by inverse transform, and weighted maximum-likelihood
fitting.  The circular CDF origin is the location parameter mu, so the
copula pseudo-observations u = 2*pi*F(theta) are well defined and
reproducible.

The von Mises CDF has no closed form.  It is the integral of the density,
taken once per kappa in closed form on a piecewise Chebyshev fit of
degree 14 to the density, and stored as a table that gives the CDF at any
angle to within 4.8e-16 of the exact Fourier series up to KAPPA_MAX; the
table evaluates the density at most at 435 points, stores at most 29
fitted intervals (about 52 KB at KAPPA_MAX) and is cached per kappa.  Its
total is the density's normaliser, so the log density reads it too; the
ratio A1 = I1 / I0 behind the fit comes from math alone
(:mod:`twcm._bessel`).  The quantile starts from a second per-kappa
table, whose interval a guide table finds without binary search, and
takes one step of fifth order, so it reads the CDF table once a value.
Every symmetric circular quantile is such a start plus one step: the
cardioid's starts from Markley's (1995) solution of Kepler's equation.

Each fit is one deterministic solver: the von Mises mean direction in
closed form and kappa by Newton on A1(kappa) = rbar; the wrapped Cauchy
by Newton ascent in the chart that moves the current fit to the centre of
the unit disk, with Kent & Tyler's (1988) fixed-point step as its
safeguard; the cardioid by Newton ascent on
its concave log-likelihood, exact at the cap |rho_c| = RHO_C_MAX; the
Weibull shape by Newton on the profile equation inside the bracket its
sign gives, and the scale in closed form.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from . import _bessel
from ._util import (
    TWO_PI,
    HalfOffset,
    _below_full_turn,
    as_rng,
    float_if_scalar,
    half_angle_sincos,
    moebius_map,
    row_weights,
    wc_half_cdf,
    wc_half_log_density,
    wrap_angle,
)
from .errors import DomainError, InvalidParameterError

KAPPA_MAX = 1e6
XI_MAX = 1.0 - 1e-9
RHO_C_MAX = 0.5 - 1e-9
# A1 is increasing, so a von Mises fit caps kappa at every rbar >= this
_A1_AT_KAPPA_MAX = _bessel.a1(KAPPA_MAX)

# The wrapped Cauchy ascent, like each piece of fit_copula (which also takes
# _ARMIJO from here), stops on a Newton decrement of at most _DECREMENT_TOL
# times the total weight, or on a Kent-Tyler step that moves psi by less than
# RTOL (1 - xi) plus about two ulps or gains at most GAIN_TOL times the total
# weight; the other Newton solves once their step is below _NEWTON_TOL
_DECREMENT_TOL = 1e-10
_KENT_TYLER_RTOL = 1e-10
_KENT_TYLER_GAIN_TOL = 2.0**-52
_NEWTON_TOL = 1e-12
_MAX_ITER = 10_000
_HESSIAN_FLOOR = 1e-12  # relative to the total weight
_ARMIJO = 1e-4
_MAX_HALVINGS = 60

CIRCULAR = "circular"
LINEAR = "linear"


def _weights_or_ones(data, weights):
    """Fit or loglik data as a nonempty finite 1-D array, and its row weights."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise DomainError("data must be a nonempty 1-D array")
    if not np.isfinite(data).all():
        raise DomainError("data must be finite")
    return data, row_weights(weights, data.size)


def _warn_capped(what: str) -> None:
    warnings.warn(f"degenerate circular data: {what} capped", RuntimeWarning)


def _weighted_circular_moment(theta, w):
    """Weighted mean direction and mean resultant length."""
    z = np.sum(w * np.exp(1j * theta)) / w.sum()
    return wrap_angle(np.angle(z)), np.abs(z)


class Marginal:
    """Base marginal; subclasses are frozen dataclasses."""

    family: ClassVar[str]
    domain: ClassVar[str]
    n_params: ClassVar[int]

    # -- evaluation ------------------------------------------------------
    def pdf(self, x):
        return float_if_scalar(np.exp(self.logpdf(x)))

    def logpdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def _cdf(self, x):
        """``cdf(x)`` as an array, for :func:`to_copula_scale`.  The families
        whose :meth:`_logpdf_and_u` reaches it compute it here, not in
        ``cdf``, which the benchmark's tracer rebinds: the rows scored on
        a thread pool must not open its spans."""
        return np.asarray(self.cdf(x))

    def quantile(self, p):
        raise NotImplementedError

    def _quantile(self, p):
        """``quantile(p)`` as an array.  The families compute it here, not
        in ``quantile``, which the benchmark's tracer rebinds: the rows
        drawn on a thread pool must not open its spans."""
        raise NotImplementedError

    def _prepare_quantile(self) -> None:
        """Build what :meth:`_quantile` reads from a cache, so that the rows
        drawn on a thread pool find it built; nothing for most families."""

    def _logpdf_and_u(self, x):
        """``logpdf(x)`` and the pseudo-observation ``2 pi cdf(x)`` of an
        array ``x``: a coordinate's two terms of the joint density."""
        return self.logpdf(x), to_copula_scale(self, x)

    def _check_quantile_arg(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p < 0.0) | (p >= 1.0)):
            raise DomainError("quantile argument must lie in [0, 1)")
        return p

    @property
    def origin(self):
        """Start of the CDF's accumulation (circular families only)."""
        return None

    # -- sampling and likelihood ----------------------------------------
    def sample(self, n: int, seed=None):
        """Inverse-transform sampling; deterministic for a fixed seed."""
        rng = as_rng(seed)
        return self.quantile(rng.random(n))

    def loglik(self, data, weights=None) -> float:
        data, w = _weights_or_ones(data, weights)
        return float(np.sum(w * self.logpdf(data)))

    # -- serialization ---------------------------------------------------
    def params_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params_dict(),
            "origin": self.origin,
            "domain": self.domain,
        }

    @classmethod
    def fit(cls, data, weights=None) -> "Marginal":
        raise NotImplementedError


@dataclass(frozen=True)
class CircularUniform(Marginal):
    """Uniform law on the circle; the copula's native marginal."""

    family: ClassVar[str] = "uniform"
    domain: ClassVar[str] = CIRCULAR
    n_params: ClassVar[int] = 0

    @property
    def origin(self):
        return 0.0

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.log(TWO_PI))
        return float_if_scalar(out)

    def cdf(self, x):
        return float_if_scalar(self._cdf(x))

    def _cdf(self, x):
        return wrap_angle(np.asarray(x, dtype=float)) / TWO_PI

    def quantile(self, p):
        return float_if_scalar(self._quantile(p))

    def _quantile(self, p):
        return TWO_PI * self._check_quantile_arg(p)

    @classmethod
    def fit(cls, data, weights=None):
        _weights_or_ones(data, weights)
        return cls()


@dataclass(frozen=True)
class WrappedCauchy(Marginal):
    """Wrapped Cauchy with location mu and concentration xi in (-1, 1).

    The log density is :func:`~twcm._util.wc_half_log_density`, the one
    the copula kernels use, and the CDF :func:`~twcm._util.wc_half_cdf`,
    the inverse of the Moebius transform :func:`~twcm._util.moebius_map`
    that gives the quantile, and so sampling.  Both read the sin and cos of
    one :class:`~twcm._util.HalfOffset` of x, so :meth:`_logpdf_and_u`
    computes that pair once for the two.
    """

    mu: float
    xi: float

    family: ClassVar[str] = "wrapped_cauchy"
    domain: ClassVar[str] = CIRCULAR
    n_params: ClassVar[int] = 2

    def __post_init__(self):
        if not (np.isfinite(self.mu) and abs(self.xi) < 1.0):
            raise InvalidParameterError(
                f"wrapped Cauchy requires finite mu and |xi| < 1, got {self}"
            )
        object.__setattr__(self, "mu", float(wrap_angle(self.mu)))

    @property
    def origin(self):
        return self.mu

    def _half(self, x):
        return HalfOffset(np.asarray(x, dtype=float), self.mu)

    def logpdf(self, x):
        # unchecked: any |xi| < 1 evaluates, even within 1e-12 of 1
        return float_if_scalar(wc_half_log_density(self._half(x), self.xi))

    def cdf(self, x):
        return float_if_scalar(wc_half_cdf(self._half(x), self.xi))

    def _logpdf_and_u(self, x):
        half = self._half(x)
        return wc_half_log_density(half, self.xi), TWO_PI * wc_half_cdf(half, self.xi)

    def quantile(self, p):
        return float_if_scalar(self._quantile(p))

    def _quantile(self, p):
        return moebius_map(self.mu, self.xi, *half_angle_sincos(self._check_quantile_arg(p)))

    @classmethod
    def fit(cls, data, weights=None):
        theta, w = _weights_or_ones(data, weights)
        atom = _half_weight_atom(theta, w)
        if atom is not None:
            mu, xi = atom, 1.0
        else:
            mu, xi, _ = _wrapped_cauchy_mle(theta, w)
        if xi >= XI_MAX:
            _warn_capped("wrapped Cauchy xi")
            xi = XI_MAX
        return cls(mu=mu, xi=xi)


def _half_weight_atom(theta, w):
    """The wrapped angle holding at least half the total weight, or None.

    Such an angle makes the wrapped Cauchy likelihood unbounded as xi -> 1
    there (Kent & Tyler 1988).  Where no two angles are equal, each angle
    holds one row's weight, so only 2 max(w) >= W can give one; the sort
    that shows this is cheaper than the grouping that sums tied rows."""
    wrapped = wrap_angle(theta)
    ordered = np.sort(wrapped)
    total = w.sum()
    if not np.any(ordered[1:] == ordered[:-1]) and 2.0 * w.max() < total:
        return None
    atoms, inverse = np.unique(wrapped, return_inverse=True)
    atom_w = np.bincount(inverse, weights=w)
    return float(atoms[np.argmax(atom_w)]) if 2.0 * atom_w.max() >= total else None


def _wrapped_cauchy_mle(theta, w):
    """Weighted wrapped Cauchy MLE as ``(mu, xi, iterations)`` when no angle
    holds half the weight W; a start at or past XI_MAX is returned as is.

    With psi = xi e^{i mu} and x_j = e^{i theta_j} the log-likelihood is
    W log(1 - |psi|^2) - sum w_j log|x_j - psi|^2 plus a constant, with one
    maximum (Copas 1975, through McCullagh's 1996 Moebius map).  Newton's
    method climbs to it from the weighted mean resultant.  Each iteration
    moves the current psi to 0 by the disk map z -> (z - psi) / (1 -
    conj(psi) z), which changes the log-likelihood by a constant only and
    takes x_j to y_j = e^{i alpha_j}, alpha_j = 2 pi F(theta_j) under the
    current fit.  At 0 the gradient is 2 s and the Hessian -4 adj(M), with
    s = sum w_j y_j and M = sum w_j y_j y_j^T, so the Newton step is
    M s / (2 det M) and the Newton decrement s^T M s / det M.  The state is
    mu and the Cauchy scale b = (1 - xi) / (1 + xi) of
    :func:`~twcm._util.moebius_map`, and 1 - xi^2 is only ever formed as a
    product, so the state keeps its digits as xi -> 1.  Where det M
    is not positive, or the step leaves the disk or fails Armijo's test,
    the iteration takes Kent & Tyler's (1988) fixed-point step instead,
    which never lowers the likelihood.  In this chart it maps eta = s / W
    to (1 - sqrt(1 - |eta|^2)) / |eta| along eta, written in g = 1 - |eta|
    = sum w_j |y_j - e|^2 / 2W (e the unit vector along eta) so that no
    digits cancel.  The ascent stops once a Newton step's decrement is at
    most _DECREMENT_TOL W, or once a Kent-Tyler step moves psi by at most
    _KENT_TYLER_RTOL (1 - xi) plus about two ulps, or raises the
    log-likelihood by at most 2^-52 W, below its rounding (its terms hold
    -W log 2 pi).  That last stop ends the crawl along a ridge where the
    likelihood is flat to rounding, as for two antipodal pairs of angles
    of nearly equal weights, where steps of 2.5e-10 each gain 1e-18.
    """
    total = w.sum()
    mu, xi = _weighted_circular_moment(theta, w)
    if not xi < XI_MAX:
        return mu, xi, 0
    b = (1.0 - xi) / (1.0 + xi)
    cos_half, sin_half = np.cos(0.5 * theta), np.sin(0.5 * theta)

    def gain(step, y, norm2):
        # the log-likelihood's rise when the chart's centre moves to step
        return total * math.log1p(-norm2) - float(w @ np.log1p(norm2 - 2.0 * (step @ y)))

    for iteration in range(1, _MAX_ITER + 1):
        # y_j = e^{i alpha_j}, with tan(alpha_j / 2) = tan((theta_j - mu) / 2) / b
        cm, sm = math.cos(0.5 * mu), math.sin(0.5 * mu)
        bc = (b * cm) * cos_half + (b * sm) * sin_half
        sn = cm * sin_half - sm * cos_half
        bc2, sn2 = bc * bc, sn * sn
        r2 = bc2 + sn2
        y = np.stack([(bc2 - sn2) / r2, 2.0 * bc * sn / r2])
        wy = y * w
        s, m = wy.sum(axis=1), wy @ y.T
        det = m[0, 0] * m[1, 1] - m[0, 1] ** 2
        newton = False
        if det > 0.0:
            step = (m @ s) / (2.0 * det)
            decrement = 2.0 * float(s @ step)
            norm2 = float(step @ step)
            newton = norm2 < 1.0 and gain(step, y, norm2) >= _ARMIJO * decrement
        if newton:
            shrink = 1.0 - norm2  # 1 - |step|^2
        else:
            unit = s / math.hypot(*s)
            g = 0.5 * float(w @ ((y[0] - unit[0]) ** 2 + (y[1] - unit[1]) ** 2)) / total
            root = math.sqrt(g * (2.0 - g))
            step = unit * ((1.0 - g) / (1.0 + root))
            shrink = (g + root) * (2.0 - g + root) / (1.0 + root) ** 2
            flat = gain(step, y, float(step @ step)) <= _KENT_TYLER_GAIN_TOL * total
        # back from the chart: psi moves to xi + phi (1 - xi^2) / (1 + xi phi),
        # and 1 - |psi|^2 to (1 - xi^2) (1 - |phi|^2) / |1 + xi phi|^2
        phi = complex(step[0], step[1])
        xi = (1.0 - b) / (1.0 + b)
        gap = 4.0 * b / (1.0 + b) ** 2  # 1 - xi^2
        den = 1.0 + xi * phi
        psi = xi + phi * (gap / den)
        mu += math.atan2(psi.imag, psi.real)
        xi = abs(psi)
        b = gap * shrink / abs(den) ** 2 / (1.0 + xi) ** 2
        if newton:
            if decrement <= _DECREMENT_TOL * total:
                break
        elif flat or abs(phi) * gap / abs(den) <= _KENT_TYLER_RTOL * (1.0 - xi) + 4e-16:
            break
    return mu, (1.0 - b) / (1.0 + b), iteration


# The CDF table has _TABLE_DEGREE + 1 coefficients an interval and is
# evaluated over blocks of _SERIES_BLOCK values.  _TURN_GAP is
# 2 pi - TWO_PI, the sliver of the period that the float period leaves out.
_TABLE_DEGREE = 14
_SERIES_BLOCK = 4096
_TURN_GAP = 2.4492935982947064e-16

# Quantile start table: nodes equally spaced in w = kappa (1 - cos y) up to
# w = 40, at most _START_DW apart and at least _START_INTERVALS intervals
# (see _vonmises_start_table), then one fifth-order step.
_START_DW = 0.025
_START_WMAX = 40.0
_START_INTERVALS = 16


@functools.lru_cache(maxsize=32)
def _vonmises_cdf_table(kappa: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Piecewise Chebyshev table of the sine part S(y) = F(y) - y / 2pi of
    the CDF on J = ceil(2 pi sqrt(kappa + 1)) equal intervals [a_j, a_j + h)
    of [0, 2 pi), h = 2 pi / J, in the variable t = (y - a_j) (2 / h) - 1.
    Returns ``(coef, row, log_total)``: the Chebyshev coefficients of the
    F fitted intervals, coefficient-major, shape (15, F) (_TABLE_DEGREE + 1
    rows, each contiguous), the (J,) index of each interval's column in
    ``coef``, -1 on a linear interval, and log T, T the total mass below.

    The CDF is the integral of the density, so each interval fits the
    unnormalised density g(y) = exp(-2 kappa sin^2(y / 2)) at its 15
    Chebyshev-Lobatto points, solved at the float nodes through the map t
    that evaluation uses, and integrates the fit c_k in closed form:
    G(t) = (h / 2) sum_k b_k T_k(t) with b_k = (c_{k-1} - c_{k+1}) / 2k,
    b_1 = c_0 - c_2 / 2 and b_0 such that G(-1) = 0.  The T_15 term
    b_15 = c_14 / 30 is dropped; it moves F by less than 3.4e-17 at 401
    kappa from 0 to KAPPA_MAX.  An interval is about one standard
    deviation wide, where g is smooth enough for degree 14 to reach
    rounding (degree 12 leaves 9.3e-15).  Interval j holds the mass
    M_j = G_j up to the next float edge (the last one up to TWO_PI), so
    that F is continuous where evaluation passes from one interval to the
    next, and F = (P_j + G_j(t)) / T, with P_j the exact sum of the masses
    before it and T their exact sum plus g(0) (2 pi - TWO_PI), the sliver
    of the period that [0, TWO_PI) leaves out.  Against the 50-digit
    Fourier series summed in long double, at 401 kappa from 0 to KAPPA_MAX
    (300 random points and the ends of every fitted interval), the table
    is within 4.8e-16 (4.72e-16 at kappa = 87.1, as at degree 16).  Where
    w = kappa (1 - cos y) exceeds _START_WMAX on a whole interval, F is 1/2
    to within 2^-54 (see _vonmises_start_table) and S = 1/2 - y / 2pi
    exactly: that interval is linear, evaluated from its index by
    :func:`_table_sine`, not stored and given no mass.  So the build
    evaluates the density at most at 29 * 15 points, and F is at most 29,
    whatever kappa is.

    T integrates g over the period, so it is 2 pi I0(kappa) e^-kappa and
    log T is the von Mises log normaliser less kappa: within 1.5 eps of
    40-digit mpmath (absolute where it is below 1 in size, else relative)
    at 302 kappa from 1e-8 to KAPPA_MAX, and log(2 pi) exactly at
    kappa = 0.
    """
    n = math.ceil(TWO_PI * math.sqrt(kappa + 1.0))
    h = TWO_PI / n
    edges = h * np.arange(n + 1)
    edges[-1] = TWO_PI
    w = 2.0 * kappa * np.sin(0.5 * edges) ** 2
    fitted = (w[:-1] <= _START_WMAX) | (w[1:] <= _START_WMAX)
    row = np.full(n, -1, dtype=np.intp)
    row[fitted] = np.arange(np.count_nonzero(fitted))
    a = edges[:-1][fitted]
    nodes = np.cos(np.pi * np.arange(_TABLE_DEGREE, -1, -1) / _TABLE_DEGREE)
    y = a[:, None] + (nodes + 1.0) * (0.5 * h)
    t = (y - a[:, None]) * (2.0 / h) - 1.0
    g = np.exp(-2.0 * kappa * np.sin(0.5 * y) ** 2)
    # the explicit trailing axis makes g a stack of columns on NumPy 1 and 2
    c = np.linalg.solve(chebvander(t, _TABLE_DEGREE), g[..., None])[..., 0].T
    b = np.empty(c.shape)  # C order: the stored rows are contiguous
    b[1] = c[0] - 0.5 * c[2]
    b[2:-1] = (c[1:-2] - c[3:]) / np.arange(4.0, 2.0 * _TABLE_DEGREE, 2.0)[:, None]
    b[-1] = c[-2] / (2.0 * _TABLE_DEGREE)
    b[0] = (-1.0) ** np.arange(_TABLE_DEGREE) @ b[1:]  # G(-1) = 0
    b *= 0.5 * h
    t_end = (edges[1:][fitted] - a) * (2.0 / h) - 1.0
    mass = np.einsum("fk,kf->f", chebvander(t_end, _TABLE_DEGREE), b).tolist()
    total = math.fsum(mass + [_TURN_GAP])
    before = np.array([math.fsum(mass[:j]) for j in range(len(mass))])
    coef = b / total
    coef[0] += before / total - (a + 0.5 * h) / TWO_PI
    coef[1] -= 0.5 * h / TWO_PI
    for arr in (coef, row):
        arr.flags.writeable = False
    return coef, row, math.log(total)


def _table_sine(y, table: tuple[np.ndarray, np.ndarray, float]) -> np.ndarray:
    """S(y) from :func:`_vonmises_cdf_table` at a flat array y in [0, 2 pi].

    Each block of _SERIES_BLOCK values gathers its intervals' coefficients
    in one ``take`` from the coefficient-major table, so that each
    coefficient of the block is one contiguous row, and runs Clenshaw's
    recurrence b_k = c_k + 2 t b_{k+1} - b_{k+2} on every value by itself,
    so a value's result does not depend on the rest of the array.  On a
    linear interval j the recurrence would reduce to c_1 t + c_0, with
    c_1 = -h / 4 pi and c_0 = 1/2 - (a_j + h / 2) / 2 pi; that is computed
    instead, bit for bit.
    """
    coef, row, _ = table
    n = row.size
    h = TWO_PI / n
    out = np.empty_like(y)
    for start in range(0, y.size, _SERIES_BLOCK):
        block = y[start:start + _SERIES_BLOCK]
        # fmin maps NaN to the last interval, and t keeps it NaN
        j = np.fmin(block * (n / TWO_PI), n - 1).astype(np.intp)
        k = row[j]
        # one gather, (15, B): the recurrence reads a contiguous row c[i] at
        # a time, and may overwrite c[_TABLE_DEGREE], which it reads first
        c = coef.take(k, axis=1)
        t = (block - j * h) * (2.0 / h) - 1.0
        t2 = 2.0 * t
        b1, b2, tmp = c[_TABLE_DEGREE], np.zeros_like(t), np.empty_like(t)
        for i in range(_TABLE_DEGREE - 1, 0, -1):
            np.multiply(t2, b1, out=tmp)
            tmp -= b2
            tmp += c[i]
            b1, b2, tmp = tmp, b1, b2
        b1 *= t
        b1 -= b2
        b1 += c[0]
        linear = k < 0
        if linear.any():
            jl = j[linear]
            b1[linear] = (-0.5 * h / TWO_PI) * t[linear] + (0.5 - (jl * h + 0.5 * h) / TWO_PI)
        out[start:start + block.size] = b1
    return out


@functools.lru_cache(maxsize=32)
def _vonmises_start_table(kappa: float) -> tuple[np.ndarray, ...]:
    """Nodes (F(y_j), y_j) of the CDF on the half-period [0, pi], the slope
    of each interval's chord, and the guide table of :func:`_start_interval`.

    Newton's error constant for F(y) = q is |f'/2f| = kappa sin(y) / 2, so
    nodes equally spaced in w = kappa (1 - cos y) (dw = kappa sin(y) dy)
    bound its product with the node spacing by dw at every kappa, with
    dw = min(_START_DW, 2 kappa / _START_INTERVALS).  Linear interpolation
    then starts within (dw / 2)^2 of the root in those units, and the
    fifth-order step of :meth:`VonMises.quantile` takes that below the
    rounding of the CDF.  At small kappa, where the half-period spans
    w = 2 kappa < _START_DW, the higher derivatives of F, which those units
    leave out, set the error: one interval there leaves F(Q(p)) up to
    1.3e-15 from p (kappa = 0.0118), hence at least _START_INTERVALS of
    them (3.3e-16).  Past w = 40 the half-period holds less mass than
    2^-54, the gap below 1/2, so the last interval [y(40), pi] only meets
    q = 1/2, where F equals 1/2 to rounding on all of it.

    The guide table (Chen & Asau 1974; Devroye 1986, sec. III.2.4) splits
    [0, 1/2] into C equal cells, C a power of two and at least twice the
    node count (64 cells at small kappa, 4096 from kappa = 12.8 on), and
    holds the interval of each cell's left end c / 2C, or -1 where the
    next cell's is more than one interval further on: the flat tail, where
    many nodes share a cell (25 or 26 of 4096 cells from kappa = 12.8 on),
    and the last cell, which q = 1/2 alone meets.
    """
    # w / 2 kappa = sin^2(y / 2) at the nodes w = 0, dw, 2 dw, ...
    n = math.ceil(min(_START_WMAX, 2.0 * kappa) / _START_DW)
    if n > _START_INTERVALS:
        frac = np.minimum(_START_DW * np.arange(n) / (2.0 * kappa), 1.0)
    else:
        frac = np.arange(_START_INTERVALS) / _START_INTERVALS
    y = np.append(2.0 * np.arcsin(np.sqrt(frac)), np.pi)
    cdf = VonMises(0.0, kappa)._cdf_offset(y)
    cdf[-1] = 0.5
    cdf = np.minimum(np.maximum.accumulate(cdf), 0.5)  # rounding in the flat tail
    span = np.diff(cdf)
    slope = np.divide(np.diff(y), span, out=np.zeros_like(span), where=span > 0.0)
    cells = 1 << (2 * cdf.size - 1).bit_length()
    guide = _searched_interval(np.arange(cells + 1) / (2.0 * cells), cdf)
    guide[:-1][np.diff(guide) > 1] = -1
    guide[-1] = -1
    for arr in (cdf, y, slope, guide):
        arr.flags.writeable = False
    return cdf, y, slope, guide


def _searched_interval(q, cdf):
    """The interval i of each q by binary search: cdf[i] <= q < cdf[i + 1],
    clipped to the cdf.size - 1 intervals."""
    return np.clip(np.searchsorted(cdf, q, side="right") - 1, 0, cdf.size - 2)


def _start_interval(q, cdf, guide):
    """:func:`_searched_interval` of q in [0, 1/2] (an array), bit for bit,
    from the guide table of :func:`_vonmises_start_table`.

    q 2C is exact for C cells, a power of two, so q lies in the cell
    c = floor(q 2C).  The interval is monotone in q, so where guide[c] =
    i >= 0 it is i or i + 1, and q >= cdf[i + 1] tells which.  Values in a
    cell marked -1 take the binary search: at most 0.65% of uniform q from
    kappa = 12.8 on, 2.6% at kappa = 5 and 9.6% at kappa = 1.55, the most.
    """
    cells = guide.size - 1
    # fmin maps NaN to the last cell
    c = np.fmin(q * (2.0 * cells), cells).astype(np.intp)
    i = np.asarray(guide.take(c))  # a 0-d c takes a scalar
    searched = i < 0
    i += cdf.take(i + 1) <= q
    if searched.any():
        i[searched] = _searched_interval(q[searched], cdf)
    return i


def _symmetric_quantile(m: Marginal, p, start, step):
    """Quantile of a circular law symmetric about its origin mu.

    F(2 pi - y) = 1 - F(y) reduces every p to q = min(p, 1 - p) in
    [0, 1/2] (1 - p is exact for p >= 1/2), whose root lies in [0, pi].
    Every such quantile is a start plus one step: ``start(q)`` returns a
    start y and bounds lo, hi on the root, and one high-order
    ``step(y, q)`` toward the root of m._cdf_offset(y) = q, clipped to
    [lo, hi], takes y to the rounding of the CDF.  The cardioid's start is
    Markley's (1995) for Kepler's equation.
    """
    p = m._check_quantile_arg(p)
    upper = p > 0.5
    q = np.where(upper, 1.0 - p, p)
    y, lo, hi = start(q)
    y = np.clip(step(y, q), lo, hi)
    # by symmetry the root of q = 0 is 0 and that of q = 1/2 is pi; where F
    # is 1/2 to rounding on a whole bracket about pi, a step may end
    # anywhere in it
    y = np.where(q == 0.0, 0.0, np.where(q == 0.5, np.pi, y))
    return wrap_angle(m.mu + np.where(upper, TWO_PI - y, y))


def _newton_delta(m: Marginal, y, q, dens):
    """The Newton step (q - F(y)) / f(y) for m._cdf_offset(y) = q, given
    the density f(y), and 0 where the density underflows."""
    resid = q - m._cdf_offset(y)
    return np.divide(resid, dens, out=np.zeros_like(resid), where=dens > 0.0)


@dataclass(frozen=True)
class VonMises(Marginal):
    """Von Mises with location mu and concentration kappa >= 0.

    The CDF is the integral of the density from the origin mu, read from a
    per-kappa piecewise Chebyshev table of its sine part F(y) - y / 2pi
    that integrates a fit to the density in closed form and agrees with
    the exact Fourier series to within 4.8e-16 up to KAPPA_MAX (see
    :func:`_vonmises_cdf_table`).  The log density reads its normaliser
    log(2 pi I0(kappa)) - kappa from the same table: the log of the total
    mass it integrates, within 1.5 eps.  Evaluation costs 15
    coefficients a value (degree 14) whatever kappa is, in O(n) memory.
    Tables are built once per kappa and cached.

    The quantile interpolates a per-kappa table of the CDF linearly
    (:func:`_vonmises_start_table`), in the interval that a guide table
    finds with one multiply and one ``take``, binary search only in its
    flat-tail cells, bit for bit as binary search everywhere
    (:func:`_start_interval`), and takes one step of the inverse
    function's Taylor series to 4th order in the Newton step
    d = (q - F(y)) / f(y) (Householder's method of order 5):

        y + d - (g1/2) d^2 + ((3 g1^2 - g2)/6) d^3
          + ((-15 g1^3 + 10 g1 g2 - g3)/24) d^4,

    with g_k = f^(k) / f, here g1 = -kappa s, g2 = kappa^2 s^2 - kappa c
    and g3 = kappa s (1 + 3 kappa c - kappa^2 s^2) for s, c = sin y, cos y.
    So each value reads the CDF table once and costs one sin, one cos and
    one exp more.  The d^4 term matters near the mode, where g2 = -kappa
    does not vanish: without it the round trip F(Q(p)) - p reaches
    2.9e-15 at kappa = 0.5, against 4.4e-16 with it.
    """

    mu: float
    kappa: float

    family: ClassVar[str] = "von_mises"
    domain: ClassVar[str] = CIRCULAR
    n_params: ClassVar[int] = 2

    def __post_init__(self):
        if not (np.isfinite(self.mu) and 0.0 <= self.kappa <= KAPPA_MAX):
            raise InvalidParameterError(
                f"von Mises requires finite mu and 0 <= kappa <= {KAPPA_MAX:g}"
            )
        object.__setattr__(self, "mu", float(wrap_angle(self.mu)))
        # a Python float keeps the scalar arithmetic of the per-kappa tables
        # off NumPy scalars
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def origin(self):
        return self.mu

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        # log(2 pi I0(k)) = log T + k with T = 2 pi I0(k) e^-k the CDF
        # table's total, stable for large kappa
        out = self.kappa * (np.cos(x - self.mu) - 1.0) - _vonmises_cdf_table(self.kappa)[2]
        return float_if_scalar(out)

    def _cdf_offset(self, y):
        y = np.asarray(y, dtype=float)
        sine = _table_sine(y.ravel(), _vonmises_cdf_table(self.kappa))
        return y / TWO_PI + sine.reshape(y.shape)

    def cdf(self, x):
        return float_if_scalar(self._cdf(x))

    def _cdf(self, x):
        y = wrap_angle(np.asarray(x, dtype=float) - self.mu)
        return np.clip(self._cdf_offset(y), 0.0, 1.0)

    def quantile(self, p):
        return float_if_scalar(self._quantile(p))

    def _prepare_quantile(self) -> None:
        _vonmises_start_table(self.kappa)  # which builds the CDF table

    def _quantile(self, p):
        nodes_cdf, nodes_y, slope, guide = _vonmises_start_table(self.kappa)
        kappa = self.kappa
        log_norm = _vonmises_cdf_table(kappa)[2]

        def start(q):
            # every q < F(hi) lies below hi, so a bracket whose two CDF
            # values are equal (the flat tail) only meets q = 1/2, whose
            # root is hi = pi
            i = _start_interval(q, nodes_cdf, guide)
            j = i + 1
            hi = nodes_y.take(j)
            return hi - slope.take(i) * (nodes_cdf.take(j) - q), nodes_y.take(i), hi

        def step(y, q):
            # the class docstring's series in a = -g1 d = kappa s d, where
            # g2 d^2 = a^2 - kappa c d^2 and g3 d^3 = a d^2 (1 + 3 kappa c) -
            # a^3.  |d| <= pi keeps it finite where the density nearly
            # underflows (d = 5e99 at p = 1/2, kappa = 134.3, where d^4
            # overflows); such a step leaves [lo, hi] anyway.
            c = np.cos(y)
            d = _newton_delta(self, y, q, np.exp(kappa * (c - 1.0) - log_norm))
            np.clip(d, -np.pi, np.pi, out=d)
            a = kappa * np.sin(y) * d
            d2 = d * d
            kcd2 = kappa * c * d2
            return y + d * (
                1.0 + a * (0.5 + a / 3.0) + kcd2 / 6.0
                + a * (6.0 * a * a + 7.0 * kcd2 - d2) / 24.0
            )

        return _symmetric_quantile(self, p, start, step)

    @classmethod
    def fit(cls, data, weights=None):
        theta, w = _weights_or_ones(data, weights)
        mu_hat, rbar = _weighted_circular_moment(theta, w)
        kappa_hat = _solve_vonmises_kappa(rbar)
        return cls(mu=float(mu_hat), kappa=kappa_hat)


def _solve_vonmises_kappa(rbar: float) -> float:
    """Solve A1(kappa) = rbar by Halley's method from the standard starting
    value, with A1 from :func:`twcm._bessel.a1`.

    A1' = 1 - A1^2 - A1 / kappa and A1'' = A1 / kappa^2 - A1' (2 A1 +
    1 / kappa) follow from A1 itself, so each cubically convergent step
    costs one A1, and the solve takes 2 or 3 of them for rbar from 0.5 to
    0.99999, where Newton's method took 3 to 5.  The step is at most twice
    Newton's.  A1 is increasing, so every rbar >= A1(KAPPA_MAX) is capped
    before any step: far past the cap A1' ~ 1 / 2 kappa^2 is below the
    rounding of 1 - A1^2 - A1 / kappa, and steps taken there wander.  Below
    the cap kappa stays positive: A1 is concave, so a step from below the
    root moves up, and one from above is shorter than Newton's; at 240 000
    rbar from 1e-300 up to the cap no step took kappa below 0.93 of itself.
    Nor does it guard A1' or kappa past the cap: the computed A1' is at
    least 0.35 / 2 kappa^2 from 1e-300 to the cap, and the 200 000 floats
    rbar just below the cap end below KAPPA_MAX - 2.5e-4.
    """
    rbar = float(rbar)  # Python floats: NumPy scalars would slow each A1 down
    if rbar <= 0.0:
        return 0.0
    if rbar >= _A1_AT_KAPPA_MAX:
        _warn_capped("von Mises kappa")
        return KAPPA_MAX
    kappa = rbar * (2.0 - rbar**2) / (1.0 - rbar**2)
    for _ in range(100):
        a1 = _bessel.a1(kappa)
        k = max(kappa, 1e-12)
        deriv = 1.0 - a1 * a1 - a1 / k
        f = a1 - rbar
        curv = a1 / (k * k) - deriv * (2.0 * a1 + 1.0 / k)
        step = f / deriv / max(1.0 - 0.5 * f * curv / (deriv * deriv), 0.5)
        kappa -= step
        if abs(step) < 1e-12 * max(1.0, kappa):
            break
    return float(kappa)


@dataclass(frozen=True)
class Cardioid(Marginal):
    """Cardioid density (1/2pi)(1 + 2 rho_c cos(x - mu)), |rho_c| < 1/2."""

    mu: float
    rho_c: float

    family: ClassVar[str] = "cardioid"
    domain: ClassVar[str] = CIRCULAR
    n_params: ClassVar[int] = 2

    def __post_init__(self):
        if not (np.isfinite(self.mu) and abs(self.rho_c) < 0.5):
            raise InvalidParameterError(
                f"cardioid requires finite mu and |rho_c| < 1/2, got {self}"
            )
        object.__setattr__(self, "mu", float(wrap_angle(self.mu)))

    @property
    def origin(self):
        return self.mu

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.log1p(2.0 * self.rho_c * np.cos(x - self.mu)) - np.log(TWO_PI)
        return float_if_scalar(out)

    def _cdf_offset(self, y):
        return y / TWO_PI + self.rho_c * np.sin(y) / np.pi

    def cdf(self, x):
        return float_if_scalar(self._cdf(x))

    def _cdf(self, x):
        # just below mu, where the CDF rounds up to 1 at rho_c < 0, it is 0
        y = wrap_angle(np.asarray(x, dtype=float) - self.mu)
        return _below_full_turn(self._cdf_offset(y), 1.0)

    def quantile(self, p):
        return float_if_scalar(self._quantile(p))

    def _quantile(self, p):
        # On [0, pi], F(y) = q reads y + 2 rho_c sin y = 2 pi q: Kepler's
        # equation E - e sin E = M with e = 2 |rho_c|, in E = y, M = 2 pi q
        # where rho_c <= 0 and E = pi - y, M = pi - 2 pi q where rho_c > 0.
        # Markley's (1995) cubic (his q, r are a, b) starts E in closed form,
        # and one step of the inverse series of VonMises.quantile takes it
        # to rounding.
        rho = self.rho_c
        e, flip = 2.0 * abs(rho), rho > 0.0

        def start(q):
            m = np.pi - TWO_PI * q if flip else TWO_PI * q
            alpha = (3.0 * np.pi**2 + 1.6 * np.pi * (np.pi - m) / (1.0 + e)) / (np.pi**2 - 6.0)
            d = 3.0 * (1.0 - e) + alpha * e
            a = 2.0 * alpha * d * (1.0 - e) - m * m
            b = 3.0 * alpha * d * (d - 1.0 + e) * m + m * m * m
            w = np.cbrt(b + np.sqrt(a * a * a + b * b)) ** 2
            big_e = (2.0 * b * w / (w * w + w * a + a * a) + m) / d
            return (np.pi - big_e if flip else big_e), 0.0, np.pi

        def step(y, q):
            # g1, g2, g3 = -2 rho_c (sin y, cos y, -sin y) / D, D = 1 + 2 rho_c
            # cos y; the series in u = g1 d, v = g2 d^2 and g3 d^3 = -u d^2
            rc = 2.0 * rho * np.cos(y)
            den = 1.0 + rc
            d = _newton_delta(self, y, q, den / TWO_PI)
            d2, u = d * d, (-2.0 * rho) * np.sin(y) * d / den
            v = -rc * d2 / den
            return y + d * (
                1.0 - u / 2.0 + (3.0 * u * u - v) / 6.0
                + u * (10.0 * v - 15.0 * u * u + d2) / 24.0
            )

        return _symmetric_quantile(self, p, start, step)

    @classmethod
    def fit(cls, data, weights=None):
        # The log-likelihood sum w log(1 + 2 p . x) is concave in
        # p = rho_c (cos mu, sin mu), so a damped Newton ascent finds the
        # optimum over the cap disk |p| <= RHO_C_MAX.  Steps are cut at the
        # cap circle; on it, where the Newton step points out of the disk,
        # the ascent moves along the circle in mu instead.  It stops where
        # that move vanishes, so the gradient points outward: the KKT point.
        theta, w = _weights_or_ones(data, weights)
        mu, rbar = _weighted_circular_moment(theta, w)
        x = np.stack([np.cos(theta), np.sin(theta)])
        floor = _HESSIAN_FLOOR * w.sum()

        def value(p):
            return float(w @ np.log1p(2.0 * (p @ x)))

        p = min(rbar, 0.45) * np.array([math.cos(mu), math.sin(mu)])
        f, on_cap = value(p), False
        for _ in range(_MAX_ITER):
            d = 1.0 + 2.0 * (p @ x)
            grad = 2.0 * (x @ (w / d))
            neg_hess = 4.0 * (x * (w / d**2)) @ x.T
            step = np.linalg.solve(neg_hess + floor * np.eye(2), grad)
            along_cap = on_cap and p @ step >= 0.0
            if along_cap:  # Newton in mu on the cap circle
                tangent = np.array([-p[1], p[0]])
                curv = tangent @ neg_hess @ tangent + grad @ p
                step = tangent * (grad @ tangent) / max(abs(curv), floor)
            if math.hypot(*step) <= _NEWTON_TOL:
                break
            # the step reaches the cap circle at alpha = reach
            pd, dd = p @ step, step @ step
            room = max(RHO_C_MAX**2 - p @ p, 0.0)
            reach = 0.0 if along_cap else (math.sqrt(pd * pd + dd * room) - pd) / dd
            alpha, slope = (1.0 if along_cap else min(1.0, reach)), grad @ step
            for _ in range(_MAX_HALVINGS):
                trial = p + alpha * step
                if alpha >= reach:
                    trial *= RHO_C_MAX / math.hypot(*trial)
                f_trial = value(trial)
                # Armijo's test, blind to the rounding of f, which hides
                # the gain of the last Newton steps
                if f_trial >= f + _ARMIJO * alpha * slope - 1e-15 * abs(f):
                    break
                alpha *= 0.5
            else:
                break  # no ascent left above rounding
            p, f, on_cap = trial, f_trial, alpha >= reach
        if on_cap:
            warnings.warn(
                "cardioid concentration at its cap: data too peaked for the family",
                RuntimeWarning,
            )
        rho_c = RHO_C_MAX if on_cap else math.hypot(*p)
        return cls(mu=math.atan2(p[1], p[0]), rho_c=rho_c)


@dataclass(frozen=True)
class Weibull(Marginal):
    """Weibull on (0, inf) with shape nu > 0 and scale lam > 0."""

    shape: float
    scale: float

    family: ClassVar[str] = "weibull"
    domain: ClassVar[str] = LINEAR
    n_params: ClassVar[int] = 2

    def __post_init__(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise InvalidParameterError(
                f"Weibull requires positive shape and scale, got {self}"
            )

    def _check_domain(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
            raise DomainError("Weibull observations must be positive and finite")
        return x

    def _logpdf_and_power(self, x):
        """logpdf(x) and the z**nu, z = x / lam, that it subtracts, after
        one domain check.  Where z**nu overflows, logpdf is -inf: the
        arithmetic would give NaN there once z itself overflows, as
        inf - inf or 0 * inf."""
        x = self._check_domain(x)
        nu, lam = self.shape, self.scale
        with np.errstate(over="ignore", invalid="ignore"):
            z = x / lam
            zn = z**nu
            logpdf = np.log(nu / lam) + (nu - 1.0) * np.log(z) - zn
        return np.where(zn == np.inf, -np.inf, logpdf), zn

    def logpdf(self, x):
        return float_if_scalar(self._logpdf_and_power(x)[0])

    def cdf(self, x):
        x = self._check_domain(x)
        with np.errstate(over="ignore"):
            out = -np.expm1(-((x / self.scale) ** self.shape))
        return float_if_scalar(out)

    def _logpdf_and_u(self, x):
        logpdf, zn = self._logpdf_and_power(x)
        return logpdf, TWO_PI * -np.expm1(-zn)

    def quantile(self, p):
        return float_if_scalar(self._quantile(p))

    def _quantile(self, p):
        p = self._check_quantile_arg(p)
        return self.scale * (-np.log1p(-p)) ** (1.0 / self.shape)

    @classmethod
    def fit(cls, data, weights=None):
        x, w = _weights_or_ones(data, weights)
        if np.any(x <= 0.0):
            raise DomainError("Weibull data must be positive")
        # Newton in s = log(nu) on the profile equation
        # g(nu) = E_nu[log x] - mean(log x) - 1/nu = 0, where E_nu weights
        # by w x^nu.  g rises strictly from -inf to max(log x) - mean(log x),
        # so its sign at each iterate bounds the root; a step that leaves
        # those bounds is replaced by their midpoint.  Powers are taken
        # relative to the largest x, so they cannot overflow.
        positive = w > 0.0  # rows of weight 0 drop out of every sum
        logx, w = np.log(x[positive]), w[positive]
        top = logx.max()
        if not top > logx.min():
            raise InvalidParameterError(
                "Weibull MLE does not exist: all weighted observations are equal"
            )
        dev = logx - top
        mean_dev = np.average(dev, weights=w)

        def profile(s):
            nu = math.exp(s)
            e = w * np.exp(nu * dev)
            e /= e.sum()
            m1 = e @ dev
            return m1 - mean_dev - 1.0 / nu, nu * (e @ (dev - m1) ** 2) + 1.0 / nu

        sd = math.sqrt(max(np.average((dev - mean_dev) ** 2, weights=w), 1e-24))
        s = math.log(min(max((math.pi / math.sqrt(6.0)) / sd, 1e-3), 1e3))
        lo, hi = -math.inf, math.inf
        for _ in range(_MAX_ITER):
            g, dg = profile(s)
            lo, hi = (s, hi) if g < 0.0 else (lo, s)
            step = g / dg
            if abs(step) <= _NEWTON_TOL:
                s -= step
                break
            s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
        nu = math.exp(s)
        lam = math.exp(top) * float(np.average(np.exp(nu * dev), weights=w)) ** (1.0 / nu)
        return cls(shape=nu, scale=lam)


def to_copula_scale(marginal: Marginal, x) -> np.ndarray:
    """The pseudo-observation u = 2*pi*F(x) of one marginal, from its
    private :meth:`Marginal._cdf`; the domain is not checked."""
    return TWO_PI * np.asarray(marginal._cdf(x))


FAMILIES: dict[str, type[Marginal]] = {
    cls.family: cls
    for cls in (CircularUniform, WrappedCauchy, VonMises, Cardioid, Weibull)
}


def marginal_from_dict(d: dict) -> Marginal:
    cls = family_class(d["family"])
    try:
        return cls(**d.get("params", {}))
    except TypeError as exc:  # missing, unknown or non-numeric parameters
        raise InvalidParameterError(f"bad {cls.family} parameters: {exc}") from None


def family_class(family) -> type[Marginal]:
    """The marginal class named by a family tag, a class or an instance."""
    if isinstance(family, str):
        try:
            return FAMILIES[family]
        except KeyError:
            raise InvalidParameterError(
                f"unknown marginal family {family!r}; choose from {sorted(FAMILIES)}"
            ) from None
    cls = family if isinstance(family, type) else type(family)
    if not issubclass(cls, Marginal):
        raise InvalidParameterError(f"not a marginal family: {family!r}")
    return cls


def fit_mle(family, data, weights=None) -> Marginal:
    """Weighted maximum-likelihood fit for a family given by tag or class.

    Uniform weights reproduce the plain MLE; integer weights k reproduce
    the fit on k-fold replicated data.
    """
    return family_class(family).fit(data, weights)
