"""Univariate marginal families: circular uniform, wrapped Cauchy,
von Mises, cardioid (all on [0, 2*pi)) and Weibull (on (0, inf)).

Every family exposes pdf, cdf (with an explicit circular origin),
quantile, sampling by inverse transform, and weighted maximum-likelihood
fitting.  The circular CDF origin is the location parameter mu, so the
copula pseudo-observations u = 2*pi*F(theta) are well defined and
reproducible.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import i0e, i1e, ive

from ._util import TWO_PI, as_rng, float_if_scalar, wrap_angle
from .errors import DomainError, InvalidParameterError

KAPPA_MAX = 1e6
XI_MAX = 1.0 - 1e-9
RHO_C_MAX = 0.5 - 1e-9

CIRCULAR = "circular"
LINEAR = "linear"


def _weights_or_ones(data, weights):
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise DomainError("data must be a nonempty 1-D array")
    if weights is None:
        w = np.ones_like(data)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != data.shape:
            raise DomainError("weights must match data length")
        if np.any(w < 0) or w.sum() <= 0:
            raise DomainError("weights must be nonnegative with positive sum")
    return data, w


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

    def quantile(self, p):
        raise NotImplementedError

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
        raise NotImplementedError

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
        out = wrap_angle(np.asarray(x, dtype=float)) / TWO_PI
        return float_if_scalar(out)

    def quantile(self, p):
        p = self._check_quantile_arg(p)
        out = TWO_PI * p
        return float_if_scalar(out)

    def params_dict(self):
        return {}

    @classmethod
    def fit(cls, data, weights=None):
        _weights_or_ones(data, weights)
        return cls()


@dataclass(frozen=True)
class WrappedCauchy(Marginal):
    """Wrapped Cauchy with location mu and concentration xi in (-1, 1).

    CDF and quantile are closed forms; sampling is the Moebius transform
    of a uniform angle.
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

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        xi = self.xi
        out = (
            np.log1p(-xi * xi)
            - np.log(TWO_PI)
            - np.log(1.0 + xi * xi - 2.0 * xi * np.cos(x - self.mu))
        )
        return float_if_scalar(out)

    def cdf(self, x):
        y = wrap_angle(np.asarray(x, dtype=float) - self.mu)
        a = (1.0 + self.xi) / (1.0 - self.xi)
        # atan2 form of (1/pi) arctan(a tan(y/2)) + 1{y > pi}, continuous
        out = np.arctan2(a * np.sin(y / 2.0), np.cos(y / 2.0)) / np.pi
        out = np.where(out < 0.0, out + 2.0, out)  # guard y just below 2*pi
        return float_if_scalar(out)

    def quantile(self, p):
        p = self._check_quantile_arg(p)
        b = (1.0 - self.xi) / (1.0 + self.xi)
        out = wrap_angle(
            self.mu + 2.0 * np.arctan2(b * np.sin(np.pi * p), np.cos(np.pi * p))
        )
        return float_if_scalar(out)

    def params_dict(self):
        return {"mu": self.mu, "xi": self.xi}

    @classmethod
    def fit(cls, data, weights=None):
        theta, w = _weights_or_ones(data, weights)
        mu0, rbar = _weighted_circular_moment(theta, w)
        if rbar >= XI_MAX:
            warnings.warn(
                "degenerate circular data: wrapped Cauchy xi capped", RuntimeWarning
            )
            return cls(mu=mu0, xi=XI_MAX)
        # derivative-free search over (mu, atanh(xi))
        z_cap = np.arctanh(XI_MAX)

        def nll(params):
            mu, z = params
            xi = np.tanh(np.clip(z, -z_cap, z_cap))
            return -np.sum(
                w
                * (
                    np.log1p(-xi * xi)
                    - np.log(1.0 + xi * xi - 2.0 * xi * np.cos(theta - mu))
                )
            )

        x0 = np.array([mu0, np.arctanh(np.clip(rbar, -0.999, 0.999))])
        res = minimize(nll, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000})
        mu_hat = wrap_angle(res.x[0])
        xi_hat = float(np.tanh(np.clip(res.x[1], -z_cap, z_cap)))
        return cls(mu=float(mu_hat), xi=xi_hat)


def _vonmises_cdf_terms(kappa: float) -> int:
    return int(max(32, kappa + 12.0 * np.sqrt(kappa + 1.0) + 20.0))


# Quantile start table: nodes equally spaced in w = kappa (1 - cos y) up to
# w = 40 (see _vonmises_start_table), then two Newton steps.
_START_DW = 0.025
_START_WMAX = 40.0
_VONMISES_NEWTON_STEPS = 2
# Newton steps of the cardioid quantile: at |rho_c| one ulp below 1/2 the
# slowest q measured needs 27 to reach the rounding of the CDF.
_CARDIOID_NEWTON_STEPS = 40


def _sine_series(y, coef):
    """``sum_k coef[k-1] sin(k y)`` by Clenshaw's recurrence in Reinsch's form.

    Clenshaw's b_k = c_k + 2 cos(y) b_{k+1} - b_{k+2} gives the sum as
    b_1 sin(y) but loses digits where cos(y) = +-1.  With s = sign(cos y)
    and t = 2 cos(y) - 2 s, Reinsch's differences d_k = b_k - s b_{k+1}
    obey d_k = c_k + t b_{k+1} + s d_{k+1}, which stays accurate there.
    Scaled as B_k = s^k b_k and D_k = s^k d_k this reads
    D_k = s^k c_k + s t B_{k+1} + D_{k+1}, B_k = B_{k+1} + D_k, with
    s t = -4 sin^2(y/2) or -4 cos^2(y/2), and the sum is s B_1 sin(y).
    Memory is a few arrays of y's shape.
    """
    y = np.asarray(y, dtype=float)
    upper = np.cos(y) >= 0.0
    s = np.where(upper, 1.0, -1.0)
    st = -4.0 * np.where(upper, np.sin(0.5 * y), np.cos(0.5 * y)) ** 2
    b = np.zeros_like(y)
    d = np.zeros_like(y)
    tmp = np.empty_like(y)
    for k, c in zip(range(coef.size, 0, -1), coef[::-1].tolist()):
        d += np.multiply(st, b, out=tmp)
        d += np.multiply(s, c, out=tmp) if k % 2 else c
        b += d
    return s * b * np.sin(y)


@functools.lru_cache(maxsize=32)
def _vonmises_coefficients(kappa: float) -> np.ndarray:
    """CDF series coefficients I_k(kappa) / (I_0(kappa) k pi) for
    k = 1 .. _vonmises_cdf_terms(kappa); trailing terms that underflow to
    zero add nothing and are dropped."""
    k = np.arange(1, _vonmises_cdf_terms(kappa) + 1)
    coef = np.trim_zeros(ive(k, kappa) / i0e(kappa) / (k * np.pi), "b")
    coef.flags.writeable = False
    return coef


@functools.lru_cache(maxsize=32)
def _vonmises_start_table(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (F(y_j), y_j) of the CDF on the half-period [0, pi].

    Newton's error constant for F(y) = q is |f'/2f| = kappa sin(y) / 2, so
    nodes equally spaced in w = kappa (1 - cos y) (dw = kappa sin(y) dy)
    bound its product with the node spacing by _START_DW at every kappa.
    Linear interpolation then starts within (_START_DW / 2)^2 of the root
    in those units and two Newton steps raise that to the 4th power,
    below the rounding of the CDF.  Past w = 40 the half-period holds less
    mass than 2^-54, the gap below 1/2, so the last interval [y(40), pi]
    only meets q = 1/2, where F equals 1/2 to rounding on all of it.
    """
    n = math.ceil(min(_START_WMAX, 2.0 * kappa) / _START_DW)
    half = np.zeros(1)
    if n:
        half = np.sqrt(np.minimum(_START_DW * np.arange(n) / (2.0 * kappa), 1.0))
    y = np.append(2.0 * np.arcsin(half), np.pi)
    cdf = VonMises(0.0, kappa)._cdf_offset(y)
    cdf[-1] = 0.5
    cdf = np.minimum(np.maximum.accumulate(cdf), 0.5)  # rounding in the flat tail
    for arr in (cdf, y):
        arr.flags.writeable = False
    return cdf, y


def _newton_quantile(m: Marginal, p, start, steps: int):
    """Quantile of a circular law symmetric about its origin mu.

    F(2 pi - y) = 1 - F(y) reduces every p to q = min(p, 1 - p) in
    [0, 1/2] (1 - p is exact for p >= 1/2), whose root lies in [0, pi].
    ``start(q)`` returns the starting offsets y and bounds lo, hi on the
    root.  Each of ``steps`` Newton steps for m._cdf_offset(y) = q uses the
    density at mu + y, is clipped to [lo, hi], and is skipped where the
    density underflows.
    """
    p = m._check_quantile_arg(p)
    upper = p > 0.5
    q = np.where(upper, 1.0 - p, p)
    y, lo, hi = start(q)
    for _ in range(steps):
        dens = m.pdf(m.mu + y)
        resid = m._cdf_offset(y) - q
        step = np.divide(resid, dens, out=np.zeros_like(resid), where=dens > 0.0)
        y = np.clip(y - step, lo, hi)
    return float_if_scalar(wrap_angle(m.mu + np.where(upper, TWO_PI - y, y)))


@dataclass(frozen=True)
class VonMises(Marginal):
    """Von Mises with location mu and concentration kappa >= 0.

    The CDF is the exact integral of the Fourier expansion from the origin
    mu, summed by Clenshaw's recurrence in O(n) memory.  The quantile
    starts from a per-kappa table of the CDF and takes two Newton steps
    with the closed-form density; series coefficients and table are built
    once per kappa and cached.
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

    @property
    def origin(self):
        return self.mu

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        # log(2*pi*I0(k)) = log(2*pi*i0e(k)) + k, stable for large kappa
        out = (
            self.kappa * (np.cos(x - self.mu) - 1.0)
            - np.log(TWO_PI * i0e(self.kappa))
        )
        return float_if_scalar(out)

    def _cdf_offset(self, y):
        return y / TWO_PI + _sine_series(y, _vonmises_coefficients(self.kappa))

    def cdf(self, x):
        y = wrap_angle(np.asarray(x, dtype=float) - self.mu)
        return float_if_scalar(np.clip(self._cdf_offset(y), 0.0, 1.0))

    def quantile(self, p):
        nodes_cdf, nodes_y = _vonmises_start_table(self.kappa)

        def start(q):
            i = np.searchsorted(nodes_cdf, q, side="right") - 1
            i = np.clip(i, 0, nodes_cdf.size - 2)
            return np.interp(q, nodes_cdf, nodes_y), nodes_y[i], nodes_y[i + 1]

        return _newton_quantile(self, p, start, _VONMISES_NEWTON_STEPS)

    def params_dict(self):
        return {"mu": self.mu, "kappa": self.kappa}

    @classmethod
    def fit(cls, data, weights=None):
        theta, w = _weights_or_ones(data, weights)
        mu_hat, rbar = _weighted_circular_moment(theta, w)
        kappa_hat = _solve_vonmises_kappa(rbar)
        return cls(mu=float(mu_hat), kappa=kappa_hat)


def _vonmises_a1(kappa):
    return i1e(kappa) / i0e(kappa)


def _solve_vonmises_kappa(rbar: float) -> float:
    """Solve A1(kappa) = rbar by Newton from the standard starting value."""
    if rbar <= 0.0:
        return 0.0
    if rbar >= 1.0 - 1e-12:
        warnings.warn(
            "degenerate circular data: von Mises kappa capped", RuntimeWarning
        )
        return KAPPA_MAX
    kappa = rbar * (2.0 - rbar**2) / (1.0 - rbar**2)
    for _ in range(100):
        a1 = _vonmises_a1(kappa)
        # d A1 / d kappa
        deriv = 1.0 - a1 * a1 - a1 / max(kappa, 1e-12)
        if deriv <= 0.0:
            break
        step = (a1 - rbar) / deriv
        kappa -= step
        if kappa <= 0.0:
            kappa = 1e-8
        if abs(step) < 1e-12 * max(1.0, kappa):
            break
    if kappa > KAPPA_MAX:
        warnings.warn(
            "degenerate circular data: von Mises kappa capped", RuntimeWarning
        )
        kappa = KAPPA_MAX
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
        y = wrap_angle(np.asarray(x, dtype=float) - self.mu)
        return float_if_scalar(self._cdf_offset(y))

    def quantile(self, p):
        # On [0, pi] the CDF is concave for rho_c > 0 and convex for
        # rho_c < 0, so Newton from the tangent at y = 0 (clipped to pi)
        # approaches the root from one side only.  Near |rho_c| = 1/2 the
        # density almost vanishes at one end of [0, pi] and a step may only
        # shrink the error by a third, hence the larger step count.
        def start(q):
            return np.minimum(TWO_PI * q / (1.0 + 2.0 * self.rho_c), np.pi), 0.0, np.pi

        return _newton_quantile(self, p, start, _CARDIOID_NEWTON_STEPS)

    def params_dict(self):
        return {"mu": self.mu, "rho_c": self.rho_c}

    @classmethod
    def fit(cls, data, weights=None):
        theta, w = _weights_or_ones(data, weights)
        mu0, rbar = _weighted_circular_moment(theta, w)
        z_cap = np.arctanh(2.0 * RHO_C_MAX)

        def nll(params):
            mu, z = params
            rc = 0.5 * np.tanh(np.clip(z, -z_cap, z_cap))
            return -np.sum(w * np.log1p(2.0 * rc * np.cos(theta - mu)))

        rc0 = np.clip(rbar, -0.45, 0.45)
        x0 = np.array([mu0, np.arctanh(2.0 * rc0)])
        res = minimize(nll, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000})
        rc_hat = float(0.5 * np.tanh(np.clip(res.x[1], -z_cap, z_cap)))
        if abs(rc_hat) >= RHO_C_MAX:
            warnings.warn(
                "cardioid concentration at its cap: data too peaked for the family",
                RuntimeWarning,
            )
        return cls(mu=float(wrap_angle(res.x[0])), rho_c=rc_hat)


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

    def logpdf(self, x):
        x = self._check_domain(x)
        nu, lam = self.shape, self.scale
        z = x / lam
        with np.errstate(over="ignore"):  # z**nu -> inf means logpdf -> -inf
            out = np.log(nu / lam) + (nu - 1.0) * np.log(z) - z**nu
        return float_if_scalar(out)

    def cdf(self, x):
        x = self._check_domain(x)
        with np.errstate(over="ignore"):
            out = -np.expm1(-((x / self.scale) ** self.shape))
        return float_if_scalar(out)

    def quantile(self, p):
        p = self._check_quantile_arg(p)
        out = self.scale * (-np.log1p(-p)) ** (1.0 / self.shape)
        return float_if_scalar(out)

    def params_dict(self):
        return {"shape": self.shape, "scale": self.scale}

    @classmethod
    def fit(cls, data, weights=None):
        x, w = _weights_or_ones(data, weights)
        if np.any(x <= 0.0):
            raise DomainError("Weibull data must be positive")
        logx = np.log(x)
        wsum = w.sum()
        mean_logx = np.dot(w, logx) / wsum

        def profile_eq(nu):
            xw = x**nu
            s = np.dot(w, xw)
            return np.dot(w, xw * logx) / s - mean_logx - 1.0 / nu

        def profile_deriv(nu):
            xw = x**nu
            s = np.dot(w, xw)
            s1 = np.dot(w, xw * logx)
            s2 = np.dot(w, xw * logx * logx)
            return (s2 * s - s1 * s1) / (s * s) + 1.0 / (nu * nu)

        # moment-style start, then Newton on the profile shape equation
        sd_logx = np.sqrt(max(np.dot(w, (logx - mean_logx) ** 2) / wsum, 1e-12))
        nu = float(np.clip((np.pi / np.sqrt(6.0)) / sd_logx, 1e-3, 1e3))
        converged = False
        for _ in range(100):
            g = profile_eq(nu)
            step = g / profile_deriv(nu)
            nu_new = nu - step
            if nu_new <= 0.0:
                nu_new = nu / 2.0
            if abs(nu_new - nu) < 1e-12 * max(1.0, nu):
                nu = nu_new
                converged = True
                break
            nu = nu_new
        if not converged and abs(profile_eq(nu)) > 1e-8:
            # bracketed fallback for hard cases
            lo, hi = 1e-3, 1e3
            if profile_eq(lo) * profile_eq(hi) < 0:
                nu = brentq(profile_eq, lo, hi, xtol=1e-12)
        lam = float((np.dot(w, x**nu) / wsum) ** (1.0 / nu))
        return cls(shape=float(nu), scale=lam)


FAMILIES: dict[str, type[Marginal]] = {
    cls.family: cls
    for cls in (CircularUniform, WrappedCauchy, VonMises, Cardioid, Weibull)
}


def marginal_from_dict(d: dict) -> Marginal:
    cls = FAMILIES[d["family"]]
    return cls(**d.get("params", {}))


def fit_mle(family, data, weights=None) -> Marginal:
    """Weighted maximum-likelihood fit for a family given by tag or class.

    Uniform weights reproduce the plain MLE; integer weights k reproduce
    the fit on k-fold replicated data.
    """
    if isinstance(family, str):
        try:
            cls = FAMILIES[family]
        except KeyError:
            raise InvalidParameterError(
                f"unknown marginal family {family!r}; choose from {sorted(FAMILIES)}"
            ) from None
    elif isinstance(family, type) and issubclass(family, Marginal):
        cls = family
    else:
        cls = type(family)
        if not issubclass(cls, Marginal):
            raise InvalidParameterError(f"not a marginal family: {family!r}")
    return cls.fit(data, weights)
