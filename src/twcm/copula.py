"""Trivariate wrapped Cauchy copula on [0, 2*pi)^3.

The copula density is

    t(u; rho) = c2 / (c1 + 2 [rho12 cos(u1-u2) + rho13 cos(u1-u3)
                              + rho23 cos(u2-u3)]),

with uniform univariate marginals.  This module provides the constants,
parameter validity checks, the identifiability normalization
(rho12*rho13*rho23 = 1), the bivariate/conditional kernels, and exact
sequential sampling.

Every formula reads the :func:`amplitudes` a, rho_ij = a_i a_j: c1 = sum
a_i^2, the bracket is |sum a_i e^{i u_i}|^2, and with the |a_i| sorted as
lo <= mid <= hi, rho is valid when hi > mid + lo, and c2's radicand is
Heron's product (hi - mid - lo)(hi + mid + lo)(hi - mid + lo)(hi + mid - lo).

Pair and coordinate indices are 1-based throughout, matching the
parameter names rho12, rho13, rho23.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import (
    TWO_PI,
    as_rng,
    effective_concentration,
    float_if_scalar,
    wc_kernel_log_density,
    wc_kernel_sample,
    wrap_angle,
)
from .errors import InvalidParameterError

_IDENTIFIABLE_TOL = 1e-9


@dataclass(frozen=True)
class RhoVector:
    """The three dependence parameters of the copula."""

    rho12: float
    rho13: float
    rho23: float

    def as_array(self) -> np.ndarray:
        return np.array([self.rho12, self.rho13, self.rho23], dtype=float)

    @property
    def product(self) -> float:
        return self.rho12 * self.rho13 * self.rho23

    @property
    def identifiable(self) -> bool:
        """True when the product constraint rho12*rho13*rho23 = 1 holds."""
        return abs(self.product - 1.0) <= _IDENTIFIABLE_TOL

    def scaled(self, t: float) -> "RhoVector":
        return RhoVector(t * self.rho12, t * self.rho13, t * self.rho23)


@dataclass(frozen=True)
class RhoValidity:
    """Report produced by :func:`validate_rho`; never raises."""

    finite: bool
    nonzero: bool
    positive_product: bool
    # permutation_checks[i-1] is |a_i| > |a_j| + |a_k| on the amplitudes a,
    # which only the largest |a_i| can pass.
    permutation_checks: tuple[bool, bool, bool]

    @property
    def valid(self) -> bool:
        return (
            self.finite
            and self.nonzero
            and self.positive_product
            and any(self.permutation_checks)
        )

    @property
    def passing_permutations(self) -> tuple[int, ...]:
        """1-based singled-out coordinates whose permutation check passes."""
        return tuple(i + 1 for i, ok in enumerate(self.permutation_checks) if ok)


def amplitudes(rho: RhoVector) -> tuple[float, float, float]:
    """(a1, a2, a3) with a1^2 = |rho12 rho13 / rho23|, a2 = rho12 / a1 and
    a3 = rho13 / a1, so rho_ij = a_i a_j where rho's product is positive;
    NaN where a1^2 underflows."""
    r12, r13 = rho.rho12, rho.rho13
    a1 = math.sqrt(abs(r12 * r13 / rho.rho23)) or math.nan
    return a1, r12 / a1, r13 / a1


def validate_rho(rho: RhoVector) -> RhoValidity:
    """Check the structural validity conditions of the dependence parameters.

    The parameters must be nonzero and finite with positive product, and
    one coordinate i must satisfy the permutation check
    ``|a_i| > |a_j| + |a_k|``, evaluated as the first factor (hi - mid) - lo
    of c2's radicand, on finite amplitudes.
    """
    r = (rho.rho12, rho.rho13, rho.rho23)
    finite = all(math.isfinite(x) for x in r)
    nonzero = all(x != 0.0 for x in r)
    if not (finite and nonzero):
        return RhoValidity(finite, nonzero, False, (False, False, False))
    mod = [abs(x) for x in amplitudes(rho)]
    lo, mid, hi = sorted(mod)
    passes = (hi - mid) - lo > 0.0 and hi < math.inf
    dominant = mod.index(hi)
    checks = tuple(passes and i == dominant for i in range(3))
    # the product's sign is the parity of the negative entries; it may underflow
    return RhoValidity(finite, nonzero, not ((r[0] < 0.0) ^ (r[1] < 0.0) ^ (r[2] < 0.0)), checks)


def require_valid(rho: RhoVector) -> None:
    report = validate_rho(rho)
    if not report.valid:
        raise InvalidParameterError(
            f"invalid copula parameters {rho}: {report}"
        )


def normalize_rho(rho: RhoVector) -> RhoVector:
    """Rescale to the identifiable representative with product 1.

    Scaling by any t > 0 leaves the copula density unchanged.  Each rho_ij
    is divided by cbrt|rho12| cbrt|rho13| cbrt|rho23|, so the product, which
    may overflow or underflow, is never formed.
    """
    report = validate_rho(rho)
    if not (report.finite and report.nonzero and report.positive_product):
        raise InvalidParameterError(f"cannot normalize {rho} to product 1: {report}")
    r = rho.as_array()
    return RhoVector(*(r / np.prod(np.cbrt(np.abs(r)))).tolist())


@dataclass(frozen=True)
class CopulaConstants:
    """Normalizing constants of the copula density."""

    c1: float
    c2: float


def constants(rho: RhoVector) -> CopulaConstants:
    """c1 and c2 = sqrt(radicand) / (2 pi)^3, positive and homogeneous of
    degree 1 in rho.  The radicand's one cancelling factor is
    :func:`validate_rho`'s check, so it is positive for every valid rho."""
    require_valid(rho)
    a = amplitudes(rho)
    lo, mid, hi = sorted(abs(x) for x in a)
    radicand = ((hi - mid) - lo) * (hi + mid + lo) * (hi - mid + lo) * (hi + mid - lo)
    c1 = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
    return CopulaConstants(c1, math.sqrt(radicand) / TWO_PI**3)


def _bracket(cc: CopulaConstants, rho: RhoVector, c12, c13, c23):
    """The density denominator c1 + 2 (rho12 C12 + rho13 C13 + rho23 C23)
    at the cosines of the pairwise differences."""
    return cc.c1 + 2.0 * (rho.rho12 * c12 + rho.rho13 * c13 + rho.rho23 * c23)


def _cos_diffs(u1, u2, u3):
    """cos of the three pairwise angle differences u1 - u2, u1 - u3 and
    u2 - u3, one coordinate per argument."""
    return np.cos(u1 - u2), np.cos(u1 - u3), np.cos(u2 - u3)


def copula_log_density(u, rho: RhoVector):
    """Log copula density at angle triples ``u`` of shape (3,) or (n, 3).

    Inputs are reduced mod 2*pi; the value is invariant under common
    rotation of all three angles and under positive scaling of rho.
    """
    u = np.asarray(u, dtype=float)
    out = log_density_columns(constants(rho), rho, u[..., 0], u[..., 1], u[..., 2])
    return float_if_scalar(out)


def log_density_columns(cc: CopulaConstants, rho: RhoVector, u1, u2, u3):
    """:func:`copula_log_density` with the constants ``cc`` of ``rho`` and
    the three coordinates passed apart; unchecked."""
    return log_density_cosines(cc, rho, *_cos_diffs(u1, u2, u3))


def log_density_cosines(cc: CopulaConstants, rho: RhoVector, c12, c13, c23):
    """:func:`log_density_columns` at the cosines of the pairwise
    differences, :func:`_cos_diffs`; unchecked."""
    return np.log(cc.c2) - np.log(_bracket(cc, rho, c12, c13, c23))


def copula_density(u, rho: RhoVector):
    return float_if_scalar(np.exp(copula_log_density(u, rho)))


def pairwise_phi(rho: RhoVector, pair: tuple[int, int]) -> float:
    """Bivariate-marginal concentration phi_ij for a 1-based index pair: the
    root of phi + 1/phi = -b / (a_i a_j), b = a_i^2 + a_j^2 - a_k^2, in the
    unit disk, formed without cancellation as -2 a_i a_j / (b + sign(b)
    (2 pi)^3 c2), since b^2 - 4 a_i^2 a_j^2 is c2's radicand."""
    cc = constants(rho)
    i, j = pair
    if not {i, j} < {1, 2, 3} or i == j:
        raise InvalidParameterError(f"invalid coordinate pair {pair}")
    k = 6 - i - j
    a = amplitudes(rho)
    ai, aj, ak = a[i - 1], a[j - 1], a[k - 1]
    b = ai * ai + aj * aj - ak * ak
    return -2.0 * ai * aj / (b + math.copysign(TWO_PI**3 * cc.c2, b))


def copula_bivariate_density(u_i, u_j, phi):
    """Bivariate marginal copula density t_2(u_i, u_j; phi_ij)."""
    return copula_cond_1given1(u_i, u_j, phi) / TWO_PI


def copula_cond_2given1(u, rho: RhoVector):
    """Conditional copula density of two coordinates given the third,
    t_{2|1}; equals 2*pi times the joint density for every choice of the
    conditioning coordinate."""
    return TWO_PI * copula_density(u, rho)


def copula_cond_1given1(u_i, u_j, phi):
    """Conditional copula density t_{1|1}(u_i | u_j; phi_ij): a wrapped
    Cauchy kernel centered at u_j."""
    log_t = wc_kernel_log_density(u_i, np.asarray(u_j, dtype=float), phi)
    return float_if_scalar(np.exp(log_t))


@dataclass(frozen=True)
class ConditionalWCSpec:
    """Center and concentration of the one-given-two conditional kernel.

    ``delta`` is the raw modulus |phi_{i|jk}| and may exceed 1; the kernel
    is then identical to the one with concentration 1/delta.
    """

    eta: float
    delta: float

    @property
    def concentration(self) -> float:
        """Representative concentration in [0, 1)."""
        return float(effective_concentration(self.delta))


def conditional_links(rho: RhoVector, i: int) -> tuple[float, float]:
    """(a_j / a_i, a_k / a_i) = (rho_jk / rho_ik, rho_jk / rho_ij) for
    coordinate i given j < k, the other two."""
    j, k = sorted({1, 2, 3} - {i})
    a = amplitudes(rho)
    return a[j - 1] / a[i - 1], a[k - 1] / a[i - 1]


def phi_from_unit(links, z_j, z_k):
    """phi_{i|jk} = -(a_j z_j + a_k z_k) / a_i from ``links =
    conditional_links(rho, i)`` and the unit vectors ``z = e^{iu}`` of the
    two conditioning angles; unchecked.  Takes NumPy arrays or Python
    complex numbers, on which a real times z rounds the same."""
    l_j, l_k = links
    return -(l_j * z_j + l_k * z_k)


def conditional_phi(rho: RhoVector, i: int, u_j, u_k):
    """Complex kernel parameter phi_{i|jk} for coordinate i given the other
    two, whose values are ``u_j`` and ``u_k`` in increasing coordinate
    order.

    phi_{i|jk} = -rho_jk (rho_ik^{-1} e^{i u_j} + rho_ij^{-1} e^{i u_k}).
    """
    require_valid(rho)
    if i not in (1, 2, 3):
        raise InvalidParameterError(f"invalid coordinate index {i}")
    u_j = np.asarray(u_j, dtype=float)
    u_k = np.asarray(u_k, dtype=float)
    return phi_from_unit(conditional_links(rho, i), np.exp(1j * u_j), np.exp(1j * u_k))


def conditional_spec(rho: RhoVector, i: int, u_j, u_k) -> ConditionalWCSpec:
    """Kernel parameters (eta, delta) of U_i given the other two coordinates
    at scalar values ``u_j``, ``u_k`` (increasing coordinate order)."""
    ph = conditional_phi(rho, i, u_j, u_k)
    return ConditionalWCSpec(eta=float(wrap_angle(np.angle(ph))), delta=float(np.abs(ph)))


def copula_log_cond_1given2(u, rho: RhoVector, i: int):
    """Log of the conditional copula density t_{1|2} of coordinate i at
    ``u[..., i-1]`` given the other two coordinates of the triple(s) ``u``."""
    u = np.asarray(u, dtype=float)
    j, k = sorted({1, 2, 3} - {i})
    ph = conditional_phi(rho, i, u[..., j - 1], u[..., k - 1])
    return wc_kernel_log_density(u[..., i - 1], np.angle(ph), np.abs(ph))


def copula_cond_1given2(u, rho: RhoVector, i: int):
    """Conditional copula density t_{1|2}: the exp of
    :func:`copula_log_cond_1given2`."""
    return float_if_scalar(np.exp(copula_log_cond_1given2(u, rho, i)))


def copula_sample(n: int, rho: RhoVector, seed=None) -> np.ndarray:
    """Draw ``n`` exact samples from the copula.

    Sequential scheme: U1 uniform; U2 | U1 from the pairwise kernel with
    concentration phi_12 centered at U1; U3 | U1, U2 from the one-given-two
    kernel.  Each wrapped Cauchy draw is the Moebius transform of a fresh
    uniform.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    require_valid(rho)
    rng = as_rng(seed)
    u1 = TWO_PI * rng.random(n)
    u2 = wc_kernel_sample(u1, pairwise_phi(rho, (1, 2)), rng)
    ph = conditional_phi(rho, 3, u1, u2)
    u3 = wc_kernel_sample(np.angle(ph), np.abs(ph), rng)
    return np.column_stack([u1, u2, u3])
