"""Circular AR(2) process driven by the trivariate copula conditional.

The transition law of theta_t given (theta_{t-1}, theta_{t-2}) is the
one-given-two conditional of the trivariate model with a common circular
marginal f, mapping time lags onto coordinates (1, 2, 3) =
(t, t-1, t-2).  Strict stationarity of consecutive pairs additionally
requires the two lag-1 links to carry the same parameter
(rho_t_tm1 == rho_tm1_tm2); a warning is emitted otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._util import (
    TWO_PI,
    as_rng,
    float_if_scalar,
    wc_kernel_density,
    wc_kernel_sample,
    wrap_angle,
)
from .copula import RhoVector, conditional_phi, pairwise_phi, require_valid
from .errors import InvalidParameterError
from .marginals import CIRCULAR, Marginal


@dataclass(frozen=True)
class Ar2Params:
    """Dependence parameters and stationary marginal of the process.

    ``rho_t_tm1`` links (t, t-1), ``rho_t_tm2`` links (t, t-2), and
    ``rho_tm1_tm2`` links (t-1, t-2); the triple must satisfy the same
    structural constraints as the copula parameters.
    """

    rho_t_tm1: float
    rho_t_tm2: float
    rho_tm1_tm2: float
    marginal: Marginal

    def __post_init__(self):
        if self.marginal.domain != CIRCULAR:
            raise InvalidParameterError("the AR(2) marginal must be circular")
        require_valid(self.rho)
        if self.rho_t_tm1 != self.rho_tm1_tm2:
            warnings.warn(
                "unequal lag-1 parameters: the consecutive-pair law is not "
                "time-invariant, so the chain is not strictly stationary",
                RuntimeWarning,
            )

    @property
    def rho(self) -> RhoVector:
        return RhoVector(self.rho_t_tm1, self.rho_t_tm2, self.rho_tm1_tm2)


def transition_density(params: Ar2Params, theta_t, theta_tm1, theta_tm2):
    """Transition kernel value p(theta_t | theta_{t-1}, theta_{t-2}).

    A wrapped Cauchy kernel in 2*pi*F(theta_t) times f(theta_t); its
    center/concentration come from the one-given-two conditional with the
    common marginal F.  Integrates to 1 in theta_t for every conditioning
    pair.
    """
    f = params.marginal
    u_t = TWO_PI * np.asarray(f.cdf(theta_t))
    u_1 = TWO_PI * np.asarray(f.cdf(theta_tm1))
    u_2 = TWO_PI * np.asarray(f.cdf(theta_tm2))
    ph = conditional_phi(params.rho, 1, u_1, u_2)
    out = TWO_PI * wc_kernel_density(u_t, np.angle(ph), np.abs(ph)) * f.pdf(theta_t)
    return float_if_scalar(out)


def simulate(params: Ar2Params, n: int, seed=None, n_chains: int | None = None):
    """Simulate chains of length ``n``.

    The initial pair is drawn from the bivariate marginal of the
    (t-1, t-2) coordinates (common marginal f, pairwise concentration
    phi_23): theta_0 ~ f, then theta_1 from the pairwise kernel.  Each
    later step draws the copula-scale angle from the one-given-two kernel
    and maps back through the marginal quantile.  Returns shape (n,) or
    (n_chains, n).
    """
    if n < 2:
        raise InvalidParameterError("need chain length n >= 2")
    rng = as_rng(seed)
    f = params.marginal
    rho = params.rho
    m = 1 if n_chains is None else int(n_chains)
    if m < 1:
        raise InvalidParameterError("n_chains must be >= 1")

    theta = np.empty((m, n))
    u = np.empty((m, n))
    theta[:, 0] = f.quantile(rng.random(m))
    u[:, 0] = TWO_PI * np.asarray(f.cdf(theta[:, 0]))
    phi23 = pairwise_phi(rho, (2, 3)).phi
    u[:, 1] = wc_kernel_sample(u[:, 0], np.full(m, phi23), rng)
    theta[:, 1] = f.quantile(u[:, 1] / TWO_PI)
    for t in range(2, n):
        ph = conditional_phi(rho, 1, u[:, t - 1], u[:, t - 2])
        u[:, t] = wc_kernel_sample(np.angle(ph), np.abs(ph), rng)
        theta[:, t] = f.quantile(u[:, t] / TWO_PI)
    theta = wrap_angle(theta)
    return theta[0] if n_chains is None else theta
