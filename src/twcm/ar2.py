"""Circular AR(2) process driven by the trivariate copula conditional.

The transition law of theta_t given (theta_{t-1}, theta_{t-2}) is the
one-given-two conditional of the trivariate model with a common circular
marginal f, mapping time lags onto coordinates (1, 2, 3) =
(t, t-1, t-2).  Strict stationarity of consecutive pairs additionally
requires the two lag-1 links to carry the same parameter
(rho_t_tm1 == rho_tm1_tm2); a warning is emitted otherwise.

The chain runs on the copula scale u_t = 2*pi*F(theta_t), where each step
is one wrapped Cauchy draw whose parameters depend only on u_{t-1} and
u_{t-2}.  The parameters are validated once, when ``Ar2Params`` is built,
and the marginal is inverted once, for the whole simulated block.  One
step is written once: many chains run it on arrays, and a single chain
runs it on Python complex numbers and NumPy scalars, where only arctan2
and the complex modulus are ufunc calls, and those round as the array
calls do.  Both loops give the same chain bit for bit."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import (
    TWO_PI,
    as_rng,
    half_angle_sincos,
    moebius_map,
    reflect_concentration,
    require_nonsingular,
)
from .copula import (
    RhoVector,
    conditional_links,
    pairwise_phi,
    phi_from_unit,
    require_valid,
)
from .errors import InvalidParameterError
from .marginals import CIRCULAR, Marginal, to_copula_scale
from .model import _require_in_domain, composed_cond_1given2


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
    theta = np.stack(np.broadcast_arrays(theta_t, theta_tm1, theta_tm2), axis=-1)
    _require_in_domain(theta, params.marginal.domain, "angles")
    return composed_cond_1given2(params.rho, (params.marginal,) * 3, theta, 1)


def simulate(params: Ar2Params, n: int, seed=None, n_chains: int | None = None):
    """Simulate chains of length ``n``.

    The chain runs on the copula scale u_t = 2*pi*F(theta_t) and keeps the
    unit vectors e^{i u_t} as its state.  The initial pair is drawn from
    the bivariate marginal of the (t-1, t-2) coordinates (common marginal
    f, pairwise concentration phi_23): theta_0 ~ f, then u_1 from the
    pairwise kernel centred at u_0.  Each later step computes
    phi_{1|23} from the two previous unit vectors and takes one Moebius
    draw.  theta_t feeds nothing back, so the marginal quantile is applied
    once, to the whole block of u / 2pi.  Returns shape (n,) or
    (n_chains, n).

    One chain (``n_chains`` None or 1) steps on Python floats and many
    chains step on arrays; a chain does not depend on which loop ran it.
    """
    if n < 2:
        raise InvalidParameterError("need chain length n >= 2")
    rng = as_rng(seed)
    f = params.marginal
    m = 1 if n_chains is None else int(n_chains)
    if m < 1:
        raise InvalidParameterError("n_chains must be >= 1")

    theta_0 = f.quantile(rng.random(m))
    # the uniforms of steps 1 .. n-1 in stream order, as Moebius inputs
    sin_half, cos_half = half_angle_sincos(rng.random((n - 1, m)))
    u = np.empty((n, m))
    u[0] = to_copula_scale(f, theta_0)
    u[1] = moebius_map(u[0], pairwise_phi(params.rho, (2, 3)), sin_half[0], cos_half[0])
    links = conditional_links(params.rho, 1)
    if m == 1:
        steps, delta = _steps(links, u[0, 0], u[1, 0], sin_half[1:, 0].tolist(),
                              cos_half[1:, 0].tolist(), _float_unit, _float_reflect)
    else:
        steps, delta = _steps(links, u[0], u[1], sin_half[1:], cos_half[1:],
                              _array_unit, reflect_concentration)
    require_nonsingular(delta)
    u[2:] = np.reshape(steps, (n - 2, m))

    theta = np.empty((m, n))
    theta[:, 0] = theta_0
    theta[:, 1:] = f.quantile(u[1:].T / TWO_PI)
    return theta[0] if n_chains is None else theta


def _steps(links, u_0, u_1, sin_half, cos_half, unit, reflect):
    """Steps 2 .. n-1 from the first two angles: phi_{1|23} from the two
    previous unit vectors, then one Moebius draw per uniform at the centre
    arg(phi) and the concentration |phi| reflected into the unit interval.
    ``unit`` (e^{iu}) and ``reflect`` are the array or the float versions.
    Returns the angles and the moduli |phi| per step.

    One chain steps on Python complex numbers and NumPy scalars:
    np.absolute and np.arctan2 on a scalar run the same inner loops as on
    an array, and the rest is plain float arithmetic."""
    z_tm2, z_tm1 = unit(u_0), unit(u_1)
    steps, delta = [], []
    for s_half, c_half in zip(sin_half, cos_half):
        ph = phi_from_unit(links, z_tm1, z_tm2)
        d = np.absolute(ph)
        u_t = moebius_map(np.arctan2(ph.imag, ph.real), reflect(d), s_half, c_half)
        steps.append(u_t)
        delta.append(d)
        z_tm2, z_tm1 = z_tm1, unit(u_t)
    return steps, delta


def _array_unit(u):
    return np.exp(1j * u)


def _float_unit(u):
    # math.cos/math.sin round as the parts of np.exp(1j * u)
    return complex(math.cos(u), math.sin(u))


def _float_reflect(d):
    return 1.0 / d if d > 1.0 else d
