"""Scalar in, float out: every public density, CDF and quantile returns a
plain Python ``float`` when called at a single point."""

import pytest

from twcm import (
    Ar2Params,
    Cardioid,
    CircularUniform,
    RhoVector,
    VonMises,
    Weibull,
    WrappedCauchy,
    copula_bivariate_density,
    copula_cond_1given1,
    copula_cond_1given2,
    copula_cond_2given1,
    copula_density,
    copula_log_density,
    kato_pewsey_bivariate_density,
    pairwise_phi,
    transition_density,
    wc_closed_form_log_density,
)
from twcm.presets import buoy_mixture, protein_model

RHO = RhoVector(9.18, -1.17, -0.09)
WC = (WrappedCauchy(1.0, 0.5), WrappedCauchy(2.5, -0.3), WrappedCauchy(4.0, 0.8))
TRIPLE = (1.9, 2.8, 6.1)
CYL_TRIPLE = (3.9, 3.8, 1.5)
MARGINALS = {
    "uniform": CircularUniform(),
    "wrapped_cauchy": WC[0],
    "von_mises": VonMises(1.93, 27.6),
    "cardioid": Cardioid(2.0, 0.3),
    "weibull": Weibull(2.0, 1.5),
}

CALLS = {
    **{
        f"{name}.{method}": (lambda m=m, method=method, x=x: getattr(m, method)(x))
        for name, m in MARGINALS.items()
        for method, x in (("pdf", 1.2), ("logpdf", 1.2), ("cdf", 1.2), ("quantile", 0.3))
    },
    "model.log_density": lambda: protein_model().log_density(TRIPLE),
    "model.density": lambda: protein_model().density(TRIPLE),
    "model.bivariate_density": lambda: protein_model().bivariate_density((1, 2), 1.9, 2.8),
    "model.cond_density_1given1": lambda: protein_model().cond_density_1given1(1, 1.9, 2, 2.8),
    "model.cond_density_2given1": lambda: protein_model().cond_density_2given1(TRIPLE, 1),
    "model.cond_density_1given2": lambda: protein_model().cond_density_1given2(TRIPLE, 2),
    "mixture.log_density": lambda: buoy_mixture().log_density(CYL_TRIPLE),
    "copula_log_density": lambda: copula_log_density(TRIPLE, RHO),
    "copula_density": lambda: copula_density(TRIPLE, RHO),
    "copula_bivariate_density": lambda: copula_bivariate_density(1.0, 2.0, pairwise_phi(RHO, (1, 2))),
    "copula_cond_1given1": lambda: copula_cond_1given1(1.0, 2.0, pairwise_phi(RHO, (1, 2))),
    "copula_cond_2given1": lambda: copula_cond_2given1(TRIPLE, RHO),
    "copula_cond_1given2": lambda: copula_cond_1given2(TRIPLE, RHO, 2),
    "transition_density": lambda: transition_density(
        Ar2Params(2.0, 0.25, 2.0, marginal=VonMises(1.0, 5.0)), 1.0, 2.0, 3.0
    ),
    "wc_closed_form_log_density": lambda: wc_closed_form_log_density(RHO, WC, TRIPLE),
    "kato_pewsey_bivariate_density": lambda: kato_pewsey_bivariate_density(
        0.3, WC[0], WC[1], 1.0, 2.0
    ),
}


@pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
def test_scalar_in_float_out(call):
    assert type(call()) is float
