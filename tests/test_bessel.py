"""The von Mises law's Bessel quantities against 40-digit mpmath: the log
normaliser that the CDF table's total gives, the math-only A1 = I1 / I0,
its inverse in the von Mises fit, and the log density from kappa = 0 to
KAPPA_MAX."""

import types
import warnings

import mpmath
import numpy as np
import pytest

from twcm import VonMises, _bessel, marginals

EPS = np.finfo(float).eps
# 300 log-spaced x, and the two sides of the switch to Hankel's series
XS = np.concatenate([
    np.geomspace(1e-8, 1e6, 300),
    [np.nextafter(_bessel._HANKEL_MIN, 0.0), _bessel._HANKEL_MIN],
])


def _log_total(kappa):
    """log T, the log of the von Mises CDF table's total mass."""
    return marginals._vonmises_cdf_table(kappa)[2]


@pytest.mark.parametrize("x", XS)
def test_scalars_match_mpmath(x):
    # A1 within 2 eps relative (1.6 the worst of 3 500 x from 1e-8 to 1e6),
    # and log T = log(2 pi I0(x)) - x within 6 eps relative or, where it is
    # below 1 in size, absolute (1.43 the worst measured on these x)
    with mpmath.workdps(40):
        k = mpmath.mpf(x)
        i0, i1 = mpmath.besseli(0, k), mpmath.besseli(1, k)
        exact_a1 = i1 / i0
        a1_err = float(abs(mpmath.mpf(_bessel.a1(x)) - exact_a1) / exact_a1)
        exact_log = mpmath.log(2 * mpmath.pi * i0) - k
        log_err = float(abs(mpmath.mpf(_log_total(x)) - exact_log))
    assert a1_err <= 2.0 * EPS
    assert log_err <= 6.0 * EPS * max(1.0, abs(float(exact_log)))


def test_scalars_at_zero():
    assert _bessel.a1(0.0) == 0.0
    assert _log_total(0.0) == np.log(2.0 * np.pi)


def test_bessel_imports_math_alone():
    modules = {name for name, value in vars(_bessel).items() if isinstance(value, types.ModuleType)}
    assert modules == {"math"}


def test_solve_inverts_a1_up_to_the_cap():
    # rbar over (0, 1 - 1e-12).  The root is ill-conditioned as rbar -> 1
    # (dkappa / kappa = 2 kappa drbar), so the check is the backward error:
    # A1(kappa) is within 3 eps (rbar + A1'(kappa) kappa) of rbar, 1.9
    # measured.  Past A1(KAPPA_MAX) the fit warns once and caps kappa.
    rbars = np.concatenate([np.geomspace(1e-8, 0.5, 100), 1.0 - np.geomspace(1e-12, 0.5, 200)])
    with mpmath.workdps(40):
        a1_cap = mpmath.besseli(1, marginals.KAPPA_MAX) / mpmath.besseli(0, marginals.KAPPA_MAX)
    for rbar in rbars.tolist():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kappa = marginals._solve_vonmises_kappa(rbar)
        if rbar >= a1_cap:
            assert kappa == marginals.KAPPA_MAX and len(caught) == 1, rbar
            continue
        assert not caught and 0.0 < kappa < marginals.KAPPA_MAX, rbar
        with mpmath.workdps(40):
            k = mpmath.mpf(kappa)
            a1 = mpmath.besseli(1, k) / mpmath.besseli(0, k)
            slope = 1 - a1 * a1 - a1 / k
            assert abs(a1 - rbar) <= 3.0 * EPS * (rbar + slope * k), rbar


def test_solve_stays_positive_and_inverts_a1_across_rbar():
    # 240 000 rbar from 1e-300 to 1 - 1e-12: below A1(KAPPA_MAX) kappa is
    # positive and A1(kappa) is rbar to 1e-12 relative (6.9e-16 measured);
    # at and above it kappa is capped
    rbars = np.concatenate([np.geomspace(1e-300, 0.5, 120000), 1.0 - np.geomspace(1e-12, 0.5, 120000)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kappas = np.array([marginals._solve_vonmises_kappa(r) for r in rbars.tolist()])
    capped = rbars >= _bessel.a1(marginals.KAPPA_MAX)
    assert np.all(kappas[capped] == marginals.KAPPA_MAX)
    kappas, rbars = kappas[~capped], rbars[~capped]
    assert np.all(kappas > 0.0)
    a1 = np.array([_bessel.a1(k) for k in kappas.tolist()])
    assert np.max(np.abs(a1 - rbars) / rbars) <= 1e-12


def test_solve_just_below_the_cap_stays_below_it():
    # the 20 000 floats rbar just below A1(KAPPA_MAX) reach kappa within
    # 4.4 of the cap, where A1' is 5e-13; each ends below the cap without a
    # warning (below KAPPA_MAX - 2.5e-4 measured), so the solve needs no cap
    # of its own after the loop
    rbar = marginals._A1_AT_KAPPA_MAX
    kappas = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20000):
            rbar = np.nextafter(rbar, 0.0).item()
            kappas.append(marginals._solve_vonmises_kappa(rbar))
    assert marginals.KAPPA_MAX - 5.0 < min(kappas)
    assert max(kappas) < marginals.KAPPA_MAX - 2e-4


@pytest.mark.parametrize(
    "kappa", [0.0, *np.geomspace(1e-9, marginals.KAPPA_MAX, 31).tolist()]
)
def test_vonmises_logpdf_matches_mpmath(kappa):
    # at the mode and the antimode cos is exact, so only the normaliser
    # errs; elsewhere the float64 cosine adds its rounding times kappa
    x = np.array([0.0, np.pi, 0.3, 1.0, 2.5])
    got = VonMises(mu=0.0, kappa=kappa).logpdf(x)
    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        norm = mpmath.log(2 * mpmath.pi * mpmath.besseli(0, k))
        for xi, g in zip(x.tolist(), got.tolist()):
            exact = k * mpmath.cos(xi) - norm
            cos_rounding = 0.0 if xi in (0.0, np.pi) else kappa
            assert abs(g - exact) <= 6.0 * EPS * (max(1.0, abs(float(exact))) + cos_rounding)
