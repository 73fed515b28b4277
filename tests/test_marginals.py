"""Marginal family checks: densities, CDFs, quantiles, sampling, and
weighted maximum likelihood."""

import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from twcm import (
    Cardioid,
    CircularUniform,
    DomainError,
    InvalidParameterError,
    VonMises,
    Weibull,
    WrappedCauchy,
    fit_mle,
)
from twcm import marginals
from twcm._util import (
    _FAST_WRAP_MIN,
    _below_full_turn,
    moebius_map,
    wc_log_density,
    wrap_angle,
)

TWO_PI = 2.0 * np.pi
PI_FRACTION = Fraction("3.14159265358979323846264338327950288419716939937511")


def _cos_fraction(v: Fraction) -> Fraction:
    """cos(v) for |v| < 4 by its Taylor series, exact to below 1e-40."""
    term, total = Fraction(1), Fraction(1)
    for k in range(1, 40):
        term *= -v * v / ((2 * k - 1) * (2 * k))
        total += term
    return total


@functools.lru_cache(maxsize=None)
def _reference_coefficients(kappa: float) -> np.ndarray:
    """The von Mises CDF series coefficients I_k(kappa) / (I_0(kappa) k pi),
    k = 1, 2, ..., up to the last whose ratio I_k / I_0 is at least 1e-30,
    in np.longdouble (x86's 80-bit type, eps 1.1e-19): the backward
    recurrence r_k = I_k / I_{k-1} = kappa / (2k + kappa r_{k+1}) run at 50
    digits from r = 0 at twice the last order that can be kept, where its
    start changes none of those digits
    (:func:`test_reference_coefficients_match_besseli` checks it)."""
    top = int(60.0 + 12.0 * math.sqrt(kappa))  # I_top / I_0 < 1e-30
    with mpmath.workdps(50):
        x = mpmath.mpf(kappa)
        r, rs = mpmath.mpf(0), []
        for k in range(2 * top, 0, -1):
            r = x / (2 * k + x * r)
            rs.append(r)
        coef, ratio = [], mpmath.mpf(1)
        for k, r in enumerate(reversed(rs), start=1):
            ratio *= r
            if ratio < 1e-30:
                break
            coef.append(np.longdouble(mpmath.nstr(ratio / (k * mpmath.pi), 25)))
    assert k < top
    out = np.array(coef, dtype=np.longdouble)
    out.flags.writeable = False
    return out


def _reference_sine(y, coef) -> np.ndarray:
    """``sum_k coef[k-1] sin(k y)`` in np.longdouble, by the Reinsch form of
    Clenshaw's recurrence, which stays accurate where cos(y) = +-1: with
    s = sign(cos y), the differences d_k = b_k - s b_{k+1} of Clenshaw's
    b_k obey d_k = c_k + t b_{k+1} + s d_{k+1}, t = 2 cos(y) - 2 s."""
    y = np.asarray(y).astype(np.longdouble)
    upper = np.cos(y) >= 0.0
    s = np.where(upper, 1, -1).astype(np.longdouble)
    st = -4 * np.where(upper, np.sin(y / 2), np.cos(y / 2)) ** 2
    b, d, tmp = np.zeros_like(y), np.zeros_like(y), np.empty_like(y)
    for k in range(coef.size, 0, -1):
        d += np.multiply(st, b, out=tmp)
        d += np.multiply(s, coef[k - 1], out=tmp) if k % 2 else coef[k - 1]
        b += d
    return s * b * np.sin(y)


ALL_MODELS = [
    CircularUniform(),
    WrappedCauchy(mu=1.0, xi=0.5),
    WrappedCauchy(mu=4.0, xi=-0.7),
    VonMises(mu=1.93, kappa=27.6),
    VonMises(mu=0.3, kappa=0.8),
    Cardioid(mu=2.0, rho_c=0.3),
    Weibull(shape=2.0, scale=1.5),
    Weibull(shape=0.8, scale=3.0),
]
IDS = ["uniform", "wc+", "wc-", "vm_hi", "vm_lo", "cardioid", "wb2", "wb08"]


def _table_test_points(n):
    """Random points, every end of n equal intervals of [0, 2 pi), one ulp
    either side of it, 0, pi and the last float below 2 pi."""
    ends = TWO_PI / n * np.arange(n + 1)
    y = np.concatenate([
        TWO_PI * np.random.default_rng(24).random(300),
        ends, np.nextafter(ends, -1.0), np.nextafter(ends, 7.0),
        [0.0, np.pi, np.nextafter(TWO_PI, 0.0)],
    ])
    return y[(y >= 0.0) & (y < TWO_PI)]


def _full_table_sine(y, table):
    """Clenshaw's recurrence on a (degree + 1, J) table holding every interval, one
    value at a time in the order of :func:`marginals._table_sine`."""
    n = table.shape[1]
    h = TWO_PI / n
    j = np.fmin(y * (n / TWO_PI), n - 1).astype(np.intp)
    c = table[:, j]
    t = (y - j * h) * (2.0 / h) - 1.0
    b1, b2 = c[-1], np.zeros_like(t)
    for k in range(table.shape[0] - 2, 0, -1):
        b1, b2 = 2.0 * t * b1 - b2 + c[k], b1
    return b1 * t - b2 + c[0]


def _kent_tyler(theta, w):
    """Kent & Tyler's (1988) fixed point from the weighted mean resultant,
    stopped once psi moves by at most 1e-10 (1 - xi) plus about two ulps:
    the reference for the wrapped Cauchy fit.  Returns (mu, xi, steps)."""
    z = np.sum(w * np.exp(1j * theta)) / w.sum()
    c, s = np.cos(theta), np.sin(theta)
    psi = np.abs(z) * np.array([np.cos(np.angle(z)), np.sin(np.angle(z))])
    for steps in range(1, 10_001):
        u = w / ((c - psi[0]) ** 2 + (s - psi[1]) ** 2)
        m = np.array([u @ c, u @ s])
        m /= np.hypot(*m)
        g = 0.5 * (u @ ((c - m[0]) ** 2 + (s - m[1]) ** 2)) / u.sum()
        xi = (1.0 - g) / (1.0 + np.sqrt(g * (2.0 - g)))
        psi, old = xi * m, psi
        if np.hypot(*(psi - old)) <= 1e-10 * (1.0 - xi) + 4e-16:
            break
    return np.arctan2(m[1], m[0]), xi, steps


def wc_cdf_exact(x: float, mu: float, xi: float) -> float:
    """Wrapped Cauchy CDF at the float x to 40 digits, by the textbook form
    (1/pi) arctan(A tan(y/2)) on y = (x - mu) mod 2 pi, plus 1 past y = pi."""
    with mpmath.workdps(40):
        y = mpmath.fmod(mpmath.mpf(x) - mpmath.mpf(mu), 2 * mpmath.pi)
        y = y + 2 * mpmath.pi if y < 0 else y
        a = (1 + mpmath.mpf(xi)) / (1 - mpmath.mpf(xi))
        out = mpmath.atan(a * mpmath.tan(y / 2)) / mpmath.pi
        return float(out + 1 if y > mpmath.pi else out)


def integrate_pdf(m):
    if m.domain == "circular":
        g = TWO_PI * np.arange(512) / 512
        return m.pdf(g).mean() * TWO_PI
    hi = m.quantile(1.0 - 1e-10)
    return quad(m.pdf, 1e-300, hi, limit=500)[0]


class TestDensities:
    def test_vonmises_kappa_zero_is_uniform(self):
        m = VonMises(mu=0.0, kappa=0.0)
        x = np.linspace(0, TWO_PI, 20, endpoint=False)
        np.testing.assert_allclose(m.pdf(x), 1.0 / TWO_PI, rtol=1e-14)

    def test_wrapped_cauchy_xi_zero_is_uniform(self):
        m = WrappedCauchy(mu=2.0, xi=0.0)
        x = np.linspace(0, TWO_PI, 20, endpoint=False)
        np.testing.assert_allclose(m.pdf(x), 1.0 / TWO_PI, rtol=1e-14)

    @pytest.mark.parametrize("xi, exact", [
        (1 - 1e-8, 17.275950848078206),  # log((1 + xi) / (2 pi (1 - xi))), 40 digits
        (1 - 1e-9, 19.578535978878943),
    ])
    def test_wrapped_cauchy_keeps_its_digits_near_unit_concentration(self, xi, exact):
        # the numerator log(1 - xi^2) must not round xi^2, which would cost
        # about eps / (1 - xi^2) ~ 5e-10 nats here
        assert WrappedCauchy(0.3, xi).logpdf(0.3) == pytest.approx(exact, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("a", [-0.99, -0.9])
    def test_wrapped_cauchy_keeps_its_digits_at_negative_concentration(self, a):
        # near x = center + pi the form (1 - a)^2 + 4 a sin^2(d/2) cancels as
        # a -> -1 (9.1e-12 relative at a = -0.99); against the exact density
        # at the same float offset d the log density must be within 5e-15,
        # a few ulps of its terms, for scalar and mixed-sign array a alike
        center = 0.7
        x = center + np.pi + np.linspace(-0.05, 0.05, 41)
        d = [Fraction(v) for v in x - center]
        fa = Fraction(a)
        exact = [
            math.log((1 - fa * fa) / (2 * PI_FRACTION * (1 + fa * fa - 2 * fa * _cos_fraction(v))))
            for v in d
        ]
        np.testing.assert_allclose(wc_log_density(x, center, a), exact, rtol=0.0, atol=5e-15)
        mixed = np.where(np.arange(x.size) % 2, a, 0.5)
        got = wc_log_density(x, center, mixed)
        np.testing.assert_allclose(got[1::2], exact[1::2], rtol=0.0, atol=5e-15)
        # a >= 0 keeps its former arithmetic bit for bit
        half = 0.5 * (x[::2] - center)
        former = np.log1p(-0.5) + np.log1p(0.5) - np.log(TWO_PI) - np.log(
            (1.0 - 0.5) ** 2 + 4.0 * 0.5 * np.sin(half) ** 2
        )
        np.testing.assert_array_equal(got[::2], former)

    def test_weibull_shape_one_is_exponential(self):
        m = Weibull(shape=1.0, scale=2.0)
        x = np.array([0.1, 1.0, 3.0, 7.0])
        np.testing.assert_allclose(m.pdf(x), 0.5 * np.exp(-x / 2.0), rtol=1e-14)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=IDS)
    def test_pdf_integrates_to_one(self, m):
        assert integrate_pdf(m) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=IDS)
    def test_pdf_nonnegative(self, m):
        x = (
            np.linspace(0, TWO_PI, 100, endpoint=False)
            if m.domain == "circular"
            else np.linspace(0.05, 10.0, 100)
        )
        assert np.all(m.pdf(x) >= 0.0)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
    def test_weibull_log_density_is_minus_inf_where_the_power_overflows(self, shape):
        # z = x / lam overflows at 1e306 / 1e-5, and z**nu with it; where
        # only z**nu overflows (1e200 / 1e-5 at nu = 2) the log density is
        # -inf too, on logpdf and on the copula path alike, with no warning
        m = Weibull(shape=shape, scale=1e-5)
        x = np.array([1e306, 1e200, 1.5e-5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logpdf = m.logpdf(x)
            joint, u = m._logpdf_and_u(x)
            assert m.logpdf(1e306) == -np.inf
        want_inf = np.array([True, shape > 1.0, False])
        assert np.array_equal(np.isneginf(logpdf), want_inf)
        np.testing.assert_array_equal(joint, logpdf)
        assert np.all(np.isfinite(logpdf[~want_inf]))
        assert np.all(u[want_inf] == TWO_PI)

    def test_weibull_domain_error(self):
        m = Weibull(shape=2.0, scale=1.0)
        with pytest.raises(DomainError):
            m.pdf(-1.0)
        with pytest.raises(DomainError):
            m.cdf(0.0)


class TestCdf:
    def test_wrapped_cauchy_antipode_is_half(self):
        for xi in (-0.9, -0.3, 0.0, 0.5, 0.95):
            m = WrappedCauchy(mu=1.2, xi=xi)
            assert m.cdf(1.2 + np.pi) == pytest.approx(0.5, abs=1e-12)

    def test_wrapped_cauchy_xi_zero_is_linear(self):
        m = WrappedCauchy(mu=1.0, xi=0.0)
        th = np.linspace(1.0, 1.0 + TWO_PI, 50, endpoint=False)
        np.testing.assert_allclose(
            m.cdf(th), (th - 1.0) / TWO_PI, atol=1e-12
        )

    @pytest.mark.parametrize("mu", [0.0, 1.0, TWO_PI * (1.0 - 2.0**-53)])
    def test_wrapped_cauchy_just_below_origin_is_zero(self, mu):
        # x just below mu is almost a full turn from the origin: where the
        # CDF rounds to 1 it is 0 instead, on the scalar, the array and the
        # joint path alike, and elsewhere it is the exact value (at
        # xi = 1 - 1e-9, mu - 1e-17 is 3e-9 below 1)
        below = np.array([mu - 1e-17, mu - 5e-324, mu - 1e-300])
        for xi in (-0.99, 0.0, 0.5, 1.0 - 1e-9):
            m = WrappedCauchy(mu=mu, xi=xi)
            exact = np.array([wc_cdf_exact(x, mu, xi) for x in below])
            want = np.where(exact == 1.0, 0.0, exact)
            for got in ([m.cdf(x) for x in below], m.cdf(below),
                        m._logpdf_and_u(below)[1] / TWO_PI):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=2.3e-16)
            steps = np.nextafter(mu, -np.inf) - np.arange(20) * 1e-17
            assert np.all(m.cdf(np.append(steps, below)) < 1.0)

    @pytest.mark.parametrize("k", [1, -1, 3, -3])
    def test_wrapped_cauchy_cdf_is_periodic(self, k):
        # x + 2 pi k is rounded, by at most 2e-15 here, so the two CDFs may
        # differ by that times the density (< 1) in circular distance
        x = np.linspace(-1.0, 7.0, 801)
        for m in (WrappedCauchy(mu=1.0, xi=0.5), WrappedCauchy(mu=4.0, xi=-0.7)):
            d = np.abs(m.cdf(x + TWO_PI * k) - m.cdf(x))
            assert np.all(np.minimum(d, 1.0 - d) <= 3e-15)

    @pytest.mark.parametrize("xi", [-0.99, 0.0, 0.5, 1.0 - 1e-9])
    def test_wrapped_cauchy_cdf_near_origin_matches_mpmath(self, xi):
        # within two ulps of 1/2 of a 40-digit CDF at offsets 1e-1 .. 1e-12
        # either side of mu, where the sign of the offset decides the turn
        for mu in (0.3, 2.0, 5.5):
            m = WrappedCauchy(mu=mu, xi=xi)
            x = np.concatenate([mu + 10.0 ** -np.arange(1, 13), mu - 10.0 ** -np.arange(1, 13)])
            exact = [wc_cdf_exact(v, mu, xi) for v in x]
            np.testing.assert_allclose(m.cdf(x), exact, rtol=0.0, atol=2.3e-16)

    @pytest.mark.parametrize(
        "m",
        [m for m in ALL_MODELS if m.domain == "circular"]
        + [Cardioid(mu=0.0, rho_c=-0.4999), Cardioid(mu=2.0, rho_c=-0.4999999)],
        ids=IDS[:6] + ["cardioid_neg", "cardioid_cap"],
    )
    def test_circular_cdf_just_below_origin_stays_below_one(self, m):
        # x just below mu is almost a full turn from the origin: the CDF is
        # in [0, 1) there, 0 where it would round up to 1, so that the
        # quantile takes it back to the circle
        mu = m.origin
        below = np.concatenate([
            [np.nextafter(mu, -np.inf), np.nextafter(TWO_PI, 0.0) if mu == 0.0 else mu],
            mu - np.array([1e-17, 1e-16, 4e-16, 1e-15, 1e-14, 1e-12, 1e-9]),
        ])
        for x in [*below, below]:
            p = m.cdf(x)
            assert np.all((0.0 <= p) & (p < 1.0)), x
            back = m.quantile(p)
            assert np.all((0.0 <= back) & (back < TWO_PI)), x

    def test_weibull_cdf_at_scale(self):
        m = Weibull(shape=3.3, scale=2.5)
        assert m.cdf(2.5) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize(
        "m", [m for m in ALL_MODELS if m.domain == "circular"], ids=IDS[:6]
    )
    def test_circular_cdf_starts_at_origin_and_reaches_one(self, m):
        c = m.origin
        assert m.cdf(c) == pytest.approx(0.0, abs=1e-12)
        assert m.cdf(c + TWO_PI - 1e-9) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=IDS)
    def test_cdf_monotone(self, m):
        if m.domain == "circular":
            x = m.origin + TWO_PI * np.linspace(1e-6, 1 - 1e-6, 200)
        else:
            x = np.linspace(0.01, m.quantile(0.999), 200)
        # tolerate 1-ulp evaluation noise in flat tails
        assert np.all(np.diff(m.cdf(x)) >= -1e-12)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=IDS)
    def test_cdf_derivative_is_pdf(self, m):
        # central differences at 100 interior points, placed by quantile so
        # the difference quotient resolves the density; atol sits at the
        # cancellation floor eps/(2h) of the finite-difference oracle
        p = np.linspace(0.005, 0.995, 100)
        x = np.sort(np.asarray(m.quantile(p)))
        if m.domain == "circular":
            x = x[(x > 1e-5) & (x < TWO_PI - 1e-5)]
        h = 1e-6
        num = (m.cdf(x + h) - m.cdf(x - h)) / (2 * h)
        np.testing.assert_allclose(num, m.pdf(x), rtol=1e-6, atol=3e-10)


class TestQuantile:
    def test_wrapped_cauchy_origin_and_antipode(self):
        m = WrappedCauchy(mu=2.5, xi=0.6)
        assert m.quantile(0.0) == pytest.approx(2.5, abs=1e-12)
        assert m.quantile(0.5) == pytest.approx(2.5 + np.pi, abs=1e-12)

    def test_symmetric_laws_put_the_median_at_the_antipode(self):
        # q = 1/2 has the root pi by symmetry, also where F is 1/2 to
        # rounding on a whole start interval about pi (kappa above 20)
        laws = [VonMises(mu=mu, kappa=kappa)
                for kappa in np.geomspace(1e-3, marginals.KAPPA_MAX, 300)
                for mu in (0.0, 2.0)]
        laws += [Cardioid(mu=2.0, rho_c=r) for r in (0.3, -0.499, 0.499)]
        for m in laws:
            assert m.quantile(0.5) == wrap_angle(m.mu + np.pi), m

    def test_symmetric_laws_put_the_origin_at_p_zero(self):
        laws = [VonMises(mu=mu, kappa=kappa)
                for kappa in np.geomspace(1e-6, marginals.KAPPA_MAX, 400)
                for mu in (0.0, 2.0)]
        laws += [Cardioid(mu=mu, rho_c=r)
                 for r in (0.3, 0.45, -0.499, 0.499, marginals.RHO_C_MAX, -marginals.RHO_C_MAX)
                 for mu in (0.0, 2.0)]
        for m in laws:
            assert m.quantile(0.0) == m.mu, m

    @pytest.mark.parametrize("rho_c", [
        0.1, 0.3, 0.45, 0.499, -0.2, -0.499, marginals.RHO_C_MAX, -marginals.RHO_C_MAX, 0.0,
    ])
    def test_cardioid_quantile_backward_error(self, rho_c):
        # |F(Q(p)) - p| on the circle, with F in 40 digits at the returned
        # float, is the CDF's own rounding
        k = np.arange(1.0, 17.0)
        p = np.concatenate([
            np.random.default_rng(8).random(2000), 10.0**-k, 1.0 - 10.0**-k, 0.5 - 10.0**-k,
        ])
        x = Cardioid(mu=0.0, rho_c=rho_c).quantile(p)
        worst = 0.0
        with mpmath.workdps(40):
            two_rho, two_pi = 2 * mpmath.mpf(rho_c), 2 * mpmath.pi
            for xj, pj in zip(x.tolist(), p.tolist()):
                err = abs((xj + two_rho * mpmath.sin(xj)) / two_pi - pj)
                worst = max(worst, float(min(err, 1 - err)))
        assert worst <= 2.5e-16

    @pytest.mark.parametrize("law, max_steps", [
        (VonMises(mu=1.0, kappa=5.0), 1),
        (Cardioid(mu=2.0, rho_c=0.3), 1),
    ])
    def test_quantile_newton_steps(self, monkeypatch, law, max_steps):
        calls = []
        newton_delta = marginals._newton_delta

        def counting(*args):
            calls.append(1)
            return newton_delta(*args)

        monkeypatch.setattr(marginals, "_newton_delta", counting)
        law.quantile(np.random.default_rng(8).random(2000))
        assert len(calls) <= max_steps

    def test_weibull_inverse_of_cdf_example(self):
        m = Weibull(shape=2.0, scale=1.0)
        assert m.quantile(1.0 - np.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "m",
        ALL_MODELS + [Cardioid(mu=2.0, rho_c=0.499), Cardioid(mu=2.0, rho_c=-0.499)],
        ids=IDS + ["cardioid_near_half", "cardioid_near_minus_half"],
    )
    def test_round_trip(self, m):
        rng = np.random.default_rng(42)
        p = rng.uniform(1e-6, 1.0 - 1e-6, 1000)
        np.testing.assert_allclose(m.cdf(m.quantile(p)), p, atol=1e-9)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property_vonmises(self, p):
        m = VonMises(mu=5.9, kappa=11.0)
        assert m.cdf(m.quantile(p)) == pytest.approx(p, abs=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=2 * np.pi - 1e-9),
        st.floats(min_value=-0.98, max_value=0.98),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property_wrapped_cauchy(self, mu, xi, p):
        m = WrappedCauchy(mu=mu, xi=xi)
        assert m.cdf(m.quantile(p)) == pytest.approx(p, abs=1e-9)
        assert m.cdf(m.mu + np.pi) == pytest.approx(0.5, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=2 * np.pi - 1e-9),
        st.floats(min_value=-0.98, max_value=0.98),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property_wrapped_cauchy_from_angle(self, mu, xi, x):
        # any angle, not only [0, 2 pi), comes back modulo 2 pi
        m = WrappedCauchy(mu=mu, xi=xi)
        d = abs(m.quantile(m.cdf(x)) - wrap_angle(x))
        assert min(d, TWO_PI - d) <= 1e-9

    @given(
        st.floats(min_value=0.3, max_value=8.0),
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property_weibull(self, shape, scale, p):
        m = Weibull(shape=shape, scale=scale)
        assert m.cdf(m.quantile(p)) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=IDS)
    def test_out_of_range_p_rejected(self, m):
        with pytest.raises(DomainError):
            m.quantile(1.0)
        with pytest.raises(DomainError):
            m.quantile(-0.1)


@pytest.mark.parametrize("kappa", [0.8, 84.4, 1e3])
def test_reference_coefficients_match_besseli(kappa):
    # the 50-digit recurrence behind the series references, against
    # mpmath's own I_k at its first, a middle and its last order
    coef = _reference_coefficients(kappa)
    for k in (1, coef.size // 2, coef.size):
        with mpmath.workdps(40):
            exact = mpmath.besseli(k, kappa) / mpmath.besseli(0, kappa) / (k * mpmath.pi)
            err = abs(mpmath.mpf(str(coef[k - 1])) - exact) / exact
        assert err <= float(np.finfo(np.longdouble).eps), (kappa, k)


def test_turn_gap_is_what_the_float_period_leaves_out():
    # the CDF table's total mass adds g(0) (2 pi - TWO_PI) for the sliver
    # of the period above the float TWO_PI
    with mpmath.workdps(40):
        assert marginals._TURN_GAP == float(2 * mpmath.pi - mpmath.mpf(TWO_PI))


class TestVonMisesAcrossKappa:
    """Exact round trip and bounded memory from the uniform law up to the
    concentration cap the fitter itself produces."""

    @pytest.fixture(autouse=True)
    def _fresh_caches(self):
        # per-kappa CDF and start tables are built inside each test
        marginals._vonmises_start_table.cache_clear()
        marginals._vonmises_cdf_table.cache_clear()

    @staticmethod
    def _peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "kappa", [0.0, 1e-3, 0.8, 5.0, 84.4, 1e3, 1e4, 1e5, marginals.KAPPA_MAX]
    )
    def test_round_trip(self, kappa):
        m = VonMises(mu=2.0, kappa=kappa)
        p = np.random.default_rng(17).random(2000)
        x = m.quantile(p)
        assert np.all((x >= 0.0) & (x < TWO_PI))
        assert np.max(np.abs(m.cdf(x) - p)) <= 1e-12

    def test_round_trip_across_kappa_and_edge_probabilities(self):
        # kappa = 0 and 400 kappa from 1e-9 to the cap, where the start
        # table goes from its minimum of 16 intervals to 1600; random p and
        # the edges 1e-300, 1e-17, 1/2 and one ulp either side, 1 - 2^-53.
        # F(Q(p)) is compared with p on the circle, where 1 - 2^-53 and 0
        # are one ulp apart.  Where the density nearly underflows the step
        # must neither overflow nor give NaN.
        edges = [1e-300, 1e-17, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                 1.0 - 2.0**-53]
        p = np.concatenate([np.random.default_rng(26).random(1000), edges])
        for kappa in np.concatenate([[0.0], np.geomspace(1e-9, marginals.KAPPA_MAX, 400)]):
            m = VonMises(mu=2.0, kappa=kappa)
            with np.errstate(over="raise", invalid="raise"):
                x = m.quantile(p)
            assert np.all((x >= 0.0) & (x < TWO_PI)), kappa
            d = np.abs(m.cdf(x) - p)
            assert np.max(np.minimum(d, 1.0 - d)) <= 1e-12, kappa

    @pytest.mark.parametrize("kappa", [0.0, 0.0117, 5.0, 84.4, marginals.KAPPA_MAX])
    def test_quantile_reads_the_cdf_table_once_a_value(self, kappa, monkeypatch):
        # one step from the start table: each value meets the CDF table
        # once, whatever kappa is
        m = VonMises(mu=2.0, kappa=kappa)
        p = np.random.default_rng(27).random(1500)
        m.quantile(p[:1])  # builds the per-kappa tables
        values = []
        table_sine = marginals._table_sine

        def counted(y, table):
            values.append(y.size)
            return table_sine(y, table)

        monkeypatch.setattr(marginals, "_table_sine", counted)
        m.quantile(p)
        assert sum(values) == p.size

    @pytest.mark.parametrize(
        "kappa", [0.0, 0.0117] + np.geomspace(1e-9, marginals.KAPPA_MAX, 60).tolist()
    )
    def test_guide_table_finds_the_searched_interval(self, kappa):
        # the guide table's start interval is binary search's, so draws are
        # too: at random q, every node's CDF value and one ulp either side,
        # 0, 1/2 and the float below it, NaN, and each q alone as a 0-d array
        cdf, _, _, guide = marginals._vonmises_start_table(kappa)
        q = np.concatenate([
            0.5 * np.random.default_rng(28).random(5000),
            cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 1.0),
            [0.0, 0.5, np.nextafter(0.5, 0.0), np.nan],
        ])
        q = q[~(q < 0.0) & ~(q > 0.5)]
        searched = np.clip(np.searchsorted(cdf, q, side="right") - 1, 0, cdf.size - 2)
        np.testing.assert_array_equal(marginals._start_interval(q, cdf, guide), searched)
        for v, i in zip(q[-300:], searched[-300:]):
            assert marginals._start_interval(np.asarray(v), cdf, guide) == i

    @pytest.mark.parametrize("kappa", [0.0117, 1.55, 5.0, 27.6, marginals.KAPPA_MAX])
    def test_scalar_quantile_matches_array(self, kappa):
        # a float, a 0-d array and an array element give the same bits,
        # also in the guide table's searched cells near q = 1/2
        m = VonMises(mu=2.0, kappa=kappa)
        p = np.array([0.0, 0.3, 0.4999, np.nextafter(0.5, 0.0), 0.5, 0.5001, 0.9])
        x = m.quantile(p)
        for pj, xj in zip(p.tolist(), x.tolist()):
            assert m.quantile(pj) == xj and isinstance(m.quantile(pj), float)
            assert m.quantile(np.asarray(pj)) == xj

    @pytest.mark.parametrize("kappa", [0.8, 27.6, 84.4, 1e3])
    def test_cdf_matches_direct_series(self, kappa):
        # the series y/2pi + sum_k I_k/I_0 sin(k y)/(k pi) summed term by
        # term in long double from 50-digit coefficients
        x = TWO_PI * np.random.default_rng(20).random(300)
        coef = _reference_coefficients(kappa)
        k = np.arange(1, coef.size + 1, dtype=np.longdouble)
        direct = x / TWO_PI + coef @ np.sin(np.outer(k, x.astype(np.longdouble)))
        m = VonMises(mu=0.0, kappa=kappa)
        np.testing.assert_allclose(m.cdf(x), direct.astype(float), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kappa", [0.8, 5.0, 84.4, 1e3, 1e5])
    def test_trimmed_series_matches_full_series(self, kappa):
        # the CDF against the full 50-digit series rounded to float: the
        # table's error, within 6e-16, and the rounding of y / 2 pi + S
        y = TWO_PI * np.random.default_rng(21).random(300)
        full = y / TWO_PI + _reference_sine(y, _reference_coefficients(kappa))
        untrimmed = np.clip(full.astype(float), 0.0, 1.0)
        m = VonMises(mu=0.0, kappa=kappa)
        np.testing.assert_allclose(m.cdf(y), untrimmed, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "kappa",
        [0.0, 1e-3, 0.8, 5.0, 17.3, 27.6, 84.4, 1e3, 1230.9, 1e4, 1e5, marginals.KAPPA_MAX]
        # two kappa of np.geomspace(1e-3, KAPPA_MAX, 400) above 2e5
        + [float(np.geomspace(1e-3, marginals.KAPPA_MAX, 400)[i]) for i in (386, 391)],
    )
    def test_table_matches_series(self, kappa):
        # the table's sine part, the integral of the density less y / 2 pi,
        # against the series on every 50-digit coefficient, summed in long
        # double, at random points, every interval end, one ulp either side
        # of it, 0, pi and the last float below 2 pi
        table = marginals._vonmises_cdf_table(kappa)
        y = _table_test_points(table[1].size)
        exact = _reference_sine(y, _reference_coefficients(kappa))
        np.testing.assert_allclose(marginals._table_sine(y, table), exact, rtol=0, atol=6e-16)

    @pytest.mark.parametrize("kappa", [84.4, 1e5, marginals.KAPPA_MAX])
    def test_table_stores_few_fitted_intervals(self, kappa):
        # only intervals with w = kappa (1 - cos y) <= 40 somewhere are
        # fitted, and the build evaluates the density only at their
        # _TABLE_DEGREE + 1 nodes each: at most 29 of them at any kappa,
        # 32 allowed here
        coef, row, _ = marginals._vonmises_cdf_table(kappa)
        assert coef.shape[0] == marginals._TABLE_DEGREE + 1
        assert 0 < coef.shape[1] == np.count_nonzero(row >= 0) <= 32

    @pytest.mark.parametrize("kappa", [17.3, 27.6, 84.4, 1e5, marginals.KAPPA_MAX])
    def test_cdf_equals_full_table(self, kappa):
        # the stored table leaves out the linear intervals; the CDF must be
        # bit for bit what Clenshaw's recurrence gives on the full table,
        # those intervals' two coefficients included
        coef, row, _ = marginals._vonmises_cdf_table(kappa)
        n = row.size
        h = TWO_PI / n
        full = np.zeros((marginals._TABLE_DEGREE + 1, n))
        full[0] = 0.5 - (h * np.arange(n) + 0.5 * h) / TWO_PI
        full[1] = -0.5 * h / TWO_PI
        full[:, row >= 0] = coef
        y = np.concatenate([
            _table_test_points(n), TWO_PI * np.random.default_rng(25).random(10**6)
        ])
        m = VonMises(mu=0.0, kappa=kappa)
        expected = np.clip(y / TWO_PI + _full_table_sine(y, full), 0.0, 1.0)
        np.testing.assert_array_equal(m.cdf(y).view(np.int64), expected.view(np.int64))

    def test_table_storage_bounded_at_kappa_max(self):
        # only the fitted intervals (18 at KAPPA_MAX) are stored, not all 6284
        coef, row, _ = marginals._vonmises_cdf_table(marginals.KAPPA_MAX)
        assert coef.nbytes + row.nbytes <= 64 * 1024

    @pytest.mark.parametrize("kappa", np.geomspace(1e-3, marginals.KAPPA_MAX, 40))
    def test_coefficients_match_trimmed_reference_series(self, kappa):
        # the table's Chebyshev coefficients, summed by _table_sine, against
        # the 50-digit series trimmed where I_k / I_0 < 1e-30, at 40 kappa
        # from 1e-3 to the cap: within 6e-16 at random points, every
        # interval end and one ulp either side of it
        table = marginals._vonmises_cdf_table(kappa)
        y = _table_test_points(table[1].size)
        exact = _reference_sine(y, _reference_coefficients(kappa))
        np.testing.assert_allclose(marginals._table_sine(y, table), exact, rtol=0, atol=6e-16)

    @pytest.mark.parametrize("method", ["cdf", "quantile"])
    def test_blocked_series_matches_block_by_block(self, method):
        fn = getattr(VonMises(mu=1.0, kappa=84.4), method)
        block = marginals._SERIES_BLOCK
        scale = TWO_PI if method == "cdf" else 1.0
        data = scale * np.random.default_rng(22).random((3, block + 77))

        def block_by_block(x):
            flat = x.ravel()
            parts = [fn(flat[s:s + block].copy()) for s in range(0, flat.size, block)]
            return np.concatenate(parts).reshape(x.shape)

        for x in (data, data.T):  # C-contiguous and a transposed view
            np.testing.assert_array_equal(fn(x), block_by_block(x))
        scalar = fn(float(data[1, 2]))
        assert isinstance(scalar, float)
        assert scalar == fn(data[1, 2:3])[0]

    def test_cdf_memory_bounded_at_one_million_points(self):
        m = VonMises(mu=2.0, kappa=84.4)
        x = TWO_PI * np.random.default_rng(23).random(1_000_000)
        assert self._peak_mb(lambda: m.cdf(x)) <= 64.0

    def test_memory_bounded_at_kappa_1e5(self):
        m = VonMises(mu=2.0, kappa=1e5)
        p = np.random.default_rng(18).random(2000)
        assert self._peak_mb(lambda: m.cdf(m.quantile(p))) <= 64.0

    def test_cdf_memory_bounded_at_kappa_max(self):
        m = VonMises(mu=2.0, kappa=marginals.KAPPA_MAX)
        x = TWO_PI * np.random.default_rng(19).random(16)
        assert self._peak_mb(lambda: m.cdf(x)) <= 64.0


class TestSampling:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=IDS)
    def test_ks_against_cdf(self, m):
        # probability integral transform: F(X) must be uniform on [0, 1);
        # for circular families this also respects the origin-at-mu CDF
        draws = m.sample(10_000, seed=9)
        assert kstest(m.cdf(draws), "uniform").pvalue > 0.01

    def test_xi_zero_draws_are_uniform(self):
        m = WrappedCauchy(mu=1.0, xi=0.0)
        draws = m.sample(10_000, seed=3)
        assert kstest(draws / TWO_PI, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("m", ALL_MODELS, ids=IDS)
    def test_seed_determinism(self, m):
        np.testing.assert_array_equal(m.sample(64, seed=5), m.sample(64, seed=5))


class TestFit:
    def test_uniform_fit_is_parameter_free(self):
        data = np.array([0.1, 3.0, 5.0])
        m = fit_mle("uniform", data)
        assert isinstance(m, CircularUniform)
        assert m.loglik(data) == pytest.approx(-3.0 * np.log(TWO_PI), rel=1e-14)

    def test_vonmises_recovery_close_to_truth(self):
        # tolerances are 3x the asymptotic standard errors at n = 2000
        true = VonMises(mu=1.93, kappa=27.6)
        m = fit_mle("von_mises", true.sample(2000, seed=101))
        assert abs(m.mu - 1.93) < 0.013
        assert abs(m.kappa - 27.6) < 3.0

    @pytest.mark.parametrize(
        "family,true",
        [
            ("wrapped_cauchy", WrappedCauchy(mu=2.0, xi=0.6)),
            ("von_mises", VonMises(mu=4.0, kappa=5.0)),
            ("cardioid", Cardioid(mu=1.0, rho_c=0.25)),
            ("weibull", Weibull(shape=1.7, scale=2.2)),
            ("uniform", CircularUniform()),
            ("wrapped_cauchy", WrappedCauchy(mu=4.44, xi=0.882)),
            ("cardioid", Cardioid(mu=2.0, rho_c=0.45)),
            ("cardioid", Cardioid(mu=2.0, rho_c=-0.45)),
        ],
    )
    def test_fit_beats_truth(self, family, true):
        data = true.sample(1500, seed=77)
        fitted = fit_mle(family, data)
        assert fitted.loglik(data) >= true.loglik(data) - 1e-8

    @pytest.mark.parametrize(
        "family,true",
        [
            ("wrapped_cauchy", WrappedCauchy(mu=2.0, xi=0.6)),
            ("von_mises", VonMises(mu=4.0, kappa=5.0)),
            ("weibull", Weibull(shape=1.7, scale=2.2)),
            ("cardioid", Cardioid(mu=1.0, rho_c=0.25)),
        ],
    )
    def test_constant_weights_match_unweighted(self, family, true):
        # weights of a power of two scale every weighted sum exactly
        data = true.sample(500, seed=13)
        a = fit_mle(family, data)
        for factor in (2.0, 0.5):
            b = fit_mle(family, data, weights=np.full(data.shape, factor))
            assert b.params_dict() == a.params_dict()

    def test_vonmises_kappa_capped_after_newton(self):
        # rbar = cos(d) = 1 - 1e-8 is above A1(KAPPA_MAX) = 1 - 5e-7: the
        # root, about 1 / (2 (1 - rbar)) = 5e7, is past the cap
        d = math.sqrt(2e-8)
        with pytest.warns(RuntimeWarning, match="von Mises kappa capped"):
            m = fit_mle("von_mises", [1.0 - d, 1.0 + d])
        assert m.kappa == marginals.KAPPA_MAX
        assert m.mu == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("d", [
        1.2839901995099755e-4, 1.285169258462923e-4, 1.292857642882144e-4,
        1.2935046752337616e-4, 1.293507675383769e-4,
    ])
    def test_vonmises_kappa_capped_far_past_the_cap(self, d):
        # rbar = 1 - 8.4e-9, where the A1 solve's steps, once taken, wandered
        # in rounding and fitted kappa = 1298, 144.5, 5.68, 1e-8 and 105 098
        with pytest.warns(RuntimeWarning, match="von Mises kappa capped"):
            m = fit_mle("von_mises", [1.0 - d, 1.0 + d])
        assert m.kappa == marginals.KAPPA_MAX

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_weibull_nonpositive_data_raise_domain_error(self, bad):
        with pytest.raises(DomainError, match="^Weibull data must be positive"):
            fit_mle("weibull", [1.0, 2.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", sorted(marginals.FAMILIES))
    def test_nonfinite_data_raise_domain_error(self, family, bad):
        # not a misleading parameter error, nor a model fitted to NaN
        data = np.array([1.0, 2.0, 3.0, bad])
        with pytest.raises(DomainError, match="^data must be finite"):
            fit_mle(family, data)
        with pytest.raises(DomainError, match="^data must be finite"):
            marginals.FAMILIES[family].fit(data[::-1], weights=np.ones(4))

    def test_nonfinite_data_in_loglik_raise_domain_error(self):
        with pytest.raises(DomainError, match="^data must be finite"):
            VonMises(mu=1.0, kappa=2.0).loglik([0.5, np.nan])

    @pytest.mark.parametrize(
        "family,true",
        [
            ("wrapped_cauchy", WrappedCauchy(mu=0.5, xi=0.4)),
            ("von_mises", VonMises(mu=2.2, kappa=9.0)),
            ("weibull", Weibull(shape=2.4, scale=0.9)),
            ("cardioid", Cardioid(mu=5.0, rho_c=0.2)),
        ],
    )
    def test_integer_weights_equal_replication(self, family, true):
        data = true.sample(300, seed=21)
        w = np.random.default_rng(4).integers(1, 4, size=data.shape[0])
        weighted = fit_mle(family, data, weights=w.astype(float))
        replicated = fit_mle(family, np.repeat(data, w))
        for key, val in weighted.params_dict().items():
            assert val == pytest.approx(replicated.params_dict()[key], abs=1e-12)

    def test_identical_circular_data_warns_and_caps(self):
        data = np.full(50, 1.5)
        with pytest.warns(RuntimeWarning):
            m = fit_mle("von_mises", data)
        assert m.kappa == pytest.approx(1e6)
        with pytest.warns(RuntimeWarning):
            m = fit_mle("wrapped_cauchy", data)
        assert abs(m.xi) >= 1.0 - 1e-8

    def test_zero_weight_rows_drop_out(self):
        # a far row of weight 0 must not reach the sums, where x**nu
        # overflows and 0 * inf would turn them into nan
        data = Weibull(shape=50.0, scale=1.0).sample(200, seed=1)
        w = np.append(np.ones(200), 0.0)
        assert fit_mle("weibull", np.append(data, 1e9), w) == fit_mle("weibull", data)

    def test_half_weight_at_one_angle_caps_xi(self):
        # with 600 of 1000 points at one angle the wrapped Cauchy likelihood
        # grows without bound as xi -> 1 there
        data = WrappedCauchy(mu=3.0, xi=0.5).sample(1000, seed=8)
        data[:600] = 1.0
        with pytest.warns(RuntimeWarning, match="xi capped"):
            m = fit_mle("wrapped_cauchy", data)
        assert m.xi == marginals.XI_MAX
        assert m.mu == 1.0

    @pytest.mark.parametrize("case", ["distinct", "heavy_row", "light_ties", "heavy_ties",
                                      "two_halves"])
    def test_half_weight_atom_matches_grouping(self, case):
        # the sort-first test decides as grouping every tied angle does
        theta = WrappedCauchy(mu=3.0, xi=0.5).sample(200, seed=3)
        w = np.ones(theta.size)
        if case == "heavy_row":
            w[7] = 199.0  # exactly half the weight, on distinct angles
        elif case == "light_ties":
            theta[:50] = theta[60]
        elif case == "heavy_ties":
            theta[:101] = theta[150] - TWO_PI
        elif case == "two_halves":
            theta[:100], theta[100:] = 2.0, 1.0
        atoms, inverse = np.unique(wrap_angle(theta), return_inverse=True)
        atom_w = np.bincount(inverse, weights=w)
        want = float(atoms[np.argmax(atom_w)]) if 2.0 * atom_w.max() >= w.sum() else None
        assert marginals._half_weight_atom(theta, w) == want
        assert (want is None) == (case in ("distinct", "light_ties"))

    @staticmethod
    def _wc_loglik(theta, w, mu, xi):
        return float(w @ wc_log_density(theta, mu, min(xi, marginals.XI_MAX)))

    @pytest.mark.parametrize(
        "mu,xi,n,seed,atom,max_iterations",
        [
            (2.0, 0.5, 1000, 1, 490, 50),
            (1.0, 0.999999, 1000, 0, 0, None),
            (1.0, 0.6, 1000, 0, 0, None),
            (1.0, -0.9, 40, 2, 0, None),
        ],
        ids=["atom", "xi=0.999999", "xi=0.6", "xi=-0.9"],
    )
    def test_wrapped_cauchy_newton_beats_kent_tyler(self, mu, xi, n, seed, atom,
                                                    max_iterations):
        # with 490 of 1000 points at one angle the fixed point's contraction
        # rate nears 1 and it takes 1040 steps; Newton's method converges
        # quadratically, in no more iterations than the fixed point takes
        # steps, and ends no lower
        theta = WrappedCauchy(mu=mu, xi=xi).sample(n, seed=seed)
        theta[:atom] = 1.0
        w = np.ones(n)
        fit_mu, fit_xi, iterations = marginals._wrapped_cauchy_mle(theta, w)
        ref_mu, ref_xi, steps = _kent_tyler(theta, w)
        assert iterations <= (steps if max_iterations is None else max_iterations)
        reference = self._wc_loglik(theta, w, ref_mu, ref_xi)
        assert self._wc_loglik(theta, w, fit_mu, fit_xi) >= reference - 1e-12 * abs(reference)
        assert fit_mle("wrapped_cauchy", theta) == WrappedCauchy(mu=fit_mu, xi=fit_xi)

    def test_wrapped_cauchy_ascent_never_falls(self, monkeypatch):
        # at this seed the first Newton step leaves the likelihood 428 nats
        # lower; Armijo's test sends it to the Kent-Tyler step instead
        theta = WrappedCauchy(mu=1.0, xi=0.9999).sample(1000, seed=1)
        w = np.ones(theta.size)
        iterations = marginals._wrapped_cauchy_mle(theta, w)[2]
        values = []
        for k in range(1, iterations + 1):
            monkeypatch.setattr(marginals, "_MAX_ITER", k)
            values.append(self._wc_loglik(theta, w, *marginals._wrapped_cauchy_mle(theta, w)[:2]))
        assert np.all(np.diff(values) >= -1e-12 * abs(values[-1]))

    def test_wrapped_cauchy_start_past_the_cap_is_returned(self):
        # three distinct angles within 2e-5 rad: no angle holds half the
        # weight, and the mean resultant is already past XI_MAX, so the
        # ascent does not start and the fit caps the start
        theta = np.array([0.0, 1e-5, 2e-5])
        w = np.ones(3)
        assert marginals._half_weight_atom(theta, w) is None
        mu, xi, iterations = marginals._wrapped_cauchy_mle(theta, w)
        assert (mu, xi) == marginals._weighted_circular_moment(theta, w)
        assert xi >= marginals.XI_MAX and iterations == 0
        with pytest.warns(RuntimeWarning, match="xi capped"):
            assert fit_mle("wrapped_cauchy", theta) == WrappedCauchy(mu=mu, xi=marginals.XI_MAX)

    def test_wrapped_cauchy_kent_tyler_stop(self):
        # two tight antipodal pairs, weighted 1 +- 1e-11: the likelihood is
        # almost flat along their axis and M almost singular, so the Newton
        # step leaves the disk; the Kent-Tyler step moves psi by less than
        # 1e-10 (1 - xi) and ends the ascent, as it ends the reference
        theta = np.array([0.0, 1e-7, np.pi, np.pi + 1e-7])
        w = np.array([1.0 + 1e-11, 1.0 + 1e-11, 1.0 - 1e-11, 1.0 - 1e-11])
        assert marginals._half_weight_atom(theta, w) is None
        mu, xi, iterations = marginals._wrapped_cauchy_mle(theta, w)
        ref_mu, ref_xi, steps = _kent_tyler(theta, w)
        assert iterations == steps == 1
        reference = self._wc_loglik(theta, w, ref_mu, ref_xi)
        assert self._wc_loglik(theta, w, mu, xi) >= reference - 1e-12 * abs(reference)

    @pytest.mark.parametrize("eps", [1e-9, 1e-11])
    def test_wrapped_cauchy_flat_ridge_stops_at_once(self, eps):
        # the pairs above, weighted 1 + eps s_j for each of the 16 sign
        # patterns s: along their axis the likelihood is flat to rounding,
        # and Kent-Tyler steps of 2.5e-10 gain 1e-18 each; at eps = 1e-9
        # ten patterns took such steps up to the 10 000-iteration cap, until
        # a step's gain below 2^-52 W, the log-likelihood's rounding, ended
        # the ascent
        theta = np.array([0.0, 1e-7, np.pi, np.pi + 1e-7])
        for signs in itertools.product((1.0, -1.0), repeat=4):
            w = 1.0 + eps * np.array(signs)
            mu, xi, iterations = marginals._wrapped_cauchy_mle(theta, w)
            assert iterations <= 2
            start = self._wc_loglik(theta, w, *marginals._weighted_circular_moment(theta, w))
            assert self._wc_loglik(theta, w, mu, xi) >= start - 1e-12 * abs(start)

    def test_cardioid_line_search_halves_and_can_run_out(self, monkeypatch):
        # 1000 angles within 0.05 of 0 and 10 at pi: the first Newton step
        # from rho_c = 0.45 leaves the disk, and on the cap circle, where it
        # is cut, the 10 far angles lose more than the rest gain, so the
        # search halves it, as it does one later step; allowed one trial a
        # step, it runs out of ascent and the fit stops at its start
        theta = np.concatenate([np.linspace(-0.05, 0.05, 1000), np.full(10, np.pi)])
        fit = Cardioid.fit(theta)
        assert fit.rho_c == pytest.approx(0.49, abs=1e-3)
        monkeypatch.setattr(marginals, "_MAX_HALVINGS", 2)
        assert Cardioid.fit(theta) == fit
        monkeypatch.setattr(marginals, "_MAX_HALVINGS", 1)
        stopped = Cardioid.fit(theta)
        assert stopped.rho_c == pytest.approx(0.45, rel=1e-15)
        assert stopped.loglik(theta) < fit.loglik(theta)

    def test_cardioid_optimum_on_the_cap(self):
        # at this seed the unconstrained optimum lies beyond |rho_c| =
        # RHO_C_MAX, so the fit must end on the cap circle, at the best mu
        true = Cardioid(mu=2.0, rho_c=0.499)
        data = true.sample(1000, seed=1)
        with pytest.warns(RuntimeWarning, match="cap"):
            m = fit_mle("cardioid", data)
        assert m.rho_c == marginals.RHO_C_MAX
        on_cap = max(
            Cardioid(mu=mu, rho_c=marginals.RHO_C_MAX).loglik(data)
            for mu in np.linspace(1.9, 2.1, 2001)
        )
        assert m.loglik(data) >= max(on_cap, true.loglik(data)) - 1e-9

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            fit_mle("kato_jones", np.array([1.0, 2.0]))
        with pytest.raises(InvalidParameterError):
            marginals.family_class(np.float64)

    def test_empty_data_rejected(self):
        with pytest.raises(DomainError):
            fit_mle("von_mises", np.array([]))

    def test_bad_weights_rejected(self):
        data = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            fit_mle("von_mises", data, weights=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(DomainError):
            fit_mle("von_mises", data, weights=np.zeros(3))


class TestWrapAngle:
    """wrap_angle's fast path for long float64 arrays within one turn of
    [0, 2 pi) gives np.mod's reduction bit for bit, once the full turn is
    set to 0; every other input still goes through np.mod."""

    ULP_EDGES = [
        0.0, -0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(2.0 * TWO_PI, 0.0),
        np.nextafter(-TWO_PI, 0.0), -1e-300, -1e-17, -5e-324, 5e-324,
    ]
    OUTSIDE = [np.nextafter(-TWO_PI, -7.0), 2.0 * TWO_PI, 1e300, -1e300, np.nan, np.inf, -np.inf]

    @staticmethod
    def _expected(x):
        with np.errstate(invalid="ignore"):  # np.mod of +-inf
            return _below_full_turn(np.mod(x, TWO_PI))

    @staticmethod
    def _wrap_counting_mod(x, monkeypatch):
        """wrap_angle(x) and the number of np.mod calls it made."""
        calls = []
        mod = np.mod

        def counted(*args, **kwargs):
            calls.append(1)
            return mod(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "mod", counted)
            out = wrap_angle(x)
        return out, len(calls)

    def test_random_angles_match_mod_bit_for_bit(self, monkeypatch):
        x = np.random.default_rng(31).uniform(-TWO_PI, 2.0 * TWO_PI, 10**6)
        x = np.concatenate([x, self.ULP_EDGES])
        expected = self._expected(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, mods = self._wrap_counting_mod(x, monkeypatch)
        assert mods == 0
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
        assert out.min() >= 0.0 and out.max() < TWO_PI

    @pytest.mark.parametrize("edge", ULP_EDGES + OUTSIDE)
    def test_each_edge_in_a_long_array_matches_mod(self, edge, monkeypatch):
        x = np.random.default_rng(32).uniform(-TWO_PI, 2.0 * TWO_PI, 2 * _FAST_WRAP_MIN)
        x[::7] = edge
        with np.errstate(invalid="ignore"):  # np.mod of +-inf
            out, mods = self._wrap_counting_mod(x, monkeypatch)
        assert mods == (0 if edge in self.ULP_EDGES else 1)
        np.testing.assert_array_equal(out.view(np.int64), self._expected(x).view(np.int64))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int32])
    def test_other_dtypes_keep_mod_result(self, dtype):
        x = np.arange(-3 * _FAST_WRAP_MIN, 3 * _FAST_WRAP_MIN).astype(dtype) % 13 - 6
        expected = self._expected(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = wrap_angle(x)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)

    def test_scalars_and_short_arrays_use_mod(self, monkeypatch):
        for x in (2.5, np.float64(-1.0), np.full(_FAST_WRAP_MIN - 1, 1.0)):
            out, mods = self._wrap_counting_mod(x, monkeypatch)
            assert mods == 1
            assert np.array_equal(out, self._expected(x))


class TestParameterValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            WrappedCauchy(mu=0.0, xi=1.0)
        with pytest.raises(InvalidParameterError):
            VonMises(mu=0.0, kappa=-1.0)
        with pytest.raises(InvalidParameterError):
            Cardioid(mu=0.0, rho_c=0.5)
        with pytest.raises(InvalidParameterError):
            Weibull(shape=0.0, scale=1.0)

    @pytest.mark.parametrize("x", [-1e-17, -5e-324, -0.0, -TWO_PI * (1.0 - 2.0**-53)])
    def test_angles_just_below_zero_wrap_below_two_pi(self, x):
        # np.mod and % round a tiny negative angle up to 2 pi itself; that
        # one value becomes 0, and every other stays as np.mod gives it; a
        # long array takes wrap_angle's fast path
        reduced = np.mod(x, TWO_PI)
        expected = 0.0 if reduced == TWO_PI else reduced
        for out in (
            wrap_angle(x), wrap_angle(np.array([x, x]))[1],
            wrap_angle(np.full(_FAST_WRAP_MIN, x))[1],
            moebius_map(x, 0.5, 0.0, 1.0), moebius_map(np.array([x, x]), 0.5, 0.0, 1.0)[1],
            WrappedCauchy(mu=x, xi=0.5).mu,
        ):
            assert out == expected
        assert 0.0 <= CircularUniform().cdf(x) < 1.0

    def test_mu_normalized_to_period(self):
        m = WrappedCauchy(mu=-1.0, xi=0.2)
        assert 0.0 <= m.mu < TWO_PI
        assert m.mu == pytest.approx(TWO_PI - 1.0)

    def test_serialization_round_trip(self):
        from twcm.marginals import marginal_from_dict

        for m in ALL_MODELS:
            again = marginal_from_dict(m.to_dict())
            assert again == m
