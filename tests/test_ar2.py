"""Circular AR(2) checks: the transition kernel against the model
conditional, normalization, stationarity of simulated chains, and the
simulator against the step-at-a-time algorithm."""

import dataclasses
import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.stats import kstest

import twcm.ar2
from twcm import (
    Ar2Params,
    CircularUniform,
    DomainError,
    InvalidParameterError,
    RhoVector,
    SingularKernelError,
    TwcmModel,
    VonMises,
    Weibull,
    WrappedCauchy,
    copula_cond_1given2,
    simulate,
    transition_density,
)
from twcm._util import wc_kernel_sample
from twcm.copula import conditional_phi, pairwise_phi

TWO_PI = 2.0 * np.pi

WC = WrappedCauchy(mu=3.0, xi=0.5)
# equal lag-1 links keep the consecutive-pair law time-invariant
STATIONARY = Ar2Params(rho_t_tm1=2.0, rho_t_tm2=0.25, rho_tm1_tm2=2.0,
                       marginal=WC)
HIGH_DELTA = Ar2Params(rho_t_tm1=3.0, rho_t_tm2=1.0 / 9.0, rho_tm1_tm2=3.0,
                       marginal=WC)
MARGINALS = {"wc": WC, "uniform": CircularUniform(), "vm": VonMises(mu=1.0, kappa=5.0)}


def step_by_step(params, n, seed, n_chains=None):
    """Reference simulator: one public conditional_phi, one kernel draw and
    one marginal quantile per time step."""
    rng = np.random.default_rng(seed)
    f, rho = params.marginal, params.rho
    m = 1 if n_chains is None else n_chains
    theta = np.empty((m, n))
    u = np.empty((m, n))
    theta[:, 0] = f.quantile(rng.random(m))
    u[:, 0] = TWO_PI * np.asarray(f.cdf(theta[:, 0]))
    phi23 = pairwise_phi(rho, (2, 3))
    u[:, 1] = wc_kernel_sample(u[:, 0], np.full(m, phi23), rng)
    theta[:, 1] = f.quantile(u[:, 1] / TWO_PI)
    for t in range(2, n):
        ph = conditional_phi(rho, 1, u[:, t - 1], u[:, t - 2])
        u[:, t] = wc_kernel_sample(np.angle(ph), np.abs(ph), rng)
        theta[:, t] = f.quantile(u[:, t] / TWO_PI)
    theta = np.mod(theta, TWO_PI)
    return theta[0] if n_chains is None else theta


class TestParams:
    def test_invalid_rho_rejected(self):
        with pytest.raises(InvalidParameterError):
            Ar2Params(1.0, 1.0, 1.0, marginal=WC)

    def test_linear_marginal_rejected(self):
        with pytest.raises(InvalidParameterError):
            Ar2Params(2.0, 0.25, 2.0, marginal=Weibull(2.0, 1.0))

    def test_unequal_lag1_warns(self):
        with pytest.warns(RuntimeWarning, match="stationary"):
            Ar2Params(2.0, 2.0, 0.25, marginal=WC)

    def test_equal_lag1_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Ar2Params(2.0, 0.25, 2.0, marginal=WC)


class TestTransitionDensity:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("lag", [0, 1, 2])
    def test_raises_on_nonfinite_angles(self, bad, lag):
        # as the model's conditionals do: not a NaN with a RuntimeWarning
        angles = [np.array([0.5, 1.0]), 2.0, 3.0]
        angles[lag] = bad
        with pytest.raises(DomainError, match="^angles outside the circular domain$"):
            transition_density(STATIONARY, *angles)

    @pytest.mark.parametrize(
        "marginal",
        [WC, VonMises(mu=1.0, kappa=4.0), CircularUniform()],
        ids=["wc", "vm", "uniform"],
    )
    def test_matches_model_conditional(self, marginal):
        params = Ar2Params(2.0, 0.25, 2.0, marginal=marginal)
        model = TwcmModel(rho=params.rho, marginals=(marginal,) * 3)
        rng = np.random.default_rng(1)
        pts = TWO_PI * rng.random((100, 3))
        a = transition_density(params, pts[:, 0], pts[:, 1], pts[:, 2])
        b = model.cond_density_1given2(pts, 1)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_uniform_marginal_reduces_to_copula_kernel(self):
        params = Ar2Params(2.0, 0.25, 2.0, marginal=CircularUniform())
        rng = np.random.default_rng(2)
        pts = TWO_PI * rng.random((50, 3))
        a = transition_density(params, pts[:, 0], pts[:, 1], pts[:, 2])
        b = copula_cond_1given2(pts, params.rho, 1)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("params", [STATIONARY, HIGH_DELTA],
                             ids=["moderate", "high_delta"])
    def test_normalizes_on_conditioning_grid(self, params):
        m = 512
        g = TWO_PI * np.arange(m) / m
        cond = TWO_PI * (np.arange(16) + 0.5) / 16
        for a in cond:
            for b in cond:
                mass = np.mean(
                    transition_density(params, g, np.full(m, a), np.full(m, b))
                ) * TWO_PI
                assert mass == pytest.approx(1.0, abs=1e-8)

    def test_broadcasts_its_arguments(self):
        rng = np.random.default_rng(10)
        theta_t = TWO_PI * rng.random((4, 1))
        theta_tm1 = TWO_PI * rng.random((1, 5))
        out = transition_density(STATIONARY, theta_t, theta_tm1, 2.0)
        assert out.shape == (4, 5)
        each = [[transition_density(STATIONARY, a, b, 2.0) for b in theta_tm1[0]]
                for a in theta_t[:, 0]]
        np.testing.assert_array_equal(out, each)

    def test_closed_form_marginal_needs_no_quadrature(self):
        # wrapped Cauchy F is evaluated in closed form: a single call costs
        # O(1) evaluations, so a large batch completes instantly
        vals = transition_density(
            STATIONARY,
            TWO_PI * np.random.default_rng(3).random(100_000),
            np.full(100_000, 1.0),
            np.full(100_000, 2.0),
        )
        assert np.all(np.isfinite(vals))


class TestSimulate:
    @pytest.mark.parametrize("n_chains", [0, -3])
    def test_n_chains_must_be_positive(self, n_chains):
        with pytest.raises(InvalidParameterError, match="^n_chains must be >= 1$"):
            simulate(STATIONARY, 10, seed=0, n_chains=n_chains)

    def test_minimum_length_is_initial_pair(self):
        chain = simulate(STATIONARY, 2, seed=4)
        assert chain.shape == (2,)
        assert np.all((chain >= 0.0) & (chain < TWO_PI))

    def test_short_chain_prefix_of_long_chain_initial_pair(self):
        for n_chains in (None, 3):
            long = simulate(STATIONARY, 60, seed=5, n_chains=n_chains)
            for n in (2, 10):
                short = simulate(STATIONARY, n, seed=5, n_chains=n_chains)
                np.testing.assert_array_equal(short, long[..., :n])

    @pytest.mark.parametrize("shape", [(2, None), (3, None), (50, None), (40, 7),
                                       (2000, None), (50, 1)],
                             ids=["n2", "n3", "n50", "n40x7", "n2000", "n50x1"])
    @pytest.mark.parametrize("family", sorted(MARGINALS))
    @pytest.mark.parametrize("rho", [STATIONARY, HIGH_DELTA],
                             ids=["moderate", "high_delta"])
    def test_matches_step_by_step_reference(self, rho, family, shape):
        params = dataclasses.replace(rho, marginal=MARGINALS[family])
        n, n_chains = shape
        got = simulate(params, n, seed=11, n_chains=n_chains)
        want = step_by_step(params, n, 11, n_chains)
        if family == "vm":
            # the von Mises quantile is a numerical solve: agreement to 1e-12 rad
            assert np.max(np.abs(np.angle(np.exp(1j * (got - want))))) <= 1e-12
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("family", ["wc", "vm"])
    def test_cost_does_not_grow_with_length(self, family, monkeypatch):
        # the marginal is inverted once for the whole block and the
        # validated conditional_phi is not called per step
        params = dataclasses.replace(STATIONARY, marginal=MARGINALS[family])
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        cls = type(params.marginal)
        monkeypatch.setattr(cls, "quantile", counted("quantile", cls.quantile))
        orig = twcm.copula.conditional_phi
        for name, mod in list(sys.modules.items()):
            if name.startswith("twcm") and getattr(mod, "conditional_phi", None) is orig:
                monkeypatch.setattr(mod, "conditional_phi", counted("conditional_phi", orig))
        simulate(params, 500, seed=12, n_chains=3)
        assert calls["quantile"] <= 2
        assert calls["conditional_phi"] <= 1

    @pytest.mark.parametrize("n_chains", [None, 3])
    def test_singular_step_detected(self, monkeypatch, n_chains):
        # a unit-modulus kernel parameter at the last step still raises, on
        # the float loop of one chain and on the array loop of many
        n = 30
        orig = twcm.ar2.phi_from_unit
        steps = Counter()

        def unit_at_last_step(*args):
            ph = orig(*args)
            steps["n"] += 1
            return ph / np.abs(ph) if steps["n"] == n - 2 else ph

        monkeypatch.setattr(twcm.ar2, "phi_from_unit", unit_at_last_step)
        with pytest.raises(SingularKernelError):
            simulate(STATIONARY, n, seed=13, n_chains=n_chains)
        assert steps["n"] == n - 2

    def test_float_primitives_round_as_numpy(self):
        # a single chain steps on Python complex numbers and NumPy scalars
        # and is bit-identical to the array loop only if these primitives
        # round as NumPy's array calls
        rng = np.random.default_rng(14)
        u = TWO_PI * rng.random(100_000)
        x = 50.0 * rng.standard_normal(100_000)
        z = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
        unit = np.exp(1j * u)
        checks = {
            "math.cos vs np.exp(1j*u).real": ([math.cos(v) for v in u.tolist()], unit.real),
            "math.sin vs np.exp(1j*u).imag": ([math.sin(v) for v in u.tolist()], unit.imag),
            "np.float64 % 2pi vs np.mod": ([v % TWO_PI for v in x], np.mod(x, TWO_PI)),
            "0-d np.arctan2 vs array": (
                [np.arctan2(a, b) for a, b in zip(z.imag.tolist(), z.real.tolist())],
                np.arctan2(z.imag, z.real)),
            "0-d np.absolute vs array": ([np.absolute(v) for v in z.tolist()], np.absolute(z)),
        }
        for name, (scalar, array) in checks.items():
            mismatches = np.count_nonzero(np.asarray(scalar) != array)
            assert mismatches == 0, (
                f"{name}: {mismatches} of 100000 differ, so one-chain "
                "simulate no longer matches the many-chain array loop")

    def test_seed_determinism(self):
        np.testing.assert_array_equal(
            simulate(STATIONARY, 200, seed=6), simulate(STATIONARY, 200, seed=6)
        )

    def test_length_guard(self):
        with pytest.raises(InvalidParameterError):
            simulate(STATIONARY, 1, seed=0)

    @pytest.mark.parametrize("params", [STATIONARY, HIGH_DELTA],
                             ids=["moderate", "high_delta"])
    def test_long_run_marginal_ks(self, params):
        chain = simulate(params, 10_000, seed=7)
        pit = params.marginal.cdf(chain[100:])
        assert kstest(pit, "uniform").pvalue > 0.01

    def test_time_shift_distributional_equality(self):
        # strict stationarity: consecutive-pair histograms at t=50 and
        # t=150 agree bin by bin over replicate chains
        chains = simulate(STATIONARY, 152, seed=8, n_chains=5000)
        early = chains[:, 50:52]
        late = chains[:, 150:152]
        bins = np.linspace(0.0, TWO_PI, 9)
        h_early, _, _ = np.histogram2d(early[:, 0], early[:, 1], bins=(bins, bins))
        h_late, _, _ = np.histogram2d(late[:, 0], late[:, 1], bins=(bins, bins))
        n = 5000
        pooled = (h_early + h_late) / (2 * n)
        se = np.sqrt(2 * n * pooled * (1 - pooled))
        diff = np.abs(h_early - h_late)
        assert np.all(diff <= 4.0 * np.maximum(se, 1.0))

    def test_chain_matrix_shape(self):
        chains = simulate(STATIONARY, 20, seed=9, n_chains=7)
        assert chains.shape == (7, 20)
