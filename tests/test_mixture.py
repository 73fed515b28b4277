"""Mixture/EM checks: responsibilities, recovery on synthetic clustered
data, BIC selection, and degeneracy handling."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp, roots_legendre

import twcm
from twcm import (
    ComponentCollapseError,
    FitConfig,
    InvalidParameterError,
    MixtureModel,
    RhoVector,
    TwcmModel,
    Weibull,
    WrappedCauchy,
    em_fit,
    fit_ifm,
    mixture_parameter_count,
    responsibilities,
    select_k,
)
from twcm.mixture import log_sum_exp
from twcm.presets import buoy_mixture

TWO_PI = 2.0 * np.pi
FAMS = ("wrapped_cauchy", "wrapped_cauchy", "weibull")

COMP_A = TwcmModel(
    rho=RhoVector(3.0, 3.0, 1.0 / 9.0),
    marginals=(WrappedCauchy(2.0, 0.8), WrappedCauchy(2.0, 0.8),
               Weibull(2.0, 1.0)),
)
COMP_B = TwcmModel(
    rho=RhoVector(3.0, 3.0, 1.0 / 9.0),
    marginals=(WrappedCauchy(2.0 + np.pi / 2, 0.8),
               WrappedCauchy(2.0 + np.pi / 2, 0.8), Weibull(3.0, 3.0)),
)
TRUE_MIX = MixtureModel(weights=(0.3, 0.7), components=(COMP_A, COMP_B))


def two_cluster_data(n=3000, seed=10):
    data, labels = TRUE_MIX.sample(n, seed=seed, return_labels=True)
    return data, labels


class TestMixtureModel:
    def test_weight_validation(self):
        with pytest.raises(InvalidParameterError):
            MixtureModel(weights=(0.5, 0.4), components=(COMP_A, COMP_B))
        with pytest.raises(InvalidParameterError):
            MixtureModel(weights=(1.0, 0.0), components=(COMP_A, COMP_B))

    @pytest.mark.parametrize("call, message", [
        (lambda: MixtureModel(weights=(1.0,), components=(COMP_A, COMP_B)),
         "one weight per component is required"),
        (lambda: MixtureModel(weights=((0.5, 0.5),), components=(COMP_A, COMP_B)),
         "one weight per component is required"),
        (lambda: MixtureModel(weights=(), components=()), "one weight per component is required"),
        (lambda: em_fit(two_cluster_data(100)[0], 0, FAMS), "k must be >= 1"),
        (lambda: select_k(two_cluster_data(100)[0], [], FAMS), "k_values must be nonempty"),
    ], ids=["too_few_weights", "weights_2d", "no_components", "k=0", "no_k_values"])
    def test_argument_checks(self, call, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            call()

    def test_mismatched_families_rejected(self):
        from twcm import CircularUniform

        odd = TwcmModel(rho=RhoVector(3.0, 3.0, 1.0 / 9.0),
                        marginals=(CircularUniform(),) * 3)
        with pytest.raises(InvalidParameterError):
            MixtureModel(weights=(0.5, 0.5), components=(COMP_A, odd))

    def test_density_is_weighted_sum(self):
        data = two_cluster_data(50)[0]
        direct = 0.3 * COMP_A.density(data) + 0.7 * COMP_B.density(data)
        np.testing.assert_allclose(
            np.exp(TRUE_MIX.log_density(data)), direct, rtol=1e-12
        )

    def test_density_integrates_to_one(self):
        n_c, n_l = 64, 64
        g = TWO_PI * (np.arange(n_c) + 0.5) / n_c
        hi = max(c.marginals[2].quantile(1 - 1e-12) for c in TRUE_MIX.components)
        nodes, wts = roots_legendre(n_l)
        x = 0.5 * hi * (nodes + 1.0)
        wx = 0.5 * hi * wts
        t1, t2, t3 = np.meshgrid(g, g, x, indexing="ij")
        theta = np.stack([t1.ravel(), t2.ravel(), t3.ravel()], axis=1)
        dens = np.exp(TRUE_MIX.log_density(theta)).reshape(n_c, n_c, n_l)
        mass = (dens @ wx).mean() * TWO_PI**2
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_sampling_deterministic(self):
        a = TRUE_MIX.sample(100, seed=1)
        b = TRUE_MIX.sample(100, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_sample_memory_bounded(self, monkeypatch):
        # the uniforms (3 a row), the (n, 3) result, the int64 labels and
        # each component's rows in turn as uint32, 60 bytes a row, and one
        # block's temporaries: 12 + 1.4 MB (16 MB when each component was
        # drawn apart and set by a mask)
        mix, n = buoy_mixture(), 200_000
        monkeypatch.setattr(twcm._util, "_worker_count", lambda: 1)
        mix.sample(n, seed=6)
        tracemalloc.start()
        try:
            mix.sample(n, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * n + 4 * 2**20

    def test_domains_and_parameter_count(self):
        # the CLI scores single models and mixtures through these two
        assert TRUE_MIX.domains == COMP_A.domains == ("circular", "circular", "linear")
        assert TRUE_MIX.n_free_params == mixture_parameter_count(2, FAMS)
        single = MixtureModel(weights=(1.0,), components=(COMP_B,))
        assert single.n_free_params == mixture_parameter_count(1, FAMS)
        assert single.n_free_params == COMP_B.n_free_params

    @pytest.mark.parametrize("rows", [
        [(1.0, 1.0, 1000.0), (1.0, 2.0, 1.0)],  # far below any density floor
        [(1.0, 2.0, 1e200)],                    # zero Weibull density
        [(1.0, 2.0, 1.0), (1.0, 2.0, 0.0)],     # outside the linear domain
    ], ids=["tiny", "zero", "domain"])
    def test_single_component_is_the_component(self, rows):
        comp = buoy_mixture().components[0]
        single = MixtureModel(weights=(1.0,), components=(comp,))
        rows = np.asarray(rows)
        outcomes = []
        for model in (comp, single):
            try:
                outcomes.append((model.log_density(rows), None))
            except twcm.TwcmError as exc:
                outcomes.append((None, type(exc)))
            try:
                outcomes.append((model.loglik(rows), None))
            except twcm.TwcmError as exc:
                outcomes.append((None, type(exc)))
        (comp_ld, comp_ld_err), (comp_ll, comp_ll_err), (mix_ld, mix_ld_err), \
            (mix_ll, mix_ll_err) = outcomes
        assert (mix_ld_err, mix_ll_err) == (comp_ld_err, comp_ll_err)
        if comp_ld_err is None:
            np.testing.assert_array_equal(mix_ld, comp_ld)
        if comp_ll_err is None:
            assert mix_ll == comp_ll

    def test_zero_density_row_raises(self):
        single = MixtureModel(weights=(1.0,), components=(buoy_mixture().components[0],))
        rows = np.array([(1.0, 2.0, 1.0), (1.0, 2.0, 1e200)])
        assert single.log_density(rows)[1] == -np.inf
        with pytest.raises(twcm.DegenerateDataError) as err:
            single.loglik(rows)
        assert err.value.rows == (1,)
        with pytest.raises(twcm.DegenerateDataError):
            responsibilities(single, rows)

    def test_serialization_round_trip(self, tmp_path):
        path = tmp_path / "mix.json"
        TRUE_MIX.save(path)
        again = MixtureModel.load(path)
        assert again.weights == TRUE_MIX.weights
        assert again.components == TRUE_MIX.components


class TestResponsibilities:
    def test_single_component_all_ones(self):
        mix = MixtureModel(weights=(1.0,), components=(COMP_A,))
        resp = responsibilities(mix, two_cluster_data(40)[0])
        np.testing.assert_allclose(resp, 1.0, rtol=1e-15)

    def test_duplicate_components_split_evenly(self):
        mix = MixtureModel(weights=(0.5, 0.5), components=(COMP_A, COMP_A))
        resp = responsibilities(mix, two_cluster_data(40)[0])
        np.testing.assert_allclose(resp, 0.5, rtol=1e-12)

    def test_rows_sum_to_one(self):
        resp = responsibilities(TRUE_MIX, two_cluster_data(200)[0])
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-12)

    def test_matches_bruteforce_ratios(self):
        data = two_cluster_data(20)[0]
        resp = responsibilities(TRUE_MIX, data)
        num_a = 0.3 * COMP_A.density(data)
        num_b = 0.7 * COMP_B.density(data)
        brute = np.column_stack([num_a, num_b]) / (num_a + num_b)[:, None]
        np.testing.assert_allclose(resp, brute, atol=1e-12)

    def test_label_permutation_equivariance(self):
        data = two_cluster_data(100)[0]
        swapped = MixtureModel(weights=(0.7, 0.3), components=(COMP_B, COMP_A))
        a = responsibilities(TRUE_MIX, data)
        b = responsibilities(swapped, data)
        np.testing.assert_allclose(a, b[:, ::-1], rtol=1e-12)
        assert TRUE_MIX.loglik(data) == pytest.approx(swapped.loglik(data),
                                                      rel=1e-14)


class TestLogSumExp:
    def test_matches_scipy_on_em_rows(self):
        mix = buoy_mixture()
        log_wd = mix.component_log_densities(mix.sample(20_000, seed=15))
        np.testing.assert_array_equal(log_sum_exp(log_wd), logsumexp(log_wd, axis=1))

    def test_matches_scipy_on_ties_and_infinities(self):
        a = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, -2.0], [-np.inf, 3.0, 3.0],
                      [5.0, -np.inf, 2.0], [-700.0, -1e4, -750.0],
                      [-np.inf, -np.inf, -np.inf], [np.inf, 1.0, 0.0]])
        np.testing.assert_array_equal(log_sum_exp(a), logsumexp(a, axis=1))

    # NumPy adds along axis 1 in column order on fewer than 8 columns and
    # on an F-ordered array, as log_sum_exp does
    @pytest.mark.parametrize("k, order", [(1, "C"), (1, "F"), (3, "C"), (3, "F"),
                                          (4, "C"), (4, "F"), (9, "F")])
    def test_matches_scipy_by_column_count_and_order(self, k, order):
        rows = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, -2.0, 1.0], [-np.inf, 3.0, 3.0, -1.0],
                         [5.0, -np.inf, 2.0, -np.inf], [-700.0, -1e4, -750.0, -700.0],
                         [-np.inf, -np.inf, -np.inf, -np.inf], [np.inf, 1.0, 0.0, 2.0],
                         [2.0, -np.inf, 2.0, 2.0], [-3.0, 0.5, -np.inf, 0.5]])
        rows = np.hstack([rows, rows[:, ::-1], rows[:, :1]])
        rng = np.random.default_rng(k)
        noisy = rng.standard_normal((500, 9)) * 10.0 ** rng.integers(-3, 3, (500, 9))
        noisy[rng.random((500, 9)) < 0.1] = -np.inf
        a = np.asarray(np.vstack([rows, noisy])[:, :k], order=order)
        np.testing.assert_array_equal(log_sum_exp(a), logsumexp(a, axis=1))


class TestEmFit:
    def test_k1_equals_single_fit(self):
        data = two_cluster_data(400)[0]
        cfg = FitConfig(seed=12)
        mix, report = em_fit(data, 1, FAMS, cfg)
        single = fit_ifm(data, FAMS, cfg)
        assert mix.k == 1 and mix.weights == (1.0,)
        np.testing.assert_allclose(
            mix.components[0].rho.as_array(), single.model.rho.as_array(),
            rtol=1e-12,
        )
        assert report.loglik == pytest.approx(single.loglik, rel=1e-12)

    def test_two_component_recovery(self):
        data, labels = two_cluster_data(3000, seed=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mix, report = em_fit(data, 2, FAMS, FitConfig(seed=3), restarts=3,
                                 max_iter=100)
        w = sorted(mix.weights)
        assert abs(w[0] - 0.3) < 0.05 and abs(w[1] - 0.7) < 0.05
        hard = responsibilities(mix, data).argmax(axis=1)
        accuracy = max((hard == labels).mean(), (hard != labels).mean())
        assert accuracy > 0.90

    def test_failed_restart_skipped_and_every_failure_reraised(self, monkeypatch):
        data = two_cluster_data(400)[0]
        real = twcm.mixture._em_single
        kept = []

        def first_fails(data, k, families, rng, restart_index, max_iter):
            if restart_index == 0:
                raise ComponentCollapseError("restart 0 collapsed")
            kept.append(real(data, k, families, rng, restart_index, max_iter))
            return kept[-1]

        monkeypatch.setattr(twcm.mixture, "_em_single", first_fails)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mix, report = em_fit(data, 2, FAMS, FitConfig(seed=5), restarts=2, max_iter=5)
        assert report.restart_index == 1
        assert (mix, report) == kept[0]

        def every_fails(data, k, families, rng, restart_index, max_iter):
            raise ComponentCollapseError(f"restart {restart_index} collapsed")

        monkeypatch.setattr(twcm.mixture, "_em_single", every_fails)
        with pytest.raises(ComponentCollapseError, match="^restart 2 collapsed"):
            em_fit(data, 2, FAMS, FitConfig(seed=5), restarts=3)

    @staticmethod
    def check_monotone_trace(data, seed, max_iter):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mix, report = em_fit(data, 2, FAMS, FitConfig(seed=seed), restarts=2,
                                 max_iter=max_iter)
        assert np.all(np.diff(report.trace) >= -1e-8)
        assert report.flags == ()
        # the trace ends at the log-likelihood of the model returned
        assert mix.loglik(data) == report.loglik == report.trace[-1]
        assert len(report.trace) == report.n_iter

    def test_trace_monotone_within_slack(self):
        self.check_monotone_trace(two_cluster_data(800, seed=4)[0], 5, 60)

    def test_trace_monotone_on_buoy_sample(self):
        # accepting every two-step refit loses up to 1.10 nats an iteration here
        self.check_monotone_trace(buoy_mixture().sample(1000, seed=3), 4, 500)

    @pytest.mark.xfail(strict=True, reason=(
        "EM from one uniform hard random start stops in a poor local optimum "
        "here: -4.3722 nats/row after 62 iterations, below the -4.30 floor "
        "that perfbench's buoy em_fit gate holds (restarts=2 reaches -4.0566)"
    ))
    def test_single_start_reaches_the_benchmark_floor(self):
        # the data and config of perfbench's buoy em_fit at seed 2, cycle 7
        data = buoy_mixture().sample(100000, seed=904665937)[:1000]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = em_fit(data, 2, FAMS, FitConfig(seed=2982218165), restarts=1)
        assert report.loglik / len(data) >= -4.30

    def test_extra_component_does_not_stall(self):
        # the buoy preset has four regimes, so a third component must help;
        # keeping only the refits that raise their own Q_j at every step
        # freezes components and ends this k=3 fit below the k=2 one
        data = buoy_mixture().sample(1000, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lls = [em_fit(data, k, FAMS, FitConfig(seed=4), restarts=2)[1].loglik
                   for k in (2, 3)]
        assert lls[1] > lls[0]

    def test_one_density_pass_per_iteration(self, monkeypatch):
        data = two_cluster_data(400, seed=6)[0]
        calls = []
        log_density = TwcmModel.log_density

        def counted(self, theta):
            calls.append(1)
            return log_density(self, theta)

        monkeypatch.setattr(TwcmModel, "log_density", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = twcm.mixture._em_single(
                data, 2, FAMS, np.random.default_rng(1), 0, 30)
        # one pass over the k = 2 components per E-step, and the E-step
        # scores the previous M-step: k (n_iter + 1) calls, not 2 k n_iter
        assert report.n_iter >= 2
        assert len(calls) <= 2 * (report.n_iter + 1)

    @pytest.mark.parametrize("kw", [dict(restarts=0), dict(restarts=-1), dict(max_iter=0)],
                             ids=["restarts=0", "restarts=-1", "max_iter=0"])
    @pytest.mark.parametrize("fit", [
        lambda data, **kw: em_fit(data, 2, FAMS, FitConfig(seed=1), **kw),
        lambda data, **kw: select_k(data, [1, 2], FAMS, FitConfig(seed=1), **kw),
    ], ids=["em_fit", "select_k"])
    def test_restarts_and_iterations_must_be_positive(self, fit, kw):
        with pytest.raises(InvalidParameterError):
            fit(two_cluster_data(100)[0], **kw)

    def test_restart_determinism(self):
        data = two_cluster_data(500, seed=6)[0]
        kw = dict(restarts=2, max_iter=30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m1, r1 = em_fit(data, 2, FAMS, FitConfig(seed=7), **kw)
            m2, r2 = em_fit(data, 2, FAMS, FitConfig(seed=7), **kw)
        assert r1.restart_index == r2.restart_index
        assert r1.trace == r2.trace
        assert m1.weights == m2.weights

    def test_sample_size_guard(self):
        with pytest.raises(InvalidParameterError):
            em_fit(two_cluster_data(25)[0], 3, FAMS, FitConfig(seed=1))

    def test_double_collapse_raises(self, monkeypatch):
        # force one component to keep losing its responsibility mass
        data = two_cluster_data(300, seed=8)[0]

        e_step = twcm.mixture._e_step

        def starved(log_wd):
            total, _ = e_step(log_wd)
            out = np.full((len(log_wd), 2), 1e-9)
            out[:, 0] = 1.0 - 1e-9
            return total, out

        monkeypatch.setattr(twcm.mixture, "_e_step", starved)
        with pytest.raises(ComponentCollapseError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                twcm.mixture._em_single(
                    data, 2, FAMS, np.random.default_rng(0), 0, 20,
                )


class TestSelectK:
    def test_parameter_count_formula(self):
        assert mixture_parameter_count(4, FAMS) == 35
        assert mixture_parameter_count(1, ("uniform",) * 3) == 2
        assert mixture_parameter_count(3, ("von_mises",) * 3) == 26
        with pytest.raises(InvalidParameterError):
            mixture_parameter_count(2, ("kato_jones", "von_mises", "von_mises"))

    def test_singleton_range(self):
        data = two_cluster_data(300, seed=11)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = select_k(data, [1], FAMS, FitConfig(seed=13))
        assert res.best_k == 1
        assert len(res.table) == 1

    def test_bic_prefers_two_components(self):
        data = two_cluster_data(3000, seed=10)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = select_k(data, [1, 2, 3], FAMS, FitConfig(seed=14),
                           restarts=2, max_iter=60)
        assert res.best_k == 2
        table = {row["k"]: row for row in res.table}
        assert table[2]["bic"] < table[1]["bic"]
        assert table[2]["bic"] < table[3]["bic"]
        for row in res.table:
            assert row["p"] == mixture_parameter_count(row["k"], FAMS)
