"""Full-model checks: composed density, closed forms, marginal and
conditional laws, sampling, likelihood, and serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre
from scipy.stats import kstest

from twcm import (
    Cardioid,
    DegenerateDataError,
    DomainError,
    InvalidParameterError,
    RhoVector,
    TwcmModel,
    VonMises,
    Weibull,
    WrappedCauchy,
    CircularUniform,
    copula_log_density,
    kato_pewsey_bivariate_density,
    pairwise_phi,
    wc_closed_form_log_density,
)
import twcm._util
import twcm.model
from twcm._util import _ROW_BLOCK
from twcm.presets import independence_like_model, protein_model

TWO_PI = 2.0 * np.pi

RHO = RhoVector(9.18, -1.17, -0.09)
WC_MARGS = (
    WrappedCauchy(mu=1.0, xi=0.5),
    WrappedCauchy(mu=2.5, xi=-0.3),
    WrappedCauchy(mu=4.0, xi=0.8),
)
M_UNIF = TwcmModel(rho=RHO, marginals=(CircularUniform(),) * 3)
M_WC = TwcmModel(rho=RHO, marginals=WC_MARGS)
M_VM = protein_model()
M_CYL = TwcmModel(
    rho=RhoVector(3.0, 3.0, 1.0 / 9.0),
    marginals=(
        WrappedCauchy(mu=2.0, xi=0.6),
        VonMises(mu=4.0, kappa=3.0),
        Weibull(shape=2.0, scale=1.5),
    ),
)


# one model per marginal family, each family in all three coordinates
FAMILY_MODELS = {
    "uniform": M_UNIF,
    "wc+": M_WC,
    "wc-": TwcmModel(rho=RHO, marginals=(
        WrappedCauchy(mu=0.2, xi=-0.5), WrappedCauchy(mu=3.0, xi=-0.9),
        WrappedCauchy(mu=5.9, xi=-0.1))),
    "von_mises": M_VM,
    "cardioid": TwcmModel(rho=RHO, marginals=(
        Cardioid(mu=1.0, rho_c=0.3), Cardioid(mu=4.0, rho_c=-0.2),
        Cardioid(mu=6.0, rho_c=0.45))),
    "weibull": TwcmModel(rho=RHO, marginals=(
        Weibull(shape=2.0, scale=1.5), Weibull(shape=0.8, scale=3.0),
        Weibull(shape=1.3, scale=0.7))),
}


def random_angles(n, seed=0):
    return TWO_PI * np.random.default_rng(seed).random((n, 3))


class TestJointDensity:
    def test_uniform_marginals_reduce_to_copula(self):
        theta = random_angles(200)
        np.testing.assert_allclose(
            M_UNIF.log_density(theta),
            copula_log_density(theta, M_UNIF.rho),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("family", FAMILY_MODELS)
    def test_log_density_is_the_composed_sum(self, family):
        # 3 log 2pi + copula log density of the pseudo-observations + the
        # marginal log densities, added in this order, on more rows than one
        # block and on angles outside [0, 2 pi); bit for bit where no
        # marginal is wrapped Cauchy, whose CDF and log density share one
        # pair of half-angle sin and cos
        model = FAMILY_MODELS[family]
        data = model.sample(_ROW_BLOCK + 1000, seed=4)
        if model.domains[0] == "circular":
            data = data + TWO_PI * np.random.default_rng(5).integers(-3, 4, data.shape)
        composed = 3.0 * np.log(TWO_PI) + copula_log_density(
            model.pseudo_observations(data), model.rho)
        for i, m in enumerate(model.marginals):
            composed = composed + m.logpdf(data[:, i])
        got = model.log_density(data)
        if family.startswith("wc"):
            np.testing.assert_allclose(got, composed, rtol=1e-13, atol=0.0)
        else:
            np.testing.assert_array_equal(got, composed)

    @staticmethod
    def _peak(monkeypatch, workers, fn):
        """Peak traced memory of ``fn()`` on ``workers`` threads, after a
        first call has built the tables and the pool."""
        monkeypatch.setattr(twcm._util, "_worker_count", lambda: workers)
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_log_density_memory_bounded(self, monkeypatch):
        # the rows are taken a block at a time, so the temporaries do not
        # grow with n: 2e5 rows need their 1.6 MB result plus about 1.9 MiB
        data = M_CYL.sample(200_000, seed=6)
        peak = self._peak(monkeypatch, 1, lambda: M_CYL.log_density(data))
        assert peak <= data.shape[0] * 8 + 4 * 2**20

    def test_log_density_memory_bounded_per_thread(self, monkeypatch):
        # each thread scores one block at a time: at most about 1.9 MiB
        # more a thread, so four threads at their peak at once fit the bound
        data = M_CYL.sample(200_000, seed=6)
        peak = self._peak(monkeypatch, 4, lambda: M_CYL.log_density(data))
        assert peak <= data.shape[0] * 8 + (4 + 3 * 2) * 2**20

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sample_memory_bounded(self, monkeypatch, workers):
        # the uniforms (3 a row) and the (n, 3) result, 48 bytes a row, and
        # a block's temporaries a thread, about 2 MiB; 9.6 + 2.1 MB drawn on
        # one thread (27 MB when the draw built full-length temporaries)
        n = 200_000
        peak = self._peak(monkeypatch, workers, lambda: M_CYL.sample(n, seed=6))
        assert peak <= 48 * n + (4 + 3 * (workers - 1)) * 2**20

    def test_closed_form_equals_composed_path(self):
        theta = random_angles(1000, seed=3)
        composed = M_WC.log_density(theta)
        closed = wc_closed_form_log_density(M_WC.rho, WC_MARGS, theta)
        np.testing.assert_allclose(closed, composed, rtol=1e-10)

    def test_closed_form_xi_zero_reduces_to_copula(self):
        # with xi = 0 the transform leaves u_i = theta_i - mu_i, so the
        # joint is the copula density at the origin-shifted angles
        margs = tuple(WrappedCauchy(mu=m.mu, xi=0.0) for m in WC_MARGS)
        mus = np.array([m.mu for m in margs])
        theta = random_angles(100, seed=4)
        closed = wc_closed_form_log_density(M_WC.rho, margs, theta)
        np.testing.assert_allclose(
            closed, copula_log_density(theta - mus, M_WC.rho), rtol=1e-12
        )

    def test_closed_form_label_swap_symmetry(self):
        # relabeling coordinates 1 <-> 2 with accordingly permuted
        # parameters leaves the density unchanged (h symmetry)
        theta = random_angles(50, seed=5)
        swapped_rho = RhoVector(RHO.rho12, RHO.rho23, RHO.rho13)
        swapped_margs = (WC_MARGS[1], WC_MARGS[0], WC_MARGS[2])
        swapped_theta = theta[:, [1, 0, 2]]
        a = wc_closed_form_log_density(RHO, WC_MARGS, theta)
        b = wc_closed_form_log_density(swapped_rho, swapped_margs, swapped_theta)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_all_circular_normalization(self):
        n = 64
        g = TWO_PI * (np.arange(n) + 0.5) / n
        t1, t2, t3 = np.meshgrid(g, g, g, indexing="ij")
        theta = np.stack([t1.ravel(), t2.ravel(), t3.ravel()], axis=1)
        mass = M_WC.density(theta).mean() * TWO_PI**3
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_cylindrical_normalization(self):
        # periodic rule on the two angles, Gauss-Legendre on the length
        n_c, n_l = 48, 96
        g = TWO_PI * (np.arange(n_c) + 0.5) / n_c
        wb = M_CYL.marginals[2]
        hi = wb.quantile(1.0 - 1e-10)
        nodes, wts = roots_legendre(n_l)
        x = 0.5 * hi * (nodes + 1.0)
        wx = 0.5 * hi * wts
        t1, t2, t3 = np.meshgrid(g, g, x, indexing="ij")
        theta = np.stack([t1.ravel(), t2.ravel(), t3.ravel()], axis=1)
        dens = M_CYL.density(theta).reshape(n_c, n_c, n_l)
        mass = (dens @ wx).mean() * TWO_PI**2
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_marginal_recovered_by_integration(self):
        # integrating the joint over coordinates 2 and 3 returns f_1
        n = 64
        g = TWO_PI * (np.arange(n) + 0.5) / n
        t1, t2, t3 = np.meshgrid(g, g, g, indexing="ij")
        theta = np.stack([t1.ravel(), t2.ravel(), t3.ravel()], axis=1)
        dens = M_WC.density(theta).reshape(n, n, n)
        marg = dens.mean(axis=(1, 2)) * TWO_PI**2
        sel = np.linspace(0, n - 1, 16, dtype=int)
        np.testing.assert_allclose(
            marg[sel], M_WC.marginals[0].pdf(g[sel]), atol=1e-5
        )

    def test_domain_error_reports_rows(self):
        with pytest.raises(DomainError, match="2"):
            M_CYL.log_density(np.array([[1.0, 1.0, 1.0],
                                        [1.0, 1.0, 2.0],
                                        [1.0, 1.0, -5.0]]))


# (law on M_CYL, coordinate it reads the bad value from); M_CYL's third
# coordinate is linear
DOMAIN_LAWS = {
    "bivariate": (lambda m, x: m.bivariate_density((1, 3), 0.3, x), 3),
    "bivariate_first": (lambda m, x: m.bivariate_density((1, 2), x, 0.3), 1),
    "1given1": (lambda m, x: m.cond_density_1given1(1, 0.3, 2, x), 2),
    "1given1_first": (lambda m, x: m.cond_density_1given1(3, x, 1, 0.3), 3),
    "spec": (lambda m, x: m.conditional_spec(1, 0.3, x), 3),
    "spec_first": (lambda m, x: m.conditional_spec(3, x, 0.3), 1),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("law", sorted(DOMAIN_LAWS))
def test_laws_raise_on_values_outside_the_domain(law, bad):
    # as log_density and the conditionals of full triples do: a non-finite
    # value is a DomainError, not a NaN with a RuntimeWarning
    call, coord = DOMAIN_LAWS[law]
    domain = M_CYL.marginals[coord - 1].domain
    with pytest.raises(DomainError, match=f"^coordinate {coord} outside the {domain} domain$"):
        call(M_CYL, np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [0.0, -1.0])
@pytest.mark.parametrize("law", ["bivariate", "1given1_first", "spec"])
def test_laws_raise_on_nonpositive_linear_values(law, bad):
    call, coord = DOMAIN_LAWS[law]
    with pytest.raises(DomainError, match=f"^coordinate {coord} outside the linear domain$"):
        call(M_CYL, bad)


@pytest.mark.parametrize("call, message", [
    (lambda: TwcmModel(rho=RHO, marginals=WC_MARGS[:2]), "a model needs exactly 3 marginals"),
    (lambda: wc_closed_form_log_density(RHO, WC_MARGS[:2], [1.0, 2.0, 3.0]),
     "closed form needs three wrapped Cauchy marginals"),
    (lambda: wc_closed_form_log_density(RHO, M_CYL.marginals, [1.0, 2.0, 3.0]),
     "closed form needs three wrapped Cauchy marginals"),
    (lambda: kato_pewsey_bivariate_density(1.0, *WC_MARGS[:2], 1.0, 2.0),
     r"Kato-Pewsey form requires \|phi\| < 1"),
    (lambda: kato_pewsey_bivariate_density(-1.5, *WC_MARGS[:2], 1.0, 2.0),
     r"Kato-Pewsey form requires \|phi\| < 1"),
], ids=["two_marginals", "closed_form_two", "closed_form_not_wc", "kp_phi_1", "kp_phi_-1.5"])
def test_argument_checks(call, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("i", [0, 4, -1])
@pytest.mark.parametrize("law", ["spec", "1given2", "2given1"])
def test_conditionals_reject_a_bad_coordinate_index(law, i):
    triple = np.array([1.0, 2.0, 3.0])
    call = {
        "spec": lambda: M_WC.conditional_spec(i, 1.0, 2.0),
        "1given2": lambda: M_WC.cond_density_1given2(triple, i),
        "2given1": lambda: M_WC.cond_density_2given1(triple, i),
    }[law]
    with pytest.raises(InvalidParameterError, match=f"^invalid coordinate index {i}$"):
        call()


def test_cond_density_2given1_checks_the_rows_once(monkeypatch):
    calls = []
    orig = twcm.model.check_rows

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(twcm.model, "check_rows", counted)
    theta = random_angles(100, seed=4)
    expected = np.exp(M_WC.log_density(theta)) / M_WC.marginals[1].pdf(theta[:, 1])
    calls.clear()
    np.testing.assert_array_equal(M_WC.cond_density_2given1(theta, 2), expected)
    assert len(calls) == 1


class TestBivariateMarginal:
    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
    def test_matches_numerical_marginalization(self, pair):
        i, j = pair
        (k,) = {1, 2, 3} - {i, j}
        m = 512
        g3 = TWO_PI * np.arange(m) / m
        grid = TWO_PI * (np.arange(32) + 0.5) / 32
        rng = np.random.default_rng(8)
        pts = rng.choice(grid, size=(40, 2))
        for a, b in pts:
            theta = np.empty((m, 3))
            theta[:, i - 1] = a
            theta[:, j - 1] = b
            theta[:, k - 1] = g3
            integral = M_WC.density(theta).mean() * TWO_PI
            assert integral == pytest.approx(
                M_WC.bivariate_density(pair, a, b), abs=1e-6
            )

    def test_kato_pewsey_equals_composition(self):
        rng = np.random.default_rng(9)
        x = TWO_PI * rng.random(1000)
        y = TWO_PI * rng.random(1000)
        phi = pairwise_phi(RHO, (1, 2))
        kp = kato_pewsey_bivariate_density(phi, WC_MARGS[0], WC_MARGS[1], x, y)
        comp = M_WC.bivariate_density((1, 2), x, y)
        np.testing.assert_allclose(kp, comp, rtol=1e-10)

    def test_zero_phi_gives_independence(self):
        x = np.linspace(0.0, TWO_PI, 11)[:-1]
        y = np.full_like(x, 2.0)
        out = kato_pewsey_bivariate_density(0.0, WC_MARGS[0], WC_MARGS[1], x, y)
        np.testing.assert_allclose(
            out, WC_MARGS[0].pdf(x) * WC_MARGS[1].pdf(y), rtol=1e-12
        )

    def test_bivariate_with_weibull_integrates_joint(self):
        m = 512
        g3 = TWO_PI * np.arange(m) / m
        for a, x in ((1.9, 1.2), (4.0, 0.7), (0.5, 2.5)):
            theta = np.empty((m, 3))
            theta[:, 0] = a
            theta[:, 2] = x
            theta[:, 1] = g3
            integral = M_CYL.density(theta).mean() * TWO_PI
            assert integral == pytest.approx(
                M_CYL.bivariate_density((1, 3), a, x), abs=1e-6
            )


class TestConditionals:
    @pytest.mark.parametrize("model", [M_WC, M_VM], ids=["wc", "vm"])
    def test_chain_rule_1given2(self, model):
        theta = random_angles(1000, seed=10)
        joint = model.density(theta)
        biv = model.bivariate_density((2, 3), theta[:, 1], theta[:, 2])
        cond = model.cond_density_1given2(theta, 1)
        np.testing.assert_allclose(joint, biv * cond, rtol=1e-10)

    def test_chain_rule_2given1(self):
        theta = random_angles(500, seed=11)
        joint = M_WC.density(theta)
        f2 = M_WC.marginals[1].pdf(theta[:, 1])
        cond = M_WC.cond_density_2given1(theta, given=2)
        np.testing.assert_allclose(joint, cond * f2, rtol=1e-12)

    def test_chain_rule_1given1(self):
        theta = random_angles(500, seed=12)
        biv = M_WC.bivariate_density((1, 2), theta[:, 0], theta[:, 1])
        f2 = M_WC.marginals[1].pdf(theta[:, 1])
        cond = M_WC.cond_density_1given1(1, theta[:, 0], 2, theta[:, 1])
        np.testing.assert_allclose(biv, cond * f2, rtol=1e-12)

    @pytest.mark.parametrize("i", [1, 2])
    def test_conditional_normalizes_circular(self, i):
        m = 512
        g = TWO_PI * np.arange(m) / m
        for cond_vals in ((2.2, 0.9), (5.0, 2.0)):
            theta = np.empty((m, 3))
            j, k = sorted({1, 2, 3} - {i})
            theta[:, i - 1] = g
            theta[:, j - 1] = cond_vals[0]
            theta[:, k - 1] = cond_vals[1]
            mass = M_WC.cond_density_1given2(theta, i).mean() * TWO_PI
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_conditional_normalizes_linear(self):
        # third coordinate of the cylinder model is Weibull

        def integrand(x):
            return M_CYL.cond_density_1given2(np.array([2.0, 4.5, x]), 3)

        mass = quad(integrand, 1e-12, M_CYL.marginals[2].quantile(1 - 1e-12),
                    limit=300)[0]
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_uniform_marginals_reduce_to_copula_kernels(self):
        from twcm import copula_cond_1given2

        theta = random_angles(300, seed=13)
        a = M_UNIF.cond_density_1given2(theta, 1)
        b = copula_cond_1given2(theta, M_UNIF.rho, 1)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_conditional_spec_matches_kernel_center(self):
        spec = M_WC.conditional_spec(1, 2.0, 3.0)
        assert 0.0 <= spec.eta < TWO_PI
        assert spec.delta >= 0.0
        assert abs(spec.concentration) <= 1.0


class TestSamplingAndLoglik:
    @pytest.mark.parametrize("model", [M_WC, M_VM, M_CYL], ids=["wc", "vm", "cyl"])
    def test_per_coordinate_ks(self, model):
        draws = model.sample(10_000, seed=22)
        for i, m in enumerate(model.marginals):
            assert kstest(m.cdf(draws[:, i]), "uniform").pvalue > 0.01

    def test_seed_determinism(self):
        np.testing.assert_array_equal(
            M_CYL.sample(128, seed=15), M_CYL.sample(128, seed=15)
        )

    def test_histogram_fidelity_all_circular(self):
        n = 100_000
        draws = M_WC.sample(n, seed=16)
        m = 64
        g = TWO_PI * (np.arange(m) + 0.5) / m
        t1, t2, t3 = np.meshgrid(g, g, g, indexing="ij")
        theta = np.stack([t1.ravel(), t2.ravel(), t3.ravel()], axis=1)
        dens = M_WC.density(theta).reshape(m, m, m)
        cell = dens.reshape(8, 8, 8, 8, 8, 8).mean(axis=(1, 3, 5)) * (TWO_PI / 8) ** 3
        idx = np.floor(draws / (TWO_PI / 8)).astype(int).clip(0, 7)
        counts = np.zeros((8, 8, 8))
        np.add.at(counts, (idx[:, 0], idx[:, 1], idx[:, 2]), 1.0)
        se = np.sqrt(n * cell * (1.0 - cell))
        z = (counts - n * cell) / se
        assert np.max(np.abs(z)) < 4.0

    def test_independence_baseline_loglik(self):
        model = independence_like_model()
        data = random_angles(2000, seed=17)
        expected = -2000 * 3 * np.log(TWO_PI)
        assert model.loglik(data) == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(-11027.26, abs=0.01)

    def test_loglik_additive_over_concatenation(self):
        a = M_CYL.sample(200, seed=18)
        b = M_CYL.sample(300, seed=19)
        total = M_CYL.loglik(np.vstack([a, b]))
        assert total == pytest.approx(
            M_CYL.loglik(a) + M_CYL.loglik(b), rel=1e-12
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            M_WC.loglik(np.empty((0, 3)))

    def test_degenerate_rows_reported(self):
        # Weibull density underflows to exactly zero at huge arguments
        data = np.array([[2.0, 4.0, 1.0], [2.0, 4.0, 1e200]])
        with pytest.raises(DegenerateDataError) as err:
            M_CYL.loglik(data)
        assert 1 in err.value.rows


class TestSerialization:
    @pytest.mark.parametrize("model", [M_WC, M_VM, M_CYL], ids=["wc", "vm", "cyl"])
    def test_round_trip_exact(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        again = TwcmModel.load(path)
        np.testing.assert_array_equal(again.rho.as_array(), model.rho.as_array())
        assert again.marginals == model.marginals

    def test_schema_shape(self):
        d = M_CYL.to_dict()
        assert set(d) == {"rho", "marginals"}
        assert len(d["rho"]) == 3
        assert [m["family"] for m in d["marginals"]] == [
            "wrapped_cauchy", "von_mises", "weibull",
        ]
        for m in d["marginals"]:
            assert set(m) == {"family", "params", "origin", "domain"}

    @pytest.mark.parametrize("rho", [RhoVector(1e150, 1e150, 1e10),
                                     RhoVector(1e-100, 1e-100, 1e-200)],
                             ids=["product-overflows", "product-underflows"])
    def test_valid_rho_with_product_beyond_the_float_range_builds(self, rho):
        m = TwcmModel(rho=rho, marginals=(CircularUniform(),) * 3)
        assert m.rho.identifiable
        theta = random_angles(50, seed=21)
        np.testing.assert_allclose(m.log_density(theta), copula_log_density(theta, rho),
                                   rtol=1e-12)

    def test_rho_normalized_on_construction(self):
        m = TwcmModel(rho=RhoVector(18.36, -2.34, -0.18),
                      marginals=(CircularUniform(),) * 3)
        assert abs(m.rho.product - 1.0) <= 1e-9
        # density unchanged by the normalization
        theta = random_angles(50, seed=20)
        np.testing.assert_allclose(
            m.log_density(theta),
            copula_log_density(theta, RhoVector(18.36, -2.34, -0.18)),
            rtol=1e-10,
        )
