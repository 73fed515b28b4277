"""Copula-level checks: constants, validity, density identities,
conditionals, and exact sampling.

Expected constants were computed independently with 40-digit arithmetic
from the defining formulas before the implementation existed; quadrature
oracles use the midpoint rule, which is spectrally accurate for smooth
periodic integrands.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twcm
from twcm import (
    InvalidParameterError,
    RhoVector,
    SingularKernelError,
    WrappedCauchy,
    constants,
    copula_bivariate_density,
    copula_cond_1given1,
    copula_cond_1given2,
    copula_cond_2given1,
    copula_density,
    copula_log_density,
    copula_sample,
    normalize_rho,
    pairwise_phi,
    validate_rho,
)
from twcm._util import (
    HalfOffset,
    effective_concentration,
    periodic_grid,
    wc_half_cdf,
    wc_kernel_log_density,
    wc_kernel_sample,
)
from twcm.copula import _bracket, amplitudes, conditional_phi
from twcm.presets import buoy_mixture, protein_model

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps

RHO_333 = RhoVector(3.0, 3.0, 1.0 / 9.0)
RHO_PROTEIN = RhoVector(9.18, -1.17, -0.09)
RHO_NEG = RhoVector(-2.0, -2.0, 0.25)
VALID_RHOS = (RHO_333, RHO_PROTEIN, RHO_NEG)


def edge_sweep(n=2000, seed=19):
    """Valid rhos near the region's edge: amplitudes of random signs and
    moduli 1e-6 .. 1e6 whose dominant |a_i| exceeds |a_j| + |a_k| by a
    relative 1e-12 .. 1."""
    rng = np.random.default_rng(seed)
    rhos = []
    for _ in range(n):
        mod = 10.0 ** rng.uniform(-6.0, 6.0, 2)
        i = rng.integers(3)
        a = np.empty(3)
        a[np.arange(3) != i] = mod
        a[i] = mod.sum() * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0))
        a *= rng.choice([-1.0, 1.0], 3)
        rhos.append(RhoVector(a[0] * a[1], a[0] * a[2], a[1] * a[2]))
    return rhos


def exact_copula(rho, pair=(1, 2)):
    """c2, phi of ``pair`` and the edge distance (hi - mid - lo) / hi of the
    moduli of a_i = sqrt(rho_ij rho_ik / rho_jk), from the paper's formulas
    in rho at 60 digits."""
    with mpmath.workdps(60):
        r = dict(zip([(1, 2), (1, 3), (2, 3)], map(mpmath.mpf, rho.as_array())))
        r12, r13, r23 = r.values()
        sq = (r12 * r13 / r23, r12 * r23 / r13, r13 * r23 / r12)
        root = mpmath.sqrt(sum(x * x for x in sq) - 2 * (r12**2 + r13**2 + r23**2))
        i, j = pair
        k = 6 - i - j
        rij, rik, rjk = r[pair], r[tuple(sorted((i, k)))], r[tuple(sorted((j, k)))]
        phi = (rik * rjk / rij - rij * rik / rjk - rij * rjk / rik - root) / (2 * rij)
        lo, mid, hi = sorted(mpmath.sqrt(abs(x)) for x in sq)
        return (float(root / (2 * mpmath.pi) ** 3), float(phi if abs(phi) <= 1 else 1 / phi),
                float((hi - mid - lo) / hi))


def grid_mean_density(rho, n=64):
    g = TWO_PI * (np.arange(n) + 0.5) / n
    u1, u2, u3 = np.meshgrid(g, g, g, indexing="ij")
    u = np.stack([u1.ravel(), u2.ravel(), u3.ravel()], axis=1)
    return copula_density(u, rho).reshape(n, n, n)


def denominator_min(rho, grid=64):
    """Minimum of the density denominator over a full-period grid.

    The bracket depends only on the differences (u1-u2, u1-u3), so a 2-D
    grid covers every value attained on the 3-D torus.
    """
    g = periodic_grid(grid)
    d12, d13 = np.meshgrid(g, g, indexing="ij")
    bracket = _bracket(constants(rho), rho, np.cos(d12), np.cos(d13), np.cos(d13 - d12))
    return float(bracket.min())


class TestValidity:
    def test_symmetric_failure(self):
        report = validate_rho(RhoVector(1.0, 1.0, 1.0))
        assert not report.valid
        assert report.permutation_checks == (False, False, False)
        assert report.positive_product  # structure fine, permutation fails

    def test_333_valid_via_first_permutation(self):
        # 1/9 < 9/6 for the permutation singling out coordinate 1
        report = validate_rho(RHO_333)
        assert report.valid
        assert 1 in report.passing_permutations

    def test_protein_fit_valid(self):
        # 0.09 < 10.74/10.35
        report = validate_rho(RHO_PROTEIN)
        assert report.valid
        assert 1 in report.passing_permutations

    def test_negative_product_invalid(self):
        assert not validate_rho(RhoVector(1.0, 1.0, -1.0)).valid

    def test_zero_component_invalid(self):
        report = validate_rho(RhoVector(0.0, 2.0, 2.0))
        assert not report.nonzero and not report.valid

    def test_nonfinite_invalid(self):
        assert not validate_rho(RhoVector(np.nan, 1.0, 1.0)).valid
        assert not validate_rho(RhoVector(np.inf, 1.0, 1.0)).valid

    @pytest.mark.parametrize("rho", VALID_RHOS, ids=["333", "protein", "neg"])
    def test_amplitudes_give_rho(self, rho):
        a1, a2, a3 = amplitudes(rho)
        assert a1 > 0.0
        np.testing.assert_allclose([a1 * a2, a1 * a3, a2 * a3], rho.as_array(), rtol=4 * EPS)

    def test_amplitudes_beyond_the_float_range_are_reported(self):
        # a1^2 = 1e-510 underflows and a1^2 = 1e650 overflows
        for rho in (RhoVector(1e-100, 1e-110, 1e300), RhoVector(1e300, 1e300, 1e-50)):
            report = validate_rho(rho)
            assert report.positive_product and not report.valid


class TestNormalize:
    def test_fixed_point(self):
        out = normalize_rho(RhoVector(2.0, 2.0, 0.25))
        np.testing.assert_allclose(out.as_array(), [2.0, 2.0, 0.25], rtol=1e-15)

    def test_cube_root_scaling(self):
        # product 8 -> scale factor 1/2
        out = normalize_rho(RhoVector(6.0, 6.0, 2.0 / 9.0))
        np.testing.assert_allclose(out.as_array(), [3.0, 3.0, 1.0 / 9.0], rtol=1e-14)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_identity(self, s):
        out = normalize_rho(RhoVector(-s, -s, s))
        assert abs(out.product - 1.0) <= 1e-12

    def test_nonpositive_product_rejected(self):
        with pytest.raises(InvalidParameterError):
            normalize_rho(RhoVector(1.0, 1.0, -1.0))
        for rho in (RhoVector(0.0, 1.0, 1.0), RhoVector(np.nan, 1.0, 1.0),
                    RhoVector(np.inf, 1.0, 1.0)):
            with pytest.raises(InvalidParameterError):
                normalize_rho(rho)

    def test_close_to_the_exact_scaling(self):
        # against 50-digit arithmetic: rho_ij / cbrt|rho12 rho13 rho23| is
        # formed from the three cube roots, each rounded once
        mpmath.mp.dps = 50
        rhos = edge_sweep() + list(VALID_RHOS) + [RhoVector(1e6, 1e6, 1e-12)]
        worst = 0.0
        for rho in rhos:
            r = [mpmath.mpf(x) for x in rho.as_array()]
            scale = mpmath.cbrt(abs(r[0] * r[1] * r[2]))
            for got, x in zip(normalize_rho(rho).as_array(), r):
                worst = max(worst, float(abs(mpmath.mpf(got) * scale / x - 1)))
        assert worst <= 2.5 * EPS

    @pytest.mark.parametrize("rho", [RhoVector(1e150, 1e150, 1e10),
                                     RhoVector(1e-100, 1e-100, 1e-200)],
                             ids=["product-overflows", "product-underflows"])
    def test_product_beyond_the_float_range(self, rho):
        # both are valid, with amplitudes (1e70, 1e80, 1e80) and
        # (1, 1e-100, 1e-100); the product rho12 rho13 rho23 is never formed
        assert validate_rho(rho).valid
        out = normalize_rho(rho)
        assert out.identifiable
        np.testing.assert_allclose(out.as_array() / rho.as_array(),
                                   out.rho12 / rho.rho12, rtol=4 * EPS)

    def test_identifiable_flag(self):
        assert RhoVector(2.0, 2.0, 0.25).identifiable
        assert not RhoVector(2.0, 2.0, 0.3).identifiable


class TestConstants:
    def test_frozen_333(self):
        cc = constants(RHO_333)
        assert cc.c1 == pytest.approx(81.22222222222222, abs=1e-12)
        assert cc.c2 == pytest.approx(0.32564967788578602, rel=1e-13)

    def test_frozen_protein(self):
        cc = constants(RHO_PROTEIN)
        assert cc.c1 == pytest.approx(120.05762443438914, rel=1e-13)
        assert cc.c2 == pytest.approx(0.47821865319721594, rel=1e-13)

    def test_frozen_negative_pair(self):
        cc = constants(RHO_NEG)
        assert cc.c1 == pytest.approx(16.5, abs=1e-12)
        assert cc.c2 == pytest.approx(0.062454827874708342, rel=1e-13)

    @pytest.mark.parametrize("rho", VALID_RHOS, ids=["333", "protein", "neg"])
    def test_degree_one_homogeneity(self, rho):
        base = constants(rho)
        doubled = constants(rho.scaled(2.0))
        assert doubled.c1 == pytest.approx(2.0 * base.c1, rel=1e-12)
        assert doubled.c2 == pytest.approx(2.0 * base.c2, rel=1e-12)

    def test_invalid_rho_rejected(self):
        with pytest.raises(InvalidParameterError):
            constants(RhoVector(1.0, 1.0, 1.0))

    def test_no_valid_rho_rejected_near_the_edge(self):
        # the radicand is Heron's product of the amplitude moduli, whose one
        # cancelling factor is validate_rho's own check, so every accepted
        # rho has c2 > 0, within a few eps / delta of its exact value
        for rho in edge_sweep():
            assert validate_rho(rho).valid
            c2, _, delta = exact_copula(rho)
            assert constants(rho).c2 == pytest.approx(c2, rel=8.0 * EPS / delta)

    def test_edge_rho_with_a_small_amplitude(self):
        # the squares of the paper's radicand cancelled to 0.0 here
        rho = RhoVector(147744.5017389779, -0.7777162428667117, -0.7777121490434653)
        assert validate_rho(rho).passing_permutations == (1,)
        c2, _, delta = exact_copula(rho)
        assert constants(rho).c2 == pytest.approx(c2, rel=8.0 * EPS / delta)


class TestLogDensity:
    def test_frozen_origin_value(self):
        assert copula_density([0.0, 0.0, 0.0], RHO_333) == pytest.approx(
            0.0034849549357575198, rel=1e-13
        )

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, delta):
        u = np.array([0.3, 2.2, 5.1])
        a = copula_log_density(u, RHO_333)
        b = copula_log_density(u + delta, RHO_333)
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_positive_scale_invariance(self, t):
        rng = np.random.default_rng(11)
        u = TWO_PI * rng.random((100, 3))
        a = copula_log_density(u, RHO_PROTEIN)
        b = copula_log_density(u, RHO_PROTEIN.scaled(t))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_invalid_rho_rejected(self):
        with pytest.raises(InvalidParameterError):
            copula_log_density([0.0, 0.0, 0.0], RhoVector(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("rho", VALID_RHOS, ids=["333", "protein", "neg"])
    def test_normalization(self, rho):
        mass = grid_mean_density(rho).mean() * TWO_PI**3
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_uniform_univariate_marginal(self):
        # integrating over (u2, u3) leaves the constant 1/(2*pi)
        dens = grid_mean_density(RHO_PROTEIN)
        marg = dens.mean(axis=(1, 2)) * TWO_PI**2
        sel = np.linspace(0, 63, 16, dtype=int)
        np.testing.assert_allclose(marg[sel], 1.0 / TWO_PI, atol=1e-6)

    @pytest.mark.parametrize("rho", VALID_RHOS, ids=["333", "protein", "neg"])
    def test_denominator_positive(self, rho):
        assert denominator_min(rho, grid=64) > 0.0


class TestPairwisePhi:
    def test_frozen_333(self):
        assert pairwise_phi(RHO_333, (1, 2)) == pytest.approx(
            -0.0370879821637399, rel=1e-14
        )
        assert pairwise_phi(RHO_333, (1, 3)) == pytest.approx(
            -0.0370879821637399, rel=1e-14
        )
        assert pairwise_phi(RHO_333, (2, 3)) == pytest.approx(
            0.00137551842097789, rel=1e-14
        )

    def test_protein_all_pairs_inside_unit_interval(self):
        for pair in ((1, 2), (1, 3), (2, 3)):
            phi = pairwise_phi(RHO_PROTEIN, pair)
            assert type(phi) is float and abs(phi) < 1.0

    def test_frozen_protein_values(self):
        assert pairwise_phi(RHO_PROTEIN, (1, 2)) == pytest.approx(
            -0.0769305152621330, rel=1e-14
        )
        assert pairwise_phi(RHO_PROTEIN, (1, 3)) == pytest.approx(
            0.00986228392122137, rel=1e-14
        )
        assert pairwise_phi(RHO_PROTEIN, (2, 3)) == pytest.approx(
            -0.000758710583721010, rel=1e-14
        )

    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
    @pytest.mark.parametrize("component", range(4))
    def test_buoy_values_keep_their_digits(self, component, pair):
        # the inner root is formed as a sum of terms of one sign; the
        # paper's formula cancelled to -0.0 at component 0's pair (2, 3)
        rho = buoy_mixture().components[component].rho
        _, phi, _ = exact_copula(rho, pair)
        assert pairwise_phi(rho, pair) == pytest.approx(phi, rel=1e-14)

    def test_keeps_its_digits_near_the_edge(self):
        for rho in edge_sweep():
            _, phi, delta = exact_copula(rho)
            assert pairwise_phi(rho, (1, 2)) == pytest.approx(phi, rel=8.0 * EPS / delta)

    @pytest.mark.parametrize("rho", VALID_RHOS, ids=["333", "protein", "neg"])
    def test_marginalization_oracle(self, rho):
        # numerically integrate the joint over u3 and compare with t_2
        m = 512
        g3 = TWO_PI * np.arange(m) / m
        phi = pairwise_phi(rho, (1, 2))
        rng = np.random.default_rng(5)
        for u1, u2 in rng.uniform(0.0, TWO_PI, (20, 2)):
            u = np.column_stack(
                [np.full(m, u1), np.full(m, u2), g3]
            )
            integral = copula_density(u, rho).mean() * TWO_PI
            assert integral == pytest.approx(
                copula_bivariate_density(u1, u2, phi), abs=1e-8
            )

    def test_scale_invariance(self):
        for pair in ((1, 2), (1, 3), (2, 3)):
            a = pairwise_phi(RHO_PROTEIN, pair)
            b = pairwise_phi(RHO_PROTEIN.scaled(3.0), pair)
            assert a == pytest.approx(b, rel=1e-12)

    def test_bad_pair_rejected(self):
        with pytest.raises(InvalidParameterError):
            pairwise_phi(RHO_333, (1, 1))


class TestKernels:
    def test_zero_phi_is_independence(self):
        u = np.linspace(0.0, TWO_PI, 17)[:-1]
        vals = copula_bivariate_density(u, 0.3, 0.0)
        np.testing.assert_allclose(vals, 1.0 / (4 * np.pi**2), rtol=1e-14)

    def test_bivariate_normalizes(self):
        m = 512
        g = TWO_PI * np.arange(m) / m
        phi = pairwise_phi(RHO_PROTEIN, (1, 2))
        mass = copula_bivariate_density(g, 1.234, phi).mean() * TWO_PI
        # the second angle integrates out to the uniform 1/(2*pi)
        assert mass == pytest.approx(1.0 / TWO_PI, abs=1e-12)

    def test_reciprocal_concentration_equivalence(self):
        u = np.linspace(0.0, TWO_PI, 33)[:-1]
        a = copula_bivariate_density(u, 0.0, 0.25)
        b = copula_bivariate_density(u, 0.0, 4.0)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    @pytest.mark.parametrize("rho", VALID_RHOS, ids=["333", "protein", "neg"])
    def test_chain_rule_bivariate_times_conditional(self, rho):
        g = TWO_PI * (np.arange(5) + 0.3) / 5
        u1, u2, u3 = np.meshgrid(g, g, g, indexing="ij")
        u = np.stack([u1.ravel(), u2.ravel(), u3.ravel()], axis=1)
        joint = copula_density(u, rho)
        phi23 = pairwise_phi(rho, (2, 3))
        biv = copula_bivariate_density(u[:, 1], u[:, 2], phi23)
        cond = copula_cond_1given2(u, rho, 1)
        np.testing.assert_allclose(joint, biv * cond, rtol=1e-10)

    def test_cond_2given1_is_joint_over_uniform(self):
        rng = np.random.default_rng(2)
        u = TWO_PI * rng.random((50, 3))
        lhs = copula_cond_2given1(u, RHO_333) * (1.0 / TWO_PI)
        np.testing.assert_allclose(lhs, copula_density(u, RHO_333), rtol=1e-13)

    def test_log_conditional_consistent_with_plain(self):
        from twcm.copula import copula_log_cond_1given2

        rng = np.random.default_rng(3)
        u = TWO_PI * rng.random((50, 3))
        np.testing.assert_allclose(
            np.exp(copula_log_cond_1given2(u, RHO_PROTEIN, 2)),
            copula_cond_1given2(u, RHO_PROTEIN, 2),
            rtol=1e-13,
        )

    def test_cond_1given1_normalizes(self):
        m = 512
        g = TWO_PI * np.arange(m) / m
        phi = pairwise_phi(RHO_333, (1, 2))
        mass = copula_cond_1given1(g, 2.5, phi).mean() * TWO_PI
        assert mass == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_cond_1given2_normalizes_on_conditioning_grid(self, i):
        m = 512
        g = TWO_PI * np.arange(m) / m
        cond_grid = TWO_PI * (np.arange(4) + 0.25) / 4
        j, k = sorted({1, 2, 3} - {i})
        for a in cond_grid:
            for b in cond_grid:
                u = np.zeros((m, 3))
                u[:, i - 1] = g
                u[:, j - 1] = a
                u[:, k - 1] = b
                mass = copula_cond_1given2(u, RHO_PROTEIN, i).mean() * TWO_PI
                assert mass == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("i", [0, 4])
    def test_conditional_phi_rejects_a_bad_index(self, i):
        with pytest.raises(InvalidParameterError, match=f"^invalid coordinate index {i}$"):
            conditional_phi(RHO_PROTEIN, i, 1.0, 2.0)

    def test_unit_concentration_is_singular(self):
        with pytest.raises(SingularKernelError):
            copula_cond_1given1(0.1, 0.2, 1.0)
        with pytest.raises(SingularKernelError):
            copula_bivariate_density(0.1, 0.2, -1.0)

    @pytest.mark.parametrize("conc", [1 - 1e-8, 1 - 1e-9, 1 / (1 - 1e-8), 1 / (1 - 1e-9)])
    @pytest.mark.parametrize("offset", [0.0, 1e-7, 1e-3])
    def test_kernels_keep_their_digits_near_unit_concentration(self, conc, offset):
        center = 0.3
        x = center + offset
        a = conc if conc < 1.0 else 1.0 / conc
        marginal = WrappedCauchy(center, a)
        log_t = wc_kernel_log_density(x, center, conc)
        assert np.isfinite(log_t)
        assert log_t == pytest.approx(marginal.logpdf(x), rel=1e-12)
        assert copula_cond_1given1(x, center, conc) == pytest.approx(marginal.pdf(x), rel=1e-12)
        assert copula_bivariate_density(x, center, conc) == pytest.approx(
            marginal.pdf(x) / TWO_PI, rel=1e-12)
        if offset == 0.0:
            # at the centre the density is (1 + a) / (2 pi (1 - a)), with
            # 1 - a exact for these a; the numerator log1p(-a) + log1p(a)
            # rounds no a * a, which would cost about eps / (1 - a^2) nats
            exact = np.log1p(a) - np.log(1.0 - a) - np.log(TWO_PI)
            assert log_t == pytest.approx(exact, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("mu, xi", [(1.0, 0.5), (4.0, -0.7), (0.0, 1 - 1e-9)])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_marginal_sample_is_the_kernel_draw(self, mu, xi, seed):
        n = 1000
        expected = wc_kernel_sample(np.full(n, mu), xi, np.random.default_rng(seed))
        np.testing.assert_array_equal(WrappedCauchy(mu, xi).sample(n, seed=seed), expected)

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
        st.sampled_from([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]),
    )
    @example(1.40625, -0.640625, (1, -1, -1))
    @settings(max_examples=40, deadline=None)
    def test_conditional_kernel_normalizes_for_random_valid_rho(self, a, b, signs):
        from hypothesis import assume

        rho = RhoVector(
            signs[0] * np.exp(a), signs[1] * np.exp(b),
            signs[2] * np.exp(-a - b),
        )
        assume(validate_rho(rho).valid)
        # the kernel is wrapped Cauchy, so the m-point rule errs by about
        # 2 xi^m; over this box its effective concentration xi at these
        # conditioning angles reaches 0.982.  512 points erred by 4e-6 at
        # the example above (xi = 0.975); 4096 points err by below 1e-30
        m = 4096
        u = np.zeros((m, 3))
        u[:, 0] = TWO_PI * np.arange(m) / m
        u[:, 1], u[:, 2] = 1.7, 4.2
        mass = copula_cond_1given2(u, rho, 1).mean() * TWO_PI
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_seed_determinism(self):
        a = copula_sample(100, RHO_333, seed=7)
        b = copula_sample(100, RHO_333, seed=7)
        np.testing.assert_array_equal(a, b)
        c = copula_sample(100, RHO_333, seed=8)
        assert not np.array_equal(a, c)

    def test_output_range_and_shape(self):
        s = copula_sample(500, RHO_PROTEIN, seed=0)
        assert s.shape == (500, 3)
        assert np.all((s >= 0.0) & (s < TWO_PI))

    def test_invalid_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            copula_sample(0, RHO_333, seed=0)

    @pytest.mark.parametrize("rho", [
        protein_model().rho, *(c.rho for c in buoy_mixture().components),
        RhoVector(2.0, 0.25, 2.0), RhoVector(-1e3, 1e-3, -1.0),
    ], ids=["protein", "buoy0", "buoy1", "buoy2", "buoy3", "2_0.25_2", "edge"])
    def test_forward_rosenblatt_map_returns_the_uniforms(self, rho):
        # the sampler is the inverse Rosenblatt transform of the uniforms
        # default_rng(seed).random((3, n)); its closed-form forward map, the
        # conditional CDFs of u1, u2 | u1 and u3 | u1, u2, returns them to
        # within 4 eps on the circle [0, 1) (4.4e-16 was measured)
        n, seed = 100_000, 5
        u = copula_sample(n, rho, seed=seed)
        ph = conditional_phi(rho, 3, u[:, 0], u[:, 1])
        v = np.stack([
            u[:, 0] / TWO_PI,
            wc_half_cdf(HalfOffset(u[:, 1], u[:, 0]),
                        effective_concentration(pairwise_phi(rho, (1, 2)))),
            wc_half_cdf(HalfOffset(u[:, 2], np.angle(ph)), effective_concentration(np.abs(ph))),
        ])
        err = np.abs(v - np.random.default_rng(seed).random((3, n)))
        assert np.minimum(err, 1.0 - err).max() <= 4 * EPS

    @pytest.mark.parametrize("rho", VALID_RHOS, ids=["333", "protein", "neg"])
    def test_uniform_marginals_ks(self, rho):
        from scipy.stats import kstest

        s = copula_sample(100_000, rho, seed=123)
        for i in range(3):
            assert kstest(s[:, i] / TWO_PI, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("rho", VALID_RHOS, ids=["333", "protein", "neg"])
    def test_histogram_matches_cell_masses(self, rho):
        n = 100_000
        s = copula_sample(n, rho, seed=17)
        dens = grid_mean_density(rho, n=64)
        cell = dens.reshape(8, 8, 8, 8, 8, 8).mean(axis=(1, 3, 5)) * (TWO_PI / 8) ** 3
        idx = np.floor(s / (TWO_PI / 8)).astype(int).clip(0, 7)
        counts = np.zeros((8, 8, 8))
        np.add.at(counts, (idx[:, 0], idx[:, 1], idx[:, 2]), 1.0)
        se = np.sqrt(n * cell * (1.0 - cell))
        z = (counts - n * cell) / se
        assert np.max(np.abs(z)) < 4.0
