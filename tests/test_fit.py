"""Fitting machinery: information criteria, the constrained copula search,
two-step estimation, and the bootstrap."""

import itertools
import math
import warnings

import numpy as np
import pytest

import twcm
from twcm import (
    DomainError,
    FitConfig,
    InvalidParameterError,
    RhoVector,
    bootstrap_se,
    constants,
    copula_log_density,
    copula_sample,
    em_fit,
    fit_copula,
    fit_ifm,
    information_criteria,
    parameter_vector,
    select_k,
    validate_rho,
)
from twcm.model import copula_scale
from twcm.presets import buoy_mixture, protein_model

TWO_PI = 2.0 * np.pi
RHO_333 = RhoVector(3.0, 3.0, 1.0 / 9.0)
SIGN_PATTERNS = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
BUOY_FAMS = ("wrapped_cauchy", "wrapped_cauchy", "weibull")


def rho_in_piece(signs, i) -> RhoVector:
    """A rho with these signs whose permutation check singles out
    coordinate i: in the quadrant of these signs in the piece of i."""
    abs_rho = np.full(3, 2.0)
    abs_rho[3 - i] = 0.5  # the pair not containing i
    rho = RhoVector(*(np.array(signs) * abs_rho))
    assert validate_rho(rho).passing_permutations == (i,)
    return rho


def random_rho_in_piece(signs, i, rng) -> RhoVector:
    """A random rho with these signs in the piece of coordinate i: rho_ij =
    a_i a_j with |a_i| > |a_j| + |a_k|."""
    a = np.abs(rng.normal(size=3)) + 0.05
    a[i - 1] = (a.sum() - a[i - 1]) * (1.0 + rng.exponential(0.5))
    rho = RhoVector(*(np.array(signs) * np.array([a[0] * a[1], a[0] * a[2], a[1] * a[2]])))
    assert validate_rho(rho).passing_permutations == (i,)
    return rho


def count_piece_iterations(monkeypatch) -> list[int]:
    """The number of pieces of each pass of the copula ascent, as fits
    made after this call run it."""
    rows = []
    ascent = twcm.fit._Pieces.ascent

    def counting(self, t, k, bracket):
        rows.append(len(k))
        return ascent(self, t, k, bracket)

    monkeypatch.setattr(twcm.fit._Pieces, "ascent", counting)
    return rows


def two_rows(preset, seed, tied):
    """Two rows of a preset, each twice if ``tied``."""
    data = preset.sample(2, seed=seed)
    return np.repeat(data, 2, axis=0) if tied else data


def full_ascent(monkeypatch, fitter, *args):
    """``fitter(*args)`` with no copula piece retired early."""
    monkeypatch.setattr(twcm.fit, "_RETIRE", np.inf)
    with np.errstate(invalid="ignore"):  # inf * 0 for a flat piece
        return fitter(*args)


class VectorisedPieces(twcm.fit._Pieces):
    """:class:`twcm.fit._Pieces` with the piece-level arithmetic on NumPy
    arrays: the coefficients scattered into place, the step cut to length
    8 and the decrement summed over all pieces at once."""

    def value(self, t, k):
        p, m = np.tanh(t).T
        coef = np.empty((len(k), 4))
        coef[np.arange(len(k))[:, None], twcm.fit._COLUMNS[k]] = np.column_stack(
            [1.0 + 0.5 * (p * p + m * m), p + m, p - m, 0.5 * (p + m) * (p - m)])
        bracket = coef @ self.phi.T
        with np.errstate(divide="ignore", invalid="ignore"):
            f = -self.wsum * np.logaddexp(t, -t).sum(axis=1) - np.log(bracket) @ self.w
        f[~np.isfinite(f)] = -np.inf
        return f, bracket

    def ascent(self, t, k, bracket):
        m = len(k)
        x = np.tanh(t)
        sech2 = 1.0 / np.cosh(t) ** 2
        q = self.w / bracket
        rows = np.arange(m)[:, None]
        cols = twcm.fit._COLUMNS[k]
        s1 = (q @ self.phi)[rows, cols]
        s2 = ((q / bracket) @ self.phi2).reshape(m, 4, 4)[rows[:, :, None], cols[:, :, None],
                                                          cols[:, None, :]]
        one = np.ones(m)
        v = np.stack([np.column_stack([x[:, 0], one, one, x[:, 0]]),
                      np.column_stack([x[:, 1], one, -one, -x[:, 1]])], axis=2)
        dv = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
        jac = v * sech2[:, None, :]
        v_s1 = np.einsum("mca,mc->ma", v, s1)
        grad = -self.wsum * x - sech2 * v_s1
        hess = np.einsum("mca,mcd,mdb->mab", jac, s2, jac)
        hess[:, [0, 1], [0, 1]] -= sech2 * (self.wsum + sech2 * (s1 @ dv) - 2.0 * x * v_s1)
        lam, vec = np.linalg.eigh(hess)
        concave = lam[:, -1] < 0.0
        lam = np.maximum(np.abs(lam), twcm.fit._EIG_FLOOR * self.wsum)
        step = np.einsum("mab,mb->ma", vec, np.einsum("mab,ma->mb", vec, grad) / lam)
        norm = np.linalg.norm(step, axis=1)
        step *= np.minimum(1.0, twcm.fit._STEP_MAX / np.maximum(norm, 1e-300))[:, None]
        return np.sum(grad * step, axis=1), step, concave


def vectorised_fit_copula(u, weights=None, start=None) -> twcm.fit.CopulaFit:
    """Reference copula ascent: :func:`twcm.fit.fit_copula`'s loop with
    every per-piece decision made on NumPy masks over the running pieces,
    on the unscaled weights, and the log-likelihood from
    :func:`copula_log_density`."""
    fit = twcm.fit
    u = np.asarray(u, dtype=float)
    w = np.ones(len(u)) if weights is None else np.asarray(weights, dtype=float)
    pieces = VectorisedPieces(u, w)
    k_all = np.arange(3)
    t = np.zeros((3, 2))
    if start is not None:
        k0, t0 = fit._piece_of(start)
        t[k0] = np.clip(t0, -fit._T_CAP, fit._T_CAP)
    f, bracket = pieces.value(t, k_all)
    iterations = np.zeros(3, dtype=int)
    converged = np.zeros(3, dtype=bool)
    capped = np.zeros(3, dtype=bool)
    active = k_all[np.isfinite(f)]
    while active.size:
        decrement, step, concave = pieces.ascent(t[active], active, bracket[active])
        keep = ~(concave & (f.max() - f[active] > fit._RETIRE * decrement))
        if not keep.all():
            active, step, decrement, concave = (active[keep], step[keep], decrement[keep],
                                                concave[keep])
            if not active.size:
                break
        small = decrement <= fit._DECREMENT_TOL * pieces.wsum
        unresolved = decrement <= fit._ROUNDING * (1.0 / bracket[active]) @ w
        lost = ~small & unresolved
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.min((fit._T_CAP - np.sign(step) * t[active]) / np.abs(step), axis=1)
        cut = np.where(room < 1.0, room, 1.0)
        moved = np.zeros(active.size, dtype=bool)
        landed = np.zeros(active.size, dtype=bool)
        alpha = 1.0
        pending = np.flatnonzero(~unresolved & (cut > 0.0))
        for _ in range(fit._MAX_HALVINGS):
            if not pending.size:
                break
            k = active[pending]
            trial = np.clip(t[k] + (alpha * cut[pending, None]) * step[pending],
                            -fit._T_CAP, fit._T_CAP)
            f_try, b_try = pieces.value(trial, k)
            ok = f_try > f[k] + fit._ARMIJO * alpha * cut[pending] * decrement[pending]
            t[k[ok]], f[k[ok]], bracket[k[ok]] = trial[ok], f_try[ok], b_try[ok]
            moved[pending[ok]] = True
            landed[pending[ok]] = alpha == 1.0
            pending = pending[~ok]
            alpha *= 0.5
        iterations[active] += 1
        at_cap = ~lost & (cut < 1.0) & (~moved | (concave & landed))
        capped[active[at_cap]] = True
        stop = ~moved | small | lost | at_cap
        converged[active[stop & ~lost & ~at_cap]] = True
        active = active[~stop & (iterations[active] < fit._MAX_ITER)]
    best = int(np.argmax(f))
    rho = fit._rho_at(best, t[best])
    return fit.CopulaFit(
        rho=rho,
        loglik=float(w @ copula_log_density(u, rho)),
        sign_pattern=tuple(int(s) for s in np.sign(rho.as_array())),
        converged=bool(converged[best]),
        iterations=int(iterations[best]),
        near_limit=bool(capped[best]),
    )


def assert_same_copula_fit(a, b):
    np.testing.assert_array_equal(a.rho.as_array(), b.rho.as_array())
    assert (a.loglik, a.sign_pattern, a.converged, a.iterations, a.near_limit) == (
        b.loglik, b.sign_pattern, b.converged, b.iterations, b.near_limit)


@pytest.fixture
def against_reference(monkeypatch):
    """Check every copula fit made after this fixture, fit_ifm's and EM's
    too, against :func:`vectorised_fit_copula`; returns the fits."""
    fits = []
    fit_copula_ = twcm.fit.fit_copula

    def checked(u, weights=None, start=None):
        res = fit_copula_(u, weights, start)
        assert_same_copula_fit(res, vectorised_fit_copula(u, weights, start))
        fits.append(res)
        return res

    monkeypatch.setattr(twcm.fit, "fit_copula", checked)
    return fits


# (data, families, whether the winner ends on the cap)
DEGENERATE_BLOCKS = [
    (np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), BUOY_FAMS, True),
    (two_rows(buoy_mixture(), 0, tied=False), BUOY_FAMS, True),
    (two_rows(buoy_mixture(), 3, tied=True), BUOY_FAMS, True),
    (two_rows(protein_model(), 8, tied=False), ["von_mises"] * 3, True),
    (two_rows(protein_model(), 1, tied=True), ["von_mises"] * 3, True),
    (two_rows(buoy_mixture(), 5, tied=True), ["von_mises"] * 3, False),
]
DEGENERATE_IDS = ["cli-rows", "buoy-0", "buoy-3-tied", "protein-8", "protein-1-tied",
                  "buoy-5-tied-von-mises"]

# published bootstrap standard errors for the reference fit
RHO_SE = np.array([4.99, 4.60, 4.41])
MARG_TRUE = [(1.93, 27.6), (2.82, 17.3), (6.23, 84.4)]
MARG_SE = [(0.0043, 0.99), (0.0055, 0.62), (0.0024, 2.95)]


class TestInformationCriteria:
    def test_zero_parameters_collapses_to_deviance(self):
        aic, bic = information_criteria(-11027.2624, 0, 2000)
        assert aic == bic == pytest.approx(22054.5248, abs=1e-3)
        # the published table rounds this row to 22055
        assert round(aic) == 22055

    def test_uniform_copula_row_arithmetic(self):
        # p = 2: BIC - AIC = p (ln n - 2); the published row shows
        # 15855 - 15843 = 12 at integer rounding
        aic, bic = information_criteria(-7920.0, 2, 2000)
        gap = 2 * (math.log(2000) - 2.0)
        assert bic - aic == pytest.approx(gap, rel=1e-12)
        assert gap == pytest.approx(11.2018, abs=1e-4)
        assert abs(12.0 - gap) < 1.0  # integer-rounded table consistent

    def test_identities(self):
        aic, bic = information_criteria(-100.0, 3, 50)
        assert aic == pytest.approx(206.0)
        assert bic == pytest.approx(200.0 + 3 * math.log(50))

    def test_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            information_criteria(-1.0, -1, 10)
        with pytest.raises(InvalidParameterError):
            information_criteria(-1.0, 0, 0)


class TestParameterCounting:
    @pytest.mark.parametrize(
        "families,expected",
        [
            (("uniform",) * 3, 2),
            (("wrapped_cauchy",) * 3, 8),
            (("von_mises",) * 3, 8),
            (("cardioid",) * 3, 8),
            (("wrapped_cauchy", "wrapped_cauchy", "weibull"), 8),
        ],
    )
    def test_free_parameters(self, families, expected):
        u = copula_sample(80, RHO_333, seed=1)
        data = u.copy()
        if families[2] == "weibull":
            data[:, 2] = np.abs(data[:, 2]) + 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = fit_ifm(data, families, FitConfig(seed=2))
        assert res.p == expected


class TestFitCopula:
    def test_recovery_within_ten_percent(self):
        # the likelihood has a shallow ridge trading rho12 against rho13,
        # so the componentwise 10% box holds for this pinned realization
        u = copula_sample(5000, RHO_333, seed=34)
        res = fit_copula(u)
        rel = np.abs(res.rho.as_array() - RHO_333.as_array()) / RHO_333.as_array()
        assert np.all(rel < 0.10)
        assert res.sign_pattern == (1, 1, 1)

    def test_fitted_product_is_one_and_valid(self):
        u = copula_sample(2000, RHO_333, seed=6)
        res = fit_copula(u)
        assert abs(res.rho.product - 1.0) <= 1e-9
        assert validate_rho(res.rho).valid

    def test_optimum_beats_truth(self):
        u = copula_sample(3000, RHO_333, seed=9)
        res = fit_copula(u)
        ll_truth = float(np.sum(copula_log_density(u, RHO_333)))
        assert res.loglik >= ll_truth - 1e-8

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_start_in_every_piece_only_improves(self, signs, i):
        u = copula_sample(500, RHO_333, seed=3)
        start = rho_in_piece(signs, i)
        res = fit_copula(u, start=start)
        assert validate_rho(res.rho).valid
        assert res.rho.identifiable
        assert res.loglik >= float(np.sum(copula_log_density(u, start))) - 1e-9

    @pytest.mark.parametrize("n", [40, 400])
    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_retirement_spares_the_truth_piece(self, signs, i, n, monkeypatch):
        # pieces that trail the best one are retired mid-ascent; at small n
        # several pieces come close, so a wrong retirement would leave the
        # fit below the truth or below the ascent that retires nothing
        truth = rho_in_piece(signs, i)
        u = copula_sample(n, truth, seed=100 + n)
        res = fit_copula(u)
        assert res.loglik >= float(np.sum(copula_log_density(u, truth))) - 1e-9
        full = full_ascent(monkeypatch, fit_copula, u)
        assert res.sign_pattern == full.sign_pattern
        assert res.loglik >= full.loglik - 1e-9

    @pytest.mark.parametrize("n, seed", [(25, 250081), (40, 5008)])
    def test_retirement_waits_for_concave_ground(self, n, seed, monkeypatch):
        # on these blocks the eventual winner trails by 5.1 and 2.6 Newton
        # decrements while its Hessian is indefinite, where the decrement
        # says nothing about the gain left; retiring there at 3 or at 1
        # decrement ends in a worse piece
        data = buoy_mixture().sample(n, seed=seed)
        res = fit_ifm(data, BUOY_FAMS)
        full = full_ascent(monkeypatch, fit_ifm, data, BUOY_FAMS)
        assert res.sign_pattern == full.sign_pattern
        assert res.loglik >= full.loglik - 1e-9

    def test_retirement_saves_piece_iterations(self, monkeypatch):
        # without retirement every piece runs until it stops itself: 12
        # piece-iterations on this block; retiring the pieces that cannot
        # catch the leader leaves 9
        rows = count_piece_iterations(monkeypatch)
        fit_ifm(buoy_mixture().sample(1000, seed=1), BUOY_FAMS)
        assert sum(rows) <= 10

    def test_unresolved_gain_takes_no_line_search(self, monkeypatch):
        # the winner's third decrement on this sample, 1.1e-19 W, is below
        # what f resolves: the piece stops without the 50 halvings that
        # found no trial point above rounding (53 evaluations of f before)
        calls = []
        value = twcm.fit._Pieces.value

        def counting(self, t, k):
            calls.append(len(k))
            return value(self, t, k)

        monkeypatch.setattr(twcm.fit._Pieces, "value", counting)
        res = fit_ifm(buoy_mixture().components[0].sample(1000, seed=1), BUOY_FAMS)
        assert len(calls) == 3
        assert res.converged and res.iterations == 3 and not res.near_limit

    @pytest.mark.parametrize("data, families, near_limit", DEGENERATE_BLOCKS,
                             ids=DEGENERATE_IDS)
    def test_degenerate_data_end_in_bounded_time(self, data, families, near_limit,
                                                 monkeypatch):
        # on two distinct rows the likelihood grows without bound toward
        # the edge of the region, and near the edge f is rounding noise;
        # a piece could run to 2000 iterations there while a step that did
        # not raise f counted as a move.  The winner now stops at the cap,
        # without walking along it, or, on the last block, once its
        # decrement is below what f can resolve; either way not converged
        rows = count_piece_iterations(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the marginals' caps warn
            res = fit_ifm(data, families)
        assert sum(rows) <= 30
        constants(res.model.rho)
        assert np.isfinite(res.loglik)
        assert not res.converged and res.near_limit == near_limit

    @pytest.mark.parametrize("n", [40, 400])
    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_one_start_a_piece_is_not_beaten_by_a_start_in_any_quadrant(self, signs, i, n):
        # each piece runs one ascent, from the independence copula at its
        # centre; the 4 sign patterns are the quadrants of the piece, and
        # a start in any of the 12 must not end higher
        rng = np.random.default_rng([n, i, *np.add(signs, 1)])
        u = copula_sample(n, random_rho_in_piece(signs, i, rng), seed=rng.integers(1 << 30))
        cold = fit_copula(u).loglik
        for start_signs in SIGN_PATTERNS:
            for start_i in (1, 2, 3):
                warm = fit_copula(u, start=rho_in_piece(start_signs, start_i)).loglik
                assert cold >= warm - 1e-9 * abs(warm)

    def test_near_limit_is_the_cap(self):
        # |rho12| = 5957 in the buoy preset's third component lies well
        # inside its piece; only the cap, where two rows drive the winner,
        # is a limit
        comp = buoy_mixture().components[2]
        _, t = twcm.fit._piece_of(comp.rho)
        assert np.abs(comp.rho.as_array()).max() > 1e3 and np.abs(t).max() < 1.0
        res = fit_ifm(comp.sample(1000, seed=5), BUOY_FAMS)
        assert res.converged and not res.near_limit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = fit_ifm(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), BUOY_FAMS)
        _, t = twcm.fit._piece_of(res.model.rho)
        assert res.near_limit and not res.converged
        assert np.abs(t).max() == pytest.approx(twcm.fit._T_CAP, abs=1e-9)

    def test_winner_on_an_axis_is_moved_off_it(self):
        # every pair cosine sums to 0 on these rows, so the gradient at the
        # independence copula, t = 0, is 0 and each piece stops there, on
        # the axes, where a rho is 0; the fit returns a valid rho beside it
        u = np.array([[0, 0, 0], [0, 0, np.pi], [0, np.pi, 0], [0, np.pi, np.pi]], dtype=float)
        res = fit_copula(u)
        constants(res.rho)
        assert res.loglik == pytest.approx(-4 * 3 * math.log(TWO_PI), rel=1e-12)

    def test_invalid_start_rejected(self):
        u = copula_sample(50, RHO_333, seed=3)
        with pytest.raises(InvalidParameterError):
            fit_copula(u, start=RhoVector(1.0, 1.0, 1.0))

    def test_constant_weights_match_unweighted(self):
        # scaling every weight by a power of two is exact in every sum and
        # in the stop, which is relative to the total weight
        u = copula_sample(800, RHO_333, seed=5)
        a = fit_copula(u)
        for scale in (2.0, 0.5):
            b = fit_copula(u, weights=np.full(len(u), scale))
            np.testing.assert_array_equal(a.rho.as_array(), b.rho.as_array())
            assert b.loglik == scale * a.loglik
            assert b.iterations == a.iterations

    @pytest.mark.parametrize("total", [1.2e308, 1.5e308])
    def test_huge_finite_weights(self, total):
        # -2 W log 2, f at t = 0, overflowed past W = 1.3e308, and the
        # sums of w / D before it; the ascent runs on w 2^-e, W = m 2^e,
        # so that these weights fit as the same weights at 2^-1000 do, and
        # as no weights do, but for the last bits of a constant weight
        u = copula_sample(200, RHO_333, seed=3)
        weights = np.full(200, total / 200)
        with np.errstate(over="ignore"):  # sum w log c is below -1.8e308
            huge = fit_copula(u, weights=weights)
        assert huge.loglik == -np.inf
        scaled = fit_copula(u, weights=weights * 2.0**-1000)
        np.testing.assert_array_equal(huge.rho.as_array(), scaled.rho.as_array())
        plain = fit_copula(u)
        np.testing.assert_allclose(huge.rho.as_array(), plain.rho.as_array(), rtol=1e-14)
        for fit in (scaled, plain):
            assert (huge.sign_pattern, huge.converged, huge.iterations, huge.near_limit) == (
                fit.sign_pattern, fit.converged, fit.iterations, fit.near_limit)

    def test_stops_at_a_negligible_newton_decrement(self):
        # here a stop on two small gains in the log-likelihood left a
        # decrement of 2.3e-13 W and rho 5e-4 off; the decrement stop
        # takes one more step, after which it is at rounding level
        data = protein_model().sample(2000, seed=24)
        res = fit_ifm(data, ["von_mises"] * 3)
        pieces = twcm.fit._Pieces(copula_scale(res.model.marginals, data), np.ones(len(data)))
        k, t = twcm.fit._piece_of(res.model.rho)
        k, t = np.array([k]), t[None]
        _, bracket = pieces.value(t, k)
        decrement, _, concave = pieces.ascent(t, k, bracket)
        assert res.converged and concave[0]
        assert 0.0 <= decrement[0] <= 1e-14 * pieces.wsum

    def test_bad_input_shape(self):
        with pytest.raises(InvalidParameterError):
            fit_copula(np.zeros((0, 3)))
        with pytest.raises(InvalidParameterError):
            fit_copula(np.zeros((10, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_pseudo_observations_raise_domain_error(self, bad):
        # a data error, not a fit failure
        u = copula_sample(50, RHO_333, seed=3)
        u[7, 2] = bad
        with pytest.raises(DomainError, match="^pseudo-observations must be finite"):
            fit_copula(u)


class TestLoopMatchesReference:
    """fit_copula makes each piece's decisions on Python floats; the
    reference makes them on NumPy masks.  Every field must match, bit for
    bit, wherever the fit is called."""

    @pytest.mark.parametrize("n", [2000, 200, 40])
    @pytest.mark.parametrize("preset, families", [(protein_model, ["von_mises"] * 3),
                                                  (buoy_mixture, BUOY_FAMS)],
                             ids=["protein", "buoy"])
    def test_presets(self, against_reference, preset, families, n):
        for seed in range(3):
            fit_ifm(preset().sample(n, seed=seed), families)
        assert len(against_reference) == 3

    @pytest.mark.parametrize("component", range(4))
    def test_buoy_components(self, against_reference, component):
        comp = buoy_mixture().components[component]
        for seed in range(3):
            fit_ifm(comp.sample(500, seed=seed), BUOY_FAMS)
        assert len(against_reference) == 3

    def test_weights(self, against_reference):
        u = copula_sample(300, RHO_333, seed=3)
        rng = np.random.default_rng(7)
        uniform = rng.random(300) * (rng.random(300) < 0.8)  # a fifth of the rows dropped
        wide = np.exp(rng.normal(0.0, 8.0, 300))
        for w in (uniform, wide, uniform * 2.0**-30, wide * 2.0**40):
            twcm.fit.fit_copula(u, weights=w)
        assert len(against_reference) == 4

    def test_cut_at_the_cap(self):
        # the reference's cut on every pairing of these components: a zero
        # one sets no bound and a NaN one gives 1, as np.min propagates it
        # and the room is then not below 1
        cap = twcm.fit._T_CAP
        values = [0.0, -0.0, 1e-300, -1e-300, 0.5, -2.0, 5.9, -7.0, np.nan]
        for t in itertools.product([0.0, 5.5, -cap, cap], repeat=2):
            for step in itertools.product(values, repeat=2):
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    room = np.min((cap - np.sign(step) * np.array(t)) / np.abs(step))
                assert twcm.fit._cut(list(t), list(step)) == np.where(room < 1.0, room, 1.0)

    @pytest.mark.parametrize("data, families, near_limit", DEGENERATE_BLOCKS,
                             ids=DEGENERATE_IDS)
    def test_degenerate_blocks(self, against_reference, data, families, near_limit):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the marginals' caps warn
            fit_ifm(data, families)
        assert against_reference[0].near_limit == near_limit

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_start_in_every_quadrant_piece(self, against_reference, signs, i):
        u = copula_sample(200, RHO_333, seed=3)
        twcm.fit.fit_copula(u, start=rho_in_piece(signs, i))
        assert len(against_reference) == 1

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_without_retirement(self, against_reference, monkeypatch, signs, i):
        # _RETIRE is read at call time; at inf, inf * 0 is NaN and keeps a
        # piece whose decrement is 0
        u = copula_sample(40, rho_in_piece(signs, i), seed=140)
        full_ascent(monkeypatch, twcm.fit.fit_copula, u)
        assert len(against_reference) == 1

    def test_winner_on_an_axis(self, against_reference):
        u = np.array([[0, 0, 0], [0, 0, np.pi], [0, np.pi, 0], [0, np.pi, np.pi]], dtype=float)
        twcm.fit.fit_copula(u)
        assert against_reference[0].iterations == 1

    def test_cap(self, against_reference):
        fit_ifm(buoy_mixture().components[2].sample(1000, seed=5), BUOY_FAMS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_ifm(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), BUOY_FAMS)
        assert [fit.near_limit for fit in against_reference] == [False, True]

    def test_em_m_steps(self, against_reference):
        # weighted refits warm-started from the previous M-step
        em_fit(buoy_mixture().sample(300, seed=201), 2, BUOY_FAMS, FitConfig(seed=201),
               restarts=1)
        assert len(against_reference) > 10


def _bad_weights(n, case):
    if case == "short":
        return np.ones(n - 1)
    if case == "column":
        return np.ones((n, 1))
    w = np.ones(n)
    if case == "all_zero":
        w[:] = 0.0
    elif case == "all_negative":
        w[:] = -1.0
    elif case == "one_negative":
        w[3] = -5.0
    else:  # "nan" or "inf"
        w[0] = float(case)
    return w


@pytest.mark.parametrize(
    "case", ["short", "column", "all_zero", "all_negative", "one_negative", "nan", "inf"]
)
@pytest.mark.parametrize("fitter", ["fit_copula", "fit_ifm", "fit_mle"])
def test_bad_weights_raise_domain_error(fitter, case):
    # one rule for every fitter: one finite, nonnegative weight per row
    # with a positive sum
    data = protein_model().sample(50, seed=12)
    weights = _bad_weights(len(data), case)
    fit = {
        "fit_copula": lambda: fit_copula(data, weights=weights),
        "fit_ifm": lambda: fit_ifm(data, ["von_mises"] * 3, weights=weights),
        "fit_mle": lambda: twcm.fit_mle("von_mises", data[:, 0], weights),
    }[fitter]
    with pytest.raises(DomainError, match="^weights must"):
        fit()


class TestFitIfm:
    def test_protein_style_recovery(self):
        # data regenerated from the reference fit; tolerances are 3x the
        # published bootstrap SEs for marginals, 2x for copula parameters
        true = protein_model()
        data = true.sample(2000, seed=52)
        res = fit_ifm(data, ["von_mises"] * 3, FitConfig(seed=7))
        assert abs(res.model.rho.product - 1.0) <= 1e-9
        assert validate_rho(res.model.rho).valid
        rho_hat = res.model.rho.as_array()
        assert np.all(np.abs(rho_hat - np.array([9.18, -1.17, -0.09])) < 2 * RHO_SE)
        for i, m in enumerate(res.model.marginals):
            mu, kappa = m.params_dict()["mu"], m.params_dict()["kappa"]
            dmu = abs((mu - MARG_TRUE[i][0] + np.pi) % TWO_PI - np.pi)
            assert dmu < 3 * MARG_SE[i][0]
            assert abs(kappa - MARG_TRUE[i][1]) < 3 * MARG_SE[i][1]

    def test_uniform_marginals_reduce_to_copula_mle(self):
        u = copula_sample(1500, RHO_333, seed=21)
        ifm = fit_ifm(u, ["uniform"] * 3, FitConfig(seed=31))
        direct = fit_copula(u)
        np.testing.assert_allclose(
            ifm.model.rho.as_array(), direct.rho.as_array(), rtol=1e-12
        )
        assert ifm.p == 2

    def test_row_order_invariance(self):
        true = protein_model()
        data = true.sample(800, seed=23)
        perm = np.random.default_rng(0).permutation(len(data))
        a = fit_ifm(data, ["von_mises"] * 3, FitConfig(seed=8))
        b = fit_ifm(data[perm], ["von_mises"] * 3, FitConfig(seed=8))
        assert a.loglik == pytest.approx(b.loglik, rel=1e-9)
        np.testing.assert_allclose(
            a.model.rho.as_array(), b.model.rho.as_array(), rtol=1e-6
        )
        for ma, mb in zip(a.model.marginals, b.model.marginals):
            for key, val in ma.params_dict().items():
                assert val == pytest.approx(mb.params_dict()[key], rel=1e-9)

    def test_copula_step_never_hurts_versus_independence(self):
        true = protein_model()
        data = true.sample(600, seed=29)
        res = fit_ifm(data, ["von_mises"] * 3, FitConfig(seed=5))
        indep = sum(
            m.loglik(data[:, i]) for i, m in enumerate(res.model.marginals)
        )
        assert res.loglik >= indep - 1e-6

    def test_result_serialization_block(self):
        u = copula_sample(300, RHO_333, seed=41)
        res = fit_ifm(u, ["uniform"] * 3, FitConfig(seed=9))
        d = res.to_dict()
        assert set(d) == {"rho", "marginals", "fit"}
        assert set(d["fit"]) == {
            "loglik", "aic", "bic", "p", "converged", "sign_pattern", "n",
        }
        assert d["fit"]["n"] == 300
        aic, bic = information_criteria(d["fit"]["loglik"], d["fit"]["p"], 300)
        assert d["fit"]["aic"] == pytest.approx(aic)
        assert d["fit"]["bic"] == pytest.approx(bic)

    def test_result_does_not_depend_on_config_seed(self):
        # this sample has local optima at loglik 2109.4319 and 2110.8549;
        # the fit must reach the higher one whatever the config seed
        data = protein_model().sample(2000, seed=102)
        logliks = {
            fit_ifm(data, ["von_mises"] * 3, FitConfig(seed=s)).loglik
            for s in range(6)
        }
        assert len(logliks) == 1
        assert logliks.pop() >= 2110.8549

    def test_fit_loglik_matches_model_loglik(self):
        data = protein_model().sample(700, seed=17)
        res = fit_ifm(data, ["von_mises"] * 3)
        assert res.loglik == pytest.approx(res.model.loglik(data), rel=1e-9)
        w = np.random.default_rng(4).random(len(data))
        res = fit_ifm(data, ["von_mises"] * 3, weights=w)
        assert res.loglik == pytest.approx(
            float(w @ res.model.log_density(data)), rel=1e-9
        )


class TestBootstrap:
    def _tiny_dataset(self):
        return protein_model().sample(150, seed=61)

    def test_deterministic_given_seed(self):
        data = self._tiny_dataset()
        cfg = FitConfig(seed=3, bootstrap_b=8)
        a = bootstrap_se(data, ["von_mises"] * 3, cfg)
        b = bootstrap_se(data, ["von_mises"] * 3, cfg)
        assert a.se == b.se

    def test_replicates_follow_one_resample_stream(self):
        # replicate r refits the r-th successive resample drawn from
        # default_rng(config.seed): no other draw may enter the stream
        data = self._tiny_dataset()
        n = len(data)
        families = ["von_mises"] * 3
        res = bootstrap_se(data, families, FitConfig(seed=12, bootstrap_b=3))
        assert res.b_failed == 0
        rng = np.random.default_rng(12)
        for r in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = parameter_vector(fit_ifm(data[rng.integers(0, n, n)], families))
            assert {name: vals[r] for name, vals in res.estimates.items()} == ref

    def test_reports_all_parameters(self):
        data = self._tiny_dataset()
        res = bootstrap_se(data, ["von_mises"] * 3,
                           FitConfig(seed=4, bootstrap_b=6))
        assert set(res.se) == {
            "rho12", "rho13", "rho23", "mu1", "kappa1", "mu2", "kappa2",
            "mu3", "kappa3",
        }
        assert all(v >= 0.0 for v in res.se.values())

    def test_single_replicate_flagged_degenerate(self):
        data = self._tiny_dataset()
        res = bootstrap_se(data, ["von_mises"] * 3,
                           FitConfig(seed=5, bootstrap_b=1))
        assert any("degenerate" in w for w in res.warnings)
        assert all(v == 0.0 for v in res.se.values())

    def test_failed_replicates_counted_and_noted(self):
        # a Weibull column with 2 values apart from 10 equal ones: a
        # resample of the equal ones alone has no Weibull MLE
        d = self._tiny_dataset()[:12]
        data = np.column_stack([d[:, :2], np.r_[np.full(10, 2.0), 3.0, 3.5]])
        b = 20
        res = bootstrap_se(data, ["von_mises", "von_mises", "weibull"],
                           FitConfig(seed=1, bootstrap_b=b))
        rng = np.random.default_rng(1)
        tied = sum(np.ptp(data[rng.integers(0, 12, 12), 2]) == 0.0 for _ in range(b))
        assert res.b_failed == tied > 0.10 * b
        assert res.warnings == (f"{tied} of {b} bootstrap replicates failed to fit",)
        assert all(v.size == b - tied for v in res.estimates.values())

    def test_replicate_count_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="bootstrap_b"):
            FitConfig(bootstrap_b=0)

    def test_unknown_family_rejected_before_refits(self, monkeypatch):
        calls = []
        monkeypatch.setattr(twcm.fit, "fit_ifm", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidParameterError):
            bootstrap_se(self._tiny_dataset(), ["von_mises", "kato_jones", "von_mises"],
                         FitConfig(seed=6, bootstrap_b=4))
        assert calls == []

    def test_circular_locations_use_circular_spread(self):
        # artificial angle estimates straddling the wrap point must not
        # blow up the spread the way a linear SD would
        from twcm.fit import _circular_sd

        angles = np.array([0.01, TWO_PI - 0.01, 0.02, TWO_PI - 0.02])
        assert _circular_sd(angles) < 0.1
        assert np.std(angles) > 1.0


class TestRowCheck:
    """Each fitter checks the caller's rows once, before it fits anything,
    so the error names rows of the data passed in, not of a resample or an
    EM partition.  Only rows that fail the one-pass check are masked and
    named, by fitters and log densities alike."""

    BUOY = ("wrapped_cauchy", "wrapped_cauchy", "weibull")

    @pytest.mark.parametrize("column, value", [(0, np.nan), (2, 0.0)],
                             ids=["nan", "zero-weibull"])
    @pytest.mark.parametrize("fitter", [
        lambda data, fams: fit_ifm(data, fams),
        lambda data, fams: em_fit(data, 2, fams, FitConfig(seed=1), restarts=2),
        lambda data, fams: select_k(data, [1, 2], fams, FitConfig(seed=1), restarts=2),
        lambda data, fams: bootstrap_se(data, fams, FitConfig(seed=1, bootstrap_b=5)),
    ], ids=["fit_ifm", "em_fit", "select_k", "bootstrap_se"])
    def test_bad_row_is_named(self, fitter, column, value):
        data = buoy_mixture().sample(200, seed=3)
        data[37, column] = value
        with pytest.raises(DomainError, match=r"rows outside the model domain: \[37\]$"):
            fitter(data, self.BUOY)

    def test_bad_shape_is_domain_error(self):
        with pytest.raises(DomainError, match="nonempty"):
            fit_ifm(np.zeros((10, 2)), ["uniform"] * 3)

    def test_family_count_checked(self):
        with pytest.raises(InvalidParameterError, match="exactly 3"):
            fit_ifm(protein_model().sample(20, seed=1), ["von_mises"] * 2)

    EVALUATORS = [
        lambda data: buoy_mixture().components[0].log_density(data),
        lambda data: buoy_mixture().log_density(data),
        lambda data: fit_ifm(data, BUOY_FAMS),
    ]
    EVALUATOR_IDS = ["TwcmModel.log_density", "MixtureModel.log_density", "fit_ifm"]

    @pytest.mark.parametrize("evaluate", EVALUATORS, ids=EVALUATOR_IDS)
    @pytest.mark.parametrize("column, value", [
        (0, np.nan), (1, np.inf), (0, -np.inf), (2, np.nan), (2, np.inf), (2, 0.0), (2, -0.0),
        (2, -3.0),
    ])
    def test_rows_outside_are_named(self, evaluate, column, value):
        # the one-pass check lets nothing through that the entrywise mask
        # catches, and names every such row, 0-based, in order
        data = buoy_mixture().sample(3000, seed=5)
        bad = [0, 41, 1234, 2999]
        data[bad, column] = value
        with pytest.raises(DomainError, match=r"rows outside the model domain: "
                           r"\[0, 41, 1234, 2999\]$"):
            evaluate(data)

    @pytest.mark.parametrize("evaluate", EVALUATORS, ids=EVALUATOR_IDS)
    def test_more_than_twenty_rows_outside_end_in_ellipsis(self, evaluate):
        data = buoy_mixture().sample(3000, seed=6)
        data[::100, 2] = -1.0
        data[50, 1] = np.nan
        named = [0, 50] + list(range(100, 1900, 100))
        with pytest.raises(DomainError) as info:
            evaluate(data)
        assert str(info.value) == f"rows outside the model domain: {named}..."

    def test_zero_and_negative_angles_are_inside(self):
        # a circular coordinate takes any finite angle; only the linear one
        # must be positive
        data = buoy_mixture().sample(3000, seed=7)
        data[::2, :2] = -0.0
        data[1::2, :2] = -5.0
        assert np.isfinite(buoy_mixture().log_density(data)).all()
