"""Two-step maximum likelihood (marginals first, copula second on the
pseudo-observations), bootstrap standard errors, and AIC/BIC.

The copula step maximizes over the valid region of rho directly: with
rho_ij = a_i a_j it is 3 pieces, each a square on which the log-likelihood
is smooth and falls toward -inf at the edge, its own barrier.  A batched
Newton ascent with analytic derivatives runs in the 3 pieces from fixed
starts, so the result does not depend on any seed.  A piece's Newton
decrement, the gain it has left, ends it: the piece stops once that is
negligible or below what f can resolve, or is retired when, on concave
ground, it trails the best piece by many times that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import TWO_PI, require_positive_density, row_weights, wrap_angle
from .copula import (
    RhoVector,
    _cos_diffs,
    amplitudes,
    copula_log_density,
    normalize_rho,
    require_valid,
)
from .errors import DomainError, FitFailureError, InvalidParameterError
from .marginals import (
    _ARMIJO,
    _DECREMENT_TOL,
    CIRCULAR,
    _weighted_circular_moment,
    family_class,
    fit_mle,
)
from .model import TwcmModel, check_rows, marginal_terms

# In the piece that singles out coordinate i, with j < k the other two, the
# bracket's coefficients play the roles (c1, ij, ik, jk); _COLUMNS[i - 1]
# gives each role's column of phi = (1, C12, C13, C23).
_COLUMNS = np.array([(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 3, 1)])
# bounds the ascent on degenerate data, whose optimum lies on the region's
# edge; the radicand, Heron's product, needs no margin from that edge
_T_CAP = 6.0
_STEP_MAX = 8.0
_EIG_FLOOR = 1e-10  # relative to the total weight
_MAX_HALVINGS = 50
_MAX_ITER = 2000  # Newton iterations per piece
_RETIRE = 10.0  # Newton decrements a piece may trail the best piece by
# f's rounding, relative to sum w / D, which holds for every bracket since
# each of its coefficients is at most 2
_ROUNDING = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class FitConfig:
    """Replicate count and seed of the resampling methods.

    ``bootstrap_b`` is the number of bootstrap replicates.  ``seed`` seeds
    the bootstrap resamples and, in :mod:`twcm.mixture`, EM's random
    starts; the fits themselves are deterministic and read neither.
    """

    bootstrap_b: int = 1000
    seed: int | None = None

    def __post_init__(self):
        if self.bootstrap_b < 1:
            raise InvalidParameterError("bootstrap_b must be positive")


@dataclass(frozen=True)
class FitResult:
    """Fitted model plus likelihood and model-selection bookkeeping."""

    model: TwcmModel
    loglik: float
    aic: float
    bic: float
    p: int
    n: int
    converged: bool
    sign_pattern: tuple[int, int, int]
    iterations: int
    near_limit: bool = False

    def to_dict(self) -> dict:
        d = self.model.to_dict()
        d["fit"] = {
            "loglik": self.loglik,
            "aic": self.aic,
            "bic": self.bic,
            "p": self.p,
            "converged": self.converged,
            "sign_pattern": list(self.sign_pattern),
            "n": self.n,
        }
        return d


def family_domains(families) -> tuple[str, str, str]:
    """The coordinate domains of three marginal families, given as
    :func:`~twcm.marginals.family_class` takes them."""
    if len(families) != 3:
        raise InvalidParameterError("exactly 3 marginal families are required")
    return tuple(family_class(f).domain for f in families)


def information_criteria(loglik: float, p: int, n: int) -> tuple[float, float]:
    """AIC = -2 loglik + 2 p and BIC = -2 loglik + p log n."""
    if n < 1 or p < 0:
        raise InvalidParameterError("need n >= 1 and p >= 0")
    return -2.0 * loglik + 2.0 * p, -2.0 * loglik + p * math.log(n)


@dataclass(frozen=True)
class CopulaFit:
    rho: RhoVector
    loglik: float  # copula log-likelihood on the pseudo-observations
    sign_pattern: tuple[int, int, int]
    converged: bool
    iterations: int
    near_limit: bool


class _Pieces:
    """The weighted copula log-likelihood on the 3 pieces of the valid
    region, in each piece's coordinates t = (t1, t2).

    In the chart of :mod:`twcm.copula`, rho_ij = a_i a_j with the
    amplitudes a, c1 = sum a_i^2, the bracket is |sum a_i e^{i u_i}|^2, and
    the permutation check that singles out coordinate i is
    |a_i| > |a_j| + |a_k|.  Piece i - 1 fixes a_i = 1 and takes

        p = a_j + a_k = tanh t1,  m = a_j - a_k = tanh t2,

    so the piece is exactly (p, m) in (-1, 1)^2; the 4 sign patterns of rho
    are its quadrants, and on an axis (a zero rho) the density stays smooth,
    a bivariate wrapped Cauchy times a uniform.  The radicand, Heron's
    product, is (1 - p^2)(1 - m^2).  The bracket is coef . phi with
    phi = (1, C_ij, C_ik, C_jk) per row and coef = (1 + (p^2 + m^2)/2,
    p + m, p - m, (p^2 - m^2)/2), and the data enter the derivatives only
    through the weighted sums of phi / D and phi phi^T / D^2.
    """

    def __init__(self, u: np.ndarray, w: np.ndarray):
        self.phi = np.column_stack([np.ones(u.shape[0]), *_cos_diffs(*u.T)])
        self.phi2 = (self.phi[:, :, None] * self.phi[:, None, :]).reshape(-1, 16)
        self.w = w
        self.wsum = float(w.sum())

    def value(self, t: np.ndarray, k: np.ndarray):
        """Log-likelihood of pieces ``k`` at ``t`` (less the constant
        -3 W log 2 pi + 2 W log 2; -inf outside the numerically valid set)
        and the brackets, shape (len(k), n)."""
        p, m = np.tanh(t).T
        coef = np.empty((len(k), 4))
        coef[np.arange(len(k))[:, None], _COLUMNS[k]] = np.column_stack(
            [1.0 + 0.5 * (p * p + m * m), p + m, p - m, 0.5 * (p + m) * (p - m)])
        bracket = coef @ self.phi.T
        with np.errstate(divide="ignore", invalid="ignore"):
            # log(2 cosh t), and -W log(cosh t1 cosh t2) is half the log-radicand
            f = -self.wsum * np.logaddexp(t, -t).sum(axis=1) - np.log(bracket) @ self.w
        f[~np.isfinite(f)] = -np.inf
        return f, bracket

    def ascent(self, t: np.ndarray, k: np.ndarray, bracket: np.ndarray):
        """Newton decrement g^T step, modified Newton step |H|^-1 g (cut to
        length 8) of pieces ``k`` at ``t``, and whether each piece's Hessian
        is negative definite there."""
        m = len(k)
        x = np.tanh(t)
        sech2 = 1.0 / np.cosh(t) ** 2  # 1 - x^2, which keeps its digits
        q = self.w / bracket
        rows = np.arange(m)[:, None]
        cols = _COLUMNS[k]
        s1 = (q @ self.phi)[rows, cols]
        s2 = ((q / bracket) @ self.phi2).reshape(m, 4, 4)[rows[:, :, None], cols[:, :, None],
                                                          cols[:, None, :]]
        # coef's derivatives in t, roles (c1, ij, ik, jk) by (t1, t2), are
        # v * sech^2 t with v = d coef / d(p, m); the second derivatives are
        # diagonal in t
        one = np.ones(m)
        v = np.stack([np.column_stack([x[:, 0], one, one, x[:, 0]]),
                      np.column_stack([x[:, 1], one, -one, -x[:, 1]])], axis=2)
        dv = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
        jac = v * sech2[:, None, :]
        v_s1 = np.einsum("mca,mc->ma", v, s1)
        grad = -self.wsum * x - sech2 * v_s1
        hess = np.einsum("mca,mcd,mdb->mab", jac, s2, jac)
        hess[:, [0, 1], [0, 1]] -= sech2 * (self.wsum + sech2 * (s1 @ dv) - 2.0 * x * v_s1)
        # ascend along |eigenvalues| so the step is uphill wherever the
        # Hessian is not negative definite
        lam, vec = np.linalg.eigh(hess)
        concave = lam[:, -1] < 0.0
        lam = np.maximum(np.abs(lam), _EIG_FLOOR * self.wsum)
        step = np.einsum("mab,mb->ma", vec, np.einsum("mab,ma->mb", vec, grad) / lam)
        norm = np.linalg.norm(step, axis=1)
        step *= np.minimum(1.0, _STEP_MAX / np.maximum(norm, 1e-300))[:, None]
        return np.sum(grad * step, axis=1), step, concave


def _piece_of(rho: RhoVector) -> tuple[int, np.ndarray]:
    """Piece and coordinates of a valid rho: the piece of the largest |a_i|
    of its :func:`~twcm.copula.amplitudes` a, at a / a_i."""
    require_valid(rho)
    a = np.array(amplitudes(rho))
    k = int(np.argmax(np.abs(a)))
    a_j, a_k = np.delete(a, k) / a[k]
    return k, np.arctanh([a_j + a_k, a_j - a_k])


def _rho_at(k: int, t: np.ndarray) -> RhoVector:
    """The rho_ij = a_i a_j of piece ``k`` at ``t``, normalized to product 1.
    An a_j or a_k of modulus below eps, as on an axis, where a rho is 0 (t = 0
    on rows whose pair cosines sum to 0), takes modulus eps: f moves by
    O(eps W), and no a_j a_k underflows."""
    p, m = np.tanh(t)
    a = np.ones(3)
    a[np.arange(3) != k] = 0.5 * np.array([p + m, p - m])
    a = np.copysign(np.maximum(np.abs(a), np.finfo(float).eps), a)
    return normalize_rho(RhoVector(a[0] * a[1], a[0] * a[2], a[1] * a[2]))


def fit_copula(u, weights=None, start: RhoVector | None = None) -> CopulaFit:
    """Maximize the copula log-likelihood of the (n, 3) copula-scale angles
    ``u`` over the 3 pieces of the valid region, in the coordinates t of
    :class:`_Pieces`, by a batched Newton ascent from t = 0 (the
    independence copula), or from ``start`` (a valid rho, put inside the
    cap) in its piece, which then ends no lower than ``start``.

    A piece takes its last step and stops as converged once its Newton
    decrement g^T |H|^-1 g, the gain it has left, is at most 1e-10 W (W the
    total weight).  A decrement of at most 16 eps sum w / D (D the bracket)
    is below what f can resolve: the piece takes no step and stops, as
    converged if the decrement is also at most 1e-10 W and as not converged
    otherwise.  A piece also stops as not converged after 2000 iterations,
    or at the cap |t| = 6, the region's only limit, when a step the cap
    cuts does not move it or, on concave ground, lands it on the cap; for
    the winner that sets ``near_limit``.  It also stops when no step
    raises f.  A piece on concave ground that trails the
    best by more than 10 decrements cannot win and is retired.  The result
    is normalized to product 1, with a winner exactly on an axis of its
    piece, where a rho is 0, moved off it as :func:`_rho_at` says.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.ndim != 2 or u.shape[1] != 3 or u.shape[0] == 0:
        raise InvalidParameterError("pseudo-observations must be a nonempty (n, 3) array")
    if not np.isfinite(u).all():
        raise DomainError("pseudo-observations must be finite")
    w = row_weights(weights, u.shape[0])
    pieces = _Pieces(u, w)
    k_all = np.arange(3)
    t = np.zeros((3, 2))
    if start is not None:
        k0, t0 = _piece_of(start)
        t[k0] = np.clip(t0, -_T_CAP, _T_CAP)
    f, bracket = pieces.value(t, k_all)
    iterations = np.zeros(3, dtype=int)
    converged = np.zeros(3, dtype=bool)
    capped = np.zeros(3, dtype=bool)
    active = k_all[np.isfinite(f)]
    while active.size:
        decrement, step, concave = pieces.ascent(t[active], active, bracket[active])
        # where the Hessian is negative definite, the decrement is the gain
        # a piece has left, half of it near a quadratic optimum.  The best f
        # never falls, so a piece trailing it by many decrements cannot win.
        # A NaN decrement keeps the piece.
        keep = ~(concave & (f.max() - f[active] > _RETIRE * decrement))
        if not keep.all():
            active, step, decrement, concave = (active[keep], step[keep], decrement[keep],
                                                concave[keep])
            if not active.size:
                break
        small = decrement <= _DECREMENT_TOL * pieces.wsum
        # a gain that f cannot resolve: the line search could not see it, so
        # such a piece takes no step
        unresolved = decrement <= _ROUNDING * (1.0 / bracket[active]) @ w
        lost = ~small & unresolved
        # cut each step at the cap
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.min((_T_CAP - np.sign(step) * t[active]) / np.abs(step), axis=1)
        cut = np.where(room < 1.0, room, 1.0)
        moved = np.zeros(active.size, dtype=bool)
        landed = np.zeros(active.size, dtype=bool)
        alpha = 1.0
        pending = np.flatnonzero(~unresolved & (cut > 0.0))
        for _ in range(_MAX_HALVINGS):
            if not pending.size:
                break
            k = active[pending]
            trial = np.clip(t[k] + (alpha * cut[pending, None]) * step[pending],
                            -_T_CAP, _T_CAP)
            f_try, b_try = pieces.value(trial, k)
            # a step moves only if it raises f, also where the Armijo margin
            # rounds away
            ok = f_try > f[k] + _ARMIJO * alpha * cut[pending] * decrement[pending]
            t[k[ok]], f[k[ok]], bracket[k[ok]] = trial[ok], f_try[ok], b_try[ok]
            moved[pending[ok]] = True
            landed[pending[ok]] = alpha == 1.0
            pending = pending[~ok]
            alpha *= 0.5
        iterations[active] += 1
        # a piece stops at the cap when its cut step does not move it, or
        # when on concave ground, where the Newton step is trusted, its
        # optimum lies beyond the cap: the cut step lands on it
        at_cap = ~lost & (cut < 1.0) & (~moved | (concave & landed))
        capped[active[at_cap]] = True
        # the decrement stops a piece on any ground, concave or not
        stop = ~moved | small | lost | at_cap
        converged[active[stop & ~lost & ~at_cap]] = True
        active = active[~stop & (iterations[active] < _MAX_ITER)]

    best = int(np.argmax(f))
    if not np.isfinite(f[best]):
        raise FitFailureError("no valid copula parameters found in any piece")
    rho = _rho_at(best, t[best])
    return CopulaFit(
        rho=rho,
        loglik=float(w @ copula_log_density(u, rho)),
        sign_pattern=tuple(int(s) for s in np.sign(rho.as_array())),
        converged=bool(converged[best]),
        iterations=int(iterations[best]),
        near_limit=bool(capped[best]),
    )


def fit_ifm(data, families, config: FitConfig = FitConfig(), weights=None,
            start: RhoVector | None = None) -> FitResult:
    """Two-step fit: weighted marginal MLE per coordinate, then copula MLE
    on u = 2*pi*F_hat(theta), started from ``start`` as :func:`fit_copula` is.

    Rows outside the families' domains raise :class:`DomainError`, see
    :func:`~twcm.model.check_rows`.  The fit is deterministic and does not
    read ``config``."""
    data = check_rows(data, family_domains(families))
    n = data.shape[0]
    w = row_weights(weights, n)
    margs = tuple(fit_mle(fam, data[:, i], w) for i, fam in enumerate(families))
    log_f, u = marginal_terms(margs, data)
    cop = fit_copula(np.column_stack(u), weights=w, start=start)
    model = TwcmModel(rho=cop.rho, marginals=margs)
    # the joint log density is the copula's plus 3 log 2 pi plus the
    # marginal log densities, so the marginal CDFs are not evaluated again
    marg_ll = sum(log_f)
    require_positive_density(marg_ll)
    loglik = cop.loglik + 3.0 * w.sum() * math.log(TWO_PI) + float(w @ marg_ll)
    p = model.n_free_params
    aic, bic = information_criteria(loglik, p, n)
    return FitResult(
        model=model, loglik=loglik, aic=aic, bic=bic, p=p, n=n,
        converged=cop.converged, sign_pattern=cop.sign_pattern,
        iterations=cop.iterations, near_limit=cop.near_limit,
    )


def parameter_vector(result: FitResult) -> dict[str, float]:
    out = {
        "rho12": result.model.rho.rho12,
        "rho13": result.model.rho.rho13,
        "rho23": result.model.rho.rho23,
    }
    for i, m in enumerate(result.model.marginals, start=1):
        for name, value in m.params_dict().items():
            out[f"{name}{i}"] = value
    return out


def _circular_sd(angles: np.ndarray) -> float:
    rbar = min(_weighted_circular_moment(angles, np.ones(angles.size))[1], 1.0 - 1e-15)
    return float(np.sqrt(-2.0 * np.log(rbar)))


@dataclass(frozen=True)
class BootstrapResult:
    """Componentwise standard errors over B nonparametric resamples."""

    se: dict[str, float]
    estimates: dict[str, np.ndarray]
    b_requested: int
    b_failed: int
    warnings: tuple[str, ...] = field(default_factory=tuple)


def bootstrap_se(data, families, config: FitConfig = FitConfig()) -> BootstrapResult:
    """Refit on B resamples drawn with replacement and report the standard
    deviation of each parameter estimate (circular for locations mu).

    The data are checked once, as :func:`fit_ifm` checks them, so an
    invalid row is a :class:`DomainError` naming it, not failed refits."""
    domains = family_domains(families)
    data = check_rows(data, domains)
    n = data.shape[0]
    b = config.bootstrap_b
    circular_locs = {f"mu{i}" for i, d in enumerate(domains, start=1) if d == CIRCULAR}
    rng = np.random.default_rng(config.seed)
    estimates: dict[str, list[float]] = {}
    failed = 0
    for _ in range(b):
        idx = rng.integers(0, n, size=n)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = fit_ifm(data[idx], families)
        except (FitFailureError, InvalidParameterError):
            failed += 1
            continue
        for name, value in parameter_vector(res).items():
            estimates.setdefault(name, []).append(value)

    notes = []
    if failed > 0.10 * b:
        notes.append(f"{failed} of {b} bootstrap replicates failed to fit")
    if b - failed < 2:
        notes.append("fewer than 2 successful replicates: standard errors are degenerate")
    se = {}
    est_arrays = {}
    for name, vals in estimates.items():
        arr = np.asarray(vals)
        est_arrays[name] = arr
        if name in circular_locs:
            se[name] = _circular_sd(wrap_angle(arr)) if arr.size > 1 else 0.0
        else:
            se[name] = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return BootstrapResult(
        se=se, estimates=est_arrays, b_requested=b, b_failed=failed,
        warnings=tuple(notes),
    )
