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
    constants,
    log_density_cosines,
    normalize_rho,
    require_valid,
)
from .errors import DomainError, InvalidParameterError
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
# v = d coef / d(p, m) in roles (c1, ij, ik, jk) by (t1, t2) is
# ((x1, x2), (1, 1), (1, -1), (x1, -x2)) at x = tanh t: x where _V_IS_X,
# else 1, times _V_SIGNS; _DV is its derivative in x
_V_IS_X = np.array([[True, True], [False, False], [False, False], [True, True]])
_V_SIGNS = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, -1.0]])
_DV = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
# _ROLES[k] gives each column of phi its role in piece k, _COLUMNS inverted
_ROLES = tuple(tuple(r) for r in np.argsort(_COLUMNS, axis=1).tolist())
for _a in (_COLUMNS, _V_IS_X, _V_SIGNS, _DV):
    _a.flags.writeable = False
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

    :meth:`value` and :meth:`ascent` batch the work over rows across the
    pieces ``k`` they are given: one matmul over the n rows for all of
    them, and one stacked ``eigh``.  What belongs to one piece alone (its
    4 coefficients, the cut of its step to length 8 and its decrement) is
    formed on Python floats, in the order of the NumPy expressions it
    replaced, and returned as lists, one entry a piece.
    """

    def __init__(self, u: np.ndarray, w: np.ndarray):
        self.phi = np.column_stack([np.ones(u.shape[0]), *_cos_diffs(*u.T)])
        self.phi2 = (self.phi[:, :, None] * self.phi[:, None, :]).reshape(-1, 16)
        self.w = w
        self.wsum = float(w.sum())

    def value(self, t: np.ndarray, k):
        """Log-likelihood of pieces ``k`` at ``t`` (less the constant
        -3 W log 2 pi + 2 W log 2; -inf outside the numerically valid set),
        a list, and the brackets, shape (len(k), n)."""
        coef = []
        for (p, m), piece in zip(np.tanh(t).tolist(), k):
            roles = (1.0 + 0.5 * (p * p + m * m), p + m, p - m, 0.5 * (p + m) * (p - m))
            coef.append([roles[r] for r in _ROLES[piece]])
        bracket = np.array(coef) @ self.phi.T
        with np.errstate(divide="ignore", invalid="ignore"):
            # log(2 cosh t), and -W log(cosh t1 cosh t2) is half the log-radicand
            log_cosh = np.logaddexp(t, -t).tolist()
            log_d = (np.log(bracket) @ self.w).tolist()
        f = (-self.wsum * (c1 + c2) - d for (c1, c2), d in zip(log_cosh, log_d))
        return [x if math.isfinite(x) else -math.inf for x in f], bracket

    def ascent(self, t: np.ndarray, k, bracket: np.ndarray):
        """Newton decrement g^T step, modified Newton step |H|^-1 g (cut to
        length 8) of pieces ``k`` at ``t``, and whether each piece's Hessian
        is negative definite there, as lists, one entry a piece."""
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
        v = np.where(_V_IS_X, x[:, None, :], 1.0) * _V_SIGNS
        jac = v * sech2[:, None, :]
        v_s1 = np.einsum("mca,mc->ma", v, s1)
        grad = -self.wsum * x - sech2 * v_s1
        hess = np.einsum("mca,mcd,mdb->mab", jac, s2, jac)
        diag = sech2 * (self.wsum + sech2 * (s1 @ _DV) - 2.0 * x * v_s1)
        hess[:, 0, 0] -= diag[:, 0]
        hess[:, 1, 1] -= diag[:, 1]
        # ascend along |eigenvalues| so the step is uphill wherever the
        # Hessian is not negative definite
        lam, vec = np.linalg.eigh(hess)
        concave = (lam[:, -1] < 0.0).tolist()
        lam = np.maximum(np.abs(lam), _EIG_FLOOR * self.wsum)
        step = np.einsum("mab,mb->ma", vec, np.einsum("mab,ma->mb", vec, grad) / lam).tolist()
        decrement = []
        for s, (g1, g2) in zip(step, grad.tolist()):
            # NaN as the first argument of min and max stays NaN
            cut = min(_STEP_MAX / max(math.sqrt(s[0] * s[0] + s[1] * s[1]), 1e-300), 1.0)
            s[0] *= cut
            s[1] *= cut
            decrement.append(g1 * s[0] + g2 * s[1])
        return decrement, step, concave


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


def _cut(t: list[float], step: list[float]) -> float:
    """The fraction of ``step`` from ``t`` that keeps every |t_j| within
    the cap, at most 1: a zero component sets no bound, and a NaN one gives
    1, so that the trial point is NaN and fails the line search."""
    cut = 1.0
    for t_j, s_j in zip(t, step):
        if s_j > 0.0:
            room = (_T_CAP - t_j) / s_j
        elif s_j < 0.0:
            room = (_T_CAP + t_j) / -s_j
        elif s_j == 0.0:
            continue
        else:
            return 1.0
        if room < cut:
            cut = room
    return cut


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

    The ascent runs on the weights scaled by the power of two that puts W
    in [1/2, 1), which moves no step or stop, so that f stays finite for
    any finite W; the log-likelihood is in the caller's scale.

    The work over rows, in :meth:`_Pieces.value` and
    :meth:`_Pieces.ascent`, is batched over the pieces still running.  The
    decisions of each piece (retirement, the stop rules, the cut at the
    cap, and the line search's trial points and Armijo test) run on Python
    floats, in the operation order of the NumPy masks they replaced, so
    that the fit is theirs bit for bit: on at most 3 pieces a NumPy call
    costs more than its arithmetic.  A loop batched over R datasets would
    make these decisions scale with R, and masks could pay again there.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.ndim != 2 or u.shape[1] != 3 or u.shape[0] == 0:
        raise InvalidParameterError("pseudo-observations must be a nonempty (n, 3) array")
    if not np.isfinite(u).all():
        raise DomainError("pseudo-observations must be finite")
    w = row_weights(weights, u.shape[0])
    pieces = _Pieces(u, np.ldexp(w, -math.frexp(w.sum())[1]))
    t = np.zeros((3, 2))
    if start is not None:
        k0, t0 = _piece_of(start)
        t[k0] = np.clip(t0, -_T_CAP, _T_CAP)
    f, bracket = pieces.value(t, range(3))
    t = t.tolist()
    iterations = [0, 0, 0]
    converged = [False, False, False]
    capped = [False, False, False]
    active = [k for k in range(3) if math.isfinite(f[k])]
    while active:
        decrement, step, concave = pieces.ascent(
            np.array([t[k] for k in active]), active, bracket[active])
        # where the Hessian is negative definite, the decrement is the gain
        # a piece has left, half of it near a quadratic optimum.  The best f
        # never falls, so a piece trailing it by many decrements cannot win.
        # A NaN decrement keeps the piece.
        best_f = max(f)
        keep = [i for i, k in enumerate(active)
                if not (concave[i] and best_f - f[k] > _RETIRE * decrement[i])]
        if len(keep) < len(active):
            if not keep:
                break
            active, decrement, step, concave = ([a[i] for i in keep] for a in (
                active, decrement, step, concave))
        # a gain that f cannot resolve: the line search could not see it, so
        # such a piece takes no step
        rounding = (_ROUNDING * (1.0 / bracket[active]) @ pieces.w).tolist()
        cut = [_cut(t[k], s) for k, s in zip(active, step)]
        moved = [False] * len(active)
        landed = [False] * len(active)
        alpha = 1.0
        pending = [i for i, d in enumerate(decrement) if not d <= rounding[i] and cut[i] > 0.0]
        for _ in range(_MAX_HALVINGS):
            if not pending:
                break
            trial = []
            for i in pending:
                t_k, s, a = t[active[i]], step[i], alpha * cut[i]
                trial.append([min(max(t_k[0] + a * s[0], -_T_CAP), _T_CAP),
                              min(max(t_k[1] + a * s[1], -_T_CAP), _T_CAP)])
            f_try, b_try = pieces.value(np.array(trial), [active[i] for i in pending])
            failed = []
            for r, i in enumerate(pending):
                k = active[i]
                # a step moves only if it raises f, also where the Armijo
                # margin rounds away
                if f_try[r] > f[k] + _ARMIJO * alpha * cut[i] * decrement[i]:
                    t[k], f[k], bracket[k] = trial[r], f_try[r], b_try[r]
                    moved[i] = True
                    landed[i] = alpha == 1.0
                else:
                    failed.append(i)
            pending = failed
            alpha *= 0.5
        still = []
        for i, k in enumerate(active):
            iterations[k] += 1
            small = decrement[i] <= _DECREMENT_TOL * pieces.wsum
            lost = not small and decrement[i] <= rounding[i]
            # a piece stops at the cap when its cut step does not move it,
            # or when on concave ground, where the Newton step is trusted,
            # its optimum lies beyond the cap: the cut step lands on it
            at_cap = not lost and cut[i] < 1.0 and (not moved[i] or (concave[i] and landed[i]))
            # the decrement stops a piece on any ground, concave or not
            if not moved[i] or small or lost or at_cap:
                capped[k] = at_cap
                converged[k] = not (lost or at_cap)
            elif iterations[k] < _MAX_ITER:
                still.append(k)
        active = still

    # f is finite at t = 0, where every bracket is 1, and t moves only
    # when f rises, so the best piece's f is finite
    best = f.index(max(f))
    rho = _rho_at(best, np.array(t[best]))
    c12, c13, c23 = pieces.phi[:, 1:].T
    return CopulaFit(
        rho=rho,
        loglik=float(w @ log_density_cosines(constants(rho), rho, c12, c13, c23)),
        sign_pattern=tuple(int(s) for s in np.sign(rho.as_array())),
        converged=converged[best],
        iterations=iterations[best],
        near_limit=capped[best],
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
        except InvalidParameterError:
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
