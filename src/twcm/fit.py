"""Two-step maximum likelihood (marginals first, copula second on the
pseudo-observations), bootstrap standard errors, and AIC/BIC.

The copula step maximizes over the valid region of rho directly.  That
region is 12 connected pieces, and in each the log-likelihood is smooth in
two unconstrained coordinates and falls to -inf at the boundary (the c2
radicand vanishes there), so it is its own barrier.  A batched Newton
ascent with analytic derivatives runs in all 12 pieces from fixed starts;
the result does not depend on any seed.  A piece's Newton decrement, the
gain it has left, ends it: the piece stops once that is negligible, or is
retired when, on concave ground, it trails the best piece by many times
that, so the loop ends soon after the winner converges.
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
    c1_and_radicand,
    copula_log_density,
    normalize_rho,
    require_valid,
    validate_rho,
)
from .errors import FitFailureError, InvalidParameterError
from .marginals import CIRCULAR, family_class, fit_mle
from .model import TwcmModel, check_rows, marginal_terms

SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

# In the piece that singles out coordinate i, the pairs play the roles
# (ij, ik, jk); _ROLES[i] gives each role's index in (rho12, rho13, rho23).
_ROLES = {1: (0, 1, 2), 2: (0, 2, 1), 3: (1, 2, 0)}
_PIECES = tuple((signs, i) for signs in SIGN_PATTERNS for i in (1, 2, 3))
_PIECE_ROLES = np.array([_ROLES[i] for _, i in _PIECES])
_PIECE_SIGNS = np.array([[sg[r] for r in _ROLES[i]] for sg, i in _PIECES], dtype=float)
# exponents of log|rho| (role order) in the three monomials summing to c1
_C1_EXPONENTS = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
_C1_OUTER = np.einsum("ka,kb->kab", _C1_EXPONENTS, _C1_EXPONENTS)
_T_CAP = 40.0  # past this a piece is walking to a limit of its region
_STEP_MAX = 8.0
_EIG_FLOOR = 1e-10  # relative to the total weight
_ARMIJO = 1e-4
_MAX_HALVINGS = 50
_NEAR_LIMIT = 1e3
_MAX_ITER = 2000  # Newton iterations per piece
_TOL = 1e-10  # Newton decrement, relative to the total weight, of a last step
_RETIRE = 10.0  # Newton decrements a piece may trail the best piece by


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
    """The weighted copula log-likelihood on the 12 pieces of the valid
    region, in each piece's unconstrained coordinates t = (t1, t2).

    Piece (signs, i) holds the rho with those signs whose permutation
    check singles out coordinate i.  Its pairs play the roles (ij, ik, jk)
    and, with |rho_ij rho_ik| = 1 fixing the scale,

        t1 = log(|rho_ij| / |rho_ik|),
        t2 = logit s,  s = |rho_jk| (|rho_ij| + |rho_ik|) / |rho_ij rho_ik|,

    so the piece is exactly t in R^2 (s < 1 is its permutation check).
    The bracket is coef . phi with phi = (1, C12, C13, C23) per row, and
    the data enter the derivatives only through the weighted sums of
    phi / D and phi phi^T / D^2.
    """

    def __init__(self, u: np.ndarray, w: np.ndarray):
        self.phi = np.column_stack([np.ones(u.shape[0]), *_cos_diffs(*u.T)])
        self.phi2 = (self.phi[:, :, None] * self.phi[:, None, :]).reshape(-1, 16)
        self.w = w
        self.wsum = float(w.sum())

    def rho(self, t: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Signed rho of pieces ``k`` at ``t``, in role order."""
        return _PIECE_SIGNS[k] * np.exp(_log_abs_rho(t))

    def value(self, t: np.ndarray, k: np.ndarray):
        """Log-likelihood of pieces ``k`` at ``t`` (less the constant
        -3 W log 2 pi; -inf outside the numerically valid set) and the
        brackets, shape (len(k), n)."""
        rho = self.rho(t, k)
        c1, radicand = c1_and_radicand(rho[:, 0], rho[:, 1], rho[:, 2])
        coef = np.zeros((len(k), 4))
        coef[:, 0] = c1
        np.put_along_axis(coef, 1 + _PIECE_ROLES[k], 2.0 * rho, axis=1)
        bracket = coef @ self.phi.T
        with np.errstate(divide="ignore", invalid="ignore"):
            f = 0.5 * self.wsum * np.log(radicand) - np.log(bracket) @ self.w
        f[~np.isfinite(f)] = -np.inf
        return f, bracket

    def ascent(self, t: np.ndarray, k: np.ndarray, bracket: np.ndarray):
        """Newton decrement g^T step, modified Newton step |H|^-1 g (cut to
        length 8) of pieces ``k`` at ``t``, and whether each piece's Hessian
        is negative definite there."""
        m = len(k)
        ell = _log_abs_rho(t)
        x = np.exp(ell)
        rho = _PIECE_SIGNS[k] * x
        # c1 and the radicand are sums of monomials in |rho|: derivatives
        # in ell = log|rho| first, then the chain rule to t
        mono = np.exp(ell @ _C1_EXPONENTS.T)
        c1_l = mono @ _C1_EXPONENTS
        c1_ll = np.tensordot(mono, _C1_OUTER, axes=1)
        _, radicand = c1_and_radicand(rho[:, 0], rho[:, 1], rho[:, 2])
        lr_l = (2.0 * mono**2 @ _C1_EXPONENTS - 4.0 * x**2) / radicand[:, None]
        lr_ll = (
            (4.0 * np.tensordot(mono**2, _C1_OUTER, axes=1) - 8.0 * _diag(x**2))
            / radicand[:, None, None]
            - lr_l[:, :, None] * lr_l[:, None, :]
        )
        q = self.w / bracket
        feat = np.column_stack([np.zeros(m, dtype=int), 1 + _PIECE_ROLES[k]])
        s1 = np.take_along_axis(q @ self.phi, feat, axis=1)
        s2 = ((q / bracket) @ self.phi2).reshape(m, 4, 4)
        s2 = s2[np.arange(m)[:, None, None], feat[:, :, None], feat[:, None, :]]
        # bracket derivatives in ell, as coefficients of (1, C_ij, C_ik, C_jk)
        b = np.zeros((m, 3, 4))
        b[:, :, 0] = c1_l
        b[:, :, 1:] = _diag(2.0 * rho)
        half_w = 0.5 * self.wsum
        g_l = half_w * lr_l - np.einsum("mac,mc->ma", b, s1)
        h_l = (half_w * lr_ll - c1_ll * s1[:, 0, None, None]
               - _diag(2.0 * rho * s1[:, 1:]) + b @ s2 @ b.transpose(0, 2, 1))
        th = np.tanh(0.5 * t[:, 0])
        s = np.exp(-np.logaddexp(0.0, -t[:, 1]))
        jac = np.zeros((m, 3, 2))
        jac[:, 0, 0], jac[:, 1, 0] = 0.5, -0.5
        jac[:, 2, 0], jac[:, 2, 1] = -0.5 * th, 1.0 - s
        grad = np.einsum("mai,ma->mi", jac, g_l)
        # only log|rho_jk| is nonlinear in t
        hess = (np.einsum("mai,mab,mbj->mij", jac, h_l, jac)
                + g_l[:, 2, None, None] * _diag(np.column_stack(
                    [-0.25 * (1.0 - th * th), -s * (1.0 - s)])))
        # ascend along |eigenvalues| so the step is uphill wherever the
        # Hessian is not negative definite
        lam, vec = np.linalg.eigh(hess)
        concave = lam[:, -1] < 0.0
        lam = np.maximum(np.abs(lam), _EIG_FLOOR * self.wsum)
        step = np.einsum("mab,mb->ma", vec, np.einsum("mab,ma->mb", vec, grad) / lam)
        norm = np.linalg.norm(step, axis=1)
        step *= np.minimum(1.0, _STEP_MAX / np.maximum(norm, 1e-300))[:, None]
        return np.sum(grad * step, axis=1), step, concave


def _diag(v: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices from the rows of ``v``."""
    out = np.zeros(v.shape + (v.shape[-1],))
    idx = np.arange(v.shape[-1])
    out[..., idx, idx] = v
    return out


def _log_abs_rho(t: np.ndarray) -> np.ndarray:
    """log|rho| in role order at piece coordinates ``t`` (m, 2)."""
    h = 0.5 * t[:, 0]
    log_s = -np.logaddexp(0.0, -t[:, 1])
    return np.column_stack([h, -h, log_s - np.logaddexp(h, -h)])


def _piece_of(rho: RhoVector) -> tuple[int, np.ndarray]:
    """Index in ``_PIECES`` and coordinates of a valid rho."""
    require_valid(rho)
    i = validate_rho(rho).passing_permutations[0]
    signs = tuple(int(np.sign(v)) for v in rho.as_array())
    x, y, z = np.abs(rho.as_array())[list(_ROLES[i])]
    s = z * (x + y) / (x * y)
    return _PIECES.index((signs, i)), np.array([math.log(x / y), math.log(s / (1.0 - s))])


def fit_copula(u, weights=None, start: RhoVector | None = None) -> CopulaFit:
    """Maximize the copula log-likelihood over the valid region.

    ``u`` is an (n, 3) array of copula-scale angles.  The valid region is
    12 connected pieces (4 sign patterns of positive product times the 3
    permutation checks); each gets unconstrained coordinates in which the
    log-likelihood, scale-invariant in rho, needs no product constraint and
    falls to -inf at the piece's boundary.  All pieces run a batched
    Newton ascent with analytic derivatives from t = 0, or from ``start``
    (a valid rho) in the piece that contains it, so that piece ends no
    lower than ``start``.  A piece whose Newton decrement g^T |H|^-1 g,
    the gain it has left, is at most 1e-10 times the total weight takes
    that step and stops as converged.  It also stops when no step is
    accepted, after 2000 iterations, or when a coordinate passes |t| = 40,
    walking to a limit of the region; a winner stopped either of the last
    two ways is reported as not converged.  A piece is retired when its
    Hessian H is negative definite and it trails the best piece by more
    than 10 decrements; such a piece cannot win.  The result is
    deterministic and normalized to product 1.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.ndim != 2 or u.shape[1] != 3 or u.shape[0] == 0:
        raise InvalidParameterError("pseudo-observations must be a nonempty (n, 3) array")
    w = row_weights(weights, u.shape[0])
    pieces = _Pieces(u, w)
    n_pieces = len(_PIECES)
    k_all = np.arange(n_pieces)
    t = np.zeros((n_pieces, 2))
    if start is not None:
        k0, t0 = _piece_of(start)
        t[k0] = t0
    f, bracket = pieces.value(t, k_all)
    iterations = np.zeros(n_pieces, dtype=int)
    converged = np.zeros(n_pieces, dtype=bool)
    active = k_all[np.isfinite(f) & (np.abs(t).max(axis=1) <= _T_CAP)]
    while active.size:
        decrement, step, concave = pieces.ascent(t[active], active, bracket[active])
        # where the Hessian is negative definite, the decrement is the gain
        # a piece has left: all of it on the e^-t tail toward a limit of
        # its region, half of it near a quadratic optimum.  The best f never
        # falls, so a piece trailing it by many decrements cannot win.  A
        # NaN decrement keeps the piece.
        keep = ~(concave & (f.max() - f[active] > _RETIRE * decrement))
        if not keep.all():
            active, step, decrement = active[keep], step[keep], decrement[keep]
            if not active.size:
                break
        moved = np.zeros(active.size, dtype=bool)
        alpha = 1.0
        pending = np.arange(active.size)
        for _ in range(_MAX_HALVINGS):
            k = active[pending]
            trial = t[k] + alpha * step[pending]
            f_try, b_try = pieces.value(trial, k)
            ok = f_try >= f[k] + _ARMIJO * alpha * decrement[pending]
            t[k[ok]], f[k[ok]], bracket[k[ok]] = trial[ok], f_try[ok], b_try[ok]
            moved[pending[ok]] = True
            pending = pending[~ok]
            if not pending.size:
                break
            alpha *= 0.5
        iterations[active] += 1
        # on any ground, so that a piece walking the e^-t tail to a limit
        # of its region stops once the tail is flat
        flat = ~moved | (decrement <= _TOL * pieces.wsum)
        out = np.abs(t[active]).max(axis=1) > _T_CAP
        converged[active[flat & ~out]] = True
        active = active[~(flat | out) & (iterations[active] < _MAX_ITER)]

    best = int(np.argmax(f))
    if not np.isfinite(f[best]):
        raise FitFailureError("no valid copula parameters found in any piece")
    signs, _ = _PIECES[best]
    r = np.empty(3)
    r[_PIECE_ROLES[best]] = pieces.rho(t[best:best + 1], np.array([best]))[0]
    rho = normalize_rho(RhoVector(*r))
    return CopulaFit(
        rho=rho,
        loglik=float(w @ copula_log_density(u, rho)),
        sign_pattern=signs,
        converged=bool(converged[best]),
        iterations=int(iterations[best]),
        near_limit=bool(np.max(np.abs(rho.as_array())) > _NEAR_LIMIT),
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
    rbar = np.abs(np.mean(np.exp(1j * angles)))
    rbar = min(rbar, 1.0 - 1e-15)
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
