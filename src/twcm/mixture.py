"""Finite mixtures of trivariate copula models for hyper-cylindrical
clustering, fitted by EM with a two-step (marginals-then-copula) M-step.

The two-step fit raises a component's expected complete-data log-likelihood
only approximately.  Where an M-step's refits together lower the observed
log-likelihood, only the refits that raised their component's part are kept
(generalized EM, Dempster, Laird & Rubin 1977), so it cannot fall.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._util import as_rng, float_if_triple, require_positive_density
from .errors import ComponentCollapseError, InvalidParameterError
from .fit import FitConfig, family_domains, fit_ifm, information_criteria
from .marginals import family_class
from .model import JsonFile, TwcmModel, _draw_rows, _score_rows, check_rows, log_sum_exp

_WEIGHT_SUM_TOL = 1e-12
_COLLAPSE_FRACTION = 1e-3
_MONOTONE_SLACK = 1e-8
_REL_TOL = 1e-6  # relative log-likelihood change at which EM stops


@dataclass(frozen=True)
class MixtureModel(JsonFile):
    """K component weights plus K component models."""

    weights: tuple[float, ...]
    components: tuple[TwcmModel, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != len(self.components) or w.size < 1:
            raise InvalidParameterError("one weight per component is required")
        if np.any(w <= 0.0) or abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidParameterError("weights must be positive and sum to 1")
        tags = {tuple(m.family for m in c.marginals) for c in self.components}
        if len(tags) > 1:
            raise InvalidParameterError(
                f"components must share marginal families, got {sorted(tags)}"
            )
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def domains(self) -> tuple[str, str, str]:
        """The coordinate domains, shared by every component."""
        return self.components[0].domains

    @property
    def n_free_params(self) -> int:
        """Free parameters of the mixture, see :func:`mixture_parameter_count`."""
        return mixture_parameter_count(self.k, [m.family for m in self.components[0].marginals])

    def component_log_densities(self, data) -> np.ndarray:
        """(n, K) matrix of log(pi_k) + log f_k; -inf where f_k is zero."""
        return _score_rows(self.components, data, np.log(self.weights))[0]

    def log_density(self, data):
        """Mixture log density at one triple or an (n, 3) block."""
        return float_if_triple(data, _score_rows(self.components, data, np.log(self.weights))[1])

    def sample(self, n: int, seed=None, return_labels: bool = False):
        """Draw n >= 0 observations; optionally also return component labels."""
        if n < 0:
            raise InvalidParameterError(f"sample count n must be >= 0, got {n}")
        rng = as_rng(seed)
        labels = rng.choice(self.k, size=n, p=np.asarray(self.weights))
        out = _draw_rows(self.components, rng, n, labels)
        return (out, labels) if return_labels else out

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "components": [c.to_dict() for c in self.components],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureModel":
        return cls(
            weights=tuple(map(float, d["weights"])),
            components=tuple(TwcmModel.from_dict(c) for c in d["components"]),
        )


def responsibilities(model: MixtureModel, data) -> np.ndarray:
    """Posterior component probabilities per row, computed in log space;
    raises on rows where every component has zero density."""
    return _e_step(*_score_rows(model.components, data, np.log(model.weights)))[1]


def _e_step(log_wd, total=None):
    """Row log densities and responsibilities from the (n, K) log(pi_k) +
    log f_k and its :func:`log_sum_exp`, formed here if not given."""
    total = log_sum_exp(log_wd) if total is None else total
    require_positive_density(total)
    return total, np.exp(log_wd - total[:, None])


@dataclass(frozen=True)
class EmReport:
    """Diagnostics of one EM run (the chosen restart); ``flags`` records
    trace decreases, which only a collapsed component's random refit causes."""

    loglik: float
    n_iter: int
    restart_index: int
    trace: tuple[float, ...]
    responsibility_mass: tuple[float, ...]
    flags: tuple[str, ...] = ()


def mixture_parameter_count(k: int, families) -> int:
    """Free parameters: K copies of (2 copula + marginal params) plus the
    K - 1 free weights."""
    per_comp = 2 + sum(family_class(f).n_params for f in families)
    return k * per_comp + (k - 1)


def em_fit(data, k: int, families, config: FitConfig = FitConfig(), *,
           restarts: int = 10, max_iter: int = 500) -> tuple[MixtureModel, EmReport]:
    """Fit a K-component mixture by EM from random hard-assignment starts.

    An M-step refits each component by the two-step fit on its weighted
    data.  If that lowers the log-likelihood, it keeps only the refits that
    raised their component's weighted log-likelihood, so the trace does not
    fall.

    Runs ``restarts`` independent initializations, seeded by
    ``config.seed``, and keeps the one with the highest final
    log-likelihood.  A component whose responsibility mass drops below
    1e-3 * n is refitted from a random data block; a second collapse of the
    same component raises :class:`ComponentCollapseError`.

    A run stops when the log-likelihood changes by at most 1e-6 of its
    size, or after ``max_iter`` M-steps.  Rows outside the families'
    domains raise :class:`~twcm.errors.DomainError` naming them, before any
    start is drawn.
    """
    data = check_rows(data, family_domains(families))
    n = data.shape[0]
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if restarts < 1 or max_iter < 1:
        raise InvalidParameterError("restarts and max_iter must be >= 1")
    if n < 10 * k:
        raise InvalidParameterError(f"need at least {10 * k} rows for k={k}")

    if k == 1:
        res = fit_ifm(data, families)
        model = MixtureModel(weights=(1.0,), components=(res.model,))
        report = EmReport(
            loglik=res.loglik, n_iter=1, restart_index=0,
            trace=(res.loglik,), responsibility_mass=(float(n),),
        )
        return model, report

    master = np.random.SeedSequence(config.seed)
    restart_seeds = master.spawn(restarts)
    best = None
    last_error = None
    for r_idx in range(restarts):
        rng = np.random.default_rng(restart_seeds[r_idx])
        try:
            model, report = _em_single(data, k, families, rng, r_idx, max_iter)
        except (ComponentCollapseError, InvalidParameterError) as exc:
            last_error = exc
            continue
        if best is None or report.loglik > best[1].loglik:
            best = (model, report)
    if best is None:
        raise last_error
    return best


def _em_single(data, k, families, rng, restart_index, max_iter):
    n = data.shape[0]

    # hard random assignment guarantees every component a nonempty first fit
    while True:
        assign = rng.integers(0, k, size=n)
        if np.all(np.bincount(assign, minlength=k) >= 5):
            break

    comps = [fit_ifm(data[assign == j], families).model for j in range(k)]
    weights = np.bincount(assign, minlength=k) / n

    trace: list[float] = []
    flags: list[str] = []
    strikes = np.zeros(k, dtype=int)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # pass n_iter scores the model of M-step n_iter, then runs the next
        for n_iter in range(max_iter + 1):
            model = MixtureModel(weights=tuple(weights / weights.sum()),
                                 components=tuple(comps))
            # log f_j kept apart from log pi_j, so that a column reused
            # below adds up exactly as model.component_log_densities does
            log_f = _score_rows(comps, data)[0]
            total, resp = _e_step(log_f + np.log(model.weights))
            if trace and total.sum() < trace[-1]:
                # the refits together lowered the log-likelihood: keep only
                # those that raised their own component's Q_j (generalized EM)
                old, old_log_f, keep = last_step
                comps = [c if kept else o for c, o, kept in zip(comps, old, keep)]
                model = MixtureModel(weights=model.weights, components=tuple(comps))
                log_f = np.where(keep, log_f, old_log_f)
                total, resp = _e_step(log_f + np.log(model.weights))
            mass = resp.sum(axis=0)
            if n_iter:
                ll = float(total.sum())
                if trace and ll < trace[-1] - _MONOTONE_SLACK:
                    flags.append(
                        f"loglik decreased by {trace[-1] - ll:.3e} at iteration {n_iter}"
                    )
                converged = bool(trace) and abs(ll - trace[-1]) <= _REL_TOL * abs(trace[-1])
                trace.append(ll)
                if converged or n_iter == max_iter:
                    break

            for j in range(k):
                if mass[j] < _COLLAPSE_FRACTION * n:
                    strikes[j] += 1
                    if strikes[j] >= 2:
                        raise ComponentCollapseError(
                            f"component {j} collapsed twice: reduce k below {k}"
                        )
                    block = rng.choice(n, size=max(20, n // (5 * k)), replace=False)
                    comps[j] = fit_ifm(data[block], families).model
                    log_f[:, j] = -np.inf  # so its M-step refit is kept
                    resp[:, j] = 1.0 / k
                    resp /= resp.sum(axis=1, keepdims=True)
                    mass = resp.sum(axis=0)

            weights = mass / n
            cands = [fit_ifm(data, families, weights=resp[:, j], start=comps[j].rho)
                     for j in range(k)]
            # Q_j = sum_i resp_ij log f_j(x_i), which cand.loglik is for the refit
            keep = np.array([c.loglik >= resp[:, j] @ log_f[:, j] for j, c in enumerate(cands)])
            last_step = comps, log_f, keep
            comps = [c.model for c in cands]

    report = EmReport(
        loglik=trace[-1], n_iter=n_iter, restart_index=restart_index,
        trace=tuple(trace), responsibility_mass=tuple(float(x) for x in mass),
        flags=tuple(flags),
    )
    return model, report


@dataclass(frozen=True)
class SelectKResult:
    best_k: int
    best_model: MixtureModel
    best_report: EmReport
    table: tuple[dict, ...]  # one row per K: {k, loglik, p, aic, bic}


def select_k(data, k_values, families, config: FitConfig = FitConfig(), *,
             restarts: int = 10, max_iter: int = 500) -> SelectKResult:
    """Sweep component counts and pick the one with the smallest BIC.

    Each count is fitted by :func:`em_fit` with ``restarts`` and
    ``max_iter``, which also checks the rows."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    k_values = list(k_values)
    if not k_values:
        raise InvalidParameterError("k_values must be nonempty")
    master = np.random.SeedSequence(config.seed)
    seeds = master.spawn(len(k_values))
    rows = []
    best = None
    for idx, k in enumerate(k_values):
        cfg = replace(config, seed=int(
            np.random.default_rng(seeds[idx]).integers(0, 2**63 - 1)))
        model, report = em_fit(data, k, families, cfg, restarts=restarts,
                               max_iter=max_iter)
        p = mixture_parameter_count(k, families)
        aic, bic = information_criteria(report.loglik, p, n)
        rows.append({"k": k, "loglik": report.loglik, "p": p, "aic": aic, "bic": bic})
        if best is None or bic < best[0]:
            best = (bic, k, model, report)
    _, best_k, best_model, best_report = best
    return SelectKResult(best_k=best_k, best_model=best_model,
                         best_report=best_report, table=tuple(rows))
