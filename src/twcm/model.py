"""The full trivariate model: copula dependence plus arbitrary marginals.

An observation triple (theta1, theta2, theta3) lives on the torus, a
hyper-cylinder, or any mix of circular and positive-linear coordinates;
the coordinate type is carried entirely by each marginal's domain tag.
The joint density composes the copula with the probability-integral
transforms u_i = 2*pi*F_i(theta_i).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._util import (
    TWO_PI,
    as_rng,
    float_if_scalar,
    float_if_triple,
    for_row_blocks,
    require_positive_density,
)
from .copula import (
    ConditionalWCSpec,
    RhoVector,
    _inverse_rosenblatt,
    _other_coordinates,
    _require_sample_count,
    conditional_spec,
    constants,
    copula_bivariate_density,
    copula_cond_1given1,
    copula_cond_1given2,
    log_density_columns,
    normalize_rho,
    pairwise_phi,
    require_valid,
)
from .errors import DomainError, InvalidParameterError
from .marginals import CIRCULAR, Marginal, WrappedCauchy, marginal_from_dict, to_copula_scale


class JsonFile:
    """JSON persistence through ``to_dict``/``from_dict``; loglik through ``log_density``."""

    def loglik(self, data) -> float:
        """Sum of log densities; raises on rows with vanishing density."""
        values = self.log_density(np.atleast_2d(np.asarray(data, dtype=float)))
        require_positive_density(values)
        return float(values.sum())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class TwcmModel(JsonFile):
    """Copula parameters plus exactly three marginals.

    The stored rho is always the identifiable representative (product 1);
    construction normalizes it, which leaves the density unchanged.
    """

    rho: RhoVector
    marginals: tuple[Marginal, Marginal, Marginal]

    def __post_init__(self):
        if len(self.marginals) != 3:
            raise InvalidParameterError("a model needs exactly 3 marginals")
        require_valid(self.rho)
        # skip rescaling when already identifiable so that save/load
        # round-trips are bit-identical
        if not self.rho.identifiable:
            object.__setattr__(self, "rho", normalize_rho(self.rho))
        object.__setattr__(self, "marginals", tuple(self.marginals))

    @property
    def domains(self) -> tuple[str, str, str]:
        return tuple(m.domain for m in self.marginals)

    @property
    def n_free_params(self) -> int:
        """2 copula parameters (product-1 manifold) plus the marginals'."""
        return 2 + sum(m.n_params for m in self.marginals)

    # -- data handling ----------------------------------------------------
    def validate_data(self, data) -> np.ndarray:
        """Check an (n, 3) array against the per-coordinate domains, see
        :func:`check_rows`."""
        return check_rows(data, self.domains)

    def pseudo_observations(self, data) -> np.ndarray:
        """Copula-scale data u_i = 2*pi*F_i(theta_i), shape (n, 3)."""
        return copula_scale(self.marginals, self.validate_data(data))

    # -- densities ---------------------------------------------------------
    def log_density(self, theta):
        """Joint log density at one triple or an (n, 3) block: the one
        component of :func:`_score_rows`."""
        return float_if_triple(theta, _score_rows((self,), theta)[0][:, 0])

    def density(self, theta):
        return float_if_scalar(np.exp(self.log_density(theta)))

    # -- marginal and conditional laws --------------------------------------
    def bivariate_density(self, pair: tuple[int, int], x_i, x_j):
        """Bivariate marginal density of coordinates ``pair`` (1-based)."""
        i, j = pair
        kern = copula_bivariate_density(
            self._copula_scale(i, x_i), self._copula_scale(j, x_j), pairwise_phi(self.rho, pair)
        )
        mi, mj = self.marginals[i - 1], self.marginals[j - 1]
        return float_if_scalar(4.0 * np.pi**2 * kern * mi.pdf(x_i) * mj.pdf(x_j))

    def cond_density_2given1(self, theta, given: int):
        """Density of the two remaining coordinates given coordinate
        ``given`` (1-based); ``theta`` holds the full triple(s), which
        :meth:`log_density` checks."""
        _other_coordinates(given)
        data = np.atleast_2d(np.asarray(theta, dtype=float))
        out = np.exp(self.log_density(data)) / self.marginals[given - 1].pdf(
            data[:, given - 1]
        )
        return float_if_triple(theta, out)

    def cond_density_1given1(self, i: int, x_i, j: int, x_j):
        """Density of coordinate i at ``x_i`` given coordinate j at ``x_j``."""
        phi = pairwise_phi(self.rho, (min(i, j), max(i, j)))
        kern = copula_cond_1given1(self._copula_scale(i, x_i), self._copula_scale(j, x_j), phi)
        return float_if_scalar(TWO_PI * kern * self.marginals[i - 1].pdf(x_i))

    def conditional_spec(self, i: int, theta_j, theta_k) -> ConditionalWCSpec:
        """Kernel parameters of coordinate i given the other two, whose
        values are passed in increasing coordinate order."""
        j, k = _other_coordinates(i)
        return conditional_spec(
            self.rho, i, self._copula_scale(j, theta_j), self._copula_scale(k, theta_k)
        )

    def _copula_scale(self, i: int, x):
        """u_i = 2*pi*F_i(x) at values ``x`` of coordinate i (1-based),
        which must lie in its domain, see :func:`_require_in_domain`."""
        marginal = self.marginals[i - 1]
        _require_in_domain(x, marginal.domain, f"coordinate {i}")
        return to_copula_scale(marginal, x)

    def cond_density_1given2(self, theta, i: int):
        """Density of coordinate i given the other two; ``theta`` holds the
        full triple(s)."""
        out = composed_cond_1given2(self.rho, self.marginals, self.validate_data(theta), i)
        return float_if_triple(theta, out)

    # -- sampling -----------------------------------------------------------
    def sample(self, n: int, seed=None) -> np.ndarray:
        """Exact sampling: copula draw, then theta_i = F_i^{-1}(u_i / 2pi);
        the one component of :func:`_draw_rows`."""
        _require_sample_count(n)
        return _draw_rows((self,), as_rng(seed), n)

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "rho": [self.rho.rho12, self.rho.rho13, self.rho.rho23],
            "marginals": [m.to_dict() for m in self.marginals],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TwcmModel":
        rho = RhoVector(*map(float, d["rho"]))
        margs = tuple(marginal_from_dict(m) for m in d["marginals"])
        return cls(rho=rho, marginals=margs)


def outside_domain(data: np.ndarray, domains) -> np.ndarray:
    """Mask of the entries of an (n, 3) array outside their coordinate's
    domain: non-finite, or nonpositive on a linear coordinate."""
    linear = np.array([d != CIRCULAR for d in domains])
    return ~np.isfinite(data) | (linear & (data <= 0.0))


def inside_domain(data: np.ndarray, domains) -> bool:
    """Whether :func:`outside_domain` marks no entry of an (n, 3) array, by
    one finiteness pass and one sign pass per linear column, without the
    mask or its row reduction."""
    return bool(np.isfinite(data).all()) and all(
        (data[:, i] > 0.0).all() for i, d in enumerate(domains) if d != CIRCULAR
    )


def _require_in_domain(x, domain: str, name: str) -> None:
    """Raise :class:`DomainError` if an entry of ``x`` lies outside the
    coordinate ``domain``, by the predicate :func:`outside_domain` of
    :func:`check_rows`."""
    if outside_domain(np.asarray(x, dtype=float)[..., None], (domain,)).any():
        raise DomainError(f"{name} outside the {domain} domain")


def check_rows(data, domains) -> np.ndarray:
    """``data`` as a nonempty float (n, 3) array with every row inside the
    coordinate ``domains``; raises :class:`DomainError` naming the
    offending 0-based rows.  Only data that fail :func:`inside_domain`
    build the mask that names them."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] == 0:
        raise DomainError("data must be a nonempty (n, 3) array")
    if not inside_domain(data, domains):
        rows = np.flatnonzero(outside_domain(data, domains).any(axis=1))
        raise DomainError(
            f"rows outside the model domain: {rows.tolist()[:20]}"
            + ("..." if rows.size > 20 else "")
        )
    return data


def marginal_terms(marginals, data):
    """Each coordinate's log density and pseudo-observation
    u_i = 2*pi*F_i(theta_i) at (n, 3) rows, as a triple of log density
    columns and a triple of u columns; the domains are not checked."""
    return tuple(zip(*(m._logpdf_and_u(data[:, i]) for i, m in enumerate(marginals))))


def log_sum_exp(a) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of an (n, K) array, by the formula of
    ``scipy.special.logsumexp``: the terms equal to the row maximum stay
    out of the sum, which is then log(1 + rest/count) + log(count) + max.
    A row whose maximum is not finite gives that maximum (-inf where every
    term is -inf).

    One column at a time: the terms are added in column order, the order
    in which ``np.sum(axis=1)`` adds them on an F-ordered array, as
    :func:`_score_rows` returns, and on fewer than 8 columns; so on those
    the result equals SciPy's bit for bit."""
    cols = np.asarray(a, dtype=float).T
    a_max = cols[0].copy()
    for col in cols[1:]:
        np.maximum(a_max, col, out=a_max)
    count = np.zeros_like(a_max)
    rest = np.zeros_like(a_max)
    with np.errstate(invalid="ignore"):
        for col in cols:
            is_max = col == a_max
            count += is_max
            rest += np.exp(np.where(is_max, -np.inf, col) - a_max)
        out = np.log1p(rest / count) + np.log(count) + a_max
    return np.where(np.isfinite(a_max), out, a_max)


def _score_rows(components, data, log_weights=None):
    """The joint log density of each model in ``components`` at (n, 3)
    rows, a model being a mixture of one: an (n, K) matrix, F-ordered so
    that each component fills one contiguous column, and None; with
    ``log_weights``, log(pi_k) + log f_k and its :func:`log_sum_exp` per row.

    The rows are checked once and each component's copula constants formed
    once, on the calling thread; then one task of
    :func:`~twcm._util.for_row_blocks` per block of rows fills the K columns
    of its block elementwise, so no thread changes a bit.  A task reads a
    marginal through ``_logpdf_and_u`` alone, never its public ``cdf`` or
    ``quantile``, which a tracer may wrap with one span stack."""
    data = check_rows(data, components[0].domains)
    n = data.shape[0]
    out = np.empty((n, len(components)), order="F")
    total = None if log_weights is None else np.empty(n)
    ccs = [constants(comp.rho) for comp in components]

    def score(rows):
        block, x = out[rows], data[rows]
        for comp, cc, col in zip(components, ccs, block.T):
            log_f, u = marginal_terms(comp.marginals, x)
            np.add(3.0 * np.log(TWO_PI), log_density_columns(cc, comp.rho, *u), out=col)
            for term in log_f:
                col += term
        if total is not None:
            block += log_weights
            total[rows] = log_sum_exp(block)

    for_row_blocks(n, score)
    return out, total


def _draw_rows(components, rng, n: int, labels=None) -> np.ndarray:
    """``n`` rows, row r drawn from ``components[labels[r]]``, a model
    being a mixture of one (no ``labels``): an (n, 3) array.

    Every uniform is drawn first, on the calling thread, in the order in
    which drawing each component's rows in turn reads the stream: for the
    m_j rows of component j, in component order, one (3, m_j) array, the
    three uniforms of :func:`~twcm.copula._inverse_rosenblatt` per row.
    Each component's sampler is set up and its marginals' quantile tables
    built there too.  Then one task of :func:`~twcm._util.for_row_blocks`
    per block of those rows maps them to the copula scale and through each
    marginal's ``_quantile``, never its public ``quantile``, which a tracer
    may wrap with one span stack, and writes them to their rows, those of
    each component in row order; so no thread changes a bit."""
    if labels is None:
        counts, order = [n], None
    else:
        k = len(components)
        counts = np.bincount(labels, minlength=k).tolist()
        # the rows of each component in turn, each in row order: a stable
        # sort of labels of the narrowest type, which NumPy radix-sorts,
        # held in the narrowest index type, half the memory of intp
        order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
        order = order.astype(np.min_scalar_type(n - 1))
    parts, start = [], 0
    for comp, count in zip(components, counts):
        if count:
            for m in comp.marginals:
                m._prepare_quantile()
            parts.append((start, start + count, rng.random((3, count)),
                          _inverse_rosenblatt(comp.rho), comp.marginals))
        start += count
    out = np.empty((n, 3))

    def draw(rows):
        for first, stop, v, transform, marginals in parts:
            lo, hi = max(rows.start, first), min(rows.stop, stop)
            if lo >= hi:
                continue
            dest = slice(lo, hi) if order is None else order[lo:hi]
            u = transform(v[:, lo - first:hi - first])
            for i, (m, u_i) in enumerate(zip(marginals, u)):
                out[dest, i] = m._quantile(u_i / TWO_PI)

    if n:
        for_row_blocks(n, draw)
    return out


def copula_scale(marginals, theta) -> np.ndarray:
    """u_i = 2*pi*F_i(theta_i) for triples ``theta`` of shape (..., 3);
    the domains are not checked."""
    theta = np.asarray(theta, dtype=float)
    return np.stack(
        [to_copula_scale(m, theta[..., i]) for i, m in enumerate(marginals)], axis=-1
    )


def composed_cond_1given2(rho: RhoVector, marginals, theta, i: int):
    """Density of coordinate i given the other two at triples ``theta`` of
    shape (..., 3): 2*pi t_{1|2}(u) f_i(theta_i) with u the copula scale.
    The domains are not checked; a single triple gives a float."""
    theta = np.asarray(theta, dtype=float)
    u = copula_scale(marginals, theta)
    out = TWO_PI * copula_cond_1given2(u, rho, i) * marginals[i - 1].pdf(theta[..., i - 1])
    return float_if_scalar(out)


def wc_closed_form_log_density(rho: RhoVector, wc_marginals, theta):
    """Integral-free joint log density when all three marginals are
    wrapped Cauchy.

    Uses only cosines/sines of (theta_i - mu_i): the g_i terms are the
    wrapped Cauchy denominators and h_ij collapses
    g_i g_j cos(2*pi*(F_i - F_j)) to a trigonometric polynomial.  Must
    agree with the composed path to machine precision.
    """
    require_valid(rho)
    wc = tuple(wc_marginals)
    if len(wc) != 3 or not all(isinstance(m, WrappedCauchy) for m in wc):
        raise InvalidParameterError("closed form needs three wrapped Cauchy marginals")
    rows = np.atleast_2d(np.asarray(theta, dtype=float))
    cc = constants(rho)
    cos_d = [np.cos(rows[:, i] - wc[i].mu) for i in range(3)]
    sin_d = [np.sin(rows[:, i] - wc[i].mu) for i in range(3)]
    xi = [m.xi for m in wc]
    g = [1.0 + xi[i] ** 2 - 2.0 * xi[i] * cos_d[i] for i in range(3)]

    def h(i, j):
        return (
            (1.0 + xi[i] ** 2) * (1.0 + xi[j] ** 2) * cos_d[i] * cos_d[j]
            + (1.0 - xi[i] ** 2) * (1.0 - xi[j] ** 2) * sin_d[i] * sin_d[j]
            - 2.0 * xi[j] * (1.0 + xi[i] ** 2) * cos_d[i]
            - 2.0 * xi[i] * (1.0 + xi[j] ** 2) * cos_d[j]
            + 4.0 * xi[i] * xi[j]
        )

    denom = cc.c1 * g[0] * g[1] * g[2] + 2.0 * (
        rho.rho12 * g[2] * h(0, 1)
        + rho.rho13 * g[1] * h(0, 2)
        + rho.rho23 * g[0] * h(1, 2)
    )
    num = np.log(cc.c2) + sum(np.log1p(-x * x) for x in xi)
    out = num - np.log(denom)
    return float_if_triple(theta, out)


def kato_pewsey_bivariate_density(phi: float, wc_i: WrappedCauchy, wc_j: WrappedCauchy,
                                  theta_i, theta_j):
    """Bivariate wrapped Cauchy density for a pair of wrapped Cauchy
    marginals coupled with kernel concentration ``phi`` (|phi| < 1).

    Independent algebraic route to the same law as the copula
    composition; the two must agree wherever both apply.
    """
    if abs(phi) >= 1.0:
        raise InvalidParameterError("Kato-Pewsey form requires |phi| < 1")
    xi_i, xi_j = wc_i.xi, wc_j.xi
    ci = np.cos(np.asarray(theta_i, dtype=float) - wc_i.mu)
    cj = np.cos(np.asarray(theta_j, dtype=float) - wc_j.mu)
    si = np.sin(np.asarray(theta_i, dtype=float) - wc_i.mu)
    sj = np.sin(np.asarray(theta_j, dtype=float) - wc_j.mu)
    p2 = phi * phi
    gam = (1.0 - p2) * (1.0 - xi_i**2) * (1.0 - xi_j**2) / (4.0 * np.pi**2)
    g0 = (1.0 + p2) * (1.0 + xi_i**2) * (1.0 + xi_j**2) - 8.0 * phi * xi_i * xi_j
    g1 = 2.0 * (1.0 + p2) * xi_i * (1.0 + xi_j**2) - 4.0 * phi * (1.0 + xi_i**2) * xi_j
    g2 = 2.0 * (1.0 + p2) * (1.0 + xi_i**2) * xi_j - 4.0 * phi * xi_i * (1.0 + xi_j**2)
    g3 = -4.0 * (1.0 + p2) * xi_i * xi_j + 2.0 * phi * (1.0 + xi_i**2) * (1.0 + xi_j**2)
    g4 = 2.0 * phi * (1.0 - xi_i**2) * (1.0 - xi_j**2)
    out = gam / (g0 - g1 * ci - g2 * cj - g3 * ci * cj - g4 * si * sj)
    return float_if_scalar(out)
