"""Command-line surface: dataset ingestion, fitting, sampling, mixture
clustering, bootstrap, density grids, the AR(2) simulator, and synthetic
dataset generation.

Every command is deterministic under ``--seed`` (falling back to the
``TWCM_SEED`` environment variable).  Exit codes: 0 success, 1 domain
error, 2 fit failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import periodic_grid, wrap_angle
from .ar2 import Ar2Params, simulate
from .errors import (
    ComponentCollapseError,
    DomainError,
    FitFailureError,
    TwcmError,
)
from .fit import (
    FitConfig,
    bootstrap_se,
    family_domains,
    fit_ifm,
    information_criteria,
    parameter_vector,
)
from .marginals import CIRCULAR, LINEAR, marginal_from_dict
from .mixture import MixtureModel, responsibilities, select_k
from .model import TwcmModel, inside_domain, outside_domain
from .presets import PRESETS


@dataclass(frozen=True)
class ColumnSpec:
    """Name, domain, and angle unit of one data column."""

    name: str
    domain: str  # circular | linear
    unit: str = "radians"  # radians | degrees; circular only

    def __post_init__(self):
        if self.domain not in (CIRCULAR, LINEAR):
            raise DomainError(f"unknown column domain {self.domain!r}")
        if self.unit not in ("radians", "degrees"):
            raise DomainError(f"unknown angle unit {self.unit!r}")
        if self.domain == LINEAR and self.unit != "radians":
            raise DomainError("units apply to circular columns only")


def parse_column_specs(text: str) -> tuple[ColumnSpec, ColumnSpec, ColumnSpec]:
    """Parse ``name:domain[:unit]`` triples separated by commas."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise DomainError("exactly 3 column specs are required")
    specs = []
    for part in parts:
        bits = part.split(":")
        if len(bits) not in (2, 3):
            raise DomainError(f"malformed column spec {part!r}")
        specs.append(ColumnSpec(*bits))
    return tuple(specs)


def specs_for_domains(domains) -> tuple[ColumnSpec, ColumnSpec, ColumnSpec]:
    return tuple(ColumnSpec(f"c{i + 1}", d) for i, d in enumerate(domains))


def ingest(path, specs) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Read a 3-column CSV against the column specs.

    Lines starting with ``#`` are comments; the first remaining line is the
    header.  Rows with missing, non-numeric, or out-of-domain values are
    rejected and reported with the 1-based file line on which they start.
    Circular degrees are converted to radians and all angles reduced mod
    2*pi.

    The file is read once.  A plain file is parsed in one ``np.loadtxt``
    call; quoted, CRLF, ragged or malformed files, which that call reads
    differently or not at all, go through a loop over ``csv`` records and
    ``float``, the reference the one call's results must equal.
    """
    text = _read_text(path)
    data, linenos, rejected = _parse_plain(text) or _parse_records(text)
    domains = [spec.domain for spec in specs]
    if not inside_domain(data, domains):
        failing = outside_domain(data, domains)
        bad = failing.any(axis=1)
        for r in np.flatnonzero(bad):
            i = int(np.argmax(failing[r]))
            kind = "nonpositive" if np.isfinite(data[r, i]) else "non-finite"
            rejected.append((int(linenos[r]), f"{kind} value in {specs[i].name}"))
        data = data[~bad]
    rejected.sort()
    for i, spec in enumerate(specs):
        if spec.domain == CIRCULAR:
            if spec.unit == "degrees":
                data[:, i] = np.deg2rad(data[:, i])
            data[:, i] = wrap_angle(data[:, i])
    if not data.shape[0]:
        raise DomainError(f"no valid data rows in {path}")
    return data, rejected


# Characters on which ``np.loadtxt`` and the row loop may part: ``csv``
# quoting and CR line ends, and the separators \x1c-\x1f, which NumPy strips
# from a field as whitespace but ``float`` rejects.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'
# A newline that a blank or comment line follows: the lines ``ingest`` skips.
_BEFORE_SKIPPED = re.compile(r"\n(?=\n|[^\S\n]*#)")


def _parse_plain(text):
    """``(rows, line numbers, [])`` of a file from one ``np.loadtxt`` call,
    or None when the file holds a ``_NOT_PLAIN`` character or that call
    cannot read every data line as 3 numbers."""
    if any(char in text for char in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    keep = np.ones(len(lines), dtype=bool)
    line = offset = 0
    # the padding finds a skipped first line and the empty one after a final
    # newline
    for match in _BEFORE_SKIPPED.finditer("\n" + text + "\n"):
        line += text.count("\n", offset, match.start())
        offset = match.start()
        keep[line] = False
    body = np.flatnonzero(keep)[1:]  # drop the header
    if not body.size:
        return np.empty((0, 3)), body, []
    try:
        data = np.loadtxt([lines[i] for i in body.tolist()], delimiter=",",
                          comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape != (body.size, 3):
        return None
    return data, body + 1, []


def _parse_records(text):
    """``(rows, line numbers, rejected)`` of a file read record by record
    with ``csv`` and ``float``, rejecting each bad record on its own."""
    linenos: list[int] = []
    rows: list[tuple[float, float, float]] = []
    rejected: list[tuple[int, str]] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header_seen = False
    next_line = 1
    for record in reader:
        # a quoted field can span lines; a record starts after the last one
        lineno, next_line = next_line, reader.line_num + 1
        if not record or (record[0].lstrip().startswith("#")):
            continue
        if not header_seen:
            header_seen = True
            continue
        if len(record) < 3:
            rejected.append((lineno, "fewer than 3 fields"))
            continue
        try:
            rows.append((float(record[0]), float(record[1]), float(record[2])))
        except ValueError:
            rejected.append((lineno, "non-numeric value"))
            continue
        linenos.append(lineno)
    return np.asarray(rows, dtype=float).reshape(-1, 3), linenos, rejected


def _read_text(path) -> str:
    """The text of a UTF-8 file, line ends as stored; a file that does not
    decode is a DomainError naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _output(path):
    """The file at ``path`` opened for writing, or stdout without a path."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        yield fh


def _write_csv(path, header, rows, comments=()):
    """Write ``# `` comment lines, the header and the rows to ``path`` or
    stdout, float cells by ``repr``, which reads back bit-identically."""
    with _output(path) as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                         for row in rows)


def _parse_number(text, kind, what):
    """``kind(text)`` for a command-line value, or a DomainError naming it."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"malformed {what} {text!r}") from None


def _resolve_seed(args) -> int | None:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("TWCM_SEED")
        seed = _parse_number(env, int, "TWCM_SEED") if env else None
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return seed


def _load_any_model(path):
    """The model or mixture saved at ``path``; a file that is not JSON,
    lacks a key or holds values of the wrong shape is a DomainError naming
    it."""
    text = _read_text(path)
    try:
        d = json.loads(text)
        if "components" in d:
            return MixtureModel.from_dict(d)
        return TwcmModel.from_dict(d)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: not JSON: {exc}") from None
    except KeyError as exc:
        raise DomainError(f"{path}: model file has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{path}: malformed model file: {exc}") from None


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    seed = _resolve_seed(args)
    model = PRESETS[args.preset]()
    data = model.sample(args.n, seed=seed)
    names = {
        "protein": ("phi", "psi", "omega"),
        "buoy": ("wave_dir", "wind_dir", "wave_height"),
    }[args.preset]
    comments = [
        "synthetic data (not observational)",
        f"preset={args.preset} n={args.n} seed={seed}",
    ]
    _write_csv(args.out, names, data.tolist(), comments)
    return 0


def _ingest_for(args, domains):
    """Read ``args.data`` against ``--columns``, which must give
    ``domains``, or by default against unnamed columns of ``domains``,
    reporting rejected lines on stderr."""
    specs = parse_column_specs(args.columns) if args.columns else specs_for_domains(domains)
    for spec, domain in zip(specs, domains):
        if spec.domain != domain:
            raise DomainError(f"--columns makes {spec.name!r} {spec.domain}, "
                              f"but its marginal is {domain}")
    data, rejected = ingest(args.data, specs)
    for lineno, reason in rejected:
        print(f"rejected line {lineno}: {reason}", file=sys.stderr)
    return data


def _families_and_data(args):
    """The ``--marginals`` families and the data read for their domains."""
    families = [f.strip() for f in args.marginals.split(",")]
    return families, _ingest_for(args, family_domains(families))


def cmd_fit(args) -> int:
    families, data = _families_and_data(args)
    result = fit_ifm(data, families)
    with _output(args.out) as fh:
        fh.write(json.dumps(result.to_dict(), indent=2) + "\n")
    return 0


def cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    model = _load_any_model(args.model)
    data = model.sample(args.n, seed=seed)
    _write_csv(args.out, ("theta1", "theta2", "theta3"), data.tolist(),
               [f"model={args.model} n={args.n} seed={seed}"])
    return 0


def cmd_loglik(args) -> int:
    paths = []
    if args.model:
        paths.append(args.model)
    if args.models:
        paths.extend(p.strip() for p in args.models.split(",") if p.strip())
    if not paths:
        raise DomainError("provide --model or --models")
    models = [_load_any_model(p) for p in paths]
    if len({m.domains for m in models}) > 1:
        raise DomainError("all models must share the same coordinate domains")
    data = _ingest_for(args, models[0].domains)
    n = data.shape[0]
    rows = []
    for path, m in zip(paths, models):
        ll = m.loglik(data)
        p = m.n_free_params
        aic, bic = information_criteria(ll, p, n)
        rows.append([path, ll, aic, bic, p, n])
    _write_csv(args.out, ("model", "loglik", "aic", "bic", "p", "n"), rows)
    return 0


def _parse_k_range(text):
    if ".." in text:
        lo, hi = (_parse_number(x, int, "--k") for x in text.split("..", 1))
        return list(range(lo, hi + 1))
    return [_parse_number(x, int, "--k") for x in text.split(",")]


def cmd_mixture(args) -> int:
    families, data = _families_and_data(args)
    config = FitConfig(seed=_resolve_seed(args))
    result = select_k(
        data, _parse_k_range(args.k), families, config, restarts=args.restarts
    )
    header = ("k", "loglik", "p", "aic", "bic")
    _write_csv(None, header, [[r[key] for key in header] for r in result.table],
               [f"selected k={result.best_k}"])
    prefix = args.out_prefix or "mixture"
    result.best_model.save(f"{prefix}_model.json")
    resp = responsibilities(result.best_model, data)
    _write_csv(f"{prefix}_assignments.csv", ("row", "component"),
               enumerate(resp.argmax(axis=1).tolist()))
    return 0


def cmd_bootstrap(args) -> int:
    families, data = _families_and_data(args)
    config = FitConfig(seed=_resolve_seed(args), bootstrap_b=args.B)
    point = fit_ifm(data, families)
    boot = bootstrap_se(data, families, config)
    for note in boot.warnings:
        print(f"warning: {note}", file=sys.stderr)
    estimates = parameter_vector(point)
    rows = [[name, estimates.get(name, float("nan")), se] for name, se in boot.se.items()]
    _write_csv(args.out, ("parameter", "estimate", "se"), rows,
               [f"B={args.B} failed={boot.b_failed}"])
    return 0


def _grid_axis(marginal, res: int) -> np.ndarray:
    if marginal.domain == CIRCULAR:
        return periodic_grid(res)
    lo = marginal.quantile(5e-4)
    hi = marginal.quantile(1.0 - 5e-4)
    return np.linspace(lo, hi, res)


def cmd_grid(args) -> int:
    model = _load_any_model(args.model)
    if isinstance(model, MixtureModel):
        raise DomainError("grid requires a single-component model file")
    pair = [_parse_number(x, int, "--pair") for x in args.pair.split(",")]
    if sorted(pair) not in ([1, 2], [1, 3], [2, 3]):
        raise DomainError("--pair must name two distinct coordinates in 1..3")
    i, j = pair
    res = args.res
    if res < 2:
        raise DomainError("--res must be >= 2")
    x = _grid_axis(model.marginals[i - 1], res)
    y = _grid_axis(model.marginals[j - 1], res)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    if args.given:
        key, _, val = args.given.partition("=")
        k = _parse_number(key, int, "--given coordinate")
        if k in (i, j) or k not in (1, 2, 3):
            raise DomainError("--given must name the remaining coordinate")
        theta = np.empty((res * res, 3))
        theta[:, i - 1] = xx.ravel()
        theta[:, j - 1] = yy.ravel()
        theta[:, k - 1] = _parse_number(val, float, "--given value")
        dens = model.cond_density_2given1(theta, given=k)
    else:
        dens = model.bivariate_density((i, j), xx.ravel(), yy.ravel())
    _write_csv(args.out, ("x", "y", "density"), zip(xx.ravel(), yy.ravel(), dens),
               [f"model={args.model} pair={i},{j}"
                + (f" given={args.given}" if args.given else "")])
    return 0


def _parse_marginal_spec(text):
    family, _, params_text = text.partition(":")
    params = {}
    for item in filter(None, params_text.split(",")):
        key, _, val = item.partition("=")
        params[key.strip()] = _parse_number(val, float, f"--marginal value of {key!r}")
    return marginal_from_dict({"family": family.strip(), "params": params})


def cmd_ar2(args) -> int:
    seed = _resolve_seed(args)
    r = [_parse_number(x, float, "--rho value") for x in args.rho.split(",")]
    if len(r) != 3:
        raise DomainError("--rho needs 3 comma-separated values")
    marginal = _parse_marginal_spec(args.marginal)
    params = Ar2Params(rho_t_tm1=r[0], rho_t_tm2=r[1], rho_tm1_tm2=r[2],
                       marginal=marginal)
    chain = simulate(params, args.n, seed=seed)
    _write_csv(args.out, ("theta",), chain[:, None].tolist(),
               [f"rho={args.rho} marginal={args.marginal} n={args.n} seed={seed}"])
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twcm",
        description="Trivariate wrapped Cauchy copula models: fit, sample, "
                    "cluster, and simulate toroidal/cylindrical data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: env TWCM_SEED)")

    p = sub.add_parser("synth", help="generate a synthetic dataset from a preset")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="two-step maximum-likelihood fit")
    p.add_argument("--data", required=True)
    p.add_argument("--columns", default=None,
                   help="name:domain[:unit] x3, comma separated")
    p.add_argument("--marginals", required=True, help="three family tags")
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="draw observations from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("loglik", help="log-likelihood/AIC/BIC table")
    p.add_argument("--model", default=None)
    p.add_argument("--models", default=None, help="comma-separated model files")
    p.add_argument("--data", required=True)
    p.add_argument("--columns", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_loglik)

    p = sub.add_parser("mixture", help="EM mixture fit with BIC selection of k")
    p.add_argument("--data", required=True)
    p.add_argument("--columns", default=None)
    p.add_argument("--marginals", required=True)
    p.add_argument("--k", required=True, help="e.g. 2..5 or 2,3,4")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out-prefix", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser("bootstrap", help="bootstrap standard errors")
    p.add_argument("--data", required=True)
    p.add_argument("--columns", default=None)
    p.add_argument("--marginals", required=True)
    p.add_argument("--B", type=int, default=1000)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("grid", help="plot-ready bivariate density grid")
    p.add_argument("--model", required=True)
    p.add_argument("--pair", required=True, help="e.g. 1,2")
    p.add_argument("--given", default=None, help="k=VALUE for the conditional")
    p.add_argument("--res", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ar2", help="simulate the circular AR(2) chain")
    p.add_argument("--rho", required=True,
                   help="rho_t_tm1,rho_t_tm2,rho_tm1_tm2")
    p.add_argument("--marginal", required=True,
                   help="family[:key=val,...], e.g. wrapped_cauchy:mu=3.1,xi=0.5")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_ar2)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # each warning once per location, as one line without the path
            warnings.simplefilter("default")
            warnings.showwarning = _show_warning
            return args.func(args)
    except (FitFailureError, ComponentCollapseError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2
    except (TwcmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
