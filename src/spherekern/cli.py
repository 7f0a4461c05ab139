"""Command-line front end.

Every subcommand reads parameters from an optional JSON ``--config``
document and/or flags (flags win), resolves them against defaults, and
echoes the fully resolved configuration plus the library version into
JSON reports.  Tabular payloads are written as RFC-4180 CSV with
17-significant-digit floats when ``--format csv`` is selected, and
``--emit-plot-data PATH`` writes that CSV alongside whichever format
goes to ``--out``/stdout.

A config-file value must have the type of its flag: a JSON integer for
an integer flag, any JSON number for a float flag, a string for a string
flag, ``true``/``false`` for a switch and a list of numbers for ``u``;
``null`` is accepted only where the default is null.  A value of another
type is a configuration error.  So is a value out of range, found before
any work starts: lam, lam2, nu, lengthscale and ridge must be finite and
positive (lam within about 1.5e-154..6.7e153, where lam^2 and 1/lam^2
are normal floats), noise_scale finite and non-negative, seed
non-negative, workers at least 1, parity even, odd or all, and
degree_min (or its default) non-negative and no larger than degree_max
and max_degree.  An ``--out`` or ``--emit-plot-data`` path must not be
empty or a directory and must lie in an existing one; a write that fails
all the same is reported in one line with exit code 2 too.

Only infogain, sample-greedy, error-rate and mig-growth import
``regression`` and ``experiments``, each at the entry of its handler, before
any work: kernel-eval, spectrum, eigendecay and matern-compare never load
them.  No subcommand imports scipy.

Exit codes: 0 success, 2 configuration error (bad parameters, domains,
unsupported values), 3 numerical failure (factorization, spectral
accuracy, fit, or experiment errors).
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import (
    ConfigurationError, NumericalError, ParameterError, _check_int, _check_lam, _in_range,
)
from .kernels import _available_cpus, _check_unit_rows, make_kernel
from .serialize import csv_table, json_document
from .spectral import (
    MaternSpec,
    _window,
    default_fit_range,
    eigendecay_fit,
    matern_spectrum,
    mercer_spectrum,
    rkhs_equivalence_ratio,
)

_REQUIRED = object()


def _default(row, default):
    """The schema row ``row`` with another default."""
    return (*row[:2], default, row[3])


# Parameter schemas: (name, type, default, help).  A _REQUIRED default means
# the parameter must come from a flag or config file; type list is a
# repeatable float flag.  Every subcommand takes its own rows plus _COMMON.
_COMMON = [
    ("seed", int, 0, "master seed"),
    ("format", str, "json", "output format: csv or json"),
    ("workers", int, None, "worker processes (results are worker-count independent)"),
    ("full_scale", bool, False, "use the paper-scale configuration"),
]
_FAMILY = ("family", str, _REQUIRED, "kernel family: nt or rf")
_S = ("s", int, _REQUIRED, "activation power (1, 2 or 3)")
_L = ("l", int, 2, "network depth (>= 2)")
_D = ("d", int, 3, "sphere ambient dimension (>= 3 for spectra)")
_MAX_DEGREE = ("max_degree", int, 60, "largest harmonic degree")
_LAM = ("lam", float, 1.0, "regularization scale lambda")
_GRID_SIZE = ("grid_size", int, 4096, "candidate grid size")
# The degree window of a fit or a comparison.
_WINDOW = [
    ("parity", str, "all", "degree parity filter: even, odd or all"),
    ("degree_min", int, None, "lowest window degree, non-negative (default max(9, 2s+3))"),
    ("degree_max", int, None, "highest window degree (default 59)"),
]
_SCHEMAS = {
    "kernel-eval": [
        _FAMILY, _S, _L,
        ("u", list, None, "inner product(s) to evaluate (repeatable flag)"),
        ("pair_file", str, None, "file of point pairs, one 2d-vector row per pair"),
    ],
    "spectrum": [_FAMILY, _S, _L, _D, _MAX_DEGREE],
    "eigendecay": [_FAMILY, _S, _L, _D, _MAX_DEGREE, *_WINDOW],
    "matern-compare": [
        _default(_FAMILY, "nt"), _S, _D,
        ("nu", float, _REQUIRED, "Matern smoothness"),
        ("lengthscale", float, 1.0, "Matern lengthscale"),
        _MAX_DEGREE, *_WINDOW,
    ],
    "infogain": [
        _FAMILY, _S, _D, ("n", int, 64, "number of uniform sample points"), _LAM,
    ],
    "sample-greedy": [
        _FAMILY, _S, _D, ("n", int, 64, "number of greedy selections"), _LAM, _GRID_SIZE,
    ],
    "error-rate": [
        _FAMILY, _S, _default(_D, _REQUIRED),
        ("reps", int, 5, "number of repetitions"),
        ("max_exp", int, 11, "train sizes n = 2^1 .. 2^max_exp"),
        ("eval_sample", int, 10_000, "sup-error evaluation sample size"),
        ("lam2", float, 0.01, "training regularization lambda^2"),
        ("noise_scale", float, 0.0, "observation noise standard deviation"),
        ("independent", bool, False, "resample training sets per n (default nested)"),
        ("n0", int, 100, "ground-truth anchor count"),
        ("ridge", float, 0.01, "ground-truth construction ridge"),
    ],
    "mig-growth": [
        _FAMILY, _S, _D, _LAM, _GRID_SIZE,
        ("max_exp", int, 10, "sample sizes n = 2^1 .. 2^max_exp"),
    ],
}

# Float parameters that must be finite, and positive or non-negative.
_SIGNS = {
    "lam": "positive", "lam2": "positive", "nu": "positive",
    "lengthscale": "positive", "ridge": "positive", "noise_scale": "non-negative",
}

# Parameters bumped by --full-scale (the paper-scale configuration) unless
# explicitly set by flag or config file.
_FULL_SCALE = {
    "error-rate": {"reps": 20, "max_exp": 13},
}


@functools.cache
def build_parser():
    """The argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="spherekern",
        description="Neural-kernel spectra, regression and experiments on the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        sp = sub.add_parser(name, help=f"{name} subcommand")
        for pname, ptype, _, phelp in schema + _COMMON:
            flag = "--" + pname.replace("_", "-")
            if ptype is list:
                sp.add_argument(flag, action="append", type=float, help=phelp)
            elif ptype is bool:
                sp.add_argument(flag, action="store_const", const=True, help=phelp)
            else:
                sp.add_argument(flag, type=ptype, help=phelp)
        sp.add_argument("--config", help="JSON file of parameter values (flags override)")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--emit-plot-data",
                        help="also write the tidy CSV payload to this path")
    return parser


def _has_type(value, ptype):
    """Whether a config-file value has the type its flag parses to."""
    if ptype is list:
        return isinstance(value, list) and all(_has_type(v, float) for v in value)
    if isinstance(value, bool):
        return ptype is bool
    return isinstance(value, (int, float) if ptype is float else ptype)


def resolve_config(command, args):
    """Merge defaults, config-file values, and flags (flags win).

    Returns the fully resolved parameter dict, which is echoed into JSON
    reports and can be fed back through --config to reproduce the run.
    """
    file_cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigurationError("config document must be a JSON object")
        embedded = file_cfg.pop("subcommand", command)
        if embedded != command:
            raise ConfigurationError(
                f"config is for subcommand {embedded!r}, not {command!r}"
            )
        # Output destinations are per-invocation, never part of the
        # reproducible configuration.
        file_cfg.pop("out", None)
        file_cfg.pop("emit_plot_data", None)

    schema = _SCHEMAS[command] + _COMMON
    unknown = set(file_cfg) - {pname for pname, *_ in schema}
    if unknown:
        raise ConfigurationError(
            f"unknown config keys for {command}: {sorted(unknown)}"
        )

    resolved = {"subcommand": command}
    explicit = set()
    for pname, ptype, default, _ in schema:
        flag_val = getattr(args, pname)
        if flag_val is not None:
            resolved[pname] = flag_val
            explicit.add(pname)
        elif pname in file_cfg:
            value = file_cfg[pname]
            if not (value is None and default is None or _has_type(value, ptype)):
                raise ConfigurationError(
                    f"config value {pname}={value!r} is not of type {ptype.__name__}"
                )
            resolved[pname] = value
            explicit.add(pname)
        elif default is _REQUIRED:
            raise ConfigurationError(
                f"{command} requires --{pname.replace('_', '-')} "
                "(flag or config value)"
            )
        else:
            resolved[pname] = default
    _check_values(resolved)
    if resolved["full_scale"]:
        for pname, value in _FULL_SCALE.get(command, {}).items():
            if pname not in explicit:
                resolved[pname] = value
    return resolved


def _check_values(cfg):
    """Reject out-of-range values, also by the library's lam and window rules, before any work."""
    if cfg["format"] not in ("csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {cfg['format']!r}")
    try:
        _check_int(cfg["seed"], "seed", 0)
        if cfg["workers"] is not None:
            _check_int(cfg["workers"], "workers", 1)
        for pname, value in cfg.items():
            sign = _SIGNS.get(pname)
            if sign and not _in_range(value, allow_zero=sign == "non-negative"):
                raise ConfigurationError(f"{pname} must be finite and {sign}, got {value!r}")
        if "lam" in cfg:
            _check_lam(cfg["lam"])
        if "degree_min" in cfg:
            lo, hi = _degree_range(cfg)
            _check_int(lo, "degree_min", 0)
            for name, bound in (("degree_max", hi), ("max_degree", cfg["max_degree"])):
                if lo > bound:
                    raise ConfigurationError(f"degree_min {lo} is above {name} {bound}")
            _window(cfg["max_degree"], (lo, hi), cfg["parity"])
    except ParameterError as exc:
        raise ConfigurationError(str(exc)) from None


def _u_values(cfg):
    if cfg["u"] is not None:
        return np.asarray(cfg["u"], dtype=float)
    if cfg["pair_file"] is None:
        raise ConfigurationError("kernel-eval needs --u values or --pair-file")
    try:
        with open(cfg["pair_file"], "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh if ln.split("#", 1)[0].strip()]
        if not lines:
            raise ConfigurationError(f"pair file {cfg['pair_file']} holds no pairs")
        delim = "," if "," in lines[0] else None
        rows = np.loadtxt(lines, delimiter=delim, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read pair file: {exc}")
    if rows.shape[1] % 2 != 0:
        raise ConfigurationError(
            f"pair rows must hold two d-vectors; got {rows.shape[1]} columns"
        )
    d = rows.shape[1] // 2
    x, y = rows[:, :d], rows[:, d:]
    for name, pts in (("first", x), ("second", y)):
        _check_unit_rows(pts, f"{name} point of pair-file row")
    return np.sum(x * y, axis=1)


def _kernel(cfg):
    """The configured kernel, from whichever of family, s, l and d the subcommand has."""
    return make_kernel(**{k: cfg[k] for k in ("family", "s", "l", "d") if k in cfg})


def _spectrum(cfg):
    """The Mercer spectrum of the configured kernel up to max_degree."""
    return mercer_spectrum(_kernel(cfg), cfg["d"], cfg["max_degree"])


def _payload_texts(cfg, payload, csv_keys):
    """The CSV of the payload's ``csv_keys``, made now, and a factory for its JSON."""
    csv_text = csv_table({key: payload[key] for key in csv_keys})
    return csv_text, lambda: json_document(payload, config=cfg)


def cmd_kernel_eval(cfg):
    u = _u_values(cfg)
    payload = {"u": u.tolist(), "value": np.atleast_1d(_kernel(cfg)(u)).tolist()}
    return _payload_texts(cfg, payload, ("u", "value"))


def cmd_spectrum(cfg):
    table = _spectrum(cfg)
    return table.to_csv(), lambda: table.to_json(config=cfg)


def _degree_range(cfg):
    lo_default, hi_default = default_fit_range(cfg["s"])
    lo = cfg["degree_min"] if cfg["degree_min"] is not None else lo_default
    hi = cfg["degree_max"] if cfg["degree_max"] is not None else hi_default
    return lo, hi


def cmd_eigendecay(cfg):
    table = _spectrum(cfg)
    lo, hi = _degree_range(cfg)
    slope, r2 = eigendecay_fit(table, parity=cfg["parity"], degree_range=(lo, hi))
    payload = {
        "family": cfg["family"], "s": cfg["s"], "d": cfg["d"],
        "parity": cfg["parity"], "degree_min": lo, "degree_max": hi,
        "slope": slope, "r_squared": r2,
    }
    return _payload_texts(
        cfg, payload, ("slope", "r_squared", "parity", "degree_min", "degree_max")
    )


def cmd_matern_compare(cfg):
    table = _spectrum(cfg)
    matern = matern_spectrum(
        MaternSpec(nu=cfg["nu"], d=cfg["d"], lengthscale=cfg["lengthscale"]),
        cfg["max_degree"],
    )
    lo, hi = _degree_range(cfg)
    min_ratio, max_ratio = rkhs_equivalence_ratio(
        table, matern, (lo, hi), parity=cfg["parity"]
    )
    spread = max_ratio / min_ratio if min_ratio > 0 else float("inf")
    payload = {
        "family": cfg["family"], "s": cfg["s"], "d": cfg["d"], "nu": cfg["nu"],
        "lengthscale": cfg["lengthscale"], "parity": cfg["parity"],
        "degree_min": lo, "degree_max": hi,
        "min_ratio": min_ratio, "max_ratio": max_ratio, "ratio_spread": spread,
    }
    return _payload_texts(cfg, payload, ("min_ratio", "max_ratio", "ratio_spread"))


def cmd_infogain(cfg):
    from .regression import _infogain_summary, sample_sphere

    points = sample_sphere(cfg["d"], cfg["n"], cfg["seed"])
    report = _infogain_summary(_kernel(cfg), points, cfg["lam"])
    return report.to_csv(), lambda: report.to_json(config=cfg)


def cmd_sample_greedy(cfg):
    from .experiments import SALT_GREEDY_GRID
    from .regression import greedy_max_variance, sample_sphere

    grid = sample_sphere(cfg["d"], cfg["grid_size"], [cfg["seed"], SALT_GREEDY_GRID])
    trace = greedy_max_variance(_kernel(cfg), grid, cfg["n"], cfg["lam"])
    return trace.to_csv(), lambda: trace.to_json(config=cfg)


def cmd_error_rate(cfg):
    from .experiments import _grid, error_rate_experiment

    report = error_rate_experiment(
        cfg["family"], cfg["s"], cfg["d"],
        n_grid=_grid(None, cfg["max_exp"])[0],
        repetitions=cfg["reps"],
        master_seed=cfg["seed"],
        eval_sample=cfg["eval_sample"],
        train_lam2=cfg["lam2"],
        noise_scale=cfg["noise_scale"],
        n0=cfg["n0"],
        ridge=cfg["ridge"],
        nested=not cfg["independent"],
        workers=cfg["workers"] if cfg["workers"] is not None else _available_cpus(),
    )
    return report.to_csv(), lambda: report.to_json(config=cfg)


def cmd_mig_growth(cfg):
    from .experiments import _grid, mig_growth_experiment

    report = mig_growth_experiment(
        cfg["family"], cfg["s"], cfg["d"],
        n_grid=_grid(None, cfg["max_exp"])[0],
        lam=cfg["lam"],
        candidate_grid_size=cfg["grid_size"],
        seed=cfg["seed"],
    )
    return report.to_csv(), lambda: report.to_json(config=cfg)


_HANDLERS = {
    "kernel-eval": cmd_kernel_eval,
    "spectrum": cmd_spectrum,
    "eigendecay": cmd_eigendecay,
    "matern-compare": cmd_matern_compare,
    "infogain": cmd_infogain,
    "sample-greedy": cmd_sample_greedy,
    "error-rate": cmd_error_rate,
    "mig-growth": cmd_mig_growth,
}


def _check_destinations(args):
    """Reject an output path that is empty, is a directory or lies in none,
    before any work."""
    for path in (p for p in (args.out, args.emit_plot_data) if p is not None):
        if not path:
            raise ConfigurationError("cannot write an empty path")
        parent = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            raise ConfigurationError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(parent):
            raise ConfigurationError(f"cannot write {path}: no directory {parent}")


def _write(path, text):
    """Write ``text`` to ``path``; an OSError is a configuration error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_destinations(args)
        cfg = resolve_config(args.command, args)
        csv_text, json_factory = _HANDLERS[args.command](cfg)
        text = csv_text if cfg["format"] == "csv" else json_factory()
        if args.emit_plot_data is not None:
            _write(args.emit_plot_data, csv_text)
        if args.out is not None:
            _write(args.out, text)
    except ConfigurationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
