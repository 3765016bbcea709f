"""Command-line front end: sweeps, mode search, tuning, analysis, validation.

Outputs are CSV for curves and JSON for reports.  Every file records the
manifest (command, config path, parameters, tool version and numerical
stack) that produced it, so identical manifests reproduce byte-identical
outputs.

Exit codes: 0 success, 2 no-mode-found, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import sys
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import (
    anomaly_window,
    exact_transmission,
    fano_reduce,
    model_transmission,
    peak_dip_locations,
    phase_curve,
)
from .errors import ConfigError, SlabError
from .expansion import extract_coefficients, verify_relations
from .lattice import OK, LatticeConfig, grid_status
from .modes import (
    branch_seeds,
    find_real_mode,
    polish_mode,
    trace_branch,
    tune_structure,
    verify_mode,
)
from .scattering import solve_grid

EXIT_OK = 0
EXIT_NO_MODE = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4

FLOAT_FMT = "{:.12e}"
MANIFEST_PREFIX = "# manifest: "


def _fmt(x) -> str:
    return FLOAT_FMT.format(float(x))


def _manifest(args, command: str) -> dict:
    params = {}
    for key in ("kappa", "kappa_range", "omega_range", "grid", "param_range",
                "kappa_tilde", "mode"):
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return {
        "command": command,
        "config": str(getattr(args, "config", "")),
        "params": params,
        "stack": {"machine": platform.machine(), "numpy": np.__version__,
                  "python": platform.python_version()},
        "version": __version__,
    }


def _write_csv(path: Path, manifest: dict, header: str, rows):
    """Write the manifest, the header and ``rows`` in one write: a string
    row as it is (a comment), any other as ``_fmt`` writes each value, in one
    format operation per row."""
    lines = [MANIFEST_PREFIX + json.dumps(manifest, sort_keys=True), header]
    for row in rows:
        if isinstance(row, str):
            lines.append(row)
        else:
            lines.append(",".join([FLOAT_FMT] * len(row)).format(*map(float, row)))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _plain(value):
    """The strict-JSON form of a report value.

    A result dataclass becomes its fields, less its array fields (such as
    ``GuidedMode.nullvector``); a complex value becomes [re, im] and a
    non-finite float None.  Dicts, lists and tuples are walked.
    """
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)
                if not isinstance(getattr(value, f.name), np.ndarray)}
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return [_plain(value.real), _plain(value.imag)]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _write_json(path: Path, manifest: dict, payload, **extra):
    """Write ``payload`` (a dict or a result dataclass) plus ``extra`` keys
    and the manifest as strict JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {**_plain(payload), **_plain(extra), "manifest": manifest}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _parse_range(spec: str):
    try:
        lo, hi = spec.split(":")
        lo, hi = float(lo), float(hi)
    except (AttributeError, ValueError):  # not a string, or not LO:HI
        raise ConfigError(f"range {spec!r} is not LO:HI") from None
    if not np.isfinite([lo, hi]).all():
        raise ConfigError(f"range {spec!r} is not finite")
    return lo, hi


def cmd_dispersion(args) -> int:
    config = LatticeConfig.from_json(args.config)
    k_lo, k_hi = _parse_range(args.kappa_range)
    om_lo, om_hi = _parse_range(args.omega_range)
    kappas = np.linspace(k_lo, k_hi, args.grid)
    seeds = branch_seeds(config, kappas[0], (om_lo, om_hi))
    if not seeds:
        print("dispersion: no branch near zero in the omega window",
              file=sys.stderr)
        return EXIT_NUMERICAL
    samples = trace_branch(config, kappas, seeds[0])
    rows = [(s.kappa, s.omega.real, s.omega.imag, s.residual) for s in samples]
    out = Path(args.out) / "dispersion.csv"
    _write_csv(out, _manifest(args, "dispersion"),
               "kappa,re_omega,im_omega,residual", rows)
    print(out)
    return EXIT_OK


def cmd_transmission(args) -> int:
    config = LatticeConfig.from_json(args.config)
    om_lo, om_hi = _parse_range(args.omega_range)
    omegas = np.linspace(om_lo, om_hi, args.grid)
    manifest = _manifest(args, "transmission")
    for kappa in args.kappa:
        status = grid_status(kappa, omegas, config)
        solved = status == OK
        t_abs, r_abs, raw = exact_transmission(config, kappa, omegas[solved])
        # unwrap the phase over the solved rows
        curve = iter(zip(t_abs, r_abs, np.unwrap(raw)))
        rows = [(om, *next(curve)) if st == OK else f"# {st} skip omega={_fmt(om)}"
                for om, st in zip(omegas, status)]
        out = Path(args.out) / f"transmission_kappa_{kappa:+.6f}.csv"
        _write_csv(out, manifest, "omega,T,R,phase_rad", rows)
        print(out)
    return EXIT_OK


def cmd_find_mode(args) -> int:
    config = LatticeConfig.from_json(args.config)
    mode = find_real_mode(config, _parse_range(args.kappa_range),
                          _parse_range(args.omega_range), n_kappa=args.grid)
    if mode is None:
        print("find-mode: none found", file=sys.stderr)
        return EXIT_NO_MODE
    report = verify_mode(mode, config)
    out = Path(args.out) / "mode.json"
    _write_json(out, _manifest(args, "find-mode"), mode, verification=report)
    print(out)
    return EXIT_OK


def cmd_tune(args) -> int:
    config = LatticeConfig.from_json(args.config)
    param_range = _parse_range(args.param_range) if args.param_range else None
    tuned, mode = tune_structure(
        config,
        _parse_range(args.kappa_range),
        _parse_range(args.omega_range),
        param_range=param_range,
    )
    report = verify_mode(mode, tuned)
    manifest = _manifest(args, "tune")
    out_cfg = Path(args.out) / "tuned_config.json"
    _write_json(out_cfg, manifest, tuned.to_dict())
    out_mode = Path(args.out) / "mode.json"
    _write_json(out_mode, manifest, mode, verification=report)
    print(out_cfg)
    print(out_mode)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = LatticeConfig.from_json(args.config)
    if args.mode:
        try:
            with open(args.mode) as fh:
                data = json.load(fh)
            kappa0, omega0 = data["kappa0"], data["omega0"]
            if not ({type(kappa0), type(omega0)} <= {int, float}  # not bool
                    and np.isfinite([kappa0, omega0]).all()):
                raise ValueError("kappa0 and omega0 must be finite numbers")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read mode {args.mode}: {exc}") from exc
        mode = polish_mode(config, kappa0, omega0, None)
    else:
        mode = find_real_mode(config, _parse_range(args.kappa_range),
                              _parse_range(args.omega_range), n_kappa=args.grid)
    if mode is None:
        print("analyze: no verified mode", file=sys.stderr)
        return EXIT_NO_MODE

    manifest = _manifest(args, "analyze")
    outdir = Path(args.out)
    coeffs = extract_coefficients(config, mode)
    _write_json(outdir / "coefficients.json", manifest, coeffs)
    _write_json(outdir / "relations.json", manifest,
                {"case": coeffs.case, "relations": verify_relations(coeffs)})
    if coeffs.case == 2:
        _write_json(outdir / "fano.json", manifest,
                    fano_reduce(coeffs, args.kappa_tilde[0]))
    summary = []
    for kt in args.kappa_tilde:
        kappa = mode.kappa0 + kt
        lo, hi = anomaly_window(coeffs, kappa)
        omegas = np.linspace(lo, hi, args.grid)
        t_exact, _, raw = exact_transmission(config, kappa, omegas)
        t_model = model_transmission(coeffs, kappa, omegas)
        ph = phase_curve(t_exact, raw)
        rows = list(zip(omegas, t_exact, t_model, ph))
        _write_csv(outdir / f"compare_ktilde_{kt:+.6f}.csv", manifest,
                   "omega,T_exact,T_model,phase_rad", rows)
        pk, dp = peak_dip_locations(coeffs, kappa)
        summary.append({
            "kappa_tilde": kt,
            "omega_peak_pred": pk,
            "omega_dip_pred": dp,
            "sup_model_error": float(np.max(np.abs(t_model - t_exact))),
        })
    _write_json(outdir / "anomaly_summary.json", manifest, {"curves": summary})
    print(outdir / "coefficients.json")
    return EXIT_OK


def cmd_validate(args) -> int:
    if (args.config is None) != (args.kappa is None):
        missing = "--kappa" if args.kappa is None else "--config"
        raise ConfigError(f"validate re-solves rows with --config and --kappa: "
                          f"{missing} is missing")
    path = Path(args.csv)
    try:  # _write_csv's layout: a manifest line, the header, rows, skip comments
        lines = path.read_text().splitlines()
        head = lines[0] if lines else ""
        manifest = (json.loads(head[len(MANIFEST_PREFIX):])
                    if head.startswith(MANIFEST_PREFIX) else {})
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            om_csv, t_csv, r_csv = np.loadtxt(
                lines, delimiter=",", comments=("#", "omega"), usecols=(0, 1, 2),
                ndmin=2).T
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from exc
    params = manifest.get("params", {}) if isinstance(manifest, dict) else None
    if not isinstance(params, dict):
        raise ConfigError(f"CSV {path}: the manifest and its params must be "
                          "JSON objects")
    if not len(om_csv):
        print("validate: no data rows", file=sys.stderr)
        return EXIT_NUMERICAL
    # fmax skips NaN residuals, as max() over Python floats from 0.0 does
    worst = np.fmax.reduce(np.abs(r_csv * r_csv + t_csv * t_csv - 1.0),
                           initial=0.0)
    print(f"validate: {len(om_csv)} rows, worst energy residual {worst:.3e}")
    if worst > 1e-10:
        print("validate: energy identity violated", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.config is None:
        return EXIT_OK
    config = LatticeConfig.from_json(args.config)
    picks = np.random.default_rng(args.seed).choice(
        len(om_csv), size=min(args.rows, len(om_csv)), replace=False)
    omegas = om_csv[picks]
    off_grid = np.zeros(len(picks), dtype=bool)
    n = params.get("grid")
    if n is not None and (type(n) is not int or n < 1):  # a bool is no grid
        raise ConfigError(f"CSV {path}: manifest grid {n!r} is not a "
                          "positive integer")
    if "omega_range" in params and n is not None:
        # a row holds its grid point as FLOAT_FMT printed it: re-solve on that
        # point, the first one where two print alike
        grid = np.linspace(*_parse_range(params["omega_range"]), n)
        index = {float(_fmt(g)): i for i, g in reversed(list(enumerate(grid)))}
        at = np.array([index.get(om, -1) for om in omegas.tolist()], dtype=int)
        off_grid = at < 0
        omegas = np.where(off_grid, omegas, grid[at])
    sol = solve_grid(args.kappa, omegas, config)
    t = sol.transmission
    failed = off_grid | (sol.status != OK) | (
        np.abs(np.hypot(t.real, t.imag) - t_csv[picks]) > 1e-9)
    if failed.any():
        j = int(np.argmax(failed))  # the first failure in pick order
        if not off_grid[j]:
            sol.raise_skipped([j])
        reason = "is not on the manifest grid" if off_grid[j] else "does not re-solve"
        print(f"validate: row omega={float(sol.omega[j])} {reason}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"validate: {len(picks)} rows re-solved OK")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="slabresonance",
        description="Lattice-slab scattering, guided modes and transmission "
                    "anomalies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config JSON path")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("dispersion", help="trace omega(kappa) to CSV")
    common(p)
    p.add_argument("--kappa-range", required=True, metavar="LO:HI")
    p.add_argument("--omega-range", required=True, metavar="LO:HI")
    p.add_argument("--grid", type=int, default=100)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("transmission", help="per-kappa transmission curves")
    common(p)
    p.add_argument("--kappa", type=float, action="append", required=True)
    p.add_argument("--omega-range", required=True, metavar="LO:HI")
    p.add_argument("--grid", type=int, default=400)
    p.set_defaults(func=cmd_transmission)

    p = sub.add_parser("find-mode", help="locate a real guided-mode point")
    common(p)
    p.add_argument("--kappa-range", required=True, metavar="LO:HI")
    p.add_argument("--omega-range", required=True, metavar="LO:HI")
    p.add_argument("--grid", type=int)  # default: see find_real_mode
    p.set_defaults(func=cmd_find_mode)

    p = sub.add_parser("tune", help="tune the config's parameter to a mode")
    common(p)
    p.add_argument("--kappa-range", required=True, metavar="LO:HI")
    p.add_argument("--omega-range", required=True, metavar="LO:HI")
    p.add_argument("--param-range", metavar="LO:HI")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("analyze", help="coefficients, relations, comparisons")
    common(p)
    p.add_argument("--mode", help="mode JSON from find-mode/tune: polish "
                   "from its (kappa0, omega0) instead of scanning")
    p.add_argument("--kappa-range", default="0.0:0.3", metavar="LO:HI")
    p.add_argument("--omega-range", default="0.5:1.7", metavar="LO:HI")
    p.add_argument("--kappa-tilde", type=float, action="append",
                   default=None, help="kt offsets for comparison curves")
    p.add_argument("--grid", type=int, default=401)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="check energy identity in a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--config")
    p.add_argument("--kappa", type=float)
    p.add_argument("--rows", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "kappa_tilde", "skip") is None:
        args.kappa_tilde = [0.01, -0.01]
    try:
        if getattr(args, "grid", None) is not None and args.grid < 1:
            raise ConfigError(f"--grid must be at least 1, got {args.grid}")
        if getattr(args, "rows", 0) < 0:
            raise ConfigError(f"--rows must not be negative, got {args.rows}")
        for key in ("kappa", "kappa_tilde"):
            values = getattr(args, key, None) or []
            if not np.isfinite(values).all():
                raise ConfigError(f"--{key.replace('_', '-')} must be finite, "
                                  f"got {values}")
        if 0 in (getattr(args, "kappa_tilde", None) or []):
            # anomaly_window's width is proportional to kt^2
            raise ConfigError(f"--kappa-tilde must be nonzero, got "
                              f"{args.kappa_tilde}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SlabError as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
