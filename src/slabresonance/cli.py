"""Command-line front end: sweeps, mode search, tuning, analysis, validation.

Outputs are CSV for curves and JSON for reports.  Every file records the
manifest (command, config path, parameter ranges, seed, tool version) that
produced it, so identical manifests reproduce byte-identical outputs.

Exit codes: 0 success, 2 no-mode-found, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .errors import (
    ConfigError,
    NoPropagatingOrderError,
    SlabError,
    WoodAnomalyError,
)
from .expansion import extract_coefficients, verify_relations
from .lattice import LatticeConfig, SpectralPoint
from .modes import GuidedMode, branch_seeds, find_real_mode, trace_branch, tune_structure
from .scattering import solve_scattering

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
                "kappa_tilde", "rows"):
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return {
        "command": command,
        "config": str(getattr(args, "config", "")),
        "params": params,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
    }


def _write_csv(path: Path, manifest: dict, header: str, rows, comments=()):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(MANIFEST_PREFIX + json.dumps(manifest, sort_keys=True) + "\n")
        fh.write(header + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row + "\n")  # warning/comment row
            else:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        for line in comments:
            fh.write(line + "\n")


def _write_json(path: Path, manifest: dict, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload["manifest"] = manifest
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_config(args) -> LatticeConfig:
    return LatticeConfig.from_json(args.config)


def _parse_range(spec: str):
    lo, hi = spec.split(":")
    return float(lo), float(hi)


def cmd_dispersion(args) -> int:
    config = _load_config(args)
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
    config = _load_config(args)
    om_lo, om_hi = _parse_range(args.omega_range)
    omegas = np.linspace(om_lo, om_hi, args.grid)
    manifest = _manifest(args, "transmission")
    for kappa in args.kappa:
        rows = []
        phases = []
        for om in omegas:
            try:
                sol = solve_scattering(SpectralPoint(kappa, float(om)), config,
                                       strict=False)
            except WoodAnomalyError:
                rows.append(f"# wood-anomaly skip omega={_fmt(om)}")
                continue
            except NoPropagatingOrderError:
                rows.append(f"# no-propagating-order skip omega={_fmt(om)}")
                continue
            phases.append(np.angle(sol.transmission))
            rows.append((om, abs(sol.transmission), abs(sol.reflection), 0.0))
        # unwrap phase over the retained rows
        if phases:
            unwrapped = np.unwrap(np.array(phases))
            j = 0
            for i, row in enumerate(rows):
                if not isinstance(row, str):
                    rows[i] = row[:3] + (unwrapped[j],)
                    j += 1
        out = Path(args.out) / f"transmission_kappa_{kappa:+.6f}.csv"
        _write_csv(out, manifest, "omega,T,R,phase_rad", rows)
        print(out)
    return EXIT_OK


def _mode_payload(mode: GuidedMode, report: dict | None = None) -> dict:
    payload = mode.to_dict()
    if report is not None:
        payload["verification"] = report
    return payload


def cmd_find_mode(args) -> int:
    from .modes import verify_mode

    config = _load_config(args)
    mode = find_real_mode(config, _parse_range(args.kappa_range),
                          _parse_range(args.omega_range), n_kappa=args.grid)
    if mode is None:
        print("find-mode: none found", file=sys.stderr)
        return EXIT_NO_MODE
    report = verify_mode(mode, config)
    out = Path(args.out) / "mode.json"
    _write_json(out, _manifest(args, "find-mode"), _mode_payload(mode, report))
    print(out)
    return EXIT_OK


def cmd_tune(args) -> int:
    from .modes import verify_mode

    config = _load_config(args)
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
    out_cfg.parent.mkdir(parents=True, exist_ok=True)
    with open(out_cfg, "w") as fh:
        json.dump(tuned.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    out_mode = Path(args.out) / "mode.json"
    _write_json(out_mode, manifest, _mode_payload(mode, report))
    print(out_cfg)
    print(out_mode)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _load_config(args)
    if args.mode:
        with open(args.mode) as fh:
            data = json.load(fh)
        mode = find_real_mode(
            config,
            (data["kappa0"] - 0.01, data["kappa0"] + 0.01),
            (data["omega0"] - 0.05, data["omega0"] + 0.05),
            n_kappa=30,
        )
    else:
        mode = find_real_mode(config, _parse_range(args.kappa_range),
                              _parse_range(args.omega_range), n_kappa=args.grid)
    if mode is None:
        print("analyze: no verified mode", file=sys.stderr)
        return EXIT_NO_MODE

    manifest = _manifest(args, "analyze")
    outdir = Path(args.out)
    coeffs = extract_coefficients(config, mode)
    _write_json(outdir / "coefficients.json", manifest, coeffs.to_dict())
    relations = verify_relations(coeffs)
    _write_json(outdir / "relations.json", manifest,
                {"case": coeffs.case,
                 "relations": [r.to_dict() for r in relations]})
    if coeffs.case == 2:
        _write_json(outdir / "fano.json", manifest,
                    fano_reduce(coeffs, args.kappa_tilde[0]))
    summary = []
    for kt in args.kappa_tilde:
        kappa = mode.kappa0 + kt
        lo, hi = anomaly_window(coeffs, kappa)
        omegas = np.linspace(lo, hi, args.grid)
        t_exact, _, _ = exact_transmission(config, kappa, omegas)
        t_model = model_transmission(coeffs, kappa, omegas)
        ph = phase_curve(kappa, omegas, config)
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
    rng = np.random.default_rng(args.seed)
    path = Path(args.csv)
    rows = []
    params = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(MANIFEST_PREFIX):
                params = json.loads(line[len(MANIFEST_PREFIX):]).get("params", {})
            if not line or line.startswith("#") or line.startswith("omega"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        print("validate: no data rows", file=sys.stderr)
        return EXIT_NUMERICAL
    worst = 0.0
    for row in rows:
        _, t, r = row[0], row[1], row[2]
        worst = max(worst, abs(r * r + t * t - 1.0))
    print(f"validate: {len(rows)} rows, worst energy residual {worst:.3e}")
    if worst > 1e-10:
        print("validate: energy identity violated", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.config and args.kappa is not None:
        config = LatticeConfig.from_json(args.config)
        picks = rng.choice(len(rows), size=min(args.rows, len(rows)),
                           replace=False)
        # the CSV rounds omega to 13 digits; re-solve on the exact grid point
        grid = (np.linspace(*_parse_range(params["omega_range"]), params["grid"])
                if "omega_range" in params and "grid" in params else None)
        for i in picks:
            om, t_csv = rows[i][0], rows[i][1]
            if grid is not None:
                om = float(grid[np.argmin(np.abs(grid - om))])
            sol = solve_scattering(SpectralPoint(args.kappa[0], om), config,
                                   strict=False)
            if abs(abs(sol.transmission) - t_csv) > 1e-9:
                print(f"validate: row omega={om} does not re-solve",
                      file=sys.stderr)
                return EXIT_NUMERICAL
        print(f"validate: {len(picks)} rows re-solved OK")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabresonance",
        description="Lattice-slab scattering, guided modes and transmission "
                    "anomalies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, out=True):
        if config:
            p.add_argument("--config", required=True, help="config JSON path")
        if out:
            p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)

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
    p.add_argument("--grid", type=int, default=200)
    p.set_defaults(func=cmd_find_mode)

    p = sub.add_parser("tune", help="tune the config's parameter to a mode")
    common(p)
    p.add_argument("--kappa-range", required=True, metavar="LO:HI")
    p.add_argument("--omega-range", required=True, metavar="LO:HI")
    p.add_argument("--param-range", metavar="LO:HI")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("analyze", help="coefficients, relations, comparisons")
    common(p)
    p.add_argument("--mode", help="mode JSON from find-mode/tune")
    p.add_argument("--kappa-range", default="0.0:0.3", metavar="LO:HI")
    p.add_argument("--omega-range", default="0.5:1.7", metavar="LO:HI")
    p.add_argument("--kappa-tilde", type=float, action="append",
                   default=None, help="kt offsets for comparison curves")
    p.add_argument("--grid", type=int, default=401)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="check energy identity in a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--config")
    p.add_argument("--kappa", type=float, action="append")
    p.add_argument("--rows", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kappa_tilde", "skip") is None:
        args.kappa_tilde = [0.01, -0.01]
    try:
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
