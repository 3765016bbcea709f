"""Output checks for every benchmark operation.

Each check applies physics checks to what the operation wrote (energy
balance, the dispersion sign, the case2 mode location, relation ratios, the
enhancement slope) and, for canonical operations, compares the numbers with
the outputs checked in under ``reference/`` at the seed commit.

A failed check names its reason.  A check whose failure is caused by a known
program defect records that defect under its tag instead: the defect is
counted and reported on every run, apart from failures.  Only a failure with
no known cause fails the operation and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import REFERENCE

# Tags of known program defects, left for later fixes.  A failure gets a tag
# only when its cause is shown, not merely when it happens where expected.
# - validate-rounding: `validate` compares a re-solved |T| to the CSV with a
#   fixed 1e-9 tolerance, but the CSV rounds omega to 13 digits.
# - relations-zero-error: a relation whose combined_error is exactly 0 reports
#   ratio Infinity.

ENERGY_TOL = 1e-10       # the bound `validate` applies to R^2 + T^2 - 1
CSV_TOL = 1e-12          # a CSV value may not move further (ROADMAP)
ROOT_REF_TOL = 1e-10     # tuned g and mode points (ROADMAP item 4)
CASE2_MODE = (0.0, 1.497123)
RELATION_RATIO = 3.0
SLOPE_TOL = 0.1
LINESHAPE_TOL = 0.05     # sup |T_model - T_exact|, as in acceptance test 06


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    defects: list[tuple[str, str]] = field(default_factory=list)  # (reason, tag)
    rows_written: int = 0
    rows_skipped: int = 0
    rows_resolved: int = 0
    energy_residual: float = 0.0
    ref_diff: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def clean(self) -> bool:
        """Neither a failure nor a known defect."""
        return not self.problems and not self.defects

    def fail(self, reason: str, tag: str | None = None):
        """Record a failed check; ``tag`` names the known defect shown to cause it."""
        if tag:
            self.defects.append((reason, tag))
        else:
            self.problems.append(reason)

    def ref(self, diff: float):
        self.ref_diff = max(self.ref_diff or 0.0, float(diff))


def read_csv(path: Path):
    """(manifest, data rows as an array, number of comment rows)."""
    manifest, rows, skipped = None, [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("# manifest: "):
                manifest = json.loads(line[len("# manifest: "):])
            elif line.startswith("#"):
                skipped += 1
            elif line[:1].isalpha():
                continue  # header
            elif line.strip():
                rows.append([float(t) for t in line.split(",")])
    return manifest, np.array(rows, dtype=float).reshape(len(rows), -1), skipped


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)  # accepts the non-standard Infinity token


def _on_grid(values, grid) -> float:
    """Largest distance of any value from its nearest grid point."""
    idx = np.clip(np.searchsorted(grid, values), 1, len(grid) - 1)
    return float(np.max(np.minimum(np.abs(values - grid[idx]),
                                   np.abs(values - grid[idx - 1]))))


def _compare(out: Outcome, got, want, tol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        out.fail(f"{what}: shape {got.shape} differs from reference {want.shape}")
        return
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    out.ref(diff)
    if not diff <= tol:
        out.fail(f"{what}: differs from reference by {diff:.3e} > {tol:.0e}")


def check_transmission(op, res, out: Outcome):
    exp = op.expect
    grid = np.linspace(exp["window"][0], exp["window"][1], exp["grid"])
    for k in exp["kappas"]:
        path = exp["dir"] / f"transmission_kappa_{k:+.6f}.csv"
        if not path.exists():
            out.fail(f"{path.name} missing")
            continue
        _, rows, skipped = read_csv(path)
        out.rows_written += len(rows)
        out.rows_skipped += skipped
        if len(rows) + skipped != exp["grid"]:
            out.fail(f"{path.name}: {len(rows)} rows + {skipped} skips != grid")
            continue
        if not len(rows):
            continue
        om, t, r, ph = rows.T
        if _on_grid(om, grid) > CSV_TOL * 2.0:
            out.fail(f"{path.name}: omega column off the requested grid")
        if np.any(t < 0) or np.any(r < 0) or np.any(t > 1 + CSV_TOL) or np.any(r > 1 + CSV_TOL):
            out.fail(f"{path.name}: |T| or |R| outside [0, 1]")
        if not np.all(np.isfinite(ph)):
            out.fail(f"{path.name}: non-finite phase")
        resid = float(np.max(np.abs(r * r + t * t - 1.0)))
        out.energy_residual = max(out.energy_residual, resid)
        if not resid <= ENERGY_TOL:
            out.fail(f"{path.name}: energy residual {resid:.2e} > {ENERGY_TOL:.0e}")
        if exp.get("reference"):
            _, ref, _ = read_csv(REFERENCE / exp["reference"] / path.name)
            _compare(out, rows, ref, CSV_TOL, path.name)


def _rounding_explains(exp, omega_csv: float) -> bool:
    """True when the failing row re-solves at its unrounded grid omega."""
    from slabresonance.lattice import LatticeConfig, SpectralPoint
    from slabresonance.scattering import solve_scattering

    manifest, rows, _ = read_csv(exp["csv"])
    lo, hi = (float(v) for v in manifest["params"]["omega_range"].split(":"))
    grid = np.linspace(lo, hi, manifest["params"]["grid"])
    exact = float(grid[np.argmin(np.abs(grid - omega_csv))])
    t_csv = float(rows[np.argmin(np.abs(rows[:, 0] - omega_csv)), 1])
    config = LatticeConfig.from_json(exp["config"])

    def t_at(om):
        sol = solve_scattering(SpectralPoint(exp["kappa"], om), config, strict=False)
        return abs(sol.transmission)

    return (abs(t_at(exact) - t_csv) <= CSV_TOL * 10
            and abs(t_at(omega_csv) - t_csv) > 1e-9)


def check_validate(op, res, out: Outcome):
    exp = op.expect
    _, rows, _ = read_csv(exp["csv"])
    n = min(exp["rows"], len(rows))
    if res.rc == 0 and f"{n} rows re-solved OK" in res.stdout:
        out.rows_resolved = n
        return
    match = re.search(r"row omega=(\S+) does not re-solve", res.stderr)
    if res.rc == 3 and match:
        om = float(match.group(1))
        tag = "validate-rounding" if _rounding_explains(exp, om) else None
        out.fail(f"row omega={om!r} does not re-solve", tag)
        return
    out.fail(f"exit {res.rc}: {res.stderr.strip()[-200:]}")


def check_dispersion(op, res, out: Outcome):
    exp = op.expect
    _, rows, skipped = read_csv(exp["dir"] / "dispersion.csv")
    out.rows_written += len(rows)
    out.rows_skipped += skipped
    if len(rows) != exp["grid"]:
        out.fail(f"dispersion.csv has {len(rows)} rows, expected {exp['grid']}")
        return
    kappa, re_om, im_om, resid = rows.T
    want = np.linspace(exp["kappa_range"][0], exp["kappa_range"][1], exp["grid"])
    if float(np.max(np.abs(kappa - want))) > CSV_TOL:
        out.fail("dispersion.csv: kappa column off the requested grid")
    if float(np.max(im_om)) > 1e-9:
        out.fail(f"dispersion sign violated: max Im omega {np.max(im_om):.2e}")
    if float(np.max(resid)) > 1e-10:
        out.fail(f"dispersion residual {np.max(resid):.2e} > 1e-10")
    if exp.get("reference"):
        _, ref, _ = read_csv(REFERENCE / exp["reference"] / "dispersion.csv")
        _compare(out, rows[:, :3], ref[:, :3], ROOT_REF_TOL, "dispersion.csv")


def _mode_json(path: Path, out: Outcome):
    mode = read_json(path)
    if not mode.get("verification", {}).get("passed"):
        out.fail(f"{path.parent.name}/mode.json: verification did not pass")
    return mode


def check_find_mode(op, res, out: Outcome):
    exp = op.expect
    mode = _mode_json(exp["dir"] / "mode.json", out)
    k0, om0 = mode["kappa0"], mode["omega0"]
    if abs(k0 - CASE2_MODE[0]) > 1e-9 or abs(om0 - CASE2_MODE[1]) > 1e-6:
        out.fail(f"case2 mode at ({k0}, {om0}), expected {CASE2_MODE}")
    if exp.get("reference"):
        ref = read_json(REFERENCE / exp["reference"] / "mode.json")
        _compare(out, [k0, om0], [ref["kappa0"], ref["omega0"]], ROOT_REF_TOL,
                 "find-mode point")


def check_tune(op, res, out: Outcome):
    exp = op.expect
    mode = _mode_json(exp["dir"] / "mode.json", out)
    g = read_json(exp["dir"] / "tuned_config.json")["pendants"][0]["g"]
    ref_mode = read_json(REFERENCE / "tune" / "mode.json")
    ref_g = read_json(REFERENCE / "tune" / "tuned_config.json")["pendants"][0]["g"]
    _compare(out, [g, mode["kappa0"], mode["omega0"]],
             [ref_g, ref_mode["kappa0"], ref_mode["omega0"]], ROOT_REF_TOL,
             "tuned g and mode point")


COEFFS = ("l1", "l2", "l3", "r1", "r2", "t1", "t2", "r0", "t0", "eta1", "eta2", "eta")


def check_analyze(op, res, out: Outcome):
    exp = op.expect
    d = exp["dir"]
    coeffs = read_json(d / "coefficients.json")
    if coeffs["case"] != exp["case"]:
        out.fail(f"classified as case {coeffs['case']}, expected {exp['case']}")
    for rel in read_json(d / "relations.json")["relations"]:
        ratio = rel["ratio"]
        if math.isfinite(ratio) and ratio <= RELATION_RATIO:
            continue
        tag = ("relations-zero-error"
               if rel["combined_error"] == 0 and rel["residual"] > 0 else None)
        out.fail(f"relation {rel['name']!r}: ratio {ratio}", tag)
    if exp["case"] == 2:
        fano = read_json(d / "fano.json")
        if not all(math.isfinite(v) for v in fano["condition_residuals"]):
            out.fail("fano.json: non-finite condition residual")
    curves = read_json(d / "anomaly_summary.json")["curves"]
    if len(curves) != len(exp["kts"]):
        out.fail(f"{len(curves)} comparison curves for {len(exp['kts'])} offsets")
    for kt, curve in zip(exp["kts"], curves):
        if not curve["sup_model_error"] < LINESHAPE_TOL:
            out.fail(f"kt={kt}: model error {curve['sup_model_error']:.3f}")
        _, rows, skipped = read_csv(d / f"compare_ktilde_{kt:+.6f}.csv")
        out.rows_written += len(rows)
        out.rows_skipped += skipped
        t_exact = rows[:, 1]
        if np.any(t_exact < 0) or np.any(t_exact > 1 + CSV_TOL):
            out.fail(f"kt={kt}: exact |T| outside [0, 1]")
        if not np.all(np.isfinite(rows)):
            out.fail(f"kt={kt}: non-finite comparison value")
    if exp.get("reference"):
        # a later solver may move a fitted coefficient within its error bar
        ref = read_json(REFERENCE / exp["reference"] / "coefficients.json")
        for name in COEFFS:
            err = ref["fit_errors"].get(name)
            if err is None:
                continue
            diff = float(np.max(np.abs(np.subtract(coeffs[name], ref[name]))))
            out.ref(diff)
            if diff > err:
                out.fail(f"coefficient {name} moved {diff:.2e}, beyond its "
                         f"reference error {err:.2e}")


def check_enhancement(op, res, out: Outcome):
    slope, peaks = res.value
    if not abs(slope + 1.0) <= SLOPE_TOL:
        out.fail(f"enhancement slope {slope:.4f} not within {SLOPE_TOL} of -1")
    if not all(math.isfinite(p) and p > 0 for _, p in peaks):
        out.fail("non-finite or non-positive enhancement peak")


CHECKS = {
    "transmission": check_transmission,
    "validate": check_validate,
    "dispersion": check_dispersion,
    "find_mode": check_find_mode,
    "tune": check_tune,
    "analyze": check_analyze,
    "enhancement": check_enhancement,
}


def check(op, res) -> Outcome:
    out = Outcome()
    if res.error is not None:
        out.fail(f"raised {res.error}")
    elif op.kind not in ("validate", "enhancement") and res.rc != 0:
        out.fail(f"exit {res.rc}: {res.stderr.strip()[-200:]}")
    else:
        try:
            CHECKS[op.kind](op, res, out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            out.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return out
