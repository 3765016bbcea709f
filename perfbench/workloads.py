"""Seeded inputs and the operations of each benchmark workload.

A workload is a fixed list of operations, built once per run from the seed
and repeated pass after pass.  An operation is one README command driven
in-process through ``slabresonance.cli.main``, or one direct
``anomaly.enhancement_scaling`` call, which no command reaches.

- ``sweep``: ``transmission`` curves plus a ``validate`` that re-solves every
  row.  All work is in ``lattice``, ``scattering`` and the ``cli`` write/read
  path; random configs vary the period (1-4) and defect count (1-6), which set
  the matrix sizes.
- ``roots``: ``dispersion`` and ``find-mode`` on case2, ``tune`` on case1.
  All work is in ``modes`` and ``eigen_branch``; no ``solve_scattering``.
- ``analyze``: ``analyze`` on the standing (case2) and traveling (tuned case1)
  modes, then ``enhancement_scaling`` on both.  The only workload that reaches
  ``expansion`` and ``anomaly``.

Each workload also has canonical operations: the README commands with the
README's arguments, whose outputs are compared to ``reference/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = ROOT / "configs"
REFERENCE = BENCH / "reference"
CASE2 = CONFIGS / "case2_symmetric.json"
CASE1 = CONFIGS / "case1_seed.json"
# output of the README `tune` command at the seed commit; the README feeds it
# to `analyze`
TUNED = REFERENCE / "tune" / "tuned_config.json"

GRID = 400
N_RANDOM = 8
KT_RANGE = (0.005, 0.02)
JITTER = 0.01

WORKLOADS = ("sweep", "roots", "analyze")
# Under the run directory: the outputs of one pass, replaced before each pass,
# and those of the canonical commands.
PASS = "pass"
CANONICAL = "canonical"


@dataclass
class Op:
    """One timed operation and what its output check needs to know."""

    kind: str
    label: str
    argv: list[str] | None = None
    enhancement: tuple | None = None  # (config, mode, kt list)
    curves: int = 1
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    canonical: list[Op]


def _r(x: float) -> float:
    return round(float(x), 6)


def regime(kappa: float, period: int) -> tuple[float, float]:
    """Real omega interval where order 0 alone propagates at this kappa."""
    s0 = math.sin(kappa / 2.0)
    lo, hi = 2.0 * abs(s0), 2.0 * math.sqrt(1.0 + s0 * s0)
    for p in range(1, period):
        hi = min(hi, 2.0 * abs(math.sin((kappa + 2.0 * math.pi * p / period) / 2.0)))
    return lo, hi


def omega_window(rng, kappas, period: int) -> tuple[float, float]:
    """Seeded window inside the one-order regime of every kappa given."""
    lo = max(regime(k, period)[0] for k in kappas)
    hi = min(regime(k, period)[1] for k in kappas)
    while True:
        u = np.sort(rng.uniform(0.02, 0.98, 2))
        if u[1] - u[0] >= 0.25:
            return _r(lo + u[0] * (hi - lo)), _r(lo + u[1] * (hi - lo))


def random_config(rng, period: int, n_defects: int) -> dict:
    """Lossless config with distinct sites at rows z in [-2, 2]."""
    sites = [(x, z) for x in range(period) for z in range(-2, 3)]
    pick = rng.choice(len(sites), size=n_defects, replace=False)
    defects = [{"x": sites[i][0], "z": sites[i][1], "d": _r(rng.uniform(-2.0, 2.0))}
               for i in pick]
    pendants = []
    if rng.random() < 0.5:
        pendants.append({"host": int(rng.integers(0, n_defects)),
                         "mu": _r(rng.uniform(0.1, 3.0)),
                         "g": _r(rng.uniform(0.1, 1.0))})
    return {"period": period, "defects": defects, "pendants": pendants}


def _transmission_ops(label, config: Path, kappas, window, out: Path, seed):
    csv = out / label
    ops = [Op("transmission", label, curves=len(kappas), argv=[
        "transmission", f"--config={config}", *(f"--kappa={k}" for k in kappas),
        f"--omega-range={window[0]}:{window[1]}", f"--grid={GRID}", f"--out={csv}"],
        expect={"kappas": kappas, "window": window, "grid": GRID, "dir": csv})]
    for k in kappas:
        path = csv / f"transmission_kappa_{k:+.6f}.csv"
        ops.append(Op("validate", f"{label}-validate{k:+.6f}", argv=[
            "validate", f"--csv={path}", f"--config={config}", f"--kappa={k}",
            f"--rows={GRID}", f"--seed={seed}"],
            expect={"csv": path, "config": config, "kappa": k, "rows": GRID}))
    return ops


def sweep(rng, out: Path, seed: int) -> Workload:
    ops = []
    for name, path in (("case2", CASE2), ("case1", CASE1)):
        kappas = sorted({_r(rng.uniform(-0.3, 0.3)) for _ in range(2)})
        window = omega_window(rng, kappas, 3)
        ops += _transmission_ops(name, path, kappas, window, out / PASS, seed)
    # stratified so every seed has the same mix of periods and defect counts
    for i in range(N_RANDOM):
        period, n_def = 1 + i % 4, 1 + i % 6
        path = out / "inputs" / f"random{i}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(random_config(rng, period, n_def)))
        kappa = _r(rng.uniform(-0.4, 0.4))
        ops += _transmission_ops(f"random{i}", path, [kappa],
                                 omega_window(rng, [kappa], period), out / PASS,
                                 seed)
    canon = out / CANONICAL
    csv = canon / "transmission_kappa_+0.020000.csv"
    canonical = [
        Op("transmission", "readme-transmission", argv=[
            "transmission", f"--config={CASE2}", "--kappa=0.02",
            "--omega-range=1.40:1.55", "--grid=400", f"--out={canon}"],
            expect={"kappas": [0.02], "window": (1.40, 1.55), "grid": 400,
                    "dir": canon, "reference": "transmission"}),
        Op("validate", "readme-validate", argv=[
            "validate", f"--csv={csv}", f"--config={CASE2}", "--kappa=0.02"],
            expect={"csv": csv, "config": CASE2, "kappa": 0.02, "rows": 5}),
        Op("validate", "readme-validate-all-rows", argv=[
            "validate", f"--csv={csv}", f"--config={CASE2}", "--kappa=0.02",
            "--rows=400"],
            expect={"csv": csv, "config": CASE2, "kappa": 0.02, "rows": 400}),
    ]
    return Workload(ops, canonical)


def _jitter(rng, lo, hi):
    return _r(lo + rng.uniform(-JITTER, JITTER)), _r(hi + rng.uniform(-JITTER, JITTER))


def _roots_ops(kr2, or2, kr1, or1, out: Path, prefix="", reference=False):
    def ref(name):
        return {"reference": name} if reference else {}

    return [
        Op("dispersion", prefix + "dispersion", argv=[
            "dispersion", f"--config={CASE2}", f"--kappa-range={kr2[0]}:{kr2[1]}",
            f"--omega-range={or2[0]}:{or2[1]}", "--grid=100",
            f"--out={out / (prefix + 'dispersion')}"],
            expect={"kappa_range": kr2, "grid": 100,
                    "dir": out / (prefix + "dispersion"), **ref("dispersion")}),
        Op("find_mode", prefix + "find-mode", argv=[
            "find-mode", f"--config={CASE2}", f"--kappa-range={kr2[0]}:{kr2[1]}",
            f"--omega-range={or2[0]}:{or2[1]}", f"--out={out / (prefix + 'find-mode')}"],
            expect={"dir": out / (prefix + "find-mode"), **ref("find-mode")}),
        Op("tune", prefix + "tune", argv=[
            "tune", f"--config={CASE1}", f"--kappa-range={kr1[0]}:{kr1[1]}",
            f"--omega-range={or1[0]}:{or1[1]}", "--param-range=0.05:0.8",
            f"--out={out / (prefix + 'tune')}"],
            expect={"dir": out / (prefix + "tune")}),
    ]


def roots(rng, out: Path) -> Workload:
    ops = _roots_ops(_jitter(rng, -0.25, 0.25), _jitter(rng, 1.3, 1.7),
                     _jitter(rng, 0.08, 0.32), _jitter(rng, 1.30, 1.46), out / PASS)
    canonical = _roots_ops((-0.25, 0.25), (1.3, 1.7), (0.08, 0.32), (1.30, 1.46),
                           out / CANONICAL, prefix="readme-", reference=True)
    return Workload(ops, canonical)


def _analyze_op(label, config: Path, kr, orng, kts, case, out: Path, reference=False):
    return Op("analyze", label, curves=len(kts), argv=[
        "analyze", f"--config={config}", f"--kappa-range={kr[0]}:{kr[1]}",
        f"--omega-range={orng[0]}:{orng[1]}", *(f"--kappa-tilde={k}" for k in kts),
        f"--out={out / label}"],
        expect={"case": case, "kts": kts, "dir": out / label,
                **({"reference": "analyze"} if reference else {})})


def _kt(rng):
    return _r(rng.choice([-1.0, 1.0]) * rng.uniform(*KT_RANGE))


def _enhancement_kts(rng):
    """Four single-signed offsets, each 1.6-2.2 times the previous one."""
    kts = [rng.uniform(0.004, 0.006)]
    for _ in range(3):
        kts.append(kts[-1] * rng.uniform(1.6, 2.2))
    sign = rng.choice([-1.0, 1.0])
    return [_r(sign * k) for k in kts]


def analyze(rng, out: Path, modes: dict) -> Workload:
    """``modes`` maps "case2"/"case1" to (config, GuidedMode) found at set-up."""
    ops = [
        _analyze_op("case2-analyze", CASE2, (-0.25, 0.25), (1.3, 1.7),
                    [_kt(rng), _kt(rng)], 2, out / PASS),
        _analyze_op("case1-analyze", TUNED, (0.09, 0.30), (1.30, 1.46),
                    [_kt(rng), _kt(rng)], 1, out / PASS),
    ]
    for name in ("case2", "case1"):
        config, mode = modes[name]
        ops.append(Op("enhancement", f"{name}-enhancement",
                      enhancement=(config, mode, _enhancement_kts(rng))))
    canonical = [_analyze_op("readme-analyze", TUNED, (0.09, 0.30), (1.30, 1.46),
                             [0.01], 1, out / CANONICAL, reference=True)]
    return Workload(ops, canonical)


MODE_SEARCH = {
    "case2": (CASE2, (-0.25, 0.25), (1.3, 1.7)),
    "case1": (TUNED, (0.09, 0.30), (1.30, 1.46)),
}


def build(name: str, seed: int, out: Path) -> Workload:
    """Load configs, make the seeded inputs and warm up the workload's path."""
    from slabresonance import cli
    from slabresonance.lattice import LatticeConfig
    from slabresonance.modes import find_real_mode

    rng = np.random.default_rng(seed)
    if name == "analyze":
        # the mode search is analyze's warm-up; enhancement_scaling needs modes
        modes = {}
        for key, (path, kr, orng) in MODE_SEARCH.items():
            config = LatticeConfig.from_json(path)
            mode = find_real_mode(config, kr, orng)
            if mode is None:
                raise RuntimeError(f"no mode found for {key} at set-up")
            modes[key] = (config, mode)
        return analyze(rng, out, modes)
    if name == "sweep":
        warm_up = ["transmission", "--kappa=0.02", "--omega-range=1.40:1.55"]
        wl = sweep(rng, out, seed)
    else:
        warm_up = ["dispersion", "--kappa-range=-0.25:0.25", "--omega-range=1.3:1.7"]
        wl = roots(rng, out)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(warm_up + [f"--config={CASE2}", "--grid=4", f"--out={out / 'warmup'}"])
    if rc != 0:
        raise RuntimeError(f"warm-up command {warm_up[0]} exited {rc}")
    return wl
