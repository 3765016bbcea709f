"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

from slabresonance import (
    SpectralPoint,
    coefficient_triple,
    enhancement_scaling,
    fano_reduce,
    fano_shape,
    formula_case2,
    peak_dip_locations,
    phase_curve,
    solve_scattering,
    verify_mode,
    verify_relations,
)
from slabresonance.anomaly import anomaly_window, exact_transmission, model_transmission
from slabresonance.errors import NearSingularError
from slabresonance.expansion import ExpansionCoefficients
from slabresonance.modes import omega_root, trace_branch
from slabresonance.scattering import peak_field

from _oracles import strip_solve

from conftest import random_lossless_config, random_regime_point

KT_SET = (0.005, -0.005, 0.01, -0.01, 0.02, -0.02)


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS  {text}")


def test_01_energy_conservation():
    """|eigval|^2 = |refl|^2 + |trans|^2 at 1000 random real regime points."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_points = 0
    for _ in range(10):
        config = random_lossless_config(rng)
        done = 0
        while done < 100:
            point = random_regime_point(rng, config)
            try:
                trip = coefficient_triple(point, config)
            except NearSingularError:
                continue
            lhs = abs(trip.eigval) ** 2
            rhs = abs(trip.refl) ** 2 + abs(trip.trans) ** 2
            worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
            done += 1
            n_points += 1
    assert n_points == 1000
    assert worst < 1e-10, f"worst relative residual {worst:.3e}"
    report(1, f"energy identity on 1000 points, worst residual {worst:.1e}")


def test_02_oracle_equivalence(case2_config, case1_seed_config):
    """Green's-function R, T match the truncated-strip solver to 1e-5."""
    rng = np.random.default_rng(7)
    checks = []
    cases = [
        (case2_config, SpectralPoint(0.11, 1.30)),
        (case1_seed_config, SpectralPoint(0.15, 1.36)),
    ]
    while len(cases) < 5:
        config = random_lossless_config(rng)
        point = random_regime_point(rng, config)
        try:
            solve_scattering(point, config)
        except NearSingularError:
            continue
        cases.append((config, point))
    for config, point in cases:
        sol = solve_scattering(point, config)
        refl, trans, _ = strip_solve(
            float(np.real(point.kappa)), float(np.real(point.omega)),
            config.period, config.xs, config.zs, config.ds,
            [(p.host, p.mu, p.g) for p in config.pendants], z_max=200,
        )
        checks.append(max(abs(sol.reflection - refl),
                          abs(sol.transmission - trans)))
    worst = max(checks)
    assert len(checks) >= 5
    assert worst < 1e-5, f"worst oracle mismatch {worst:.3e}"
    report(2, f"strip-oracle match on {len(checks)} points, worst {worst:.1e}")


def test_03_case2_guided_mode(case2_config, case2_mode):
    """Shipped symmetric config has a verified standing mode at kappa0 = 0."""
    assert case2_mode.kappa0 == 0.0
    assert case2_mode.residual < 1e-10
    assert case2_mode.radiating_component < 1e-8
    rep = verify_mode(case2_mode, case2_config)
    assert rep["im_omega"] < 1e-9
    assert rep["checks"]["decay"], rep
    assert rep["passed"]
    report(3, f"standing mode at (0, {case2_mode.omega0:.6f}), "
              f"decay rate {rep['decay_rate']:.4f} vs {rep['decay_rate_expected']:.4f}")


def test_04_case1_construction(case1_tuned):
    """Tuner creates an isolated real point at kappa0 != 0 from the seed."""
    tuned, mode = case1_tuned
    assert mode.kappa0 != 0.0
    assert abs(mode.kappa0) > 0.05
    assert mode.residual < 1e-10
    assert mode.radiating_component < 1e-8
    trip = coefficient_triple(SpectralPoint(mode.kappa0, mode.omega0), tuned,
                              mode.nullvector)
    assert max(abs(trip.eigval), abs(trip.refl), abs(trip.trans)) < 1e-8
    for kt in (-0.05, -0.03, -0.02, -0.01, -0.005, -0.002,
               0.002, 0.005, 0.01, 0.02, 0.03, 0.05):
        samp = omega_root(mode.kappa0 + kt, complex(mode.omega0), tuned,
                          mode.nullvector)
        assert samp.omega.imag < 0, f"not isolated at kt={kt}"
    report(4, f"tuned mode at ({mode.kappa0:.6f}, {mode.omega0:.6f}), "
              f"leaky on the punctured disk |kt| <= 0.05")


def test_05_coefficient_relations(coeffs_case1, coeffs_case2):
    """Energy-conservation relations hold within 3x combined fit errors."""
    used = ("l1", "l2", "r1", "r2", "t1", "t2", "r0", "t0")
    for coeffs in (coeffs_case1, coeffs_case2):
        for name in used:
            err = coeffs.error(name)
            assert err < 1e-4, f"fit error {name} = {err:.2e}"
        for rel in verify_relations(coeffs):
            assert rel.residual < 3.0 * rel.combined_error, (
                f"case {coeffs.case}: {rel.name}: residual {rel.residual:.3e} "
                f"vs error {rel.combined_error:.3e}"
            )
    assert coeffs_case1.case == 1 and coeffs_case2.case == 2
    report(5, "relations within 3x fit errors for both cases "
              f"(worst case-1 |r1 - l1| = {abs(coeffs_case1.r1 - coeffs_case1.l1):.1e})")


def test_06_lineshape_fidelity(case1_tuned, coeffs_case1,
                               case2_config, coeffs_case2):
    """Model curves track the exact transmission to 0.05 over the windows."""
    jobs = [
        (case1_tuned[0], coeffs_case1, "case-1 quotient"),
        (case2_config, coeffs_case2, "case-2 ratio"),
    ]
    worst = 0.0
    for config, coeffs, label in jobs:
        for kt in KT_SET:
            kappa = coeffs.kappa0 + kt
            lo, hi = anomaly_window(coeffs, kappa)
            omegas = np.linspace(lo, hi, 301)
            t_exact, _, _ = exact_transmission(config, kappa, omegas)
            t_model = model_transmission(coeffs, kappa, omegas)
            sup = float(np.max(np.abs(t_model - t_exact)))
            worst = max(worst, sup)
            assert sup < 0.05, f"{label} kt={kt}: sup {sup:.4f}"
    report(6, f"sup-norm model-vs-exact below 0.05 (worst {worst:.4f})")


def _measured_extrema(config, coeffs, kappa, n_grid=801):
    lo, hi = anomaly_window(coeffs, kappa)
    omegas = np.linspace(lo, hi, n_grid)
    t_exact, _, _ = exact_transmission(config, kappa, omegas)

    def t_at(om):
        sol = solve_scattering(SpectralPoint(kappa, float(om)), config,
                               strict=False)
        return abs(sol.transmission)

    def refine(i, sign):
        # golden-section handles both smooth peaks and V-shaped notches
        a = omegas[max(i - 1, 0)]
        b = omegas[min(i + 1, n_grid - 1)]
        golden = 0.5 * (3.0 - np.sqrt(5.0))
        for _ in range(45):
            x1 = a + golden * (b - a)
            x2 = b - golden * (b - a)
            if sign * t_at(x1) < sign * t_at(x2):
                a = x1
            else:
                b = x2
        om = 0.5 * (a + b)
        return om, t_at(om)

    om_pk, t_pk = refine(int(np.argmax(t_exact)), +1)
    om_dp, t_dp = refine(int(np.argmin(t_exact)), -1)
    return om_pk, om_dp, t_pk, t_dp


def test_07_peak_dip_structure(case1_tuned, coeffs_case1):
    """Measured extrema sit within O(|kt|^3) of the zero-curve predictions."""
    config, mode = case1_tuned
    coeffs = coeffs_case1
    resid = {}
    peak_vals, dip_vals = {}, {}
    for kt in KT_SET:
        kappa = coeffs.kappa0 + kt
        om_pk, om_dp, t_pk, t_dp = _measured_extrema(config, coeffs, kappa)
        pred_pk, pred_dp = peak_dip_locations(coeffs, kappa)
        resid[kt] = max(abs(om_pk - pred_pk), abs(om_dp - pred_dp))
        peak_vals[kt], dip_vals[kt] = t_pk, t_dp
        # observation 1: peak and dip on the same side of omega0
        side_pk = np.sign(om_pk - coeffs.omega0)
        side_dp = np.sign(om_dp - coeffs.omega0)
        assert side_pk == side_dp, f"kt={kt}: extrema straddle omega0"
        assert side_pk == -np.sign(coeffs.l1.real * kt)
        # observation 2: the peak-dip order is set by sign(t2 - r2)
        assert np.sign(om_pk - om_dp) == np.sign(coeffs.t2.real - coeffs.r2.real)
    floor = 5e-8  # extremum localization limit of the refined grid
    cubic_const = max(resid[0.02], resid[-0.02]) / 0.02**3
    for big, small in ((0.02, 0.01), (-0.02, -0.01), (0.01, 0.005),
                       (-0.01, -0.005)):
        assert resid[small] <= max(resid[big] / 4.0, floor), (
            f"cubic shrink violated: resid({small})={resid[small]:.2e}, "
            f"resid({big})={resid[big]:.2e}"
        )
    # Im r2, Im t2 are below fit error here, so extremes approach 1 and 0
    assert abs(coeffs.r2.imag) < coeffs.error("r2")
    assert abs(coeffs.t2.imag) < coeffs.error("t2")
    assert peak_vals[0.005] > 0.999 and dip_vals[0.005] < 0.01
    report(7, f"extrema within {cubic_const:.1f}|kt|^3 of predictions; "
              "observations 1-2 hold at every tested kt")


def test_08_fano_reduction(coeffs_case2):
    """Synthetic coefficients reduce exactly; the lattice config reports."""
    synth = ExpansionCoefficients(
        kappa0=0.0, omega0=1.5,
        l1=0j, l2=1j, r1=0j, r2=1.0 + 0j, t1=0j, t2=-1.0 + 0j,
        r0=np.sqrt(0.5), t0=np.sqrt(0.5), eta=0.0, case=2,
        fit_errors={},
    )
    kt = 0.015
    rep = fano_reduce(synth, kt)
    assert rep["conditions_met"]
    omegas = synth.omega0 + np.linspace(-6, 6, 501) * kt * kt
    lhs = formula_case2(synth, synth.kappa0 + kt, omegas) ** 2
    rhs = fano_shape(omegas, rep["omega_res"], rep["gamma"], rep["q"],
                     rep["sigma_const"])
    sup = float(np.max(np.abs(lhs - rhs)))
    assert sup < 1e-10, f"Fano identity residual {sup:.2e}"

    lattice = fano_reduce(coeffs_case2, 0.01)
    r1, r2, r3 = lattice["condition_residuals"]
    assert r1 < 1e-3 and r2 > 1e-3 and r3 > 1e-3
    assert not lattice["conditions_met"] and "gamma" not in lattice
    report(8, f"synthetic Fano identity to {sup:.1e}; lattice residuals "
              f"({r1:.1e}, {r2:.2f}, {r3:.2f}) flag conditions 2-3")


def test_09_enhancement_law(case2_config, case2_mode):
    """Peak field enhancement scales like 1/|kt|; finite at kt = 0."""
    slope, peaks = enhancement_scaling(case2_config, case2_mode,
                                       [0.04, 0.02, 0.01, 0.005])
    assert abs(slope + 1.0) < 0.1, f"slope {slope:.3f}"
    point = SpectralPoint(case2_mode.kappa0, case2_mode.omega0)
    at_mode = peak_field(point, case2_config,
                         solve_scattering(point, case2_config, strict=False).psi)
    assert np.isfinite(at_mode) and at_mode < 10.0
    report(9, f"log-log slope {slope:.3f}; enhancement at kt=0 is "
              f"{at_mode:.2f}")


def test_10_phase_anomaly(case2_config, coeffs_case2):
    """The transmission-phase spike sharpens at least 2x when kt halves."""
    c = coeffs_case2
    rate = {}
    for kt in (0.01, 0.005):
        center = c.omega0 - c.l2.real * kt * kt
        width = c.l2.imag * kt * kt
        omegas = center + np.linspace(-8 * width, 8 * width, 1501)
        t, _, raw = exact_transmission(case2_config, c.kappa0 + kt, omegas)
        ph = phase_curve(t, raw)
        rate[kt] = float(np.max(np.abs(np.diff(ph) / np.diff(omegas))))
    ratio = rate[0.005] / rate[0.01]
    assert ratio >= 2.0, f"spike ratio {ratio:.2f}"
    report(10, f"max |dphase/domega| ratio {ratio:.2f} between kt=0.005 "
               "and kt=0.01")


def test_11_dispersion_sign(case2_config, case2_mode, case1_seed_config,
                            case1_tuned):
    """Im omega(kappa) <= 1e-9 on every traced branch of every shipped config."""
    from slabresonance.modes import branch_seeds

    tuned, mode = case1_tuned
    seed_start = branch_seeds(case1_seed_config, 0.06, (1.30, 1.46))[0]
    branches = [
        (case2_config, np.linspace(-0.3, 0.3, 121), complex(case2_mode.omega0),
         case2_mode.nullvector),
        (case1_seed_config, np.linspace(0.06, 0.34, 80), complex(seed_start),
         None),
        (tuned, np.linspace(mode.kappa0 - 0.1, mode.kappa0 + 0.1, 81),
         complex(mode.omega0), mode.nullvector),
    ]
    worst = -np.inf
    for config, kappas, seed, anchor in branches:
        samples = trace_branch(config, kappas, seed, anchor)
        worst = max(worst, max(s.omega.imag for s in samples))
    assert worst <= 1e-9, f"Im omega reached {worst:.3e}"
    report(11, f"Im omega <= 1e-9 on all traced branches (max {worst:.2e})")


def test_12_asymptotic_order(case1_tuned, coeffs_case1, case2_config,
                             coeffs_case2):
    """The model's error falls at the paper's order: kt^2 in case 2, kt in
    case 1.

    The error is sup |T_model - T_exact| over ``anomaly_window`` on 601
    points, at kt = 0.01 / 2^j for j = 0..3 and both signs; the log-log
    slope of error against kt is within 0.1 of the order.  A fixed bound,
    as in test 06, would pass a model that does not converge at all.
    """
    kts = 0.01 / 2.0 ** np.arange(4)
    slopes = {}
    for config, coeffs, order in ((case2_config, coeffs_case2, 2),
                                  (case1_tuned[0], coeffs_case1, 1)):
        errors = []
        for kt in kts:
            sup = 0.0
            for kappa in (coeffs.kappa0 + kt, coeffs.kappa0 - kt):
                omegas = np.linspace(*anomaly_window(coeffs, kappa), 601)
                t_exact, _, _ = exact_transmission(config, kappa, omegas)
                t_model = model_transmission(coeffs, kappa, omegas)
                sup = max(sup, float(np.max(np.abs(t_model - t_exact))))
            errors.append(sup)
        slope = np.polyfit(np.log(kts), np.log(errors), 1)[0]
        assert abs(slope - order) < 0.1, (
            f"case {coeffs.case}: errors {errors}, slope {slope:.3f}")
        slopes[coeffs.case] = slope
    report(12, f"model error order {slopes[2]:.3f} in case 2 (kt^2), "
               f"{slopes[1]:.3f} in case 1 (kt)")
