import numpy as np
import pytest

from slabresonance import (
    Defect,
    LatticeConfig,
    SpectralPoint,
    enhancement_scaling,
    fano_reduce,
    fano_shape,
    formula_case1,
    formula_case2,
    peak_dip_locations,
    phase_curve,
)
from slabresonance import anomaly
from slabresonance.anomaly import (
    anomaly_window,
    exact_transmission,
    model_transmission,
)
from slabresonance.errors import ConvergenceError
from slabresonance.expansion import ExpansionCoefficients
from slabresonance.modes import omega_root
from slabresonance.scattering import peak_field, solve_grid


def synthetic_coeffs(case=2, **kw):
    base = dict(
        kappa0=0.0, omega0=1.5,
        l1=0j, l2=0.472 + 0.096j, r1=0j, r2=0.6 + 0j, t1=0j, t2=0.4 + 0j,
        r0=0.6, t0=0.8, eta=0.0, eta1=0.0, eta2=0.0, case=case,
        fit_errors={"l1": 1e-10, "l2": 1e-10, "r1": 1e-10, "r2": 1e-10,
                    "t1": 1e-10, "t2": 1e-10, "r0": 1e-10, "t0": 1e-10},
    )
    base.update(kw)
    return ExpansionCoefficients(**base)


class TestFormulaLimits:
    def test_case1_continuity_at_center(self, coeffs_case1):
        c = coeffs_case1
        vals = [float(formula_case1(c, c.kappa0, c.omega0 + vp))
                for vp in (1e-6, -1e-6, 1e-8)]
        for v in vals:
            assert abs(v - c.t0) < 1e-4

    def test_case1_zero_at_dip(self):
        c = synthetic_coeffs(case=1, l1=0.3 + 0j, eta1=0.0, eta2=0.0)
        kt = 0.01
        omega_dip = c.omega0 - 0.3 * kt - c.t2.real * kt * kt
        assert formula_case1(c, c.kappa0 + kt, omega_dip) < 1e-10

    def test_case1_center_raises(self):
        """At kappa0, omega0 the case-1 denominator is exactly zero."""
        c = synthetic_coeffs(case=1, l1=0.3 + 0j)
        with pytest.raises(ConvergenceError, match="denominator vanished"):
            formula_case1(c, c.kappa0, c.omega0)

    def test_case2_continuity_at_center(self, coeffs_case2):
        c = coeffs_case2
        for vp in (1e-6, -1e-6):
            assert abs(float(formula_case2(c, c.kappa0, c.omega0 + vp)) - c.t0) < 1e-4
        # exactly at the common zero the ratio is defined by continuity
        assert abs(float(formula_case2(c, c.kappa0, c.omega0)) - c.t0) < 1e-12

    def test_case2_kappa_limit(self):
        c = synthetic_coeffs()
        val = float(formula_case2(c, 0.005, c.omega0))
        target = c.t0 * abs(c.t2 / c.l2)
        assert abs(val - target) < 2e-3

    def test_case2_bounded(self):
        c = synthetic_coeffs(eta=-1.3)
        omegas = c.omega0 + np.linspace(-0.05, 0.05, 301)
        vals = formula_case2(c, 0.02, omegas)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-9)

    def test_case1_clipped_to_unit_interval(self, coeffs_case1):
        c = coeffs_case1
        lo, hi = anomaly_window(c, c.kappa0 + 0.02)
        vals = formula_case1(c, c.kappa0 + 0.02, np.linspace(lo, hi, 501))
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestFanoReduction:
    def test_synthetic_identity(self):
        """Under conditions 1-3 the case-2 curve equals the Fano shape."""
        c = synthetic_coeffs(
            r0=np.sqrt(0.5), t0=np.sqrt(0.5),
            r2=1.0 + 0j, t2=-1.0 + 0j, l2=0.0 + 1.0j, eta=0.0,
        )
        kt = 0.02
        rep = fano_reduce(c, kt)
        assert rep["conditions_met"]
        assert abs(rep["gamma"] - 2 * kt * kt) < 1e-12
        assert abs(rep["q"] + 1.0) < 1e-12
        omegas = c.omega0 + np.linspace(-5, 5, 401) * kt * kt
        lhs = formula_case2(c, c.kappa0 + kt, omegas) ** 2
        rhs = fano_shape(omegas, rep["omega_res"], rep["gamma"], rep["q"],
                         rep["sigma_const"])
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_lattice_case2_conditions_reported(self, coeffs_case2):
        rep = fano_reduce(coeffs_case2, 0.01)
        r1, r2, r3 = rep["condition_residuals"]
        assert r1 < 1e-3, "real quadratic coefficients expected (z-mirror)"
        assert r2 > 1e-3, "background slope should violate condition 2"
        assert r3 > 1e-3, "balanced-coefficient condition should fail"
        assert not rep["conditions_met"]
        assert "gamma" not in rep

    def test_q_sign_flips_with_t2(self):
        c_plus = synthetic_coeffs(r0=np.sqrt(0.5), t0=np.sqrt(0.5),
                                  r2=-1.0 + 0j, t2=1.0 + 0j, eta=0.0)
        c_minus = synthetic_coeffs(r0=np.sqrt(0.5), t0=np.sqrt(0.5),
                                   r2=1.0 + 0j, t2=-1.0 + 0j, eta=0.0)
        q_plus = fano_reduce(c_plus, 0.01)["q"]
        q_minus = fano_reduce(c_minus, 0.01)["q"]
        assert q_plus > 0 > q_minus
        assert abs(q_plus + q_minus) < 1e-14


class TestPeakDip:
    def test_same_side_small_kt(self):
        c = synthetic_coeffs(case=1, l1=0.3 + 0j)
        for kt in (0.01, -0.01):
            pk, dp = peak_dip_locations(c, c.kappa0 + kt)
            assert (pk - c.omega0) * (dp - c.omega0) > 0
            assert np.sign(pk - c.omega0) == -np.sign(0.3 * kt)

    def test_order_preserved_across_center(self):
        c = synthetic_coeffs(case=1, l1=0.3 + 0j, r2=0.2 + 0j, t2=0.9 + 0j)
        pk_p, dp_p = peak_dip_locations(c, c.kappa0 + 0.01)
        pk_m, dp_m = peak_dip_locations(c, c.kappa0 - 0.01)
        # r2 < t2 puts the peak to the right of the dip on both sides
        assert pk_p > dp_p
        assert pk_m > dp_m

    def test_measured_extrema_near_predictions(self, case1_tuned, coeffs_case1):
        config, mode = case1_tuned
        c = coeffs_case1
        kt = 0.01
        pk, dp = peak_dip_locations(c, mode.kappa0 + kt)
        lo, hi = anomaly_window(c, mode.kappa0 + kt)
        omegas = np.linspace(lo, hi, 1601)
        t_ex, _, _ = exact_transmission(config, mode.kappa0 + kt, omegas)
        meas_pk = omegas[int(np.argmax(t_ex))]
        meas_dp = omegas[int(np.argmin(t_ex))]
        assert abs(meas_pk - pk) < 30 * abs(kt) ** 3
        assert abs(meas_dp - dp) < 30 * abs(kt) ** 3


class TestPhase:
    def test_empty_scatterer_flat(self):
        config = LatticeConfig(2, (Defect(0, 0, 0.0),))
        omegas = np.linspace(0.8, 1.0, 50)
        t, _, raw = exact_transmission(config, 0.1, omegas)
        ph = phase_curve(t, raw)
        assert np.max(np.abs(np.diff(ph))) < 1e-12

    def test_spike_sharpens(self, case2_config, coeffs_case2):
        c = coeffs_case2
        # off-resonance baseline slope, away from the anomaly
        far = np.linspace(c.omega0 + 0.05, c.omega0 + 0.10, 200)
        t, _, raw = exact_transmission(case2_config, c.kappa0 + 0.01, far)
        ph_far = phase_curve(t, raw)
        baseline = np.max(np.abs(np.diff(ph_far) / np.diff(far)))
        rates = {}
        for kt in (0.01, 0.005):
            center = c.omega0 - c.l2.real * kt * kt
            width = c.l2.imag * kt * kt
            omegas = center + np.linspace(-8 * width, 8 * width, 1501)
            t, _, raw = exact_transmission(case2_config, c.kappa0 + kt, omegas)
            ph = phase_curve(t, raw)
            rates[kt] = np.max(np.abs(np.diff(ph) / np.diff(omegas)))
        assert rates[0.01] > 100.0 * baseline, "no spike above baseline"
        assert rates[0.005] >= 2.0 * rates[0.01]

    def test_coarse_grid_rejected(self, case2_config, coeffs_case2):
        from slabresonance.errors import ConvergenceError

        c = coeffs_case2
        kt = 0.01
        dip = c.omega0 - c.t2.real * kt * kt
        width = c.l2.imag * kt * kt
        # two samples straddling the pi flip, too close for the zero floor
        omegas = np.array([dip - 0.1 * width, dip + 0.1 * width])
        t, _, raw = exact_transmission(case2_config, c.kappa0 + kt, omegas)
        with pytest.raises(ConvergenceError):
            phase_curve(t, raw)


class TestEnhancement:
    def test_inverse_kt_scaling(self, case2_config, case2_mode):
        slope, peaks = enhancement_scaling(
            case2_config, case2_mode, [0.04, 0.02, 0.01, 0.005]
        )
        assert abs(slope + 1.0) < 0.1, f"slope {slope}"

    def test_scale_invariance(self, case2_config, case2_mode):
        s1, _ = enhancement_scaling(case2_config, case2_mode,
                                    [0.04, 0.02, 0.01])
        s2, _ = enhancement_scaling(case2_config, case2_mode,
                                    [0.08, 0.04, 0.02])
        assert abs(s1 - s2) < 0.05

    @pytest.mark.parametrize("kts", [[], [0.01], [0.02, 0.0], [0.01, -0.01, 0.02]],
                             ids=["none", "one", "zero", "repeated"])
    def test_needs_two_distinct_nonzero_kt(self, case2_config, case2_mode, kts):
        """One |kt| gives no slope, a zero |kt| no peak, and a repeated one
        no monotone order: all are refused before any solve."""
        with pytest.raises(ValueError, match="two distinct, nonzero"):
            enhancement_scaling(case2_config, case2_mode, kts)

    def test_peaks_that_do_not_grow_raise(self, case2_config, case2_mode,
                                          monkeypatch):
        """A peak that does not grow as |kt| shrinks (here every peak is 1)
        is refused as a window problem, not fitted."""
        monkeypatch.setattr(anomaly, "peak_field",
                            lambda point, config, psi: np.ones(len(psi)))
        with pytest.raises(ConvergenceError, match="peaks not monotone"):
            enhancement_scaling(case2_config, case2_mode, [0.02, 0.01])

    def test_peaks_reach_fine_grid_maximum(self, mode_case):
        """Each peak is at least the maximum of a 2001-point grid on its window."""
        config, mode = mode_case
        _, peaks = enhancement_scaling(config, mode, [0.04, 0.02, 0.01, 0.005])
        for kt, peak in peaks:
            kappa = mode.kappa0 + kt
            samp = omega_root(kappa, complex(mode.omega0), config, mode.nullvector)
            width = abs(samp.omega.imag)
            grid = samp.omega.real + np.linspace(-8.0 * width, 8.0 * width, 2001)
            sol = solve_grid(kappa, grid, config)
            fine = np.max(peak_field(SpectralPoint(kappa, grid), config, sol.psi))
            assert peak >= (1.0 - 1e-12) * fine, f"kt={kt}: {peak} < {fine}"


def test_model_dispatch(coeffs_case1, coeffs_case2):
    for c in (coeffs_case1, coeffs_case2):
        lo, hi = anomaly_window(c, c.kappa0 + 0.01)
        vals = model_transmission(c, c.kappa0 + 0.01, np.linspace(lo, hi, 11))
        assert vals.shape == (11,)


def test_case2_opposite_motion_when_l2_imaginary(coeffs_case2):
    """Peak and dip separate in opposite directions when Re l2 ~ 0.

    The premise needs real r2, t2 with nearly imaginary l2; the shipped
    symmetric config does not realize it, so the check is skipped with
    notice rather than asserted vacuously.
    """
    c = coeffs_case2
    if abs(c.l2.real) > 0.1 * abs(c.l2):
        pytest.skip(
            f"premise not realized: Re l2 = {c.l2.real:.3f} is not small "
            f"against |l2| = {abs(c.l2):.3f}"
        )
    for kt in (0.01, 0.02):
        pk, dp = peak_dip_locations(c, c.kappa0 + kt)
        assert (pk - c.omega0) * (dp - c.omega0) < 0
