import numpy as np
import pytest

from slabresonance import (
    SpectralPoint,
    extract_background,
    extract_coefficients,
    fit_zero_curve,
    verify_relations,
)
from slabresonance.expansion import (
    ZERO_MAX_ITER,
    ZERO_TOL,
    ExpansionCoefficients,
    _classify_linear,
    _sample_curve,
    sample_radius,
    triple_sampler,
)
from slabresonance.errors import ConvergenceError
from slabresonance.modes import GuidedMode, _omega_newton, omega_root
from slabresonance.scattering import solve_scattering


def convexity_gap(r0, t0, r1, t1) -> float:
    """r0^2 (Re r1)^2 + t0^2 (Re t1)^2 - (r0^2 Re r1 + t0^2 Re t1)^2.

    Nonnegative whenever r0^2 + t0^2 = 1, zero iff Re r1 = Re t1.
    """
    mean = r0**2 * np.real(r1) + t0**2 * np.real(t1)
    return float(r0**2 * np.real(r1) ** 2 + t0**2 * np.real(t1) ** 2 - mean**2)


def synthetic_mode():
    return GuidedMode(kappa0=0.1, omega0=1.2, nullvector=None,
                      radiating_component=0.0, residual=0.0)


class TestFitZeroCurve:
    def test_exact_polynomial_recovery(self):
        c1, c2 = 0.3, 0.1 + 0.2j

        def f(kappa, omega):
            kt = kappa - 0.1
            return (omega - 1.2) + c1 * kt + c2 * kt * kt

        coef, errors, resid = fit_zero_curve(f, synthetic_mode(), 2, 0.02)
        assert abs(coef[0] - c1) < 1e-8
        assert abs(coef[1] - c2) < 1e-8
        assert resid < 1e-10

    def test_cubic_recovery(self):
        def f(kappa, omega):
            kt = kappa - 0.1
            return (omega - 1.2) + 0.5 * kt - 0.7j * kt**2 + 2.0 * kt**3

        coef, errors, _ = fit_zero_curve(f, synthetic_mode(), 3, 0.02)
        assert abs(coef[2] - 2.0) < 1e-6

    def test_sampler_leaving_its_domain_is_a_convergence_error(self):
        """A sampler that raises after the first step fails the fit cleanly.

        Its first iterate leaves the window where it is defined, so the
        Newton step cannot be evaluated: that is a ConvergenceError, which
        the CLI reports as a numerical failure, not a raw ArithmeticError.
        """
        def f(kappa, omega):
            if np.any(np.abs(np.asarray(omega) - 1.2) > 1e-3):
                raise ArithmeticError("outside the sampler's window")
            return (omega - 1.2) + 0.5 * (kappa - 0.1)

        with pytest.raises(ConvergenceError, match="left the valid domain"):
            fit_zero_curve(f, synthetic_mode(), 2, 0.02)

    def test_symmetric_config_even_curve(self, case2_config, case2_mode):
        f = triple_sampler(case2_config, case2_mode, "eigval")
        coef, errors, _ = fit_zero_curve(
            f, case2_mode, 2, sample_radius(case2_config, case2_mode))
        assert abs(coef[0]) < errors[0], "linear coefficient should vanish"

    def test_case1_linear_coefficients_agree(self, case1_tuned):
        config, mode = case1_tuned
        radius = sample_radius(config, mode)
        (cl, el, _), (ca, ea, _), (cb, eb, _) = (
            fit_zero_curve(triple_sampler(config, mode, part), mode, 2, radius)
            for part in ("eigval", "refl", "trans")
        )
        assert abs(cl[0] - ca[0]) < 3 * (el[0] + ea[0])
        assert abs(cl[0] - cb[0]) < 3 * (el[0] + eb[0])

    def test_zero_curve_even_in_case2(self, case2_config, case2_mode):
        """Roots at +-kt agree for the mirror-symmetric config."""
        f = triple_sampler(case2_config, case2_mode, "eigval")
        for kt in (0.012, 0.006 + 0.004j):
            om_p, _ = _omega_newton(f, case2_mode.kappa0 + kt,
                                    case2_mode.omega0, ZERO_TOL, ZERO_MAX_ITER)
            om_m, _ = _omega_newton(f, case2_mode.kappa0 - kt,
                                    case2_mode.omega0, ZERO_TOL, ZERO_MAX_ITER)
            assert abs(om_p - om_m) < 1e-9

    def test_eigval_samples_are_dispersion_roots(self, mode_case):
        """The eigenvalue's zero curve is the complex dispersion relation.

        Each of its twelve samples is, bit for bit, the ``omega_root`` of the
        tracked eigenvalue at kappa0 + kt from omega0, anchored at the mode.
        """
        config, mode = mode_case
        kts, oms = _sample_curve(triple_sampler(config, mode, "eigval"), mode,
                                 sample_radius(config, mode))
        roots = [omega_root(mode.kappa0 + kt, mode.omega0, config,
                            mode.nullvector, ZERO_TOL, ZERO_MAX_ITER).omega
                 for kt in kts]
        assert len(roots) == 12
        assert oms.tolist() == roots


class TestCoefficients:
    def test_case2_values(self, coeffs_case2):
        c = coeffs_case2
        assert c.case == 2
        assert abs(c.l1) < 1e-6
        assert c.l2.imag > 0
        assert abs(c.l2 - (1.3336 + 0.1912j)) < 5e-3
        assert abs(c.r2 - 1.1338) < 5e-3
        assert abs(c.t2 - 1.5166) < 5e-3
        assert abs(c.t0 - 0.72247) < 1e-4
        assert abs(c.r0 - 0.69140) < 1e-4

    def test_case1_values(self, coeffs_case1):
        c = coeffs_case1
        assert c.case == 1
        assert abs(c.l1.imag) < 1e-6 * (1 + abs(c.l1))
        assert c.l2.imag > -1e-8
        assert abs(c.l1.real - 0.1596) < 2e-3
        assert 0 < c.t0 < 1 and 0 < c.r0 < 1

    def test_fit_errors_small(self, coeffs_case1, coeffs_case2):
        for c in (coeffs_case1, coeffs_case2):
            for name in ("l1", "l2", "r1", "r2", "t1", "t2", "r0", "t0"):
                assert c.error(name) < 1e-4, (name, c.error(name))

    def test_fit_stability_under_radius_halving(self, case2_config, case2_mode):
        c_full = extract_coefficients(case2_config, case2_mode)
        radius = sample_radius(case2_config, case2_mode)
        c_half = extract_coefficients(case2_config, case2_mode,
                                      radius=radius / 2)
        for name in ("l2", "r2", "t2"):
            delta = abs(getattr(c_full, name) - getattr(c_half, name))
            assert delta < 5 * max(c_full.error(name), c_half.error(name)), name

    def test_background_limits_consistent(self, case2_config, case2_mode):
        bg = extract_background(case2_mode, case2_config, case=2)

        def one_sided_limit(sign):
            # eliminate the linear and quadratic delta terms per side
            vals = []
            for i in range(3):
                d = sign * 1e-3 / 2**i
                vals.append(abs(solve_scattering(
                    SpectralPoint(case2_mode.kappa0, case2_mode.omega0 + d),
                    case2_config).transmission))
            a = [2 * vals[i + 1] - vals[i] for i in range(2)]
            return (4 * a[1] - a[0]) / 3.0

        up = one_sided_limit(+1)
        dn = one_sided_limit(-1)
        assert abs(up - dn) < 1e-4, "one-sided transmission limits disagree"
        assert abs(up - bg["t0"]) < 1e-4
        assert abs(bg["r0"] ** 2 + bg["t0"] ** 2 - 1.0) < 1e-6

    def test_case2_kappa_limit_matches_ratio(self, case2_config, coeffs_case2):
        """lim T(kappa, omega0) = t0 |t2 / l2| as kappa -> kappa0."""
        c = coeffs_case2
        vals = []
        for dk in (0.02, 0.01, 0.005):
            sol = solve_scattering(
                SpectralPoint(c.kappa0 + dk, c.omega0), case2_config
            )
            vals.append(abs(sol.transmission))
        target = c.t0 * abs(c.t2 / c.l2)
        # Richardson in dk^2 since the limit is approached quadratically
        extrap = vals[2] + (vals[2] - vals[1]) / 3.0
        assert abs(extrap - target) < 5e-3


class TestClassify:
    def test_symmetric_is_case2(self, coeffs_case2):
        assert coeffs_case2.case == 2

    def test_tuned_is_case1(self, coeffs_case1):
        assert coeffs_case1.case == 1

    def test_synthetic_nonzero_linear(self):
        assert _classify_linear(0.3, 1e-8) == 1

    def test_ambiguous_zone_warns(self):
        with pytest.warns(UserWarning):
            assert _classify_linear(5e-8, 1e-8) == 2


class TestRelations:
    def test_case1_relations_within_error(self, coeffs_case1):
        for rel in verify_relations(coeffs_case1):
            assert rel.residual < 3.0 * rel.combined_error, rel

    def test_case2_relations_within_error(self, coeffs_case2):
        for rel in verify_relations(coeffs_case2):
            assert rel.residual < 3.0 * rel.combined_error, rel

    def test_convexity_strict_when_real_parts_differ(self):
        r0, t0 = 0.6, 0.8
        r1, t1 = 0.5 + 0j, 0.2 + 0j
        gap = convexity_gap(r0, t0, r1, t1)
        assert gap > 1e-6
        assert convexity_gap(r0, t0, 0.4, 0.4) < 1e-15

    def test_rescaling_invariance(self, coeffs_case2):
        """The verified relations don't feel a common rescaling of the triple.

        Rescaling multiplies r0 and t0 by |c| ... but their ratio and the
        zero-curve coefficients are untouched; normalizing r0^2 + t0^2 = 1
        restores the originals exactly, so the relation residuals are
        invariant by construction.  Check the normalized invariance directly.
        """
        c = coeffs_case2
        scale = 1.37
        r0s, t0s = scale * c.r0, scale * c.t0
        norm = np.hypot(r0s, t0s)
        back = ExpansionCoefficients(
            kappa0=c.kappa0, omega0=c.omega0, l1=c.l1, l2=c.l2,
            r1=c.r1, r2=c.r2, t1=c.t1, t2=c.t2,
            r0=r0s / norm, t0=t0s / norm,
            case=2, fit_errors=dict(c.fit_errors),
        )
        orig = {r.name: r.residual for r in verify_relations(c)}
        scaled = {r.name: r.residual for r in verify_relations(back)}
        for name in orig:
            assert abs(orig[name] - scaled[name]) < 1e-9


def test_coefficients_json_roundtrip(coeffs_case2):
    data = coeffs_case2.to_dict()
    assert data["case"] == 2
    assert len(data["l2"]) == 2
    # null marks a dropped coefficient; everything else must be finite
    assert all(v is None or np.isfinite(v) for v in data["fit_errors"].values())
    import json

    json.dumps(data, allow_nan=False)


def test_case2_l2_between_quadratic_coefficients(coeffs_case2):
    """Re l2 is the (r0^2, t0^2)-weighted mean of Re r2 and Re t2."""
    c = coeffs_case2
    lo = min(c.r2.real, c.t2.real)
    hi = max(c.r2.real, c.t2.real)
    assert lo - 1e-6 <= c.l2.real <= hi + 1e-6
