import numpy as np
import pytest

from slabresonance import (
    SpectralPoint,
    expansion,
    extract_background,
    extract_coefficients,
    verify_relations,
)
from slabresonance.expansion import (
    N_ANGLES,
    ZERO_MAX_ITER,
    ZERO_TOL,
    ExpansionCoefficients,
    _classify_linear,
    _fit_with_errors,
    _sample_curves,
    sample_radius,
)
from slabresonance.errors import ConvergenceError
from slabresonance.modes import _omega_newton, omega_root
from slabresonance.scattering import coefficient_triple, solve_scattering


def convexity_gap(r0, t0, r1, t1) -> float:
    """r0^2 (Re r1)^2 + t0^2 (Re t1)^2 - (r0^2 Re r1 + t0^2 Re t1)^2.

    Nonnegative whenever r0^2 + t0^2 = 1, zero iff Re r1 = Re t1.
    """
    mean = r0**2 * np.real(r1) + t0**2 * np.real(t1)
    return float(r0**2 * np.real(r1) ** 2 + t0**2 * np.real(t1) ** 2 - mean**2)


def circle_kts(radius):
    """The sample points of ``_sample_curves``: two circles, N_ANGLES each."""
    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    return np.array([rad * np.exp(1j * th)
                     for rad in (radius, radius / 2.0) for th in angles])


class TestFitZeroCurve:
    def test_exact_polynomial_recovery(self):
        c1, c2 = 0.3, 0.1 + 0.2j
        kts = circle_kts(0.02)
        coef, errors, resid = _fit_with_errors(
            kts, 1.2 - c1 * kts - c2 * kts**2, 1.2, 2, 0.02)
        assert abs(coef[0] - c1) < 1e-8
        assert abs(coef[1] - c2) < 1e-8
        assert resid < 1e-10

    def test_cubic_recovery(self):
        kts = circle_kts(0.02)
        oms = 1.2 - 0.5 * kts + 0.7j * kts**2 - 2.0 * kts**3
        coef, errors, _ = _fit_with_errors(kts, oms, 1.2, 3, 0.02)
        assert abs(coef[2] - 2.0) < 1e-6

    def test_sampler_leaving_its_domain_is_a_convergence_error(
            self, case2_config, case2_mode, monkeypatch):
        """A triple that raises after the first Newton step fails cleanly.

        The first iterate leaves the window where it is defined, so the
        Newton step cannot be evaluated: that is a ConvergenceError naming
        the circle point, which the CLI reports as a numerical failure, not
        a raw ArithmeticError.
        """
        calls = []

        def triple(*args):
            calls.append(None)
            if len(calls) > 1:
                raise ArithmeticError("outside the sampler's window")
            return coefficient_triple(*args)

        monkeypatch.setattr(expansion, "coefficient_triple", triple)
        # the raising call held all three rows, so no member is named
        with pytest.raises(ConvergenceError, match="^zero curves at kt=0.0"):
            _sample_curves(case2_config, case2_mode,
                           sample_radius(case2_config, case2_mode))
        assert len(calls) == 2

    def test_symmetric_config_even_curve(self, case2_config, case2_mode):
        radius = sample_radius(case2_config, case2_mode)
        kts, oms = _sample_curves(case2_config, case2_mode, radius)
        coef, errors, _ = _fit_with_errors(kts, oms[:, 0], case2_mode.omega0,
                                           2, radius)
        assert abs(coef[0]) < errors[0], "linear coefficient should vanish"

    def test_case1_linear_coefficients_agree(self, case1_tuned):
        config, mode = case1_tuned
        radius = sample_radius(config, mode)
        kts, oms = _sample_curves(config, mode, radius)
        (cl, el, _), (ca, ea, _), (cb, eb, _) = (
            _fit_with_errors(kts, oms[:, i], mode.omega0, 2, radius)
            for i in range(3)
        )
        assert abs(cl[0] - ca[0]) < 3 * (el[0] + ea[0])
        assert abs(cl[0] - cb[0]) < 3 * (el[0] + eb[0])

    def test_zero_curve_even_in_case2(self, case2_config, case2_mode):
        """Roots at +-kt agree for the mirror-symmetric config."""
        mode = case2_mode
        for kt in (0.012, 0.006 + 0.004j):
            om_p, om_m = (omega_root(mode.kappa0 + s * kt, mode.omega0,
                                     case2_config, mode.nullvector, ZERO_TOL,
                                     ZERO_MAX_ITER).omega
                          for s in (1, -1))
            assert abs(om_p - om_m) < 1e-9

    def test_eigval_samples_are_dispersion_roots(self, mode_case):
        """The eigenvalue's zero curve is the complex dispersion relation.

        Each of its twelve samples is, bit for bit, the ``omega_root`` of the
        tracked eigenvalue at kappa0 + kt from omega0, anchored at the mode.
        """
        config, mode = mode_case
        kts, oms = _sample_curves(config, mode, sample_radius(config, mode))
        roots = [omega_root(mode.kappa0 + kt, mode.omega0, config,
                            mode.nullvector, ZERO_TOL, ZERO_MAX_ITER).omega
                 for kt in kts]
        assert len(roots) == 12
        assert oms[:, 0].tolist() == roots

    @pytest.mark.parametrize("column, member", [(1, "refl"), (2, "trans")])
    def test_scaled_samples_are_single_member_roots(self, mode_case, column,
                                                    member):
        """Solving the three zeros as rows of one Newton changes no bit.

        Each sample of the scaled reflection and transmission equals the
        ``_omega_newton`` root of that member alone from omega0.
        """
        config, mode = mode_case
        kts, oms = _sample_curves(config, mode, sample_radius(config, mode))

        def f(kappa, omegas):
            return getattr(coefficient_triple(SpectralPoint(kappa, omegas),
                                              config, mode.nullvector), member)

        roots = [_omega_newton(f, mode.kappa0 + kt, mode.omega0, ZERO_TOL,
                               ZERO_MAX_ITER)[0] for kt in kts]
        assert oms[:, column].tolist() == roots


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
