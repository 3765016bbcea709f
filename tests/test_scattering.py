import numpy as np
import pytest

from slabresonance import (
    Defect,
    LatticeConfig,
    Pendant,
    SpectralPoint,
    coefficient_triple,
    eigen_branch,
    solve_scattering,
)
from slabresonance.anomaly import exact_transmission
from slabresonance.errors import NearSingularError, NoPropagatingOrderError
from slabresonance.scattering import _solve_sites, peak_field

from _oracles import strip_solve

from conftest import ambiguous_anchor, random_lossless_config, random_regime_point

EMPTY = LatticeConfig(2, (Defect(0, 0, 0.0),))


def test_empty_scatterer():
    sol = solve_scattering(SpectralPoint(0.1, 0.9), EMPTY)
    assert abs(sol.reflection) < 1e-15
    assert abs(sol.transmission - 1.0) < 1e-15


def test_energy_conservation_random():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(60):
        config = random_lossless_config(rng)
        point = random_regime_point(rng, config)
        try:
            sol = solve_scattering(point, config)
        except NearSingularError:
            continue
        worst = max(
            worst, abs(abs(sol.reflection) ** 2 + abs(sol.transmission) ** 2 - 1)
        )
    assert worst < 1e-10, f"energy residual {worst:.2e}"


def test_no_far_field_above_band():
    with pytest.raises(NoPropagatingOrderError):
        solve_scattering(SpectralPoint(0.0, 3.0), EMPTY)


def test_grid_solve_raises_its_first_skipped_row(case2_config):
    """1.9 has no propagating order and 2.0 sits on a Wood line; the first
    skipped row in grid order names the error."""
    with pytest.raises(NoPropagatingOrderError,
                       match=r"^no-propagating-order at omega=1\.9$"):
        exact_transmission(case2_config, 0.0, [1.45, 1.9, 2.0])


def test_strict_solve_refuses_the_mode(case2_config):
    """At the case2 mode A is singular: the strict solve refuses it."""
    with pytest.raises(NearSingularError) as info:
        solve_scattering(SpectralPoint(0.0, 1.4971229592699646), case2_config)
    assert info.value.sigma_min < 1e-12


def test_exactly_singular_row_is_decided_alone():
    """A row with an exact zero pivot gets the bound inf, an SVD and its
    least-squares solution; every other row keeps the bits of its
    single-matrix solve, passes on the bound alone (sigma_min NaN) and is
    solved by one batched LU call."""
    a = np.array([np.eye(2), [[1.0, 0.0], [0.0, 0.0]], [[2.0, 1.0], [1.0, 1.0]]],
                 dtype=complex)
    rhs = np.array([[1.0, 2.0], [1.0, 1j], [0.5, -1.0]], dtype=complex)
    solve, calls = np.linalg.solve, []

    def recorded(m, b):
        calls.append(m.shape)
        return solve(m, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", recorded)
        psi, sigma_min = _solve_sites(a, rhs, strict=False)
    assert calls == [(2, 2, 2)]
    assert sigma_min[1] == 0.0
    assert psi[1].tobytes() == np.linalg.lstsq(a[1], rhs[1], rcond=None)[0].tobytes()
    for i in (0, 2):
        assert psi[i].tobytes() == _solve_sites(a[i], rhs[i], strict=False)[0].tobytes()
        assert np.isnan(sigma_min[i])


def test_oracle_equivalence_fixed_config():
    """Green's-function solver against the truncated-strip solver."""
    config = LatticeConfig(
        2,
        (Defect(0, 0, -1.5), Defect(1, 0, -1.5)),
        (Pendant(0, 0.5, 0.3),),
    )
    sol = solve_scattering(SpectralPoint(0.1, 0.9), config)
    refl, trans, _ = strip_solve(
        0.1, 0.9, 2, config.xs, config.zs, config.ds,
        [(p.host, p.mu, p.g) for p in config.pendants], z_max=200,
    )
    assert abs(sol.reflection - refl) < 1e-5
    assert abs(sol.transmission - trans) < 1e-5


def test_site_field_matches_strip():
    config = LatticeConfig(2, (Defect(0, 0, -1.5), Defect(1, 0, -1.5)))
    sol = solve_scattering(SpectralPoint(0.1, 0.9), config)
    _, _, field = strip_solve(0.1, 0.9, 2, config.xs, config.zs, config.ds,
                              [], z_max=200)
    for j, df in enumerate(config.defects):
        assert abs(sol.psi[j] - field[(df.x, df.z)]) < 1e-6


def test_transmission_modulus_even_in_kappa():
    rng = np.random.default_rng(7)
    for _ in range(8):
        config = random_lossless_config(rng)
        point = random_regime_point(rng, config)
        sol_p = solve_scattering(point, config, strict=False)
        sol_m = solve_scattering(
            SpectralPoint(-point.kappa, point.omega), config, strict=False
        )
        assert abs(abs(sol_p.transmission) - abs(sol_m.transmission)) < 1e-12
        # the reflection amplitude is kappa-even as a complex number
        assert abs(sol_p.reflection - sol_m.reflection) < 1e-12


class TestEigenBranch:
    def test_identity_matrix(self):
        ell, vec = eigen_branch(SpectralPoint(0.1, 0.9), EMPTY)
        assert abs(ell - 1.0) < 1e-14
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-14

    def test_zero_at_mode(self, case2_config, case2_mode):
        ell, _ = eigen_branch(
            SpectralPoint(case2_mode.kappa0, case2_mode.omega0), case2_config
        )
        assert abs(ell) < 1e-9

    def test_continuity_along_path(self, case2_config):
        kappas = np.linspace(-0.2, 0.2, 100)
        omega = 1.35
        ells = []
        vec = None
        for k in kappas:
            ell, vec = eigen_branch(SpectralPoint(k, omega), case2_config, vec)
            ells.append(ell)
        steps = np.abs(np.diff(ells)) / (kappas[1] - kappas[0])
        bound = np.percentile(steps, 90)
        assert np.max(steps) < 10.0 * bound, "branch jump detected"

    def test_anchor_tracks_through_modulus_crossing(self, case2_config):
        # follow the branch even where it is not the smallest eigenvalue
        point = SpectralPoint(0.0, 1.35)
        _, vec = eigen_branch(point, case2_config)
        ell2, vec2 = eigen_branch(SpectralPoint(0.0, 1.36), case2_config, vec)
        assert abs(np.vdot(vec, vec2)) > 0.9


class TestCoefficientTriple:
    def test_energy_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            config = random_lossless_config(rng)
            point = random_regime_point(rng, config)
            trip = coefficient_triple(point, config)
            lhs = abs(trip.eigval) ** 2
            rhs = abs(trip.refl) ** 2 + abs(trip.trans) ** 2
            assert abs(lhs - rhs) < 1e-10 * max(lhs, 1e-300)

    def test_common_root_at_mode(self, case2_config, case2_mode):
        point = SpectralPoint(case2_mode.kappa0, case2_mode.omega0)
        trip = coefficient_triple(point, case2_config, case2_mode.nullvector)
        assert abs(trip.eigval) < 1e-8
        assert abs(trip.refl) < 1e-8
        assert abs(trip.trans) < 1e-8

    def test_scaled_amplitudes_analytic_near_mode(self, case2_config, case2_mode):
        """Degree-4 polydisc fit of the scaled amplitudes near the mode."""
        k0, om0 = case2_mode.kappa0, case2_mode.omega0
        r = 0.008
        offs = np.array([-0.9, -0.45, 0.1, 0.55, 0.95])
        pts = [(k0 + r * a, om0 + r * b + 1j * r * 0.2 * a)
               for a in offs for b in offs]
        vals_a, vals_b = [], []
        for k, om in pts:
            trip = coefficient_triple(SpectralPoint(k, om), case2_config,
                                      case2_mode.nullvector)
            vals_a.append(trip.refl)
            vals_b.append(trip.trans)
        design = np.array([
            [(k - k0) ** i * (om - om0) ** j
             for i in range(5) for j in range(5 - i)]
            for k, om in pts
        ])
        for vals in (np.array(vals_a), np.array(vals_b)):
            coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
            resid = np.max(np.abs(design @ coef - vals))
            assert resid < 1e-6 * np.max(np.abs(vals))


class TestFieldEnhancement:
    def test_empty_scatterer_unity(self):
        point = SpectralPoint(0.1, 0.9)
        sol = solve_scattering(point, EMPTY, strict=False)
        assert abs(peak_field(point, EMPTY, sol.psi) - 1.0) < 1e-12

    def test_finite_at_mode(self, case2_config, case2_mode):
        point = SpectralPoint(case2_mode.kappa0, case2_mode.omega0)
        sol = solve_scattering(point, case2_config, strict=False)
        val = peak_field(point, case2_config, sol.psi)
        assert np.isfinite(val)
        assert val < 50.0

    def test_includes_pendant_sites(self):
        # pendant near its resonance carries a larger field than its host
        config = LatticeConfig(
            2, (Defect(0, 0, -1.0),), (Pendant(0, 0.95, 0.2),)
        )
        point = SpectralPoint(0.1, 1.0)
        sol = solve_scattering(point, config)
        enh = peak_field(point, config,
                         solve_scattering(point, config, strict=False).psi)
        assert enh > np.max(np.abs(sol.psi))


def test_branch_collision_on_ambiguous_anchor(case1_seed_config):
    from slabresonance.errors import BranchCollisionError

    point = SpectralPoint(0.1, 1.2)
    probe = ambiguous_anchor(point, case1_seed_config)
    with pytest.raises(BranchCollisionError):
        eigen_branch(point, case1_seed_config, probe)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("point", [
    SpectralPoint(0.02, np.array([1.41, 1.42])),
    SpectralPoint(np.array([0.02, 0.03]), 1.41),
], ids=["omega-array", "kappa-array"])
def test_solve_scattering_refuses_arrays(case2_config, point, strict):
    """One point only: a grid is solve_grid's, and an array entry is refused
    before any work, not met as a TypeError at the end."""
    with pytest.raises(ValueError, match="solve_grid"):
        solve_scattering(point, case2_config, strict=strict)
